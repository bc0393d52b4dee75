"""Topology generation, channel gains, unit conversion, and SINR formulas."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from femtogame import (
    NetworkInstance,
    TopologyConfig,
    cli,
    dbm_to_watts,
    default_constants,
    default_topology,
    follower_sinr,
    generate_topology,
    sinr_macro,
    watts_to_dbm,
)

from conftest import hand_net, make_net


def test_dbm_reference_points():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watts(-40.0) == pytest.approx(1e-7, rel=1e-15)
    # 27 dBm = 10^2.7 mW
    assert dbm_to_watts(27.0) == pytest.approx(0.5011872336272722, rel=1e-14)


@given(st.floats(min_value=1e-12, max_value=1e3))
def test_dbm_round_trip(watts):
    assert dbm_to_watts(watts_to_dbm(watts)) == pytest.approx(watts, rel=1e-12)


def test_watts_to_dbm_rejects_nonpositive():
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)
    with pytest.raises(ValueError, match="nan"):
        watts_to_dbm(math.nan)


@pytest.mark.parametrize(
    "field, value",
    [
        ("shadowing_sigma_db", -3.0),
        ("shadowing_sigma_db", math.nan),
        ("shadowing_sigma_db", math.inf),
        ("macro_radius", math.nan),
        ("femto_user_radius", math.inf),
        ("pathloss_exponent_fu", math.nan),
        ("pathloss_exponent_mu", -math.inf),
        ("min_distance", math.nan),
        ("min_distance", 0.0),
    ],
)
def test_topology_config_refuses_unusable_values(tmp_path, field, value):
    with pytest.raises(ValueError, match=field):
        TopologyConfig(**{field: value})
    scenario = tmp_path / "scenario.json"
    key = field + "_m" if field in ("macro_radius", "femto_user_radius", "min_distance") else field
    scenario.write_text(json.dumps({"topology": {key: value}}))  # NaN and Infinity literals, as Python reads them
    assert cli.main(["generate", "--config", str(scenario), "--out", str(tmp_path / "net.json")]) == cli.EXIT_BAD_INPUT
    assert not (tmp_path / "net.json").exists()


def test_seed_determinism():
    a = make_net(6, seed=7)
    b = make_net(6, seed=7)
    assert np.array_equal(a.gain, b.gain)
    assert a.positions == b.positions
    c = make_net(6, seed=8)
    assert not np.array_equal(a.gain, c.gain)


def test_min_distance_clamp_gives_unit_gain():
    # FU dropped essentially on top of its FAP: distance clamps to 1 m and
    # the intra-femto exponent 4 gives gain exactly 1.
    cfg = replace(default_topology(), femto_user_radius=1e-6, rng_seed=3)
    net = generate_topology(cfg, 2, **default_constants())
    assert net.gain[1, 1] == 1.0
    assert net.gain[2, 2] == 1.0


def test_gains_match_positions_and_exponents():
    cfg = default_topology()
    net = make_net(4, seed=11)
    tx = np.vstack([net.positions["mu"], net.positions["fus"]])
    rx = np.vstack([net.positions["mbs"], net.positions["faps"]])
    for i in range(5):
        for j in range(5):
            d = max(np.linalg.norm(tx[i] - rx[j]), cfg.min_distance)
            expo = cfg.pathloss_exponent_fu if (i > 0 and j > 0) else cfg.pathloss_exponent_mu
            assert net.gain[i, j] == pytest.approx(d**-expo, rel=1e-12)


@pytest.mark.parametrize("sigma", [3.0, 8.0])
def test_shadowing_spread_matches_sigma(sigma):
    # Shadowing is drawn after the node drop, so a seed places the same nodes
    # with and without it, and gain / pathloss is the lognormal factor alone.
    K = 40
    plain = generate_topology(replace(default_topology(), rng_seed=5), K, **default_constants())
    cfg = replace(default_topology(), rng_seed=5, shadowing_sigma_db=sigma)
    shadowed = generate_topology(cfg, K, **default_constants())
    assert shadowed.positions == plain.positions
    db = 10.0 * np.log10(shadowed.gain / plain.gain).ravel()
    n = db.size
    # Four standard errors of the sample mean and of the sample deviation.
    assert abs(db.mean()) <= 4.0 * sigma / np.sqrt(n)
    assert abs(db.std(ddof=1) - sigma) <= 4.0 * sigma / np.sqrt(2.0 * (n - 1))


def test_zero_shadowing_is_exactly_pathloss():
    cfg = replace(default_topology(), rng_seed=5, shadowing_sigma_db=0.0)
    net = generate_topology(cfg, 40, **default_constants())
    tx = np.vstack([net.positions["mu"], net.positions["fus"]])
    rx = np.vstack([net.positions["mbs"], net.positions["faps"]])
    diff = tx[:, None, :] - rx[None, :, :]
    dist = np.maximum(np.sqrt((diff**2).sum(axis=2)), cfg.min_distance)
    expo = np.full(dist.shape, cfg.pathloss_exponent_fu)
    expo[0, :] = expo[:, 0] = cfg.pathloss_exponent_mu
    assert np.array_equal(net.gain, dist**-expo)


def test_positions_inside_their_discs():
    cfg = default_topology()
    for seed in range(5):
        net = make_net(6, seed=seed)
        mu = np.asarray(net.positions["mu"])
        faps = np.asarray(net.positions["faps"])
        fus = np.asarray(net.positions["fus"])
        assert np.linalg.norm(mu) <= cfg.macro_radius
        assert (np.linalg.norm(faps, axis=1) <= cfg.macro_radius).all()
        assert (np.linalg.norm(fus - faps, axis=1) <= cfg.femto_user_radius).all()


def test_sinr_macro_no_interference():
    net = hand_net(gain=[[1.0, 0.1], [0.2, 1.0]], noise=[0.1, 0.1], mu_power=0.5)
    assert sinr_macro(net, np.zeros(1)) == pytest.approx(5.0, rel=1e-15)


def test_sinr_macro_one_interferer():
    net = hand_net(gain=[[2.0, 0.1], [0.5, 1.0]], noise=[0.5, 0.1], mu_power=1.0)
    assert sinr_macro(net, np.array([1.0])) == pytest.approx(2.0, rel=1e-15)


def test_sinr_macro_decreases_with_follower_power(net6):
    p = np.full(6, 0.01)
    assert sinr_macro(net6, 2 * p) < sinr_macro(net6, p)


def test_sinr_follower_zero_power_is_zero(hand2):
    assert follower_sinr(hand2, np.array([0.0, 0.3]))[0] == 0.0


def test_sinr_follower_single_link_value():
    net = hand_net(gain=[[1.0, 1e-3], [0.7, 1.0]], noise=[1e-7, 1e-7], mu_power=0.1)
    got = follower_sinr(net, np.array([0.1]))[0]
    assert got == pytest.approx(0.1 / (1e-7 + 1e-4), rel=1e-12)


def test_sinr_follower_hand_values(hand2):
    p = np.array([0.5, 0.25])
    # gamma_1 = 5*0.5 / (0.2 + 0.5*1 + 0.3*0.25)
    assert follower_sinr(hand2, p)[0] == pytest.approx(2.5 / 0.775, rel=1e-12)
    # gamma_2 = 4*0.25 / (0.3 + 0.3*1 + 0.2*0.5)
    assert follower_sinr(hand2, p)[1] == pytest.approx(1.0 / 0.7, rel=1e-12)


def test_sinr_scale_invariance():
    gain = [[1.0, 0.3], [0.6, 2.0]]
    base = hand_net(gain=gain, noise=[0.2, 0.4], mu_power=0.8)
    scaled = hand_net(gain=gain, noise=[0.2 * 7, 0.4 * 7], mu_power=0.8 * 7, power_max=[7.0])
    p = np.array([0.33])
    assert follower_sinr(scaled, 7 * p)[0] == pytest.approx(
        follower_sinr(base, p)[0], rel=1e-12
    )
    assert sinr_macro(scaled, 7 * p) == pytest.approx(sinr_macro(base, p), rel=1e-12)


def test_instance_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        hand_net(gain=[[1.0, 0.1], [0.2, 1.0]], noise=[0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        NetworkInstance(
            num_followers=1,
            bandwidth=1.0,
            gain=np.array([[1.0, 0.1], [-0.2, 1.0]]),
            noise=np.array([0.1, 0.1]),
            mu_power=1.0,
            power_max=np.array([1.0]),
            circuit_power=1.0,
            mu_sinr_threshold=1.0,
        )


def test_generate_topology_rejects_zero_followers():
    with pytest.raises(ValueError):
        generate_topology(default_topology(), 0, **default_constants())


def test_arrays_are_read_only(net6):
    with pytest.raises(ValueError):
        net6.gain[0, 0] = 2.0


@pytest.mark.parametrize("bandwidth", [float("nan"), 0.0, -1.0, float("inf")])
def test_instance_rejects_bad_bandwidth(net6, bandwidth):
    with pytest.raises(ValueError, match="bandwidth"):
        replace(net6, bandwidth=bandwidth)
