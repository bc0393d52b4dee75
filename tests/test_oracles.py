"""The brute-force reference routes themselves need a sanity floor."""

import math

import numpy as np
import pytest

from femtogame.discrete import default_action_sets, expected_follower_payoff
from femtogame.oracles import (
    OracleConfig,
    enumerate_expected_payoff,
    finite_difference_cross,
    finite_difference_gradient,
    grid_best_response,
)

from conftest import hand_net, make_net


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(grid_points=10)


def test_fd_gradient_exact_on_affine():
    assert finite_difference_gradient(lambda x: 3.0 * x + 1.0, 2.0, 1e-6) == pytest.approx(
        3.0, rel=1e-9
    )


def test_fd_gradient_quadratic():
    # Central differences are exact on quadratics up to roundoff.
    g = finite_difference_gradient(lambda x: x * x - 4.0 * x, 3.0, 1e-7)
    assert g == pytest.approx(2.0, rel=1e-7)


def test_fd_gradient_uses_floor_at_origin():
    with pytest.raises(ValueError):
        finite_difference_gradient(lambda x: x, 0.0, 1e-6)
    assert finite_difference_gradient(lambda x: x, 0.0, 1e-6, floor=1.0) == pytest.approx(1.0)


def test_fd_cross_on_polynomial():
    # f = x^2 y^3: d2f/dxdy = 6xy^2
    f = lambda x, y: x * x * y**3
    got = finite_difference_cross(f, 2.0, 1.5, 1e-4, 1e-4)
    assert got == pytest.approx(6 * 2.0 * 1.5**2, rel=1e-6)


def test_fd_cross_richardson_kills_truncation():
    # exp(x*y) has strong high-order terms; with crude steps the plain
    # stencil is visibly biased and the extrapolated one is not.
    f = lambda x, y: math.exp(x * y)
    true = (1.0 + 1.0 * 1.0) * math.exp(1.0)  # (1+xy)e^{xy} at (1,1)
    plain = finite_difference_cross(f, 1.0, 1.0, 0.05, 0.05)
    rich = finite_difference_cross(f, 1.0, 1.0, 0.05, 0.05, richardson=True)
    assert abs(rich - true) < abs(plain - true) / 10
    assert rich == pytest.approx(true, rel=1e-4)


def test_fd_cross_requires_usable_steps():
    with pytest.raises(ValueError):
        finite_difference_cross(lambda x, y: x * y, 0.0, 1.0, 1e-3, 1e-3)


def test_grid_best_response_is_a_true_grid_argmax():
    net = make_net(3, seed=6)
    opp = np.array([0.01, 0.02, 0.03])
    lam = np.full(3, 1e12)
    cfg = OracleConfig(grid_points=5001)
    got = grid_best_response(net, 1, opp, lam, cfg)
    grid = np.linspace(0.0, float(net.power_max[0]), 5001)
    utils = []
    from femtogame import follower_payoff

    for p in grid:
        prof = opp.copy()
        prof[0] = p
        utils.append(follower_payoff(net, 1, prof, lam))
    assert got == grid[int(np.argmax(utils))]


def test_grid_best_response_refines_toward_continuum():
    net = make_net(2, seed=9)
    opp = np.array([0.0, 0.01])
    lam = np.full(2, 1e12)
    coarse = grid_best_response(net, 1, opp, lam, OracleConfig(grid_points=1_000))
    fine = grid_best_response(net, 1, opp, lam, OracleConfig(grid_points=1_000_000))
    step = float(net.power_max[0]) / 999
    assert abs(coarse - fine) <= step


def test_grid_best_response_punitive_price_returns_zero(net3):
    assert grid_best_response(net3, 2, np.zeros(3), np.full(3, 1e30)) == 0.0


def test_enumerated_expectation_matches_vectorized_route():
    net = hand_net(
        gain=[[1.0, 0.5, 0.3], [0.4, 5.0, 0.2], [0.1, 0.3, 4.0]],
        noise=[0.1, 0.2, 0.3],
        mu_power=1.0,
        circuit_power=0.5,
        bandwidth=1.0,
    )
    acts = np.array([[0.0, 0.1, 0.25]] * 2)
    pis = [np.array([0.2, 0.5, 0.3]), np.array([0.1, 0.1, 0.8])]
    lam = np.array([0.7, 0.2])
    for k in (1, 2):
        slow = enumerate_expected_payoff(net, k, acts, pis, lam)
        fast = expected_follower_payoff(net, k, acts, pis, lam)
        assert fast == pytest.approx(slow, rel=1e-13)


def test_enumerated_expectation_skips_zero_probability_branches():
    net = hand_net(
        gain=[[1.0, 0.5, 0.3], [0.4, 5.0, 0.2], [0.1, 0.3, 4.0]],
        noise=[0.1, 0.2, 0.3],
        mu_power=1.0,
        circuit_power=0.5,
        bandwidth=1.0,
    )
    acts = np.array([[0.0, 0.1]] * 2)
    pis = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
    from femtogame import follower_payoff

    want = follower_payoff(net, 1, np.array([0.1, 0.0]), np.zeros(2))
    assert enumerate_expected_payoff(net, 1, acts, pis, np.zeros(2)) == pytest.approx(
        want, rel=1e-14
    )


def test_enumeration_cap_applies_to_oracle_too():
    net = make_net(8, seed=0)
    acts = default_action_sets(net, 8)
    pis = [np.full(8, 1 / 8)] * 8
    with pytest.raises(ValueError, match="cap"):
        enumerate_expected_payoff(net, 1, acts, pis, np.zeros(8))
