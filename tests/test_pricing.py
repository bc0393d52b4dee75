"""Leader-side machinery: asymptote prices, revenue search, heuristic updates."""

import numpy as np
import pytest

from femtogame import (
    LearnerConfig,
    PriceSearchConfig,
    algorithm2_price_step,
    asymptote_price,
    best_response,
    cutoff_price,
    leader_revenue,
    run_algorithm1,
    run_algorithm2,
    se_price_search,
    zero_price_equilibrium,
)
from femtogame.discrete import ActionSet, default_action_sets, expected_follower_payoff
from femtogame.payoff import efficiency

from conftest import hand_net, make_net


def toy_net():
    return hand_net(
        gain=[[1.0, 0.5], [0.25, 2.0]],
        noise=[0.1, 0.3],
        mu_power=1.0,
        circuit_power=0.5,
        bandwidth=1.0,
        power_max=[5.0],
    )


def test_zero_price_profile_satisfies_interior_first_order_condition():
    # At an interior unpriced fixed point, (1+g)ln(1+g) - g == G*p_a exactly,
    # a bandwidth-free identity checked without reusing the gradient code.
    for seed in range(6):
        net = make_net(6, seed=seed)
        zp = zero_price_equilibrium(net)
        assert zp.converged
        p = zp.profile
        assert (p > 0).all() and (p < np.asarray(net.power_max) * 0.999999).all()
        for k in range(1, 7):
            denom = net.noise[k] + net.gain[0, k] * net.mu_power + sum(
                net.gain[j, k] * p[j - 1] for j in range(1, 7) if j != k
            )
            G = net.gain[k, k] / denom
            g = G * p[k - 1]
            residual = (1 + g) * np.log1p(g) - g - G * net.circuit_power
            assert abs(residual) / g < 1e-4


def test_asymptote_price_closed_form():
    net = hand_net(
        gain=[[1.0, 1e-7], [2e-6, 1e-5]],
        noise=[1e-7, 1e-7],
        mu_power=1.0,
        circuit_power=0.01,
        bandwidth=1e6,
        power_max=[0.1],
    )
    # base = 1e-7 + 1e-7*1 = 2e-7, p*+p_a = 0.05 -> 1e6 / 1e-8
    lam = asymptote_price(net, np.array([0.04]))
    assert lam[0] == pytest.approx(1e14, rel=1e-12)


def test_asymptote_price_inverts_the_high_price_branch(net6):
    zp = zero_price_equilibrium(net6)
    lam = asymptote_price(net6, zp.profile)
    base = np.array([net6.noise[k] + net6.gain[0, k] * net6.mu_power for k in range(1, 7)])
    p_hat = net6.bandwidth / (lam * base) - net6.circuit_power
    assert np.allclose(p_hat, zp.profile, rtol=1e-12, atol=0.0)


def test_cutoff_price_hand_value():
    net = toy_net()
    # G = 2 / (0.3 + 0.5) = 2.5; cutoff = 1 * 2.5 / (0.5 * 0.25) = 20
    assert cutoff_price(net, np.zeros(1))[0] == pytest.approx(20.0, rel=1e-12)


def test_best_response_drops_out_exactly_past_cutoff():
    net = toy_net()
    co = cutoff_price(net, np.zeros(1))[0]
    assert best_response(net, 1, np.zeros(1), np.array([0.95 * co])) > 0.0
    assert best_response(net, 1, np.zeros(1), np.array([1.05 * co])) == 0.0


def test_search_beats_dense_scan_to_relative_tolerance():
    net = make_net(1, seed=4)
    res = se_price_search(net, PriceSearchConfig(grid_count=40))
    assert not res.boundary_max
    assert res.all_converged

    zp = zero_price_equilibrium(net)
    lam_a = asymptote_price(net, zp.profile)
    dense = np.geomspace(1e-3 * lam_a.min(), 1e3 * lam_a.max(), 3000)
    best, init = -np.inf, zp.profile
    for x in dense:
        rep = run_algorithm1(net, np.array([x]), init=init, tol=1e-7)
        init = rep.final_profile
        best = max(best, leader_revenue(net, rep.final_profile, np.array([x])))
    assert res.revenue >= best * (1 - 1e-3)


def test_search_is_deterministic(net3):
    a = se_price_search(net3, PriceSearchConfig(grid_count=25))
    b = se_price_search(net3, PriceSearchConfig(grid_count=25))
    assert np.array_equal(a.prices, b.prices)
    assert a.revenue == b.revenue


def test_search_flags_boundary_when_grid_stops_short(net3):
    zp = zero_price_equilibrium(net3)
    lam_a = float(asymptote_price(net3, zp.profile).min())
    res = se_price_search(
        net3,
        PriceSearchConfig(grid_min=1e-6 * lam_a, grid_max=1e-4 * lam_a, grid_count=10),
    )
    assert res.boundary_max


def test_search_per_link_mode_scales_asymptote_prices(net3):
    res = se_price_search(net3, PriceSearchConfig(mode="per-link", grid_count=25))
    zp = zero_price_equilibrium(net3)
    lam_a = asymptote_price(net3, zp.profile)
    assert res.multiplier is not None
    assert np.allclose(res.prices, res.multiplier * lam_a, rtol=1e-12)


def test_revenue_zero_at_zero_price_and_past_all_cutoffs(net3):
    zp = zero_price_equilibrium(net3)
    assert leader_revenue(net3, zp.profile, np.zeros(3)) == 0.0
    cut = cutoff_price(net3, np.zeros(3)).max()
    rep = run_algorithm1(net3, np.full(3, 10 * cut), init=np.zeros(3))
    assert rep.converged
    assert np.array_equal(rep.final_profile, np.zeros(3))


def test_price_search_config_validation():
    with pytest.raises(ValueError):
        PriceSearchConfig(mode="exhaustive")
    with pytest.raises(ValueError):
        PriceSearchConfig(grid_count=1)
    with pytest.raises(ValueError):
        PriceSearchConfig(grid_min=0.0)
    with pytest.raises(ValueError):
        PriceSearchConfig(grid_min=2.0, grid_max=1.0)


def test_price_step_degenerate_strategy_hand_value():
    net = toy_net()
    acts = [ActionSet(powers=np.array([0.0, 0.02, 0.05]))]
    pi = np.array([[0.0, 0.0, 1.0]])
    prices, flagged = algorithm2_price_step(net, acts, pi)
    want = efficiency(net, 1, np.array([0.05])) / (net.gain[1, 0] * 0.05)
    assert prices[0] == pytest.approx(want, rel=1e-12)
    assert not flagged.any()


def test_price_step_zeroes_expected_payoff():
    rng = np.random.default_rng(3)
    net = make_net(3, seed=8)
    acts = default_action_sets(net, 4)
    pi = rng.dirichlet(np.ones(4), size=3)
    prices, flagged = algorithm2_price_step(net, acts, pi)
    assert not flagged.any()
    for k in (1, 2, 3):
        u = expected_follower_payoff(net, k, acts, pi, prices)
        psi = expected_follower_payoff(net, k, acts, pi, np.zeros(3))
        assert abs(u) <= 1e-12 * psi


def test_price_step_flags_all_mass_on_zero():
    net = toy_net()
    acts = [ActionSet(powers=np.array([0.0, 0.02, 0.05]))]
    prices, flagged = algorithm2_price_step(net, acts, np.array([[1.0, 0.0, 0.0]]))
    assert prices[0] == 0.0
    assert flagged[0]


def test_algorithm2_stops_immediately_when_target_already_met(net6):
    acts = default_action_sets(net6, 4)
    res = run_algorithm2(net6, acts, LearnerConfig(max_iters=400), sinr_threshold=1e-12)
    assert res.converged
    assert res.outer_iterations == 0
    assert np.array_equal(res.prices, np.zeros(6))
    assert len(res.trace) == 1


def test_algorithm2_price_step_raises_macro_sinr():
    net = make_net(2, seed=3)
    acts = default_action_sets(net, 4)
    res = run_algorithm2(net, acts, LearnerConfig(max_iters=600), sinr_threshold=20.0, max_outer=8)
    mu = [float(row[3]) for row in res.trace]
    rev = [float(row[4]) for row in res.trace]
    assert mu[1] > mu[0]  # first pricing round pushes interference down
    assert rev[0] == 0.0 and all(r > 0 for r in rev[1:])
    assert len(res.trace) == res.outer_iterations + 1
    if not res.converged:
        assert res.outer_iterations == 8


def test_algorithm2_is_deterministic(net3):
    acts = default_action_sets(net3, 4)
    a = run_algorithm2(net3, acts, LearnerConfig(max_iters=300), sinr_threshold=1e6, max_outer=3)
    b = run_algorithm2(net3, acts, LearnerConfig(max_iters=300), sinr_threshold=1e6, max_outer=3)
    assert np.array_equal(a.prices, b.prices)
    assert np.array_equal(a.strategies, b.strategies)
