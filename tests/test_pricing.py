"""Leader-side machinery: asymptote prices, revenue search, heuristic updates."""

import ast
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtogame import (
    LearnerConfig,
    PriceSearchConfig,
    algorithm2_price_step,
    asymptote_price,
    best_response,
    cutoff_price,
    leader_revenue,
    pricing,
    run_algorithm1,
    run_algorithm2,
    se_price_search,
    solve_equilibria,
    zero_price_equilibrium,
)
from femtogame.discrete import PowerLawSchedule, default_action_sets, expected_follower_payoff, expected_powers
from femtogame.network import sinr_macro
from femtogame.experiments import continuous_sweep_rows, sweep_grid
from femtogame.payoff import efficiencies, follower_payoff

from conftest import hand_net, make_net, traced_peak


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


def test_zero_price_equilibrium_solves_once_per_network_and_tol(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_equilibria(*args, **kwargs)

    monkeypatch.setattr(pricing, "solve_equilibria", counted)
    net = make_net(5, seed=3)
    first = zero_price_equilibrium(net)
    again = zero_price_equilibrium(net)
    assert len(calls) == 1
    assert np.array_equal(again.profile, first.profile)
    assert (again.converged, again.rounds) == (first.converged, first.rounds)
    zero_price_equilibrium(net, tol=1e-9)  # another tol is another key
    assert len(calls) == 2
    equal = make_net(5, seed=3)  # equal arrays, another object: keyed on identity
    assert np.array_equal(equal.gain, net.gain)
    assert np.array_equal(zero_price_equilibrium(equal).profile, first.profile)
    assert len(calls) == 3
    zero_price_equilibrium(net)  # one slot: the last call evicted net
    assert len(calls) == 4


def test_zero_price_equilibrium_returns_copies_of_its_arrays():
    net = make_net(4, seed=2)
    first = zero_price_equilibrium(net)
    expected_profile = first.profile.copy()
    first.profile[:] = -1.0
    again = zero_price_equilibrium(net)
    assert np.array_equal(again.profile, expected_profile)
    assert again.profile is not first.profile


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


@pytest.mark.parametrize("profile", [[0.01], [-1.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [[[0.0, 0.0, 0.0]]]])
@pytest.mark.parametrize("price", [asymptote_price, cutoff_price])
def test_price_formulas_refuse_a_profile_that_is_not_a_power_profile(net3, price, profile):
    # A (1,) profile used to spread over all three links and p* = -1 W to give a negative asymptote price
    with pytest.raises(ValueError, match="power profile"):
        price(net3, np.array(profile))


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
        init = run_algorithm1(net, np.array([[x]]), init=init, tol=1e-7).profiles[0]
        best = max(best, leader_revenue(net, init, np.array([x])))
    assert res.revenue >= best * (1 - 1e-3)


def test_search_is_deterministic(net3):
    a = se_price_search(net3, PriceSearchConfig(grid_count=25))
    b = se_price_search(net3, PriceSearchConfig(grid_count=25))
    assert np.array_equal(a.prices, b.prices)
    assert a.revenue == b.revenue


def test_search_flags_boundary_when_grid_stops_short(net3):
    # A two-point grid has no interior point, so its argmax sits on an endpoint.
    res = se_price_search(net3, PriceSearchConfig(grid_count=2))
    assert res.boundary_max


def test_search_reaches_the_interior_peak_past_the_asymptote_range():
    # Default K = 2 topology 7: the revenue peak lies above 1e3 * max lambda^a,
    # where a grid bounded by the asymptote prices stops short of it.
    net = make_net(2, seed=7)
    res = se_price_search(net, PriceSearchConfig(grid_count=24))
    assert not res.boundary_max
    sweep_best = max(row[1] for row in continuous_sweep_rows(net, sweep_grid(net, 40)))
    assert res.revenue >= sweep_best


def test_search_shortfall_on_two_near_equal_peaks_stays_pinned():
    # Default K = 4 topology 8: the revenue curve has two near-equal peaks and
    # the 24-point first grid zooms in on the lower one, 1.49 % short of the
    # 40-point sweep's best. Pinned so the shortfall cannot grow unnoticed.
    net = make_net(4, seed=8)
    res = se_price_search(net, PriceSearchConfig(grid_count=24))
    sweep_best = max(row[1] for row in continuous_sweep_rows(net, sweep_grid(net, 40)))
    assert res.revenue >= 0.985 * sweep_best


def test_search_equilibrium_beats_a_ten_percent_power_cut():
    # Default K = 6 topology 0: at the revenue peak one follower sends about
    # 6.7e-5 W. Cutting any active follower's power by 10 %, or moving it by
    # 0.1 %, must lower its own payoff.
    net = make_net(6, seed=0)
    res = se_price_search(net)
    p = res.equilibrium
    assert (p > 0).any()
    for k in np.flatnonzero(p > 0):
        at_eq = follower_payoff(net, k + 1, p, res.prices)
        for factor in (0.9, 0.999, 1.001):
            moved = p.copy()
            moved[k] *= factor
            assert follower_payoff(net, k + 1, moved, res.prices) < at_eq


def test_search_grid_is_the_sweep_grid(net3):
    # Both solve the first grid from the zero-price profile, so the search's grid revenues are the sweep's.
    res = se_price_search(net3, PriceSearchConfig(grid_count=25))
    assert np.array_equal(res.grid_revenues, [row[1] for row in continuous_sweep_rows(net3, sweep_grid(net3, 25))])


@settings(max_examples=40, deadline=None)
@given(
    K=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from(["uniform-price", "per-link"]),
)
def test_search_returns_a_nash_point_at_least_as_good_as_its_grid(K, seed, mode):
    net = make_net(K, seed=seed)
    cfg = PriceSearchConfig(mode=mode, grid_count=12)
    res = se_price_search(net, cfg)
    assert res.all_converged
    assert res.revenue >= res.grid_revenues.max()
    assert res.revenue == leader_revenue(net, res.equilibrium, res.prices)
    for k in range(1, K + 1):
        assert abs(best_response(net, k, res.equilibrium, res.prices) - res.equilibrium[k - 1]) <= 1e-7
    again = se_price_search(net, cfg)
    for field in ("prices", "equilibrium", "grid_revenues"):
        assert np.array_equal(getattr(res, field), getattr(again, field))
    assert res.revenue == again.revenue


def test_search_per_link_mode_scales_asymptote_prices(net3):
    res = se_price_search(net3, PriceSearchConfig(mode="per-link", grid_count=25))
    zp = zero_price_equilibrium(net3)
    lam_a = asymptote_price(net3, zp.profile)
    multiplier = res.prices / lam_a
    assert np.allclose(multiplier, multiplier[0], rtol=1e-12)


def test_revenue_zero_at_zero_price_and_past_all_cutoffs(net3):
    zp = zero_price_equilibrium(net3)
    assert leader_revenue(net3, zp.profile, np.zeros(3)) == 0.0
    cut = cutoff_price(net3, np.zeros(3)).max()
    rep = run_algorithm1(net3, np.full((1, 3), 10 * cut), init=np.zeros(3))
    assert rep.converged[0]
    assert np.array_equal(rep.profiles[0], np.zeros(3))


def test_price_search_config_validation():
    with pytest.raises(ValueError):
        PriceSearchConfig(mode="exhaustive")
    with pytest.raises(ValueError):
        PriceSearchConfig(grid_count=1)


def test_learner_run_warns_on_broken_step_sizes():
    net = make_net(2, seed=0)
    acts = default_action_sets(net, 3)
    with pytest.warns(RuntimeWarning, match="alpha2_sum_diverges") as record:
        LearnerConfig(max_iters=5).run(net, acts, np.zeros(2))
    with pytest.warns(RuntimeWarning, match="alpha2_sum_diverges") as record_alg2:
        run_algorithm2(net, acts, LearnerConfig(max_iters=5), max_outer=0)
    assert [w.filename for w in (*record, *record_alg2)] == [__file__, __file__]  # the caller's line, not ours
    adapting = LearnerConfig(alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule(c=1.0), max_iters=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        adapting.run(net, acts, np.zeros(2))
        run_algorithm2(net, acts, adapting, max_outer=0)


def test_price_step_degenerate_strategy_hand_value():
    net = toy_net()
    acts = np.array([[0.0, 0.02, 0.05]])
    pi = np.array([[0.0, 0.0, 1.0]])
    prices, flagged = algorithm2_price_step(net, acts, pi)
    want = efficiencies(net, np.array([0.05]))[0] / (net.gain[1, 0] * 0.05)
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
    acts = np.array([[0.0, 0.02, 0.05]])
    prices, flagged = algorithm2_price_step(net, acts, np.array([[1.0, 0.0, 0.0]]))
    assert prices[0] == 0.0
    assert flagged[0]


@pytest.mark.parametrize(
    "kwargs",
    [{"max_outer": -3}, {"mu_sinr_threshold": np.nan}, {"mu_sinr_threshold": 0.0}, {"mu_sinr_threshold": -1.0}],
)
def test_algorithm2_refuses_unusable_targets_and_loop_bounds(net3, kwargs):
    # The target is the network's own, which refuses a NaN or non-positive threshold before any run.
    match = "max_outer >= 0" if "max_outer" in kwargs else "mu_sinr_threshold must be positive"
    with pytest.raises(ValueError, match=match):
        net = replace(net3, mu_sinr_threshold=kwargs.get("mu_sinr_threshold", net3.mu_sinr_threshold))
        max_outer = kwargs.get("max_outer", 20)
        run_algorithm2(net, default_action_sets(net, 3), LearnerConfig(max_iters=50), max_outer=max_outer)


def test_algorithm2_stops_immediately_when_target_already_met(net6):
    acts = default_action_sets(net6, 4)
    res = run_algorithm2(replace(net6, mu_sinr_threshold=1e-12), acts, LearnerConfig(max_iters=400))
    assert res.converged
    assert res.outer_iterations == 0
    assert np.array_equal(res.prices, np.zeros(6))
    assert len(res.trace) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_algorithm2_price_step_rejects_non_finite_strategies(net6, bad):
    acts = default_action_sets(net6, 3)
    pis = np.full((6, 3), 1 / 3)
    pis[4] = [bad, 0.5, 0.5]
    with pytest.raises(ValueError, match="finite"):
        algorithm2_price_step(net6, acts, pis)
    with pytest.raises(ValueError, match="finite"):
        algorithm2_price_step(net6, acts, np.full((6, 3), np.nan))


@pytest.mark.parametrize("shape", [(5, 3), (6, 2)])
def test_algorithm2_price_step_rejects_strategies_that_do_not_fit(net6, shape):
    with pytest.raises(ValueError, match="strateg"):
        algorithm2_price_step(net6, default_action_sets(net6, 3), np.full(shape, 1 / shape[1]))


def test_algorithm2_price_step_raises_macro_sinr():
    net = make_net(2, seed=3)
    acts = default_action_sets(net, 4)
    res = run_algorithm2(replace(net, mu_sinr_threshold=20.0), acts, LearnerConfig(max_iters=600), max_outer=8)
    mu = [float(row[3]) for row in res.trace]
    rev = [float(row[4]) for row in res.trace]
    assert mu[1] > mu[0]  # first pricing round pushes interference down
    assert rev[0] == 0.0 and all(r > 0 for r in rev[1:])
    assert len(res.trace) == res.outer_iterations + 1
    if not res.converged:
        assert res.outer_iterations == 8


def test_algorithm2_is_deterministic(net3):
    acts = default_action_sets(net3, 4)
    net = replace(net3, mu_sinr_threshold=1e6)
    a = run_algorithm2(net, acts, LearnerConfig(max_iters=300), max_outer=3)
    b = run_algorithm2(net, acts, LearnerConfig(max_iters=300), max_outer=3)
    assert np.array_equal(a.prices, b.prices)
    assert np.array_equal(a.strategies, b.strategies)


def _reference_algorithm2(net, action_sets, learner, max_outer=20):
    """The outer loop with one full ``LearnerConfig.run`` per outer iteration, kept as the bit reference."""
    prices = np.zeros(net.num_followers)
    flagged = np.zeros(net.num_followers, dtype=bool)
    trace = []
    outer = 0
    while True:
        strategies = replace(learner, rng_seed=learner.rng_seed + outer).run(net, action_sets, prices).strategies
        mean_p = expected_powers(action_sets, strategies)
        mu_sinr = sinr_macro(net, mean_p)
        trace.append((outer, prices.copy(), mean_p, mu_sinr, leader_revenue(net, mean_p, prices)))
        converged = bool(mu_sinr >= net.mu_sinr_threshold)
        if converged or outer >= max_outer:
            break
        prices, flagged = algorithm2_price_step(net, action_sets, strategies)
        outer += 1
    return prices, strategies, trace, outer, converged, flagged


_ADAPTING = LearnerConfig(alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule(c=1.0))


@pytest.mark.filterwarnings("ignore:step sizes fail the two-timescale conditions")
@pytest.mark.parametrize(
    "learner", [LearnerConfig(), replace(_ADAPTING, max_iters=2000)], ids=["stock", "adapting-2000"]
)
@pytest.mark.parametrize("K", [2, 4, 6])
def test_algorithm2_is_bit_equal_to_one_full_learning_run_per_outer_iteration(K, learner):
    # The learning runs keep only a window of strategies; their convergence decisions, and so every bit, must not move.
    for topology in range(8):
        net = make_net(K, seed=topology)
        acts = default_action_sets(net, 6)
        seeded = replace(learner, rng_seed=topology)
        got = run_algorithm2(net, acts, learner=seeded)
        prices, strategies, trace, outer, converged, flagged = _reference_algorithm2(net, acts, seeded)
        assert (got.outer_iterations, got.converged) == (outer, converged)
        for mine, ref in ((got.prices, prices), (got.strategies, strategies), (got.flagged, flagged)):
            assert np.array_equal(mine, ref)
        assert len(got.trace) == len(trace)
        assert all(np.array_equal(a, b) for mine, ref in zip(got.trace, trace) for a, b in zip(mine, ref))


def test_algorithm2_holds_a_window_of_strategies_not_whole_traces():
    # K = 6, topology 4, the adapting learner: four learning runs of up to 10 000 slots. A 2.9 MB trace per run,
    # its copy and a full-size product peaked at 8.1 MB; a 50-slot ring keeps the peak near 0.24 MB.
    net = make_net(6, seed=4)
    acts = default_action_sets(net, 6)
    learner = replace(_ADAPTING, rng_seed=4)
    run_algorithm2(net, acts, learner=learner, max_outer=0)  # first-call allocations stay out of the count
    results = []
    peak = traced_peak(lambda: results.append(run_algorithm2(net, acts, learner=learner, max_outer=3)))
    assert results[0].outer_iterations == 3
    assert peak <= 1_000_000


def test_pricing_imports_no_private_learning_name():
    # The learner's slot loop and ring are discrete.py's to change; pricing.py reaches them only through LearnerConfig.
    source = Path(__file__).resolve().parents[1] / "src" / "femtogame" / "pricing.py"
    private = [
        alias.name
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "discrete"
        for alias in node.names
        if alias.name.startswith("_") and alias.name != "_expected_payoffs"
    ]
    assert private == []
