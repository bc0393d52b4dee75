"""Best response, fixed-point iteration, and the game-structure conditions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from femtogame import (
    best_response,
    run_algorithm1,
    solve_equilibria,
    sufficient_conditions,
)
from femtogame import continuous
from femtogame.continuous import DAMPING, NOISE, _best_responses
from femtogame.experiments import continuous_sweep_rows, sweep_grid
from femtogame.network import interference
from femtogame.oracles import grid_best_response
from femtogame.payoff import own_gradient, own_payoff, own_scaled_gradient, validate_power_profile, validate_prices
from femtogame.pricing import asymptote_price, cutoff_price, zero_price_equilibrium

from conftest import hand_net, make_net


def test_best_response_zero_at_punitive_price(hand2):
    lam = np.array([1e9, 1e9])
    assert best_response(hand2, 1, np.zeros(2), lam) == 0.0
    assert best_response(hand2, 2, np.zeros(2), lam) == 0.0


def test_best_response_hits_ceiling_when_gradient_stays_positive():
    # Strong own link, tiny circuit power: the payoff is still rising at p_max.
    net = hand_net(
        gain=[[1.0, 1e-3], [1e-3, 50.0]],
        noise=[1e-3, 1e-3],
        power_max=[1e-4],
        circuit_power=10.0,
    )
    assert best_response(net, 1, np.zeros(1), np.zeros(1)) == pytest.approx(1e-4)


def test_best_response_interior_point_is_gradient_root(net6):
    opp = np.full(6, 0.01)
    r = best_response(net6, 3, opp, np.full(6, 1e12), tol=1e-12)
    prof = opp.copy()
    prof[2] = r

    def gradient(q):  # d u_3 / d p_3 at profile q, price 1e12
        G = net6.gain[3, 3] / interference(net6, q)[2]
        return own_gradient(q[2], G, net6.bandwidth, net6.circuit_power, 1e12 * net6.gain[3, 0])

    g = gradient(prof)
    # Scale of the gradient near 0 is W*G/p_a; the root should be deep below it.
    scale = abs(gradient(np.where(np.arange(6) == 2, 0.0, opp)))
    assert abs(g) < 1e-6 * scale


def test_best_response_matches_grid_oracle():
    rng = np.random.default_rng(7)
    for i in range(20):
        net = make_net(4, seed=200 + i)
        opp = rng.uniform(0.0, 0.08, 4)
        lam = np.full(4, 10.0 ** rng.uniform(11, 16))
        k = int(rng.integers(1, 5))
        br = best_response(net, k, opp, lam)
        grid = grid_best_response(net, k, opp, lam)
        step = float(net.power_max[k - 1]) / (1_000_000 - 1)
        assert abs(br - grid) <= max(1e-6, step)


def _decade(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


# Power bracket for the best response.
#
# Write x = p_k/p_a, g = G_k*p_a and mu = lambda_k/cutoff_price, where
# cutoff_price = W*G_k/(p_a*h_k0). Multiplying the payoff gradient by
# p_a*(1+x)/(W*G_k) > 0 leaves its sign unchanged and gives
#   f(x) = 1/(1+g*x) - ln(1+g*x)/(g*(1+x)) - mu*(1+x),   f(0) = 1 - mu.
# So p_k = 0 exactly when mu >= 1. Otherwise f changes sign once, from + to -.
# Upper: ln(1+y) >= y/(1+y) gives f(x) <= 1/((1+g*x)(1+x)) - mu*(1+x)
#   <= 1/(1+x) - mu*(1+x), which is negative past x = mu^{-1/2} - 1 (the
#   g -> 0 solution).
# Lower: ln(1+y) <= y, 1/(1+y) >= 1-y and x/(1+x) <= x give
#   f(x) >= (1-mu) - (1+g+mu)*x, the tangent of f at x = 0. It is positive
#   below x = (1-mu)/(1+g+mu), which is at least (1-mu)/(2+g).
# The best response is min(p_max, root), so both ends are clipped at p_max.
# Only g, mu, p_a and p_max enter f, so the rest of the network is fixed.
def _power_bracket(g, mu, pa, p_max):
    lo = min(p_max, pa * (1.0 - mu) / (1.0 + g + mu))
    hi = min(p_max, pa * (mu**-0.5 - 1.0))
    return lo, hi


def _scaled_follower(g, pa, p_max):
    """Follower 1 of a two-follower hand network with G_1 * p_a = g.

    Follower 2 is silent, so the interference at follower 1 is its noise
    (1e-3) plus the macro term (1e-3 * 1 W).
    """
    denom = 2e-3
    gain = [
        [1.0, 1e-3, 1.0],
        [1e-2, g * denom / pa, 0.1],
        [0.1, 1e-3, 1.0],
    ]
    net = hand_net(
        gain=gain,
        noise=[1e-3, 1e-3, 1e-3],
        circuit_power=pa,
        bandwidth=1e6,
        power_max=[p_max, 1.0],
    )
    return net, np.zeros(2)


@settings(max_examples=300, deadline=None)
@given(
    g=_decade(-4.0, 5.0),
    mu=st.one_of(
        st.floats(min_value=1e-6, max_value=0.999),
        st.floats(min_value=1.001, max_value=100.0),
    ),
    pa=_decade(-3.0, 0.0),
    p_max=_decade(-3.0, 1.0),
)
# A gradient root near 1e-11 W, two orders under the 1e-9 W root tolerance.
@example(g=1e5, mu=0.999, pa=1e-3, p_max=1.0)
def test_best_response_stays_inside_power_bracket(g, mu, pa, p_max):
    # mu within 0.1 % of 1 is left out: there the rounding of
    # lambda / cutoff_price, not the solver, decides the on/off rule.
    net, opp = _scaled_follower(g, pa, p_max)
    prices = np.array([mu * cutoff_price(net, opp)[0], 0.0])
    scalar = best_response(net, 1, opp, prices)
    # One synchronous round from opp is the batched Newton best response to opp.
    batched = solve_equilibria(net, prices[None], opp, max_rounds=1).profiles[0, 0]
    for br in (scalar, batched):
        if mu >= 1.0:
            assert br == 0.0
        else:
            lo, hi = _power_bracket(g, mu, pa, p_max)
            # Both root searches stop within tol = 1e-9 W of the gradient root.
            assert br > 0.0
            assert lo - 1e-9 <= br <= hi + 1e-9


# A scalar best response by bisection on own_gradient, independent of the
# Newton steps that best_response takes.
def _reference_best_response(net, k, opponents, prices, tol=1e-9):
    G = net.gain[k, k] / interference(net, opponents)[k - 1]
    lam_h = prices[k - 1] * net.gain[k, 0]
    W = net.bandwidth
    pa = net.circuit_power
    p_max = float(net.power_max[k - 1])
    if own_gradient(0.0, G, W, pa, lam_h) <= 0.0:
        return 0.0
    if own_gradient(p_max, G, W, pa, lam_h) >= 0.0:
        return p_max
    lo, hi = 0.0, p_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if own_gradient(mid, G, W, pa, lam_h) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol and lo > 0.0:
            break
    else:
        raise AssertionError("reference bisection did not finish")
    root = 0.5 * (lo + hi)
    if own_payoff(root, G * root, W, pa, lam_h) > 0.0:
        return root
    return 0.0


@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from(["silent", "interior", "p_max", "below tol"]),
    g=_decade(-4.0, 5.0),
    mu=st.floats(min_value=1e-6, max_value=0.999),
    pa=_decade(-3.0, 0.0),
    share=st.floats(min_value=0.01, max_value=0.99),
)
@example(case="below tol", g=1e5, mu=0.999, pa=1e-3, share=0.5)
@example(case="interior", g=0.3823739640895448, mu=0.10206025398059647, pa=1.0, share=0.5)
def test_best_response_matches_the_bisection_reference(case, g, mu, pa, share):
    # Each case shapes the draw with _power_bracket's bounds: past the cutoff
    # (mu > 1) the follower is silent; p_max below the bracket's lower end
    # leaves the gradient positive there; p_max above its upper end leaves
    # the root inside; and a strong link barely under its cutoff (the numbers
    # of the bracket test's example and their neighbours) has a root below
    # the 1e-9 W tolerance.
    if case == "silent":
        mu = 1.0 / mu
    elif case == "below tol":
        g, mu, pa = 2e4 + share * 8e4, 0.999 - share * 0.009, 1e-3
    lo, hi = _power_bracket(g, mu, pa, math.inf)
    p_max = share * lo if case == "p_max" else (1.0 if case == "silent" else 2.0 * hi)
    net, opp = _scaled_follower(g, pa, p_max)
    prices = np.array([mu * cutoff_price(net, opp)[0], 0.0])
    reference = _reference_best_response(net, 1, opp, prices)
    assert {
        "silent": reference == 0.0,
        "interior": 0.0 < reference < p_max,
        "p_max": reference == p_max,
        "below tol": 0.0 < reference < 1e-9,
    }[case]
    br = best_response(net, 1, opp, prices)
    assert (br == 0.0) == (reference == 0.0) and (br == p_max) == (reference == p_max)
    # Each solver keeps its own 1e-9 W bound on the root, bisected to a few
    # ulps here: bisection returns the midpoint of a bracket <= tol wide, so
    # the reference lies within tol / 2 of the root, and the Newton steps
    # stop on a step <= tol, by when the root is far nearer than that step
    # (6.7e-16 W off at g = 0.382, mu = 0.102, p_a = 1 W, where the
    # reference is 1.75e-10 W off).
    root = _reference_best_response(net, 1, opp, prices, tol=4.0 * np.spacing(p_max))
    assert abs(reference - root) <= 0.5e-9
    assert abs(br - root) <= 1e-9


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_best_response_rejects_bad_tol(hand2, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        best_response(hand2, 1, np.zeros(2), np.zeros(2), tol=tol)


def test_algorithm1_single_follower_converges_fast(hand2):
    net = hand_net(gain=[[1.0, 0.2], [0.3, 4.0]], noise=[0.1, 0.1], circuit_power=0.5)
    prices = np.array([0.5])
    report = run_algorithm1(net, prices[None], init=np.zeros(1))
    assert report.converged[0]
    assert report.rounds[0] <= 2
    assert report.profiles[0, 0] == pytest.approx(
        best_response(net, 1, np.zeros(1), prices), abs=1e-9
    )


def _trajectory(net, prices, init):
    """Profile after rounds 0..R of a one-row Algorithm-1 run that converges in R rounds.

    The run is deterministic, so capping it at r rounds gives its profile
    after round r bit for bit.
    """
    report = run_algorithm1(net, prices[None], init=init)
    assert report.converged[0]
    rounds = range(1, report.rounds[0] + 1)
    return np.array([init, *(run_algorithm1(net, prices[None], init, max_rounds=r).profiles[0] for r in rounds)])


def test_algorithm1_monotone_from_zero(net6):
    powers = _trajectory(net6, np.full(6, 1e12), np.zeros(6))
    assert (np.diff(powers, axis=0) >= -1e-12).all()


def test_algorithm1_converges_from_any_start(net6):
    prices = np.full((1, 6), 1e12)
    base = run_algorithm1(net6, prices, init=np.zeros(6)).profiles[0]
    top = run_algorithm1(net6, prices, init=np.asarray(net6.power_max)).profiles[0]
    assert np.max(np.abs(top - base)) < 1e-5


def _reference_algorithm1(net, prices, init):
    """Algorithm 1 (tol 1e-7 W, at most 10,000 rounds) as a round robin of the bisection best response."""
    p = np.array(init, dtype=float)
    for rounds in range(1, 10_001):
        previous = p.copy()
        for k in range(1, net.num_followers + 1):
            p[k - 1] = _reference_best_response(net, k, p, prices)
        if np.max(np.abs(p - previous)) < 1e-7:
            return p, rounds, True
    return p, 10_000, False


@pytest.mark.parametrize("K", [6, 50])
def test_algorithm1_matches_the_bisection_reference_on_a_panel(K):
    # Topologies 0-4 at 0, 0.1, 1 and 10 times the asymptote prices, from
    # zero and from the zero-price profile, as one batch per start: every row
    # has the bits of its one-row run, and matches the round robin of the
    # bisection best response.
    for seed in range(5):
        net = make_net(K, seed=seed)
        zp = zero_price_equilibrium(net).profile
        lam_a = asymptote_price(net, zp)
        prices = np.outer([0.0, 0.1, 1.0, 10.0], lam_a)
        for init in (np.zeros(K), zp):
            got = run_algorithm1(net, prices, init=init)
            assert not got.damped.any()
            for i, lam in enumerate(prices):
                alone = run_algorithm1(net, lam[None], init=init)
                assert np.array_equal(alone.profiles[0], got.profiles[i])
                assert (alone.rounds[0], alone.converged[0]) == (got.rounds[i], got.converged[i])
                profile, rounds, converged = _reference_algorithm1(net, lam, init)
                assert np.max(np.abs(got.profiles[i] - profile)) <= 1e-9
                assert (got.rounds[i], got.converged[i]) == (rounds, converged)


@pytest.mark.parametrize(
    "prices", [[[-5.0, 0.0, 0.0]], [[np.inf, 0.0, 0.0]], [[np.nan, 0.0, 0.0]], [[0.0, 0.0]], [0.0, 0.0, 0.0]]
)
def test_algorithm1_rejects_invalid_prices(net3, prices):
    with pytest.raises(ValueError, match="price"):
        run_algorithm1(net3, np.array(prices), init=np.zeros(3))


_WRONG_RANK = r"^power profile must be shaped \(3,\) or \(B, 3\), got \(1, 1, 3\)$"  # a 3-D start on K = 3


@pytest.mark.parametrize(
    "init", [[np.nan, 0.0, 0.0], [-1e-3, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0], [[[0.0, 0.0, 0.0]]]]
)
def test_algorithm1_rejects_invalid_init(net3, init):
    with pytest.raises(ValueError, match=_WRONG_RANK if np.ndim(init) == 3 else "power profile"):
        run_algorithm1(net3, np.zeros((1, 3)), init=np.array(init))


def test_solve_equilibria_names_the_shapes_a_start_may_take(net3):
    with pytest.raises(ValueError, match=_WRONG_RANK):
        solve_equilibria(net3, np.zeros((1, 3)), np.zeros((1, 1, 3)))


@pytest.mark.parametrize("solver", [run_algorithm1, solve_equilibria])
def test_both_solvers_refuse_a_single_price_vector_naming_the_batch_shape(net3, solver):
    with pytest.raises(ValueError, match=r"^prices must be shaped \(B, 3\), got \(3,\)$"):
        solver(net3, np.zeros(3), np.zeros(3))


def test_algorithm1_leaves_init_untouched(net3):
    init = np.zeros(3)
    run_algorithm1(net3, np.zeros((1, 3)), init=init)
    assert np.array_equal(init, np.zeros(3))


def test_uniqueness_condition_vanishing_circuit_power():
    net = hand_net(
        gain=[[1.0, 0.5], [0.25, 0.125]],
        noise=[0.25, 0.25],
        power_max=[4.0],
        circuit_power=1e-12,
    )
    assert sufficient_conditions(net, np.array([2.0]))[0][0]


def test_uniqueness_condition_boundary_equality():
    # Exact binary arithmetic: gamma-like ratio h*p/(D0 + h*p) = 1/4 = p_a/p.
    net = hand_net(
        gain=[[1.0, 0.5], [0.25, 0.125]],
        noise=[0.25, 0.25],
        power_max=[4.0],
        circuit_power=0.5,
    )
    # D0 = 0.25 + 0.5*1 = 0.75, h*p = 0.125*2 = 0.25, ratio = 0.25/1.0
    assert sufficient_conditions(net, np.array([2.0]))[0][0]


def test_uniqueness_condition_false_at_zero_power(hand2):
    assert not sufficient_conditions(hand2, np.zeros(2))[0].any()


def test_uniqueness_condition_at_plateau_fixed_point():
    net = make_net(6, seed=2)
    for lam in (0.0, 1e12):
        report = run_algorithm1(net, np.full((1, 6), lam), init=np.zeros(6))
        assert report.converged[0]
        assert sufficient_conditions(net, report.profiles[0])[0].all()


def test_supermodularity_boundary_exact():
    # gamma = h*p/D0 = 0.1875*... chosen so gamma == p_a/p in exact binary.
    net = hand_net(
        gain=[[1.0, 0.5], [0.25, 0.09375]],
        noise=[0.25, 0.25],
        power_max=[4.0],
        circuit_power=0.5,
    )
    # gamma = 0.09375*2/0.75 = 0.25, p_a/p = 0.5/2 = 0.25
    assert sufficient_conditions(net, np.array([2.0]))[1][0]


def test_supermodularity_false_at_zero_power(hand2):
    assert not sufficient_conditions(hand2, np.array([0.0, 0.5]))[1][0]


def test_supermodularity_implies_nonnegative_cross():
    rng = np.random.default_rng(11)
    checked = 0
    for i in range(250):
        net = make_net(4, seed=3000 + i)
        p = rng.uniform(0.0, 0.1, 4)
        _, increasing, cross = sufficient_conditions(net, p)
        for k in range(1, 5):
            if not increasing[k - 1]:
                continue
            j = int(rng.choice([x for x in range(1, 5) if x != k]))
            assert cross[k - 1, j - 1] >= -1e-12
            checked += 1
    assert checked >= 250  # the gate must actually fire often enough to mean something


def _nash_gap(net, profile, prices) -> float:
    """Largest move scalar ``best_response`` makes from ``profile``."""
    return max(
        abs(best_response(net, k, profile, prices) - profile[k - 1])
        for k in range(1, net.num_followers + 1)
    )


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
    start=st.floats(min_value=0.0, max_value=1.0),
    rows=st.lists(
        st.one_of(
            st.floats(min_value=-8.0, max_value=0.5).map(lambda e: ("uniform", e)),
            st.lists(st.floats(min_value=-8.0, max_value=0.5), min_size=8, max_size=8).map(
                lambda e: ("per-link", e)
            ),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_batched_equilibria_are_nash_and_match_algorithm1(K, seed, start, rows):
    # Prices are decades of each follower's cutoff at p = 0, past which it is
    # silent whatever the others do; start scales p_max into a shared init.
    net = make_net(K, seed=seed)
    cutoff = cutoff_price(net, np.zeros(K))
    prices = np.array(
        [
            10.0**e * cutoff.max() * np.ones(K) if kind == "uniform" else 10.0 ** np.array(e[:K]) * cutoff
            for kind, e in rows
        ]
    )
    init = start * net.power_max
    batch = solve_equilibria(net, prices, init)
    reference = run_algorithm1(net, prices, init=init)
    for i, lam in enumerate(prices):
        if not batch.converged[i]:
            continue
        assert _nash_gap(net, batch.profiles[i], lam) <= 1e-7
        if reference.converged[i]:
            assert np.max(np.abs(batch.profiles[i] - reference.profiles[i])) <= 1e-6


def test_damping_settles_the_two_cycle_of_topology_101():
    # Default K = 50 topology 101: at sweep points 20 and 21 undamped best
    # responses, synchronous or round-robin, fall into a 2-cycle.
    net = make_net(50, seed=101)
    grid = sweep_grid(net, 40)
    assert all(row[4] for row in continuous_sweep_rows(net, grid))
    prices = np.outer(grid, np.ones(50))
    batch = solve_equilibria(net, prices, zero_price_equilibrium(net).profile)
    assert batch.converged.all()
    for i in (20, 21):
        assert batch.damped[i]
        assert _nash_gap(net, batch.profiles[i], prices[i]) <= 1e-7


def test_the_two_solvers_part_where_the_uniqueness_condition_fails():
    # Default K = 200 topology 1, sweep point 24: Algorithm 1 and the batched
    # solver, both from the zero-price profile, settle on two Nash points
    # 9.1e-4 W apart. Every follower on which they part fails `unique` at
    # both, so Yates's one fixed point is not promised there.
    net = make_net(200, seed=1)
    lam = np.full(200, sweep_grid(net, 40)[24])
    init = zero_price_equilibrium(net).profile
    batch = solve_equilibria(net, lam[None], init)
    sequential = run_algorithm1(net, lam[None], init)
    assert batch.converged[0] and sequential.converged[0]
    apart = np.abs(sequential.profiles[0] - batch.profiles[0])
    assert apart.max() > 5e-4
    for profile in (batch.profiles[0], sequential.profiles[0]):
        assert _nash_gap(net, profile, lam) <= 1e-7
        assert not sufficient_conditions(net, profile)[0][apart > 1e-6].any()


def test_solve_equilibria_rows_are_independent(net6):
    prices = np.array([np.zeros(6), np.full(6, 1e12), np.full(6, 1e14)])
    batch = solve_equilibria(net6, prices, np.zeros(6))
    for i, lam in enumerate(prices):
        alone = solve_equilibria(net6, lam[None], np.zeros(6))
        assert np.array_equal(alone.profiles[0], batch.profiles[i])
        assert alone.rounds[0] == batch.rounds[i]


@settings(max_examples=12, deadline=None)
@given(
    K=st.sampled_from([6, 20, 50, 200]) | st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=9),
    points=st.lists(st.integers(min_value=0, max_value=39), min_size=1, max_size=6, unique=True),
)
@example(K=50, seed=9, points=[8])  # a column-major batch moved this row's mean efficiency in its last bit
@example(K=191, seed=9, points=[18])
def test_batch_rows_are_bit_equal_to_their_one_row_calls(K, seed, points):
    # interference is one vector product per profile, so no row's bits depend
    # on the rows solved beside it; the 1-D product is the learner's.
    net = make_net(K, seed=seed)
    grid = sweep_grid(net, 40)
    prices = np.outer(grid, np.ones(K))
    init = zero_price_equilibrium(net).profile
    batch = solve_equilibria(net, prices, init)
    rows = continuous_sweep_rows(net, grid)
    for i in points:
        alone = solve_equilibria(net, prices[i : i + 1], init)
        assert np.array_equal(alone.profiles[0], batch.profiles[i])
        assert (alone.rounds[0], alone.converged[0], alone.damped[0]) == (
            batch.rounds[i],
            batch.converged[i],
            batch.damped[i],
        )
        assert continuous_sweep_rows(net, grid[i : i + 1]) == [rows[i]]
        p = batch.profiles[i]
        assert np.array_equal(interference(net, batch.profiles)[i], interference(net, p))
        assert np.array_equal(interference(net, p), p @ net.cross_gain + net.background)


@pytest.mark.parametrize("init", [np.zeros(3), np.zeros((4, 3)), np.zeros((3, 4)).T])
def test_solve_equilibria_returns_c_ordered_profiles(net3, init):
    # Kernels round a strided row differently from a contiguous one, so a
    # column-major batch gives metrics that differ from the row's own call.
    prices = np.zeros((4, 3))
    assert solve_equilibria(net3, prices, init).profiles.flags["C_CONTIGUOUS"]


def test_interference_rows_keep_their_bits_in_any_memory_layout():
    # A column-major batch read its rows strided: 149 of these 2000 entries
    # differed from the rows' own calls.
    net = make_net(50, seed=9)
    P = np.random.default_rng(0).uniform(0.0, 0.1, (40, 50))
    rows = np.array([interference(net, p) for p in P])
    assert np.array_equal(interference(net, np.asfortranarray(P)), rows)
    wide = np.zeros((40, 100))
    wide[:, ::2] = P
    assert np.array_equal(interference(net, wide[:, ::2]), rows)  # every other column: strided rows


@pytest.mark.parametrize("K", [50, 200])
def test_sweep_rows_equal_their_one_row_solves(K):
    # Every row of a 40-point default sweep, profile and CSV cells, has the
    # bits of its one-row call; the batch beside it moves none of them.
    net = make_net(K, seed=0)
    grid = sweep_grid(net, 40)
    prices = np.outer(grid, np.ones(K))
    init = zero_price_equilibrium(net).profile
    batch = solve_equilibria(net, prices, init)
    rows = continuous_sweep_rows(net, grid)
    for i, lam in enumerate(prices):
        alone = solve_equilibria(net, lam[None], init)
        assert np.array_equal(alone.profiles[0], batch.profiles[i])
        assert (alone.converged[0], alone.rounds[0]) == (batch.converged[i], batch.rounds[i])
        assert continuous_sweep_rows(net, grid[i : i + 1]) == [rows[i]]


@pytest.mark.parametrize(
    "prices",
    [
        [0.0, 0.0, 0.0],
        [[-5.0, 0.0, 0.0]],
        [[np.nan, 0.0, 0.0]],
        [[0.0, 0.0]],
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, -1.0, 0.0]],  # the bad row is not row 0
        [[0.0, 0.0, 0.0], [0.0, 0.0, np.inf]],
    ],
)
def test_solve_equilibria_rejects_invalid_prices(net3, prices):
    with pytest.raises(ValueError, match="price"):
        solve_equilibria(net3, np.array(prices), np.zeros(3))


@pytest.mark.parametrize("init", [[np.nan, 0.0, 0.0], [2.0, 0.0, 0.0], [[0.0, 0.0, 0.0]] * 2])
def test_solve_equilibria_rejects_invalid_init(net3, init):
    with pytest.raises(ValueError):
        solve_equilibria(net3, np.zeros((1, 3)), np.array(init))


# A frozen copy of an earlier continuous._best_responses, independent of
# _newton_step: Newton steps on the scaled gradient
# f = (1 + G p)(p + p_a) * own_gradient, taken while they stay inside a
# carried closed sign bracket, bisection otherwise.
def _frozen_best_responses(net, G, charge, start, tol=1e-9, max_iter=200):
    W, pa = net.bandwidth, net.circuit_power
    p_max = np.broadcast_to(net.power_max, G.shape)
    on = W * G / pa - charge > 0.0
    full = own_gradient(p_max, G, W, pa, charge) >= 0.0
    out = np.where(on & full, p_max, 0.0)
    idx = np.flatnonzero(on & ~full)
    G, c = G.ravel()[idx], charge.ravel()[idx]
    lo, hi = np.zeros(idx.size), p_max.ravel()[idx]
    x = np.clip(start.ravel()[idx], lo, hi)
    flat = out.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if idx.size == 0:
                return out
            gamma = G * x
            one_plus = 1.0 + gamma
            total = x + pa
            log = np.log1p(gamma)
            spread = one_plus * log / total
            f = W * (G - spread) - c * one_plus * total
            slope = W * (spread - G * (1.0 + log)) / total - c * (G * total + one_plus)
            rising = f > 0.0
            lo = np.where(rising, x, lo)
            hi = np.where(rising, hi, x)
            new = x - f / slope
            new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
            done = np.abs(new - x) <= tol
            x = new
            if done.any():
                root = x[done]
                keep = own_payoff(root, G[done] * root, W, pa, c[done]) > 0.0
                flat[idx[done]] = np.where(keep, root, 0.0)
                live = ~done
                idx, G, c, lo, hi, x = (a[live] for a in (idx, G, c, lo, hi, x))
    raise AssertionError("frozen best responses did not finish")


# A frozen copy of continuous._newton_steps: one Newton step on the scaled
# gradient from the current power, kept inside the sign bracket [0, p] or
# [p, p_max] by the secant through the bracket's ends.
def _frozen_newton_steps(net, G, charge, p):
    W, pa, p_max = net.bandwidth, net.circuit_power, net.power_max
    head = W * G / pa - charge
    tail = own_gradient(p_max, G, W, pa, charge)
    gamma = G * p
    one_plus = 1.0 + gamma
    total = p + pa
    log = np.log1p(gamma)
    spread = one_plus * log / total
    f = W * (G - spread) - charge * one_plus * total
    slope = W * (spread - G * (1.0 + log)) / total - charge * (G * total + one_plus)
    rising = f > 0.0
    lo, hi = np.where(rising, p, 0.0), np.where(rising, p_max, p)
    f_lo = np.where(rising, f, pa * head)
    f_hi = np.where(rising, (1.0 + G * p_max) * (p_max + pa) * tail, f)
    with np.errstate(divide="ignore", invalid="ignore"):
        new = p - f / slope
        new = np.where((new >= lo) & (new <= hi), new, lo - f_lo * (hi - lo) / (f_hi - f_lo))
        new = np.where(own_payoff(new, G * new, W, pa, charge) > 0.0, new, 0.0)
    return np.where(head > 0.0, np.where(tail >= 0.0, p_max, new), 0.0)


def _reference_solve_equilibria(net, prices, init, tol=1e-7, max_rounds=10_000, proposals=_frozen_newton_steps):
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 2:
        raise ValueError("prices must be shaped (B, K)")
    B, K = len(prices), net.num_followers
    p = np.array(np.broadcast_to(np.asarray(init, dtype=float), (B, K)))
    for lam, row in zip(prices, p):
        validate_prices(net, lam)
        validate_power_profile(net, row)
    charge = prices * net.gain[1:, 0]
    before = np.full((B, K), np.nan)
    converged = np.zeros(B, dtype=bool)
    last = np.full(B, np.nan)
    damped = np.zeros(B, dtype=bool)
    rounds = np.zeros(B, dtype=int)
    rows = np.arange(B)
    for t in range(1, max_rounds + 1):
        if not rows.size:
            break
        P = p[rows]
        I = (P[:, None, :] @ net.cross_gain)[:, 0, :] + net.background  # one vector product per row
        proposal = proposals(net, net.own_gain / I, charge[rows], P)
        residual = np.abs(proposal - P).max(axis=1)
        returned = np.abs(proposal - before[rows]).max(axis=1) < residual
        slow = damped[rows] | (returned & (residual >= tol))
        damped[rows] = slow
        rounds[rows] = t
        before[rows] = P
        previous = last[rows]
        shrunk = residual * (previous + tol) <= tol * previous
        settled = (previous < tol) & (shrunk | (residual <= NOISE * tol))
        last[rows] = residual
        converged[rows[settled]] = True
        step = np.where(slow[:, None], (1.0 - DAMPING) * P + DAMPING * proposal, proposal)
        p[rows[~settled]] = step[~settled]
        rows = rows[~settled]
    return p, converged, rounds, damped


def _assert_same_as_reference(net, prices, init):
    # Bit for bit against the frozen Newton rounds; against the exact best
    # responses that rounds took before, the same convergence and every power
    # within the solver's tol. The damped flags may differ, since the two
    # iterations take different paths, so each converged row is checked to be
    # a Nash point instead.
    batch = solve_equilibria(net, prices, init)
    profiles, converged, rounds, damped = _reference_solve_equilibria(net, prices, init)
    assert np.array_equal(batch.profiles, profiles)
    assert np.array_equal(batch.converged, converged)
    assert np.array_equal(batch.rounds, rounds)
    assert np.array_equal(batch.damped, damped)
    old_profiles, old_converged, _, _ = _reference_solve_equilibria(
        net, prices, init, proposals=_frozen_best_responses
    )
    assert np.array_equal(batch.converged, old_converged)
    assert np.abs(batch.profiles - old_profiles).max() <= 1e-7
    for profile, lam in zip(batch.profiles[batch.converged], prices[batch.converged]):
        assert _nash_gap(net, profile, lam) < 1e-7
    return batch


@settings(max_examples=80, deadline=None)
@given(
    K=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
    p_max_decade=st.floats(min_value=-4.0, max_value=-1.0),
    exponents=st.lists(
        st.lists(st.floats(min_value=-6.0, max_value=1.0) | st.just(-np.inf), min_size=8, max_size=8),
        min_size=1,
        max_size=6,
    ),
    starts=st.none() | st.floats(min_value=0.0, max_value=1.0),
)
# the exact rounds of row 2 settle on a 1-ulp 2-cycle, a residual that never shrinks
@example(K=1, seed=0, p_max_decade=-1.0, exponents=[[0.0] * 8] * 2 + [[-math.inf] * 8], starts=None)
def test_solve_equilibria_is_bit_identical_to_the_reference_solver(K, seed, p_max_decade, exponents, starts):
    # Link k of row b pays 10**e * its cutoff at p = 0: e = -inf is free, so
    # weak links sit at p_max (sized by p_max_decade) and e > 0 links are
    # silent. starts None gives each row its own start, a float one shared start.
    net = make_net(K, seed=seed, power_max=10.0**p_max_decade)
    prices = 10.0 ** np.array(exponents)[:, :K] * cutoff_price(net, np.zeros(K))
    if starts is None:
        init = np.random.default_rng(seed).random(prices.shape) * net.power_max
    else:
        init = starts * net.power_max
    _assert_same_as_reference(net, prices, init)


def test_solve_equilibria_matches_the_reference_on_damped_rows():
    # Sweep points 20 and 21 of default K = 50 topology 101 take damped steps.
    net = make_net(50, seed=101)
    prices = np.outer(sweep_grid(net, 40)[18:24], np.ones(50))
    batch = _assert_same_as_reference(net, prices, zero_price_equilibrium(net).profile)
    assert batch.damped[2] and batch.damped[3]


def test_newton_steps_stay_inside_their_sign_bracket():
    # One follower with G = 10 W/W: the Newton step from 0 W overshoots the
    # root near 0.706 W, and the one from 2.5 W would land below 0 W.
    net = hand_net(gain=[[1.0, 0.5], [1.0, 10.0]], noise=[1.0, 0.5], power_max=[3.0])
    W, pa = net.bandwidth, net.circuit_power
    G = net.own_gain / interference(net, np.zeros((1, 1)))
    charge = np.full((1, 1), 0.01) * net.gain[1:, 0]
    root = _best_responses(net, G, charge, net.power_max)
    for start, leaves in ((0.0, lambda newton: newton > root), (2.5, lambda newton: newton < 0.0)):
        f, slope = own_scaled_gradient(start, G, W, pa, charge)
        assert leaves(start - f / slope)
        p = np.full((1, 1), start)
        for _ in range(20):
            f, _ = own_scaled_gradient(p, G, W, pa, charge)
            lo, hi = (p, net.power_max) if f > 0.0 else (0.0, p)
            p = continuous._newton_steps(net, G, charge, p)
            assert lo <= p <= hi and p > 0.0  # never silenced on the way to an interior root
        assert abs(p - root) <= 1e-9


_ENTRY = st.tuples(
    st.sampled_from(["silent", "interior", "p_max", "below tol"]),
    _decade(-4.0, 5.0),
    st.floats(min_value=1e-6, max_value=0.999),
    st.floats(min_value=0.01, max_value=0.99),
)


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(_ENTRY, min_size=1, max_size=8), pa=_decade(-3.0, 0.0), tol=st.sampled_from([1e-9, 1e-12]))
def test_batched_best_responses_match_the_frozen_bisection_root_finder(entries, pa, tol):
    # One batch of mixed entries, shaped as in test_best_response_matches_the_bisection_reference:
    # entry k is follower k's G = g / p_a and charge = mu * its cutoff charge W G / p_a, with its own p_max.
    W = 1e6
    g, mu, p_max = [], [], []
    for case, g_k, mu_k, share in entries:
        if case == "silent":
            mu_k = 1.0 / mu_k
        elif case == "below tol":  # g scaled with p_a keeps the root ~ p_a (1 - mu) / g where it is at p_a = 1e-3 W
            g_k, mu_k = (2e4 + share * 8e4) * pa / 1e-3, 0.999 - share * 0.009
        lo, hi = _power_bracket(g_k, mu_k, pa, math.inf)
        p_max.append(share * lo if case == "p_max" else (1.0 if case == "silent" else 2.0 * hi))
        g.append(g_k)
        mu.append(mu_k)
    K = len(entries)
    net = hand_net(gain=np.eye(K + 1) + 0.1, noise=np.ones(K + 1), bandwidth=W, circuit_power=pa, power_max=p_max)
    G = np.array(g)[None] / pa
    charge = np.array(mu)[None] * W * G / pa
    br = _best_responses(net, G, charge, net.power_max, tol)
    frozen = _frozen_best_responses(net, G, charge, np.zeros_like(G), tol=tol)
    for (case, *_), root, top in zip(entries, frozen[0], p_max):
        assert {"silent": root == 0.0, "interior": 0.0 < root < top, "p_max": root == top,
                "below tol": 0.0 < root < 1e-9}[case]
    assert np.all(np.abs(br - frozen) <= tol)


def test_solve_equilibria_takes_one_gradient_evaluation_per_round(monkeypatch):
    # A round is one Newton step per follower, not a best-response root solve:
    # the scaled gradient is evaluated once, at the current powers of the rows
    # still unsettled.
    net = make_net(50, seed=0)
    init = zero_price_equilibrium(net).profile
    shapes, solves = [], []

    def counted(p, *args):
        shapes.append(p.shape)
        return own_scaled_gradient(p, *args)

    monkeypatch.setattr(continuous, "own_scaled_gradient", counted)
    monkeypatch.setattr(continuous, "_best_responses", lambda *args: solves.append(args))
    batch = solve_equilibria(net, np.outer(sweep_grid(net, 40), np.ones(50)), init)
    assert batch.converged.all() and solves == []
    assert shapes == [((batch.rounds >= t).sum(), 50) for t in range(1, batch.rounds.max() + 1)]


@pytest.mark.parametrize("solver", [solve_equilibria, run_algorithm1])
@pytest.mark.parametrize(
    ("name", "value"),
    [("tol", 0.0), ("tol", -1.0), ("tol", math.nan), ("tol", math.inf), ("max_rounds", 0), ("max_rounds", -3),
     ("max_rounds", 2.5), ("max_rounds", True)],
)
def test_both_solvers_refuse_invalid_settings(net3, solver, name, value):
    # A tol of 0, -1 or NaN never settles a row, so the solve would run every
    # round in silence; tol = inf settles after two rounds at a one-step
    # profile; max_rounds < 1 returns the start, unconverged; True would be
    # taken as one round.
    with pytest.raises(ValueError, match=f"{name} must be"):
        solver(net3, np.zeros((2, 3)), np.zeros(3), **{name: value})


def test_zero_price_equilibrium_refuses_an_infinite_tol(net3):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        zero_price_equilibrium(net3, tol=math.inf)


def test_solve_equilibria_accepts_a_numpy_integer_round_cap(net3):
    batch = solve_equilibria(net3, np.zeros((2, 3)), np.zeros(3), max_rounds=np.int32(1))
    assert np.array_equal(batch.rounds, [1, 1]) and not batch.converged.any()


def test_the_zero_price_solve_of_topology_3_takes_the_secant_and_matches_the_reference(monkeypatch):
    # At round 2 of default K = 6 topology 3's zero-price solve, follower 4's
    # Newton step leaves its sign bracket, so the round forms the secant.
    net = make_net(6, seed=3)
    steps, newton_steps = [], continuous._newton_steps

    def recorded(net, G, charge, p):
        steps.append((G, charge, p))
        return newton_steps(net, G, charge, p)

    monkeypatch.setattr(continuous, "_newton_steps", recorded)
    zero = np.zeros((1, 6))
    batch = _assert_same_as_reference(net, zero, zero)
    assert batch.converged[0] and len(steps) == batch.rounds[0] == 8
    W, pa, p_max = net.bandwidth, net.circuit_power, net.power_max
    left = []
    for G, charge, p in steps:
        interior = (W * G / pa - charge > 0.0) & ~(own_gradient(p_max, G, W, pa, charge) >= 0.0)
        f, slope = own_scaled_gradient(p, G, W, pa, charge)
        lo, hi = np.where(f > 0.0, p, 0.0), np.where(f > 0.0, p_max, p)
        newton = p - f / slope
        left.append(np.flatnonzero(interior & ~((newton >= lo) & (newton <= hi))).tolist())
    assert left == [[], [3], [], [], [], [], [], []]


@pytest.mark.parametrize("bad", [-1e-3, 2.0, np.nan])
def test_solve_equilibria_rejects_a_bad_init_row_after_good_ones(net3, bad):
    init = np.zeros((4, 3))
    init[3, 2] = bad
    with pytest.raises(ValueError, match="power profile"):
        solve_equilibria(net3, np.zeros((4, 3)), init)
