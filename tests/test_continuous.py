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
from femtogame.continuous import DAMPING
from femtogame.experiments import continuous_sweep_rows, sweep_grid
from femtogame.network import interference
from femtogame.oracles import grid_best_response
from femtogame.payoff import own_gradient, own_payoff, validate_power_profile, validate_prices
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


# The scalar bisection best response as it stood before best_response became a
# one-entry call of the batched rtsafe root finder.
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
    # ulps here: bisection returns the midpoint of a bracket <= tol wide, and
    # rtsafe stops on a step <= tol, which after a bisection step leaves the
    # midpoint of a bracket up to 2 tol wide. So the two may differ by up to
    # 1.5e-9 W (1.14e-9 W at g = 0.382, mu = 0.102, p_a = 1 W).
    root = _reference_best_response(net, 1, opp, prices, tol=4.0 * np.spacing(p_max))
    assert abs(reference - root) <= 0.5e-9
    assert abs(br - root) <= 1e-9


def test_best_response_rejects_bad_tol(hand2):
    with pytest.raises(ValueError):
        best_response(hand2, 1, np.zeros(2), np.zeros(2), tol=0.0)


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


@pytest.mark.parametrize(
    "init", [[np.nan, 0.0, 0.0], [-1e-3, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0], [[[0.0, 0.0, 0.0]]]]
)
def test_algorithm1_rejects_invalid_init(net3, init):
    with pytest.raises(ValueError, match="power profile"):
        run_algorithm1(net3, np.zeros((1, 3)), init=np.array(init))


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


# The batched solver as it stood before it validated whole batches and shared
# the gradient's intermediates with its slope: per-row validation, separate
# gradient and slope, and the p = 0 boundary through own_gradient; its
# interior roots came from rtsafe on the unscaled gradient.
def _reference_gradient_slope(p, G, W, pa):
    gamma = G * p
    total = p + pa
    one_plus = 1.0 + gamma
    return (
        2.0 * W * np.log1p(gamma) / (total * total * total)
        - 2.0 * W * G / (one_plus * total * total)
        - W * G * G / (one_plus * one_plus * total)
    )


def _reference_best_responses(net, G, charge, start, tol=1e-9, max_iter=200):
    W, pa = net.bandwidth, net.circuit_power
    p_max = np.broadcast_to(net.power_max, G.shape)
    on = own_gradient(0.0, G, W, pa, charge) > 0.0
    full = own_gradient(p_max, G, W, pa, charge) >= 0.0
    out = np.where(on & full, p_max, 0.0)
    idx = np.flatnonzero(on & ~full)
    G, c = G.ravel()[idx], charge.ravel()[idx]
    lo, hi = np.zeros(idx.size), p_max.ravel()[idx]
    x = np.clip(start.ravel()[idx], lo, hi)
    step_old = hi - lo
    flat = out.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if idx.size == 0:
                return out
            g = own_gradient(x, G, W, pa, c)
            slope = _reference_gradient_slope(x, G, W, pa)
            rising = g > 0.0
            lo = np.where(rising, x, lo)
            hi = np.where(rising, hi, x)
            newton = x - g / slope
            bisect = ~((newton > lo) & (newton < hi)) | (np.abs(2.0 * g) > np.abs(step_old * slope))
            new = np.where(bisect, 0.5 * (lo + hi), newton)
            step_old = np.abs(new - x)
            x = new
            done = step_old <= tol
            if done.any():
                root = x[done]
                keep = own_payoff(root, G[done] * root, W, pa, c[done]) > 0.0
                flat[idx[done]] = np.where(keep, root, 0.0)
                live = ~done
                idx, G, c, lo, hi, x, step_old = (a[live] for a in (idx, G, c, lo, hi, x, step_old))
    raise AssertionError("reference best responses did not finish")


# A frozen copy of continuous._best_responses: Newton steps on the scaled gradient
# f = (1 + G p)(p + p_a) * own_gradient, taken while they stay inside the
# closed sign bracket, bisection otherwise.
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


def _reference_solve_equilibria(
    net, prices, init, tol=1e-7, max_rounds=10_000, best_responses=_reference_best_responses
):
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
    quiet = np.zeros(B, dtype=bool)
    damped = np.zeros(B, dtype=bool)
    rounds = np.zeros(B, dtype=int)
    rows = np.arange(B)
    for t in range(1, max_rounds + 1):
        if not rows.size:
            break
        P = p[rows]
        I = (P[:, None, :] @ net.cross_gain)[:, 0, :] + net.background  # one vector product per row
        proposal = best_responses(net, net.own_gain / I, charge[rows], P)
        residual = np.abs(proposal - P).max(axis=1)
        returned = np.abs(proposal - before[rows]).max(axis=1) < residual
        slow = damped[rows] | (returned & (residual >= tol))
        damped[rows] = slow
        rounds[rows] = t
        before[rows] = P
        settled = (residual < tol) & quiet[rows]
        quiet[rows] = residual < tol
        converged[rows[settled]] = True
        step = np.where(slow[:, None], (1.0 - DAMPING) * P + DAMPING * proposal, proposal)
        p[rows[~settled]] = step[~settled]
        rows = rows[~settled]
    return p, converged, rounds, damped


def _assert_same_as_reference(net, prices, init):
    # Bit for bit against the frozen copy; against the old rtsafe solver, the
    # same convergence and damping and every power within the solver's tol.
    batch = solve_equilibria(net, prices, init)
    profiles, converged, rounds, damped = _reference_solve_equilibria(
        net, prices, init, best_responses=_frozen_best_responses
    )
    assert np.array_equal(batch.profiles, profiles)
    assert np.array_equal(batch.converged, converged)
    assert np.array_equal(batch.rounds, rounds)
    assert np.array_equal(batch.damped, damped)
    old_profiles, old_converged, _, old_damped = _reference_solve_equilibria(net, prices, init)
    assert np.array_equal(batch.converged, old_converged)
    assert np.array_equal(batch.damped, old_damped)
    assert np.abs(batch.profiles - old_profiles).max() <= 1e-7
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


@pytest.mark.parametrize("bad", [-1e-3, 2.0, np.nan])
def test_solve_equilibria_rejects_a_bad_init_row_after_good_ones(net3, bad):
    init = np.zeros((4, 3))
    init[3, 2] = bad
    with pytest.raises(ValueError, match="power profile"):
        solve_equilibria(net3, np.zeros((4, 3)), init)
