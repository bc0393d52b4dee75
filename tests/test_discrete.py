"""Finite power menus, expected values by enumeration, and the learning loop."""

import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from femtogame import _csv, discrete, follower_payoff
from femtogame.discrete import (
    _sample_actions,
    LearnerConfig,
    LearningReport,
    PowerLawSchedule,
    default_action_sets,
    discrete_equilibria,
    expected_follower_payoff,
    expected_leader_revenue,
    expected_payoffs,
    expected_powers,
    initial_state,
    learning_step,
    run_learning,
    validate_schedules,
    validate_simplex,
    write_learning_csv,
)
from femtogame.experiments import sweep_grid
from femtogame.network import NetworkInstance
from femtogame.oracles import enumerate_expected_payoff
from femtogame.payoff import own_payoff, payoffs, sufficient_conditions, validate_prices
from femtogame.pricing import algorithm2_price_step, asymptote_price, run_algorithm2, zero_price_equilibrium

from conftest import hand_net, make_net, traced_peak


def two_link_net():
    return hand_net(
        gain=[[1.0, 0.5, 0.3], [0.4, 5.0, 0.2], [0.1, 0.3, 4.0]],
        noise=[0.1, 0.2, 0.3],
        mu_power=1.0,
        circuit_power=0.5,
        bandwidth=1.0,
    )


def one_link_net():
    return hand_net(
        gain=[[1.0, 0.5], [0.25, 2.0]],
        noise=[0.1, 0.3],
        mu_power=1.0,
        circuit_power=0.5,
        bandwidth=1.0,
        power_max=[5.0],
    )


# ---------------------------------------------------------------- power menus


def test_default_menu_spacing():
    net = make_net(3, seed=0)
    menu = default_action_sets(net, 6)
    assert menu.shape == (3, 6)
    assert np.array_equal(menu[0], np.arange(6) / 6 * net.power_max[0])
    assert np.all(menu[:, 0] == 0.0)
    assert np.all(menu.max(axis=1) < net.power_max)  # p_max itself is not an action
    assert not menu.flags.writeable


def test_default_menu_refuses_fewer_than_two_actions():
    net = make_net(2, seed=0)
    assert default_action_sets(net, 4).shape == (2, 4)
    with pytest.raises(ValueError):
        default_action_sets(net, 1)


@pytest.mark.parametrize(
    "menu",
    [
        [[0.01, 0.02]],  # must start at exactly 0
        [[0.0, 0.02, 0.02]],  # strictly increasing
        [[0.0]],  # at least two actions
        [0.0, 0.1],  # one row per follower, not a flat vector
        [[0.0, 0.1], [0.0, 0.1, 0.2]],  # ragged rows are no (K, M) array
    ],
)
def test_menu_validation(menu):
    with pytest.raises(ValueError):
        initial_state(menu)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("entry", ["discrete_equilibria", "expected_payoffs", "expected_powers", "initial_state"])
def test_entry_points_refuse_a_menu_with_non_finite_powers(net3, entry, bad):
    menu = np.array(default_action_sets(net3, 3))
    menu[1, 2] = bad
    pis = np.full((3, 3), 1 / 3)
    calls = {
        "discrete_equilibria": lambda: discrete_equilibria(net3, menu, np.zeros((1, 3))),
        "expected_payoffs": lambda: expected_payoffs(net3, menu, pis, np.zeros(3)),
        "expected_powers": lambda: expected_powers(menu, pis),
        "initial_state": lambda: initial_state(menu),
    }
    with pytest.raises(ValueError, match="finite"):
        calls[entry]()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 8),
    M=st.integers(2, 7),
)
def test_menu_and_expected_powers_are_bit_equal_to_the_per_row_forms(seed, K, M):
    net = make_net(K, seed=seed % 500)
    menu = default_action_sets(net, M)
    j = np.arange(M)
    assert np.array_equal(menu, [(1.0 - j / M) * 0.0 + (j / M) * float(pm) for pm in net.power_max])
    rng = np.random.default_rng(seed)
    pis = rng.dirichlet(np.ones(M), size=K) * (rng.random((K, M)) < 0.6)  # exact zeros in arbitrary components
    pis[np.arange(K), rng.integers(M, size=K)] += 1.0
    pis /= pis.sum(axis=1, keepdims=True)
    want = np.array([float(np.dot(pi, row)) for pi, row in zip(pis, menu)])
    assert np.array_equal(expected_powers(menu, pis), want)


# ------------------------------------------------------------------ schedules


def test_power_law_schedule_values():
    assert PowerLawSchedule()(4) == 0.25
    assert PowerLawSchedule(c=2.0)(4) == pytest.approx(1 / 16)
    assert PowerLawSchedule(a=2.0, b=1.0)(1) == 1.0
    with pytest.raises(ValueError):
        PowerLawSchedule(a=0.0)
    with pytest.raises(ValueError):
        PowerLawSchedule(c=-1.0)


@pytest.mark.parametrize(("c", "t"), [(100.0, 1210), (1100.0, 2)])
def test_schedule_whose_power_overflows_steps_zero(c, t):
    # (t + b) ** c first passes the float range at slot t: the step is its limit, 0.0, and the run goes on
    schedule = PowerLawSchedule(c=c)
    assert schedule(t) == 0.0
    assert schedule(t - 1) == 1.0 / (t - 1) ** c > 0.0  # the last finite power keeps its bits
    net = make_net(2, seed=0)
    state = initial_state(default_action_sets(net, 3), alpha1=PowerLawSchedule(c=0.6), alpha2=schedule)
    rep = run_learning(net, np.zeros(2), state, tol=0.0, max_iters=t + 5)
    assert state.t == rep.iterations == t + 5
    assert np.allclose(rep.strategies.sum(axis=1), 1.0)


@pytest.mark.parametrize("field", ["a", "b", "c"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_power_law_schedule_rejects_non_finite_constants(field, value):
    with pytest.raises(ValueError, match="finite"):
        PowerLawSchedule(**{field: value})


def test_nan_temperature_is_refused(net3):
    acts = default_action_sets(net3, 3)
    with pytest.raises(ValueError, match="tau must be positive"):
        initial_state(acts, tau=float("nan"))


def test_table_default_schedules_fail_divergence():
    # sum 1/t^2 converges: strategies freeze; alpha1's 1/t meets both of its conditions
    assert validate_schedules(PowerLawSchedule(), PowerLawSchedule(c=2.0)) == ["alpha2_sum_diverges"]


def test_valid_two_timescale_pair():
    assert validate_schedules(PowerLawSchedule(c=0.6), PowerLawSchedule(c=1.0)) == []


@pytest.mark.parametrize(
    "c1, c2, unmet",
    [
        (0.5, 0.5, ["alpha1_square_summable", "alpha2_square_summable", "ratio_vanishes"]),
        (0.3, 0.4, ["alpha1_square_summable", "alpha2_square_summable"]),
        (0.9, 0.7, ["ratio_vanishes"]),
        (1.0, 1.0, ["ratio_vanishes"]),
        (1.5, 3.0, ["alpha1_sum_diverges", "alpha2_sum_diverges"]),
        (0.75, 0.8, []),
    ],
)
def test_schedule_conditions_follow_the_power_law_exponents(c1, c2, unmet):
    # For a/(t+b)^c: the sum diverges iff c <= 1, the sum of squares converges iff c > 1/2, and alpha2/alpha1 -> 0
    # iff c2 > c1; a and b move none of them.
    assert validate_schedules(PowerLawSchedule(c=c1), PowerLawSchedule(c=c2)) == unmet
    assert validate_schedules(PowerLawSchedule(a=3.0, b=2.0, c=c1), PowerLawSchedule(a=0.5, b=7.0, c=c2)) == unmet


# ---------------------------------------------------------------------- logit


def _reference_logit(values, tau):
    """softmax(values / tau) with the largest value subtracted first: the Logit response of the learning slots."""
    e = np.exp((values - values.max()) / tau)
    return e / e.sum()


def _slot_logit(values, tau):
    """The Logit response ``run_learning`` computes for one follower's estimates, read off its first slot.

    alpha2(1) = 1 moves pi all the way onto the response, and estimate steps of 1e-300 leave the estimates as
    they were (a zero entry moves by less than 1e-290, which no exponential resolves).
    """
    state = initial_state(default_action_sets(one_link_net(), len(values)), tau=tau, alpha1=PowerLawSchedule(a=1e-300))
    state.U = np.array([values], dtype=float)
    run_learning(one_link_net(), np.zeros(1), state, max_iters=1)
    return state.pi[0]


def test_logit_equal_values_is_uniform():
    pi = _slot_logit(np.zeros(5), 1.0)
    assert np.array_equal(pi, np.full(5, 0.2))


def test_logit_frozen_two_action_value():
    pi = _slot_logit(np.array([1.0, 0.0]), 1.0)
    assert pi[0] == pytest.approx(0.7310585786300049, rel=1e-14)
    assert pi[1] == pytest.approx(0.2689414213699951, rel=1e-14)


def test_logit_small_tau_concentrates():
    pi = _slot_logit(np.array([1.0, 0.0, 0.5]), 1e-6)
    assert pi[0] >= 1.0 - 1e-9


@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=6),
    st.floats(0.01, 100.0),
)
@settings(deadline=None)
def test_logit_lands_on_simplex(values, tau):
    pi = _slot_logit(np.array(values), tau)
    validate_simplex(pi, atol=1e-9)


@given(st.lists(st.floats(-20, 20), min_size=2, max_size=5), st.floats(-30, 30))
@settings(deadline=None)
def test_logit_shift_invariance(values, shift):
    v = np.array(values)
    assert np.allclose(_slot_logit(v, 1.0), _slot_logit(v + shift, 1.0), atol=1e-12)


def test_validate_simplex_rejects():
    with pytest.raises(ValueError):
        validate_simplex(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        validate_simplex(np.array([-0.1, 1.1]))


@pytest.mark.parametrize("pi", [[np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0]])
def test_validate_simplex_rejects_non_finite(pi):
    with pytest.raises(ValueError, match="finite"):
        validate_simplex(np.array(pi))


# ------------------------------------------------------------ expected values


def test_expected_power_is_dot_product():
    acts = np.array([[0.0, 0.02, 0.05]])
    assert expected_powers(acts, [np.array([0.2, 0.3, 0.5])])[0] == pytest.approx(
        0.3 * 0.02 + 0.5 * 0.05, rel=1e-15
    )


def test_expected_payoff_degenerate_equals_pure():
    net = two_link_net()
    acts = np.array([[0.0, 0.1, 0.25]] * 2)
    pis = [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
    pure = np.array([0.1, 0.25])
    for k in (1, 2):
        assert expected_follower_payoff(net, k, acts, pis, np.zeros(2)) == pytest.approx(
            follower_payoff(net, k, pure, np.zeros(2)), rel=1e-14
        )


def test_expected_payoff_matches_four_term_sum():
    net = two_link_net()
    acts = np.array([[0.0, 0.2], [0.0, 0.3]])
    pis = [np.array([0.3, 0.7]), np.array([0.6, 0.4])]
    lam = np.array([0.8, 1.3])
    manual = 0.0
    for j1, w1 in enumerate(pis[0]):
        for j2, w2 in enumerate(pis[1]):
            prof = np.array([acts[0, j1], acts[1, j2]])
            manual += w1 * w2 * follower_payoff(net, 1, prof, lam)
    assert expected_follower_payoff(net, 1, acts, pis, lam) == pytest.approx(manual, rel=1e-12)


def test_expected_payoff_linear_in_own_strategy():
    net = two_link_net()
    acts = np.array([[0.0, 0.1, 0.25]] * 2)
    opp = np.array([0.2, 0.5, 0.3])
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 0.25, 0.75])
    lam = np.array([1.0, 1.0])
    for w in (0.25, 0.5, 0.9):
        mix = w * a + (1 - w) * b
        lhs = expected_follower_payoff(net, 1, acts, [mix, opp], lam)
        rhs = w * expected_follower_payoff(net, 1, acts, [a, opp], lam) + (
            1 - w
        ) * expected_follower_payoff(net, 1, acts, [b, opp], lam)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_expected_revenue_hand_values():
    net = two_link_net()
    acts = np.array([[0.0, 0.4], [0.0, 0.4]])
    lam = np.array([2.0, 3.0])
    silent = [np.array([1.0, 0.0])] * 2
    assert expected_leader_revenue(net, acts, silent, lam) == 0.0
    coin = [np.array([0.5, 0.5])] * 2
    want = 0.5 * 0.4 * (2.0 * net.gain[1, 0] + 3.0 * net.gain[2, 0])
    assert expected_leader_revenue(net, acts, coin, lam) == pytest.approx(want, rel=1e-14)


def test_enumeration_cap_rejected():
    net = make_net(8, seed=0)
    acts = default_action_sets(net, 8)  # 8 * 8^8 joint terms, over the cap
    pis = [np.full(8, 1 / 8)] * 8
    with pytest.raises(ValueError, match="cap"):
        expected_follower_payoff(net, 1, acts, pis, np.zeros(8))


def test_expected_payoff_rejects_non_simplex():
    net = two_link_net()
    acts = np.array([[0.0, 0.1]] * 2)
    with pytest.raises(ValueError):
        expected_follower_payoff(net, 1, acts, [np.array([0.5, 0.6])] * 2, np.zeros(2))


def _four_followers_on_three_actions():
    net = make_net(4, seed=2)
    return net, default_action_sets(net, 3), np.full((4, 3), 1 / 3)


@pytest.mark.parametrize("function", [expected_payoffs, expected_leader_revenue])
@pytest.mark.parametrize("rows, cols", [(4, 2), (4, 4), (3, 3), (5, 3)])
def test_enumeration_entry_points_reject_strategies_that_do_not_fit(function, rows, cols):
    net, acts, _ = _four_followers_on_three_actions()
    with pytest.raises(ValueError, match="strateg"):
        function(net, acts, np.full((rows, cols), 1 / cols), np.zeros(4))


@pytest.mark.parametrize("function", [expected_payoffs, expected_leader_revenue])
def test_enumeration_entry_points_reject_a_missing_action_set(function):
    net, acts, pis = _four_followers_on_three_actions()
    with pytest.raises(ValueError, match="action sets"):
        function(net, acts[:3], pis, np.zeros(4))


@pytest.mark.parametrize("function", [expected_payoffs, expected_leader_revenue])
@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
def test_enumeration_entry_points_reject_invalid_prices(function, bad):
    net, acts, pis = _four_followers_on_three_actions()
    with pytest.raises(ValueError, match="price"):
        function(net, acts, pis, np.array([0.0, bad, 0.0, 0.0]))
    with pytest.raises(ValueError, match="price"):
        function(net, acts, pis, np.zeros(3))


@pytest.mark.parametrize("pi", [[0.5, 0.6, 0.0], [np.nan, 0.5, 0.5], [-0.5, 1.0, 0.5]])
def test_expected_leader_revenue_rejects_non_simplex(pi):
    net, acts, pis = _four_followers_on_three_actions()
    pis[2] = pi
    with pytest.raises(ValueError, match="probabilities"):
        expected_leader_revenue(net, acts, pis, np.zeros(4))


@pytest.mark.parametrize(
    "strategies, message",
    [(np.full((3, 3), 1 / 3), "strateg"), (np.full((4, 2), 1 / 2), "strateg"), (np.full((4, 3), np.nan), "finite")],
)
def test_expected_powers_rejects_strategies_that_do_not_fit(strategies, message):
    _, acts, _ = _four_followers_on_three_actions()
    with pytest.raises(ValueError, match=message):
        expected_powers(acts, strategies)


# ------------------------------------------------------- pure-strategy play


@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_pure_strategy_play_rejects_invalid_prices(bad):
    net = two_link_net()
    acts = np.array([[0.0, 0.1, 0.2]] * 2)
    with pytest.raises(ValueError, match="price"):
        discrete_equilibria(net, acts, np.array([[bad, 0.0]]))
    with pytest.raises(ValueError, match="price"):
        discrete_equilibria(net, acts, np.array([[0.0, 0.0], [bad, bad]]))


@pytest.mark.parametrize("count", [2, 4])
def test_discrete_equilibria_refuses_a_set_count_other_than_k(net3, count):
    acts = default_action_sets(make_net(4, seed=1), 6)[:count]
    with pytest.raises(ValueError, match="3 action sets"):
        discrete_equilibria(net3, acts, np.zeros((1, 3)))


def test_discrete_best_response_punitive_price_stays_silent():
    net = one_link_net()
    acts = np.array([[0.0, 0.02, 0.05]])
    idx, _, _ = discrete_equilibria(net, acts, np.array([[1e6]]))
    assert idx[0, 0] == 0


def test_discrete_equilibrium_is_nash():
    for seed in (0, 1):
        net = make_net(4, seed=seed)
        acts = default_action_sets(net, 6)
        lam = asymptote_price(net, zero_price_equilibrium(net).profile)
        idx, prof, status = (a[0] for a in discrete_equilibria(net, acts, lam[None]))
        assert status == "ok"
        for k in range(1, 5):
            u_now = follower_payoff(net, k, prof, lam)
            for p in acts[k - 1]:
                trial = prof.copy()
                trial[k - 1] = p
                assert follower_payoff(net, k, trial, lam) <= u_now + 1e-12
        assert np.array_equal(prof, acts[np.arange(4), idx])


def test_discrete_equilibrium_all_silent_at_huge_price(net3):
    acts = default_action_sets(net3, 6)
    idx, prof, status = discrete_equilibria(net3, acts, np.full((1, 3), 1e30))
    assert status.tolist() == ["ok"]
    assert np.array_equal(prof, np.zeros((1, 3)))
    assert np.array_equal(idx, np.zeros((1, 3), dtype=int))


def _menu_payoffs(net: NetworkInstance, k: int, opponents: np.ndarray, prices, menu_row: np.ndarray):
    """Follower k's payoff at each menu power against pure opponents, evaluated as one (M, K) batch of
    trial profiles, and the size of its terms: the largest efficiency plus charge lambda_k h_k0 p over the
    menu, which bounds every |payoff| and sets the scale of its rounding."""
    trials = np.tile(np.asarray(opponents, dtype=float), (len(menu_row), 1))
    trials[:, k - 1] = menu_row
    u = payoffs(net, trials, prices)[:, k - 1]
    return u, (payoffs(net, trials, 0.0)[:, k - 1] + prices[k - 1] * net.gain[k, 0] * menu_row).max()


def reference_best_response(
    net: NetworkInstance, k: int, opponents: np.ndarray, prices, menu_row: np.ndarray
) -> tuple[int, float]:
    """Index of follower k's payoff-maximizing action against pure opponents, and its relative margin.

    Ties break toward the smaller power, so a follower indifferent between
    transmitting and staying silent stays silent (the silent action pays
    exactly 0). The margin is the chosen payoff minus the runner-up's, over
    the size of the payoff's terms (``_menu_payoffs``). Rejects NaN or
    negative prices, so ``reference_equilibrium`` does too.
    """
    prices = validate_prices(net, prices)
    u, scale = _menu_payoffs(net, k, opponents, prices, menu_row)
    j = int(np.argmax(u))
    return j, (u[j] - np.delete(u, j).max()) / scale if scale else 0.0


def reference_equilibrium(
    net: NetworkInstance, action_sets, prices, max_rounds: int = 200
) -> tuple[np.ndarray, np.ndarray, str, float]:
    """Pure-strategy NE of the finite game by round-robin best response.

    Starts from the all-zero profile (the game's smallest point) and iterates
    until no follower moves ("ok"), the indices equal those of two rounds
    back ("cycle") or max_rounds rounds have run ("unconverged"). Returns
    (action indices, power profile, status, the smallest relative margin
    of any decision it took).
    """
    K = net.num_followers
    idx = np.zeros(K, dtype=int)
    profile = np.zeros(K)
    back = None
    margin = np.inf
    for _ in range(max_rounds):
        start = idx.copy()
        for k in range(1, K + 1):
            j, gap = reference_best_response(net, k, profile, prices, action_sets[k - 1])
            margin = min(margin, gap)
            idx[k - 1] = j
            profile[k - 1] = action_sets[k - 1, j]
        if np.array_equal(idx, start):
            return idx, profile, "ok", margin
        if np.array_equal(idx, back):
            return idx, profile, "cycle", margin
        back = start
    return idx, profile, "unconverged", margin


def _price_row(net, acts, kind, rng):
    """One (K,) price vector of the named kind for the batched-solver property test."""
    K = net.num_followers
    if kind == "zero":
        return np.zeros(K)
    if kind == "grid":  # a uniform point of the sweep grid
        return np.full(K, sweep_grid(net, 40)[rng.integers(40)])
    if kind == "per-link":
        return 10.0 ** rng.uniform(0.0, 14.0, K)
    # Algorithm-2 break-even prices of random strategies on one or two low actions: there the
    # lowest positive power pays about 0, a near-tie with silence.
    strategies = []
    for a in acts:
        support = rng.choice(min(3, len(a)), size=rng.integers(1, 3), replace=False)
        pi = np.zeros(len(a))
        pi[support] = rng.uniform(0.1, 1.0, support.size)
        strategies.append(pi / pi.sum())
    return algorithm2_price_step(net, acts, strategies)[0]


# A decision whose best and runner-up payoffs differ by less than this share of the size of the payoff's
# terms on the follower's menu is a near-tie: the solver's O(K) interference column and the reference's
# (M, K) trial block round differently, so there the two may choose differently. At a break-even price
# the terms cancel to a rounding residue, so |payoff| itself would be no scale: with M = 2 the only
# positive power of default K = 1 topology 2 pays 7.5e-9 by one rounding and 0 by the other, out of
# terms of 3.6e7.
NEAR_TIE = 1e-9


def _is_pure_ne(net, menu, profile, prices) -> bool:
    """No follower gains more than NEAR_TIE of its payoff's terms by a unilateral move on its menu."""
    for k in range(1, net.num_followers + 1):
        u, scale = _menu_payoffs(net, k, profile, prices, menu[k - 1])
        if u.max() - payoffs(net, profile, prices)[k - 1] > NEAR_TIE * scale:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 8),
    M=st.integers(2, 7),
    kinds=st.lists(st.sampled_from(["zero", "grid", "per-link", "algorithm2"]), min_size=1, max_size=6),
    max_rounds=st.sampled_from([1, 2, 200]),
)
def test_discrete_equilibria_match_the_scalar_round_robin(seed, K, M, kinds, max_rounds):
    if "algorithm2" in kinds:
        assume(K * M**K <= discrete.ENUMERATION_CAP)
    net = make_net(K, seed=seed % 500)
    acts = default_action_sets(net, M)
    rng = np.random.default_rng(seed)
    prices = np.array([_price_row(net, acts, kind, rng) for kind in kinds])
    with mock.patch.object(discrete, "MAX_ROUNDS", max_rounds):
        idx, profiles, status = discrete_equilibria(net, acts, prices)
    for b, lam in enumerate(prices):
        ref_idx, ref_profile, ref_status, margin = reference_equilibrium(net, acts, lam, max_rounds=max_rounds)
        if margin > NEAR_TIE:
            assert np.array_equal(idx[b], ref_idx)
            assert np.array_equal(profiles[b], ref_profile)
            assert status[b] == ref_status
        if status[b] == "ok":
            assert _is_pure_ne(net, acts, profiles[b], lam)


def test_discrete_equilibria_stop_at_the_round_cap(net3):
    acts = default_action_sets(net3, 6)
    with mock.patch.object(discrete, "MAX_ROUNDS", 1):
        idx, _, status = discrete_equilibria(net3, acts, np.zeros((1, 3)))
    assert idx.any()  # round 1 moved some follower off silence, so it is not yet a fixed point
    assert status.tolist() == ["unconverged"]
    assert discrete_equilibria(net3, acts, np.zeros((1, 3)))[2].tolist() == ["ok"]


def test_discrete_equilibria_name_a_two_cycle():
    # Default K = 200 topology 0 at point 12 of its 40-point sweep grid: 2-3 followers take turns
    # outbidding each other, so the round robin repeats every two rounds and has no fixed point.
    net = make_net(200, seed=0)
    acts = default_action_sets(net, 6)
    lam = np.full(200, sweep_grid(net, 40)[12])
    idx, profiles, status = discrete_equilibria(net, acts, lam[None])
    assert status.tolist() == ["cycle"]
    ref_idx, ref_profile, ref_status, margin = reference_equilibrium(net, acts, lam)
    assert margin > NEAR_TIE
    assert (ref_status, ref_idx.tolist(), ref_profile.tolist()) == ("cycle", idx[0].tolist(), profiles[0].tolist())
    assert not _is_pure_ne(net, acts, profiles[0], lam)


def _round_robin(net, menu, lam, P):
    """One more round of ``discrete_equilibria``'s round robin from the (1, K) profile P."""
    P = P.copy()
    charge = lam * net.gain[1:, 0]
    for k, a in enumerate(menu):
        G = net.own_gain[k] / (P @ net.cross_gain[:, k] + net.background[k])
        P[:, k] = a[np.argmax(own_payoff(a, G[:, None] * a, net.bandwidth, net.circuit_power, charge[k]), axis=1)]
    return P


@pytest.mark.parametrize(
    "K, topology, cycle_rows",
    [(200, 0, [12]), (200, 1, [7]), (200, 4, [8, 13]), (200, 5, [10]), (50, 10, [6])],
)
def test_each_cycle_row_has_a_moving_follower_outside_the_uniqueness_condition(K, topology, cycle_rows):
    # 40-point discrete sweeps of default topologies: every row the round robin 2-cycles on has a follower
    # that moves between the two profiles and fails the uniqueness condition at one of them.
    net = make_net(K, seed=topology)
    acts = default_action_sets(net, 6)
    prices = np.outer(sweep_grid(net, 40), np.ones(K))
    _, profiles, status = discrete_equilibria(net, acts, prices)
    assert np.flatnonzero(status == "cycle").tolist() == cycle_rows
    for row in cycle_rows:
        phases = np.vstack([profiles[row], _round_robin(net, acts, prices[row], profiles[row, None])])
        assert np.array_equal(_round_robin(net, acts, prices[row], phases[1:]), phases[:1])  # a 2-cycle
        unique = sufficient_conditions(net, phases)[0]
        moving = phases[0] != phases[1]
        assert (moving & ~unique.all(axis=0)).any()


# ------------------------------------------------------------------- learning


def test_initial_state_shape_and_validation():
    acts = np.array([[0.0, 0.1, 0.2]] * 2)
    st_ = initial_state(acts)
    assert np.array_equal(st_.pi, np.full((2, 3), 1 / 3))
    assert np.array_equal(st_.U, np.zeros((2, 3)))
    assert st_.t == 0
    assert np.array_equal(st_.powers, acts)
    with pytest.raises(ValueError):
        initial_state(acts[:, :1])
    with pytest.raises(ValueError):
        initial_state(acts, tau=0.0)


def test_first_step_writes_realized_payoff_into_estimate():
    # alpha1(1) = 1, so the sampled action's estimate becomes the realized
    # payoff itself; seed 0's first uniform draw lands on action 1.
    net = one_link_net()
    acts = np.array([[0.0, 0.05]])
    state = initial_state(acts, rng_seed=0)
    learning_step(state, net, np.zeros(1))
    assert state.t == 1
    assert state.U[0, 0] == 0.0
    assert state.U[0, 1] == follower_payoff(net, 1, np.array([0.05]), np.zeros(1))


def test_first_step_strategy_follows_update_rule():
    net = one_link_net()
    acts = np.array([[0.0, 0.05]])
    state = initial_state(
        acts, alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule(a=1.0, b=1.0), rng_seed=0
    )
    pi0 = state.pi.copy()
    learning_step(state, net, np.zeros(1))
    a2 = 1.0 / 2.0  # a/(1+b) at t = 1
    beta = _reference_logit(state.U[0], state.tau)
    assert np.allclose(state.pi[0], (1 - a2) * pi0[0] + a2 * beta, rtol=0, atol=1e-15)


def test_table_default_step_jumps_to_logit():
    # alpha2(1) = 1 under the 1/t^2 default: pi leaves the uniform start in
    # one step and lands exactly on the logit response of the estimates.
    net = one_link_net()
    acts = np.array([[0.0, 0.05]])
    state = initial_state(acts, rng_seed=0)
    learning_step(state, net, np.zeros(1))
    assert np.array_equal(state.pi[0], _reference_logit(state.U[0], 1.0))


def test_learning_preserves_simplex_every_step(net3):
    acts = default_action_sets(net3, 4)
    state = initial_state(acts, alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule(), rng_seed=2)
    lam = np.full(3, 1e11)
    for _ in range(200):
        learning_step(state, net3, lam)
        for k in range(3):
            validate_simplex(state.pi[k], atol=1e-12)


def _sentinel_layout(draws, M):
    """(K,) draws as ``_sample_actions`` takes them: (K, M), each row's draw then -1.0 in the last column."""
    return np.where(np.arange(M) < M - 1, draws[:, None], -1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=6),
        min_size=1,
        max_size=5,
    ),
    st.integers(0, 2**32 - 1),
)
def test_vectorized_sampling_matches_searchsorted(rows, seed):
    M = max(len(r) for r in rows)
    weights = np.array([r + [0.0] * (M - len(r)) for r in rows])
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    pi = weights / weights.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(pi, axis=1)
    # Half the draws land exactly on a CDF entry of their row.
    draws = np.where(
        rng.random(len(pi)) < 0.5, cdf[np.arange(len(pi)), rng.integers(0, M, len(pi))], rng.random(len(pi))
    )
    want = [min(int(np.searchsorted(np.cumsum(row), d)), M - 1) for row, d in zip(pi, draws)]
    assert _sample_actions(pi, _sentinel_layout(draws, M), np.full(pi.shape, 2.0)).tolist() == want


def test_sampling_caps_a_row_whose_cdf_rounds_below_the_draw():
    # Seven 1/7s sum to 1 - 2**-52, one step below 1 - 2**-53, the largest
    # draw rng.random() can return: that draw lies above the whole CDF, so
    # searchsorted gives M and the sample must be capped at M - 1.
    pi = np.full((1, 7), 1.0 / 7.0)
    draw = np.array([1.0 - 2.0**-53])
    assert np.cumsum(pi)[-1] == 1.0 - 2.0**-52
    assert int(np.searchsorted(np.cumsum(pi), draw[0])) == 7
    assert _sample_actions(pi, _sentinel_layout(draw, 7), np.full(pi.shape, 2.0)).tolist() == [6]


@settings(max_examples=40, deadline=None)
@given(
    K=st.integers(1, 3),
    M=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
    log_price=st.floats(0.0, 14.0),
)
def test_expected_payoffs_match_enumeration_oracle(K, M, seed, log_price):
    net = make_net(K, seed=seed % 500)
    rng = np.random.default_rng(seed)
    acts = default_action_sets(net, M)
    pis = [rng.dirichlet(np.ones(M)) for _ in range(K)]
    if rng.random() < 0.3:  # one follower silent for sure
        pis[int(rng.integers(K))] = np.eye(M)[0]
    prices = 10.0**log_price * rng.random(K)
    got = expected_payoffs(net, acts, pis, prices)
    for k in range(1, K + 1):
        want = enumerate_expected_payoff(net, k, acts, pis, prices)
        scale = enumerate_expected_payoff(net, k, acts, pis, np.zeros(K)) + abs(want)
        assert got[k - 1] == pytest.approx(want, rel=0.0, abs=1e-12 * scale)
        assert expected_follower_payoff(net, k, acts, pis, prices) == got[k - 1]


def _sparse_strategies(rng, K, M):
    """K strategies with exact zeros in arbitrary components, at least one action kept each."""
    pis = []
    for _ in range(K):
        keep = rng.random(M) < 0.5
        keep[rng.integers(M)] = True
        pi = rng.dirichlet(np.ones(M)) * keep
        pis.append(pi / pi.sum())
    return pis


def _assert_match_oracle(net, acts, pis, prices, got):
    K = net.num_followers
    for k in range(1, K + 1):
        want = enumerate_expected_payoff(net, k, acts, pis, prices)
        scale = enumerate_expected_payoff(net, k, acts, pis, np.zeros(K)) + abs(want)
        assert got[k - 1] == pytest.approx(want, rel=0.0, abs=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(1, 4),
    M=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    log_price=st.floats(0.0, 14.0),
)
def test_expected_payoffs_over_exact_zero_supports_match_oracle(K, M, seed, log_price):
    net = make_net(K, seed=seed % 500)
    rng = np.random.default_rng(seed)
    acts = default_action_sets(net, M)
    pis = _sparse_strategies(rng, K, M)
    prices = 10.0**log_price * rng.random(K)
    _assert_match_oracle(net, acts, pis, prices, expected_payoffs(net, acts, pis, prices))


class _GridShapes(np.ndarray):
    """Cross gains that record the shape of every grid multiplied by them."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.shapes.append(inputs[0].shape)
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(1, 4),
    M=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    log_price=st.floats(0.0, 14.0),
    budget=st.integers(1, 40),
)
def test_expected_payoffs_in_a_small_block_budget_match_oracle(K, M, seed, log_price, budget):
    net = make_net(K, seed=seed % 500)
    rng = np.random.default_rng(seed)
    acts = default_action_sets(net, M)
    pis = _sparse_strategies(rng, K, M)
    prices = 10.0**log_price * rng.random(K)
    gains = net.cross_gain.view(_GridShapes)
    gains.shapes = []
    recording = replace(net)
    object.__setattr__(recording, "cross_gain", gains)  # the frozen instance's derived field, swapped for the test
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrete, "BLOCK_CELLS", budget)
        got = expected_payoffs(recording, acts, pis, prices)
    support = np.count_nonzero(pis, axis=1)
    grids = iter(gains.shapes)
    for k in range(K):  # blocks come follower by follower; a silent one costs none
        on = int(np.count_nonzero(pis[k][1:]))
        rows_left = np.prod(support) // support[k] if on else 0
        while rows_left:  # the grid holds rows x K values, the SINR on x rows
            rows, columns = next(grids)
            assert columns == K and rows <= rows_left and rows * max(K, on) <= max(budget, K, on)
            rows_left -= rows
    assert next(grids, None) is None
    _assert_match_oracle(net, acts, pis, prices, got)


@settings(max_examples=200, deadline=None)
@given(
    K=st.integers(1, 8),
    M=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    price_kind=st.sampled_from(["zero", "scalar", "large"]),
)
def test_expected_payoffs_of_pure_strategies_are_bit_equal_to_payoffs(K, M, seed, price_kind):
    assume(K * M**K <= discrete.ENUMERATION_CAP)
    net = make_net(K, seed=seed % 500)
    rng = np.random.default_rng(seed)
    acts = default_action_sets(net, M)
    prices = {
        "zero": np.zeros(K),
        "scalar": np.full(K, rng.uniform(0.0, 1e9)),
        "large": 10.0 ** rng.uniform(8.0, 14.0) * rng.random(K),
    }[price_kind]
    for picks in rng.integers(M, size=(25, K)):  # a rounding difference shows on few profiles, so try many
        got = expected_payoffs(net, acts, np.eye(M)[picks], prices)
        assert np.array_equal(got, payoffs(net, acts[np.arange(K), picks], prices)), picks


@pytest.mark.parametrize("seed", range(8))
def test_expected_payoffs_of_pure_strategies_are_the_profile_payoffs(seed):
    rng = np.random.default_rng(seed)
    K, M = int(rng.integers(1, 6)), int(rng.integers(2, 7))
    net = make_net(K, seed=seed)
    acts = default_action_sets(net, M)
    picks = rng.integers(M, size=K)
    pis = np.eye(M)[picks]
    profile = acts[np.arange(K), picks]
    prices = 10.0 ** rng.uniform(0.0, 14.0) * rng.random(K)
    np.testing.assert_array_equal(expected_payoffs(net, acts, pis, prices), payoffs(net, profile, prices))


def test_run_learning_rejects_invalid_prices(net3):
    state = initial_state(default_action_sets(net3, 3))
    for prices in ([np.nan, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0], [[0.0, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="price"):
            run_learning(net3, np.array(prices), state, max_iters=5)


def test_run_learning_is_deterministic(net3):
    acts = default_action_sets(net3, 4)
    reports = []
    for _ in range(2):
        state = initial_state(acts, rng_seed=7)
        reports.append(run_learning(net3, np.zeros(3), state, max_iters=300))
    a, b = reports
    assert np.array_equal(a.strategies, b.strategies)
    assert np.array_equal(a.U, b.U)
    assert a.iterations == b.iterations


def test_table_defaults_freeze_quickly():
    # With alpha2 = 1/t^2 the strategy step sizes are summable: pi moves a
    # bounded total distance and the window detector fires almost at once.
    net = one_link_net()
    acts = np.array([[0.0, 0.05]])
    state = initial_state(acts, rng_seed=0)
    rep = run_learning(net, np.zeros(1), state, tol=1e-3, window=50, max_iters=5000)
    assert rep.converged
    assert rep.iterations <= 300


def test_single_follower_learns_the_logit_of_true_payoffs():
    # One follower, two actions: realized payoffs are deterministic, so the
    # estimates converge to the true values and pi to their logit response.
    net = one_link_net()
    acts = np.array([[0.0, 0.05]])
    state = initial_state(
        acts, alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule(), rng_seed=0
    )
    rep = run_learning(net, np.zeros(1), state, tol=0.0, max_iters=20_000)
    u1 = follower_payoff(net, 1, np.array([0.05]), np.zeros(1))
    target = _reference_logit(np.array([0.0, u1]), 1.0)
    assert np.abs(rep.strategies[0] - target).max() < 1e-2


def test_learning_abandons_transmission_at_punitive_price():
    net = one_link_net()
    acts = np.array([[0.0, 0.05]])
    state = initial_state(
        acts, alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule(), rng_seed=0
    )
    rep = run_learning(net, np.array([1e4]), state, tol=0.0, max_iters=5000)
    mean_p = float(rep.strategies[0] @ acts[0])
    assert mean_p < 0.05 * 0.05  # under 5% of the top action


def test_converged_estimates_are_consistent_with_opponent_strategies():
    # At a two-timescale rest point, U_k[j] should equal the expected payoff
    # of action j against the opponents' mixed strategies (computed by the
    # independent enumeration route).
    net = two_link_net()
    acts = np.array([[0.0, 0.1, 0.25]] * 2)
    state = initial_state(
        acts, alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule(), rng_seed=1
    )
    rep = run_learning(net, np.zeros(2), state, tol=0.0, max_iters=60_000)
    for k in (1, 2):
        for j in range(3):
            own = np.zeros(3)
            own[j] = 1.0
            pis = [own if i == k - 1 else rep.strategies[i] for i in range(2)]
            u_star = expected_follower_payoff(net, k, acts, pis, np.zeros(2))
            assert abs(rep.U[k - 1, j] - u_star) < 5e-2


def test_run_learning_rejects_tiny_window(net3):
    acts = default_action_sets(net3, 4)
    with pytest.raises(ValueError):
        run_learning(net3, np.zeros(3), initial_state(acts), window=1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tol=st.just(0.0) | st.floats(1e-4, 0.2),
    window=st.integers(2, 12),
    K=st.integers(1, 3),
    M=st.integers(2, 4),
)
def test_run_learning_stops_at_first_settled_window(seed, tol, window, K, M):
    # 1/t strategy steps keep pi moving, so both outcomes show up in 150 slots.
    net = make_net(K, seed=seed % 500)
    menu = default_action_sets(net, M)
    state = initial_state(menu, alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule(), rng_seed=seed)
    max_iters = 150
    rep = run_learning(net, np.zeros(K), state, tol=tol, window=window, max_iters=max_iters)
    T = rep.iterations
    assert rep.pi_trace.shape == (T, K, M)
    settled = [t for t in range(window, T + 1) if np.ptp(rep.pi_trace[t - window : t], axis=0).max() < tol]
    if rep.converged:
        assert settled[:1] == [T]
    else:
        assert (T, settled) == (max_iters, [])
    assert np.array_equal(rep.strategies, rep.pi_trace[-1])
    assert np.array_equal(rep.expected_power_trace, (rep.pi_trace * menu).sum(-1))


def _reference_sample_actions(pi, draws):
    return np.minimum((np.cumsum(pi, axis=1) < draws[:, None]).sum(axis=1), pi.shape[1] - 1)


def _reference_slot(state, net, prices):
    """One learning slot as a standalone function, kept as the reference the fused loop must match."""
    t = state.t + 1
    a1 = state.alpha1(t)
    a2 = state.alpha2(t)
    K = state.pi.shape[0]
    sampled = _reference_sample_actions(state.pi, state.rng.random(K))
    rows = np.arange(K)
    payoff = payoffs(net, state.powers[rows, sampled], prices)  # realized, from the pure joint action
    state.U[rows, sampled] += a1 * (payoff - state.U[rows, sampled])
    shifted = (state.U - state.U.max(axis=1, keepdims=True)) / state.tau
    e = np.exp(shifted)
    beta = e / e.sum(axis=1, keepdims=True)
    state.pi *= 1.0 - a2
    state.pi += a2 * beta
    state.t = t
    return state


def _reference_learning(net, prices, state, tol, window, max_iters):
    """Reference slots until the last ``window`` strategies span less than tol; (pi trace, converged)."""
    trace = []
    for _ in range(max_iters):
        _reference_slot(state, net, prices)
        trace.append(state.pi.copy())
        if len(trace) >= window and np.ptp(trace[-window:], axis=0).max() < tol:
            return np.array(trace), True
    return np.array(trace), False


@settings(max_examples=100, deadline=None)
@example(seed=0, K=4, M=5, tau=1.0, adapting=True, log_price=None, tol=1e-3, window=12, max_iters=300)
@example(seed=7, K=3, M=4, tau=1.0, adapting=False, log_price=10.0, tol=0.0, window=2, max_iters=300)
@example(seed=11, K=1, M=2, tau=1.0, adapting=True, log_price=14.0, tol=0.2, window=3, max_iters=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 4),
    M=st.integers(2, 5),
    tau=st.floats(0.05, 5.0),
    adapting=st.booleans(),
    log_price=st.none() | st.floats(0.0, 14.0),
    tol=st.just(0.0) | st.floats(1e-4, 0.2),
    window=st.integers(2, 12),
    max_iters=st.integers(1, 300),
)
def test_run_learning_matches_reference_slot_loop(seed, K, M, tau, adapting, log_price, tol, window, max_iters):
    net = make_net(K, seed=seed % 500)
    acts = default_action_sets(net, M)
    rng = np.random.default_rng(seed)
    prices = np.zeros(K) if log_price is None else 10.0**log_price * rng.random(K)
    # stock Table pair (1/t, 1/t^2) or the adapting pair (c = 0.6, 1.0)
    steps = (PowerLawSchedule(c=0.6), PowerLawSchedule()) if adapting else (PowerLawSchedule(), PowerLawSchedule(c=2.0))
    ref = initial_state(acts, tau=tau, alpha1=steps[0], alpha2=steps[1], rng_seed=seed)
    fused = initial_state(acts, tau=tau, alpha1=steps[0], alpha2=steps[1], rng_seed=seed)
    pi_trace, converged = _reference_learning(net, prices, ref, tol, window, max_iters)
    rep = run_learning(net, prices, fused, tol=tol, window=window, max_iters=max_iters)
    assert np.array_equal(rep.pi_trace, pi_trace)
    assert np.array_equal(rep.U, ref.U)
    assert np.array_equal(rep.strategies, ref.pi)
    assert (rep.iterations, rep.converged, fused.t) == (len(pi_trace), converged, ref.t)
    assert fused.rng.random() == ref.rng.random()  # the generator is left where the slots left it


@pytest.mark.parametrize("topology", range(8))
def test_run_learning_matches_reference_at_the_shape_the_studies_run(topology):
    # learning-k6, fig5 and fig6-7 learn on K = M = 6 with tau = 1, tol 1e-3 and window 50 (the adapting pair),
    # at zero price and at the prices Algorithm 2 returns: every bit, decision and draw is the reference loop's.
    net = make_net(6, seed=topology)
    learner = LearnerConfig(alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule(), rng_seed=topology)
    assert (learner.tau, learner.tol, learner.window) == (1.0, 1e-3, 50)
    acts = default_action_sets(net, 6)
    for prices in (np.zeros(6), run_algorithm2(net, acts, learner=learner).prices):
        steps = {"alpha1": learner.alpha1, "alpha2": learner.alpha2}
        ref, fused = (initial_state(acts, rng_seed=topology, **steps) for _ in range(2))
        pi_trace, converged = _reference_learning(net, prices, ref, learner.tol, learner.window, 2000)
        rep = run_learning(net, prices, fused, tol=learner.tol, window=learner.window, max_iters=2000)
        assert np.array_equal(rep.pi_trace, pi_trace)
        assert np.array_equal(rep.U, ref.U) and np.array_equal(rep.strategies, ref.pi)
        assert (rep.iterations, rep.converged, fused.t) == (len(pi_trace), converged, ref.t)
        assert fused.rng.random() == ref.rng.random()


@pytest.mark.parametrize("block", [None, 121, 1])  # stock: K = 6 crosses a 455-slot chunk; 121 and 1: small chunks
@pytest.mark.parametrize("tol", [1e-3, 0.0])  # 1e-3 settles inside a chunk, 0 runs to the cap
@pytest.mark.parametrize("K", [6, 40])
def test_run_learning_matches_reference_across_draw_chunks_and_memo_caps(monkeypatch, K, tol, block):
    # With M = 6, 121 gives K = 6 chunks of 3 slots and a memo of 10 payoffs, K = 40 one-slot chunks and a memo
    # of 1; 1 gives one-slot chunks and no memo at all.
    if block is not None:
        monkeypatch.setattr(discrete, "BLOCK_CELLS", block)
    net = make_net(K, seed=K)
    acts = default_action_sets(net, 6)
    ref, fused = (initial_state(acts, rng_seed=K) for _ in range(2))
    pi_trace, converged = _reference_learning(net, np.zeros(K), ref, tol, 50, 700)
    rep = run_learning(net, np.zeros(K), fused, tol=tol, window=50, max_iters=700)
    assert (rep.converged, rep.iterations < 700) == (tol > 0.0, tol > 0.0)
    assert np.array_equal(rep.pi_trace, pi_trace)
    assert np.array_equal(rep.U, ref.U) and np.array_equal(rep.strategies, ref.pi)
    assert (rep.iterations, rep.converged, fused.t) == (len(pi_trace), converged, ref.t)
    assert fused.rng.random() == ref.rng.random()  # rewound to where per-slot draws leave the generator


@pytest.mark.parametrize("adapting", [False, True])
def test_learning_steps_equal_one_run_of_as_many_slots(net3, adapting):
    steps = (PowerLawSchedule(c=0.6), PowerLawSchedule()) if adapting else (PowerLawSchedule(), PowerLawSchedule(c=2.0))
    acts = default_action_sets(net3, 4)
    prices = np.full(3, 1e10)
    stepped, run = (initial_state(acts, alpha1=steps[0], alpha2=steps[1], rng_seed=5) for _ in range(2))
    for _ in range(60):
        learning_step(stepped, net3, prices)
    rep = run_learning(net3, prices, run, tol=0.0, max_iters=60)
    assert np.array_equal(stepped.pi, rep.strategies) and np.array_equal(stepped.U, rep.U)
    assert stepped.t == run.t == 60
    assert stepped.rng.random() == run.rng.random()


def test_mixing_run_memory_stays_near_its_window():
    # K = 200, 3000 slots, 1/t strategy steps: joint actions never repeat, so the memo fills to its cap. The
    # per-slot loop peaked at 0.55 MB (a 0.48 MB window ring); the draw chunk and the capped memo may add 0.3 MB.
    # At BLOCK_CELLS // K payoffs the run peaked at 0.95 MB, with no cap at 1.75 MB.
    net = make_net(200, seed=0)
    learner = LearnerConfig(alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule(), tol=0.0, max_iters=3000)
    peak = traced_peak(lambda: learner._final_strategies(net, default_action_sets(net, 6), np.zeros(200)))
    assert peak <= 0.55e6 + 0.3e6


_SPOILED_STATES = {
    "tau-zero": ("tau", lambda s: setattr(s, "tau", 0.0)),
    "tau-nan": ("tau", lambda s: setattr(s, "tau", float("nan"))),
    "tau-negative": ("tau", lambda s: setattr(s, "tau", -1.0)),
    "tau-inf": ("tau", lambda s: setattr(s, "tau", float("inf"))),
    "t-negative": ("t", lambda s: setattr(s, "t", -3)),
    "rng-none": ("rng", lambda s: setattr(s, "rng", None)),
    "rng-legacy": ("rng", lambda s: setattr(s, "rng", np.random.RandomState(0))),
    "U-nan": ("U", lambda s: s.U.__setitem__((1, 2), float("nan"))),
    "U-shape": ("U", lambda s: setattr(s, "U", np.zeros((3, 3)))),
    "pi-shape": ("pi", lambda s: setattr(s, "pi", np.full((3, 3), 1.0 / 3.0))),
    "pi-off-simplex": ("pi", lambda s: setattr(s, "pi", np.full((3, 4), 0.3))),
    "pi-nan": ("pi", lambda s: s.pi.__setitem__((0, 0), float("nan"))),
}


@pytest.mark.parametrize("field, spoil", _SPOILED_STATES.values(), ids=_SPOILED_STATES.keys())
def test_run_learning_refuses_an_unusable_state_before_the_first_slot(net3, field, spoil):
    state = initial_state(default_action_sets(net3, 4), rng_seed=3)
    spoil(state)
    before = (state.t, np.array(state.U, copy=True), np.array(state.pi, copy=True))
    with pytest.raises(ValueError, match=rf"LearningState\.{field}\b"):
        run_learning(net3, np.zeros(3), state, max_iters=20)
    with pytest.raises(ValueError, match=rf"LearningState\.{field}\b"):
        learning_step(state, net3, np.zeros(3))
    assert state.t == before[0]
    np.testing.assert_array_equal(state.U, before[1])
    np.testing.assert_array_equal(state.pi, before[2])


@pytest.mark.parametrize("max_iters, tol", [(0, 1e-3), (-5, 1e-3), (10, float("nan")), (10, -1.0)])
def test_run_learning_rejects_bad_run_length_and_tol(net3, max_iters, tol):
    acts = default_action_sets(net3, 3)
    with pytest.raises(ValueError, match="max_iters >= 1 and tol >= 0"):
        run_learning(net3, np.zeros(3), initial_state(acts), tol=tol, max_iters=max_iters)
    with pytest.raises(ValueError, match="max_iters >= 1 and tol >= 0"):  # refused before any run
        LearnerConfig(alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule(), tol=tol, max_iters=max_iters)


def test_learning_csv_round_trip(tmp_path):
    net = one_link_net()
    acts = np.array([[0.0, 0.05]])
    state = initial_state(acts, rng_seed=0)
    rep = run_learning(net, np.zeros(1), state, max_iters=60)
    out = tmp_path / "learn.csv"
    write_learning_csv(rep, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "iteration,k,expected_power,pi_0,pi_1"
    assert len(lines) == 1 + rep.iterations


def _old_format_cell(value) -> str:
    """The cell formatter of the row-by-row export, kept verbatim as the byte reference."""
    if type(value) is not float:  # plain floats, the common cell, skip the type tests
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        if isinstance(value, np.integer):
            return str(int(value))
        if not isinstance(value, (float, np.floating)):
            return str(value)
        value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value in CSV row: {value!r}")
    return repr(value)


def _old_write_rows(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(_old_format_cell, row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _old_trace_rows(report):
    traces = zip(report.expected_power_trace.tolist(), report.pi_trace.tolist())
    for t, (powers, pis) in enumerate(traces, start=1):
        for k, (power, pi) in enumerate(zip(powers, pis), start=1):
            yield t, k, power, pi


def _old_write_learning_csv(report, path) -> None:
    M = report.pi_trace.shape[2]
    header = ["iteration", "k", "expected_power"] + [f"pi_{j}" for j in range(M)]
    _old_write_rows(path, header, ((t, k, power, *pi) for t, k, power, pi in _old_trace_rows(report)))


def _report(pi_trace, power_trace) -> LearningReport:
    return LearningReport(
        strategies=pi_trace[-1],
        U=np.zeros(pi_trace.shape[1:]),
        expected_power_trace=power_trace,
        pi_trace=pi_trace,
        iterations=len(pi_trace),
        converged=False,
    )


_EDGE_VALUES = [-0.0, 5e-324, 1e-300, 0.1, 1e16]


@settings(max_examples=40, deadline=None)
@given(
    T=st.integers(1, 300),
    K=st.integers(1, 8),
    M=st.integers(2, 7),
    pool=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 7, 4096]),
)
def test_learning_csv_bytes_match_the_cell_by_cell_export(tmp_path_factory, T, K, M, pool, seed, chunk):
    rng = np.random.default_rng(seed)
    values = np.array(_EDGE_VALUES + pool)

    def draw(shape):
        """Edge values and drawn floats, mixed with floats spread over 600 decades of either sign."""
        out = rng.choice(values, size=shape)
        spread = rng.random(shape) < 0.5
        out[spread] = rng.standard_normal(spread.sum()) * 10.0 ** rng.integers(-300, 300, spread.sum())
        return out

    report = _report(draw((T, K, M)), draw((T, K)))
    where = tmp_path_factory.mktemp("export")
    _old_write_learning_csv(report, where / "old.csv")
    with mock.patch.object(_csv, "CHUNK_ROWS", chunk):
        write_learning_csv(report, where / "new.csv")
    assert (where / "new.csv").read_bytes() == (where / "old.csv").read_bytes()
    assert sorted(p.name for p in where.iterdir()) == ["new.csv", "old.csv"]


@pytest.mark.parametrize("field", ["pi_trace", "expected_power_trace"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_learning_csv_refuses_a_non_finite_trace(tmp_path, field, bad):
    net = one_link_net()
    rep = run_learning(net, np.zeros(1), initial_state(np.array([[0.0, 0.05]]), rng_seed=0), max_iters=60)
    getattr(rep, field)[rep.iterations // 2, 0] = bad
    with pytest.raises(ValueError, match="non-finite value in learning trace"):
        write_learning_csv(rep, tmp_path / "learn.csv")
    assert list(tmp_path.iterdir()) == []


def test_run_learning_peaks_near_its_trace():
    # K = 20, M = 6 and every one of 2000 slots run: a 1.92 MB trace. The shrink in place and the blocked
    # expected powers hold the peak near 1.27x of it; a copy of the used trace and a full-size product took 3.2x.
    net = make_net(20, seed=0)
    state = initial_state(default_action_sets(net, 6), alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule())
    reports = []
    peak = traced_peak(lambda: reports.append(run_learning(net, np.zeros(20), state, tol=0.0, max_iters=2000)))
    (rep,) = reports
    assert rep.pi_trace.shape == (2000, 20, 6) and rep.pi_trace.flags.owndata
    assert peak <= 1.4 * rep.pi_trace.nbytes


def test_learning_csv_export_streams_in_bounded_memory(tmp_path):
    # A K = 20, 2000-slot report (40 000 rows, 5.8 MB of CSV) exports within 4 MB of traced memory; holding every
    # row as Python floats, lines and one joined string took 19.8 MB; streamed, the export peaks at 1.1 MB.
    rng = np.random.default_rng(0)
    pi = rng.dirichlet(np.ones(6), size=(2000, 20))
    report = _report(pi, pi @ np.arange(6.0))
    out = tmp_path / "trace.csv"
    peak = traced_peak(lambda: write_learning_csv(report, out))
    assert out.stat().st_size > 5_000_000
    assert peak <= 4_000_000
