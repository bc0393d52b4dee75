"""Payoff-side formulas against hand values and finite-difference oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtogame import (
    best_response,
    default_action_sets,
    efficiencies,
    expected_follower_payoff,
    expected_payoffs,
    follower_payoff,
    follower_sinr,
    interference,
    leader_revenue,
    payoffs,
    sinr_macro,
    solve_equilibria,
    sufficient_conditions,
    validate_power_profile,
    validate_prices,
)
from femtogame.experiments import mean_efficiency, sweep_grid
from femtogame.oracles import finite_difference_cross, finite_difference_gradient
from femtogame.payoff import own_gradient, own_scaled_gradient
from femtogame.pricing import zero_price_equilibrium

from conftest import hand_net, make_net


def test_efficiency_zero_power_is_zero(hand2):
    assert efficiencies(hand2, np.array([0.0, 0.5]))[0] == 0.0


def test_efficiency_unit_case():
    # Constructed so gamma = e - 1 and p + p_a = 1: efficiency is exactly W.
    denom = 0.1 + 0.1 * 1.0
    h11 = (math.e - 1.0) * denom / 0.5
    net = hand_net(
        gain=[[1.0, 0.1], [0.5, h11]],
        noise=[0.1, 0.1],
        mu_power=1.0,
        circuit_power=0.5,
        bandwidth=1.0,
    )
    assert efficiencies(net, np.array([0.5]))[0] == pytest.approx(1.0, rel=1e-12)


def test_efficiency_vanishes_at_huge_power():
    net = hand_net(
        gain=[[1.0, 1e-6], [0.5, 2.0]],
        noise=[1e-6, 1e-6],
        power_max=[1e7],
        circuit_power=1e-3,
    )
    grid = np.geomspace(1e-6, 1.0, 2000)
    peak = efficiencies(net, grid[:, None])[:, 0].max()
    far = efficiencies(net, np.array([1e6 * net.circuit_power]))[0]
    assert far < 1e-3 * peak


def test_follower_payoff_zero_power(hand2):
    assert follower_payoff(hand2, 1, np.array([0.0, 0.4]), np.array([3.0, 3.0])) == 0.0


def test_follower_payoff_zero_price_equals_efficiency(hand2):
    p = np.array([0.6, 0.2])
    assert follower_payoff(hand2, 1, p, np.zeros(2)) == efficiencies(hand2, p)[0]


def test_follower_payoff_negative_at_punitive_price(hand2):
    p = np.array([0.6, 0.2])
    grid = np.linspace(1e-6, 1.0, 2000)
    psi_max = efficiencies(hand2, np.column_stack([grid, np.full_like(grid, 0.2)]))[:, 0].max()
    lam = 10.0 * psi_max / (hand2.gain[1, 0] * p[0])
    assert follower_payoff(hand2, 1, p, np.array([lam, 0.0])) < 0.0


# The scalar views of the batched kernels, each called on K = 4 followers at zero prices.
_NET4 = make_net(4, seed=0)
_PURE4 = [np.eye(6)[j] for j in (0, 2, 5, 1)]  # one pure strategy per follower over the 6-power menu
_VIEWS = {
    "best_response": lambda k: best_response(_NET4, k, np.full(4, 0.01), np.zeros(4)),
    "follower_payoff": lambda k: follower_payoff(_NET4, k, np.full(4, 0.01), np.zeros(4)),
    "expected_follower_payoff": lambda k: expected_follower_payoff(
        _NET4, k, default_action_sets(_NET4, 6), _PURE4, np.zeros(4)
    ),
}


@pytest.mark.parametrize("view", _VIEWS)
@pytest.mark.parametrize("k", [0, -1, 5, 2.0, True, "1"], ids=repr)
def test_scalar_views_refuse_a_follower_outside_1_to_K(view, k):
    # k = 0 read the macro link's gain and the last follower's price; k = -1 the last follower.
    with pytest.raises(ValueError, match=r"follower index must be an integer in 1\.\.4"):
        _VIEWS[view](k)


def test_scalar_payoff_views_are_their_kernel_entries():
    p = np.full(4, 0.01)
    views = [follower_payoff(_NET4, np.int64(k), p, np.zeros(4)) for k in (1, 4)]
    assert views == payoffs(_NET4, p, 0.0)[[0, 3]].tolist()
    expected = expected_payoffs(_NET4, default_action_sets(_NET4, 6), _PURE4, np.zeros(4))
    assert _VIEWS["expected_follower_payoff"](4) == expected[3]


@pytest.mark.parametrize(
    "opponents, prices",
    [
        (np.full(4, 0.01), np.full(4, np.nan)),
        (np.full(4, 0.01), np.array([0.0, 0.0, 0.0, -1.0])),
        (np.full(4, 0.01), np.zeros(2)),
        (np.full(4, 0.01), np.full(4, np.inf)),
        (np.array([np.nan, 0.01, 0.01, 0.01]), np.zeros(4)),
        (np.array([0.01, -0.01, 0.01, 0.01]), np.zeros(4)),
        (np.array([0.01, np.inf, 0.01, 0.01]), np.zeros(4)),
        (np.full(3, 0.01), np.zeros(4)),
    ],
)
def test_best_response_refuses_bad_prices_and_opponents(opponents, prices):
    with pytest.raises(ValueError, match="price|power"):
        best_response(_NET4, 2, opponents, prices)


def test_best_response_takes_opponents_above_p_max():
    # The interference a follower sees scales past the power box; acceptance
    # criterion 04 checks the best response's scalability there.
    assert best_response(_NET4, 2, np.full(4, 0.4), np.zeros(4)) > 0.0


def test_leader_revenue_trivial_cases(hand2):
    p = np.array([0.3, 0.7])
    assert leader_revenue(hand2, p, np.zeros(2)) == 0.0
    assert leader_revenue(hand2, np.zeros(2), np.array([5.0, 5.0])) == 0.0


def test_leader_revenue_hand_sum():
    net = hand_net(
        gain=[[1.0, 0.1, 0.1], [0.5, 1.0, 0.1], [0.25, 0.1, 1.0]],
        noise=[0.1, 0.1, 0.1],
        power_max=[2.0, 2.0],
    )
    got = leader_revenue(net, np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert got == pytest.approx(1.5, rel=1e-15)


@given(st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=0.0, max_value=10.0))
def test_leader_revenue_linear_in_prices(a, b):
    net = hand_net(
        gain=[[1.0, 0.1, 0.1], [0.5, 1.0, 0.1], [0.25, 0.1, 1.0]],
        noise=[0.1, 0.1, 0.1],
        power_max=[2.0, 2.0],
    )
    p = np.array([0.4, 1.3])
    lam = np.array([a, b])
    assert leader_revenue(net, p, 2.0 * lam) == pytest.approx(
        2.0 * leader_revenue(net, p, lam), rel=1e-12, abs=1e-12
    )


def test_gradient_at_zero_closed_form(hand2):
    p = np.array([0.0, 0.3])
    G = hand2.gain[1, 1] / interference(hand2, p)[0]
    W, pa = hand2.bandwidth, hand2.circuit_power
    expected = W * G / pa
    assert own_gradient(p[0], G, W, pa, 0.0 * hand2.gain[1, 0]) == pytest.approx(expected, rel=1e-12)
    # A price above W*G/(p_a*h_k0) makes even the first watt unprofitable.
    lam = 1.01 * expected / hand2.gain[1, 0]
    assert own_gradient(p[0], G, W, pa, lam * hand2.gain[1, 0]) < 0.0


def test_gradient_matches_finite_difference():
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(100):
        net = make_net(4, seed=i)
        p = rng.uniform(0.005, 0.095, 4)
        lam = np.full(4, 10.0 ** rng.uniform(10, 15))
        k = int(rng.integers(1, 5))

        def u(x, k=k, p=p, lam=lam, net=net):
            q = p.copy()
            q[k - 1] = x
            return follower_payoff(net, k, q, lam)

        fd = finite_difference_gradient(u, p[k - 1], step=1e-6)
        G = net.gain[k, k] / interference(net, p)[k - 1]
        an = own_gradient(p[k - 1], G, net.bandwidth, net.circuit_power, lam[k - 1] * net.gain[k, 0])
        rel = abs(an - fd) / max(abs(an), abs(fd), 1.0)
        worst = max(worst, rel)
    assert worst < 1e-5


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(min_value=0.0, max_value=1.0),
    G=st.floats(min_value=1e-3, max_value=1e6),
    pa=st.floats(min_value=1e-4, max_value=1.0),
    charge=st.floats(min_value=0.0, max_value=1e8),
)
def test_scaled_gradient_has_the_sign_and_root_of_the_gradient(p, G, pa, charge):
    W = 1e6
    f, slope = own_scaled_gradient(p, G, W, pa, charge)
    gradient = own_gradient(p, G, W, pa, charge)
    scale = (1.0 + G * p) * (p + pa)
    # f's terms W*G, W*(1 + G p) log(1 + G p)/(p + p_a) and charge*scale cancel at the root: 1e-12 of their size
    noise = 1e-12 * (W * G + W * (1.0 + G * p) * math.log1p(G * p) / (p + pa) + charge * scale)
    assert abs(f - scale * gradient) <= noise
    assert np.sign(f) == np.sign(gradient) or abs(f) <= noise
    assert own_gradient(0.0, G, W, pa, charge) == W * G / pa - charge  # the batched solver's p = 0 test
    h = 1e-5 * (p + min(pa, 1.0 / G))  # small against p + p_a and 1/G + p, the scales of the two terms
    fd = (own_scaled_gradient(p + h, G, W, pa, charge)[0] - own_scaled_gradient(p - h, G, W, pa, charge)[0]) / (
        2.0 * h
    )
    assert slope < 0.0
    assert slope == pytest.approx(fd, rel=1e-4)


def test_cross_derivative_matches_finite_difference():
    rng = np.random.default_rng(43)
    worst = 0.0
    for i in range(100):
        net = make_net(4, seed=1000 + i)
        p = rng.uniform(0.005, 0.095, 4)
        k = int(rng.integers(1, 5))
        j = int(rng.choice([x for x in range(1, 5) if x != k]))

        def u(x, y, k=k, j=j, p=p, net=net):
            q = p.copy()
            q[k - 1] = x
            q[j - 1] = y
            return follower_payoff(net, k, q, np.zeros(4))

        fd = finite_difference_cross(
            u, p[k - 1], p[j - 1], step_x=1e-3, step_y=0.5,
            floor_x=0.01, floor_y=0.01, richardson=True,
        )
        an = sufficient_conditions(net, p)[2][k - 1, j - 1]
        rel = abs(an - fd) / max(abs(an), abs(fd), 1.0)
        worst = max(worst, rel)
    assert worst < 1e-4


def test_cross_derivative_vanishes_without_coupling():
    # h_jk at the positivity floor: the cross term scales linearly with it.
    net = hand_net(
        gain=[[1.0, 0.1, 0.1], [0.5, 1.0, 1e-300], [0.25, 0.2, 1.0]],
        noise=[0.1, 0.1, 0.1],
        power_max=[2.0, 2.0],
    )
    assert abs(sufficient_conditions(net, np.array([0.5, 0.5]))[2][1, 0]) < 1e-250


def test_cross_derivative_matrix_has_a_zero_diagonal(hand2):
    cross = sufficient_conditions(hand2, np.array([[0.1, 0.1], [0.0, 0.7]]))[2]
    assert cross.shape == (2, 2, 2)
    assert not np.diagonal(cross, axis1=1, axis2=2).any()
    assert (cross[:, 0, 1] != 0.0).all()


# Frozen copies of the scalar, k-indexed condition checks that ``sufficient_conditions`` replaced,
# the reference its rows must equal bit for bit.
def _ref_unique(net, p):
    signal = net.own_gain * p
    return p * signal / (interference(net, p) + signal) >= net.circuit_power


def _ref_increasing(net, k, p):
    return bool(p[k - 1] * follower_sinr(net, p)[k - 1] >= net.circuit_power)


def _ref_cross(net, k, j, p):
    denom = interference(net, p)[k - 1]
    H = net.gain[j, k] * net.gain[k, k] / (denom * denom)
    pk = p[k - 1]
    pa = net.circuit_power
    gamma = net.gain[k, k] * pk / denom
    total = pk + pa
    one_plus = 1.0 + gamma
    bracket = pk / (one_plus * total * total) + gamma / (one_plus * one_plus * total) - 1.0 / (one_plus * total)
    return net.bandwidth * H * bracket


@settings(max_examples=80, deadline=None)
@given(
    K=st.integers(1, 7),
    batch=st.sampled_from([(), (4,), (2, 3)]),
    seed=st.integers(0, 2**31 - 1),
    silent=st.floats(0.0, 0.6),
)
def test_sufficient_conditions_rows_equal_the_scalar_formulas(K, batch, seed, silent):
    net = make_net(K, seed=seed % 500)
    rng = np.random.default_rng(seed)
    P = rng.random(batch + (K,)) * net.power_max * (rng.random(batch + (K,)) >= silent)
    unique, increasing, cross = sufficient_conditions(net, P)
    assert unique.shape == increasing.shape == P.shape and cross.shape == P.shape + (K,)
    for b in np.ndindex(batch):
        p = P[b]
        assert np.array_equal(unique[b], _ref_unique(net, p))
        assert increasing[b].tolist() == [_ref_increasing(net, k, p) for k in range(1, K + 1)]
        ref = [[_ref_cross(net, k, j, p) if j != k else 0.0 for j in range(1, K + 1)] for k in range(1, K + 1)]
        assert np.array_equal(cross[b], ref)


def test_cross_derivative_is_the_finite_difference_of_own_gradient():
    # d/dp_j of own_gradient(p_k, h_kk / I_k(p)) by central differences. I_k is linear in p_j, so a step
    # of 1e-5 I_k / h_jk moves it by a relative 1e-5 whatever the size of h_jk. The price term drops out.
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(200):
        net = make_net(5, seed=4000 + i)
        p = rng.uniform(0.0, 0.1, 5) * (rng.random(5) < 0.8)
        cross = sufficient_conditions(net, p)[2]
        for k in range(5):
            for j in range(5):
                if j == k:
                    continue
                h = 1e-5 * interference(net, p)[k] / net.cross_gain[j, k]
                g = []
                for step in (h, -h):
                    q = p.copy()
                    q[j] += step
                    G = net.own_gain[k] / interference(net, q)[k]
                    g.append(own_gradient(p[k], G, net.bandwidth, net.circuit_power, 0.0))
                fd = (g[0] - g[1]) / (2.0 * h)
                worst = max(worst, abs(cross[k, j] - fd) / max(abs(cross[k, j]), abs(fd)))
    assert worst < 1e-7  # 3.7e-9 measured: truncation and rounding meet near this step


def test_validators_reject_out_of_bounds(net6):
    with pytest.raises(ValueError):
        validate_power_profile(net6, np.full(6, 0.2))
    with pytest.raises(ValueError):
        validate_power_profile(net6, np.full(5, 0.01))
    with pytest.raises(ValueError):
        validate_prices(net6, np.full(6, -1.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0, -5e-324])
@pytest.mark.parametrize(("shape", "ndim"), [((6,), 1), ((3, 6), 2), ((6,), (1, 2)), ((3, 6), (1, 2))])
def test_validate_prices_refuses_non_finite_and_negative_entries(net6, bad, shape, ndim):
    lam = np.full(shape, 1e10)
    lam.reshape(-1)[-1] = -0.0  # accepted: -0.0 >= 0
    assert np.array_equal(validate_prices(net6, lam, ndim=ndim), lam)
    lam.reshape(-1)[-3] = bad  # in the last row of a batch
    with pytest.raises(ValueError, match="finite and nonnegative"):
        validate_prices(net6, lam, ndim=ndim)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0, -5e-324, "above"])
@pytest.mark.parametrize(("shape", "ndim"), [((6,), 1), ((3, 6), 2), ((6,), (1, 2)), ((3, 6), (1, 2))])
def test_validate_power_profile_refuses_entries_outside_0_to_p_max(net6, bad, shape, ndim):
    p = np.broadcast_to(net6.power_max / 2.0, shape).copy()
    p.reshape(-1)[-1] = -0.0  # accepted: -0.0 >= 0
    p.reshape(-1)[-2] = net6.power_max[-2]  # accepted: p_max itself
    assert np.array_equal(validate_power_profile(net6, p, ndim=ndim), p)
    p.reshape(-1)[-3] = np.nextafter(net6.power_max[-3], np.inf) if bad == "above" else bad  # in the last row
    with pytest.raises(ValueError, match=r"out of \[0, p_max\] bounds"):
        validate_power_profile(net6, p, ndim=ndim)


_METRIC_ARGUMENTS = ["revenue profile", "revenue prices", "macro SINR profile"]


def _valid_argument(net, argument, batch):
    """A valid (K,) or (B, K) value for the argument: prices of 1e6, powers of 0.01 W."""
    return np.full(batch + (net.num_followers,), 1e6 if argument.endswith("prices") else 0.01)


def _call_metric(net, argument, value):
    """leader_revenue or sinr_macro with ``value`` as the named argument and a valid value for the other."""
    other = np.full(value.shape[:-1] + (net.num_followers,), 0.01)
    if argument == "revenue profile":
        return leader_revenue(net, value, 1e8 * other)
    if argument == "revenue prices":
        return leader_revenue(net, other, value)
    return sinr_macro(net, value)


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("argument", _METRIC_ARGUMENTS)
def test_metrics_reject_a_negative_value(net6, argument, batch):
    value = _valid_argument(net6, argument, batch)
    _call_metric(net6, argument, value)
    value[..., 2] = -1e-12
    with pytest.raises(ValueError, match="bounds|nonnegative"):
        _call_metric(net6, argument, value)


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("argument", _METRIC_ARGUMENTS)
def test_metrics_reject_nan(net6, argument, batch):
    value = _valid_argument(net6, argument, batch)
    value[..., -1] = np.nan
    with pytest.raises(ValueError, match="bounds|finite"):
        _call_metric(net6, argument, value)


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("argument", _METRIC_ARGUMENTS)
def test_metrics_reject_the_wrong_last_axis_length(net6, argument, batch):
    for length in (1, 5, 7):
        value = _valid_argument(make_net(length, seed=0), argument, batch)
        with pytest.raises(ValueError, match="length 6"):
            _call_metric(net6, argument, value)


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("argument", ["revenue profile", "macro SINR profile"])
def test_metrics_reject_a_power_above_p_max(net6, argument, batch):
    value = _valid_argument(net6, argument, batch)
    value[..., 0] = np.nextafter(net6.power_max[0], np.inf)
    with pytest.raises(ValueError, match="bounds"):
        _call_metric(net6, argument, value)


def _assert_metrics_keep_row_bits(net, P, prices):
    """Each batched metric equals, bit for bit, its 1-D call per row and the pre-batch 1-D formula."""
    h = net.gain[1:, 0]
    for name, metric, formula in (
        ("revenue", lambda p, lam: leader_revenue(net, p, lam), lambda p, lam: float(np.sum(lam * h * p))),
        (
            "mu_sinr",
            lambda p, lam: sinr_macro(net, p),
            lambda p, lam: net.gain[0, 0] * net.mu_power / (net.noise[0] + float(np.dot(h, p))),
        ),
        (
            "mean_efficiency",
            lambda p, lam: mean_efficiency(net, p),
            lambda p, lam: float(np.mean(efficiencies(net, p))),
        ),
    ):
        batch = metric(P, prices)
        assert batch.shape == (len(P),), name
        rows = [metric(p, lam) for p, lam in zip(P, prices)]
        assert np.array_equal(batch, rows), name
        assert np.array_equal(batch, [formula(p, lam) for p, lam in zip(P, prices)]), name


@pytest.mark.parametrize("K", [20, 50, 200])
def test_metrics_keep_row_bits_on_sweep_profiles(K):
    net = make_net(K, seed=0)
    prices = np.outer(sweep_grid(net, 40), np.ones(K))
    P = solve_equilibria(net, prices, zero_price_equilibrium(net).profile).profiles
    assert (P == 0.0).any() and (P > 0.0).any()
    _assert_metrics_keep_row_bits(net, P, prices)


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(1, 8),
    B=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    log_price=st.floats(0.0, 15.0),
)
def test_kernel_batch_matches_rows_and_literal_formula(K, B, seed, log_price):
    net = make_net(K, seed=seed % 500)
    rng = np.random.default_rng(seed)
    P = rng.uniform(0.0, 1.0, (B, K)) * net.power_max
    P[rng.random((B, K)) < 0.25] = 0.0
    prices = 10.0**log_price * rng.random(K)
    I, gamma = interference(net, P), follower_sinr(net, P)
    eff, u = efficiencies(net, P), payoffs(net, P, prices)
    assert I.shape == gamma.shape == eff.shape == u.shape == (B, K)
    for b, p in enumerate(P):
        for name, batch, row in (
            ("interference", I, interference(net, p)),
            ("sinr", gamma, follower_sinr(net, p)),
            ("efficiency", eff, efficiencies(net, p)),
            ("payoff", u, payoffs(net, p, prices)),
        ):
            np.testing.assert_allclose(batch[b], row, rtol=1e-12, atol=0.0, err_msg=name)
        for k in range(1, K + 1):
            denom = net.noise[k] + net.gain[0, k] * net.mu_power
            for j in range(1, K + 1):
                if j != k:
                    denom += net.gain[j, k] * p[j - 1]
            g = net.gain[k, k] * p[k - 1] / denom
            psi = net.bandwidth * math.log1p(g) / (p[k - 1] + net.circuit_power)
            charge = prices[k - 1] * net.gain[k, 0] * p[k - 1]
            assert I[b, k - 1] == pytest.approx(denom, rel=1e-12)
            assert gamma[b, k - 1] == pytest.approx(g, rel=1e-12, abs=0.0)
            assert eff[b, k - 1] == pytest.approx(psi, rel=1e-12, abs=0.0)
            # The payoff is a difference; compare on the scale of its terms.
            assert u[b, k - 1] == pytest.approx(psi - charge, rel=0.0, abs=1e-12 * (psi + charge))
            if p[k - 1] == 0.0:
                assert u[b, k - 1] == 0.0
    _assert_metrics_keep_row_bits(net, P, 10.0**log_price * rng.random((B, K)))
