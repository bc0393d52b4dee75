"""The kernel's ``out=`` buffers give the bits of the plain expressions.

The ``_ref_*`` functions are the model kernel as it was written before it took
output buffers: one expression per function, a new array per operation. The
buffered kernel must match them with ``np.array_equal``, not within a
tolerance, for every profile shape, price kind, buffer choice and block size.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtogame import discrete
from femtogame.discrete import default_action_sets, expected_payoffs
from femtogame.network import follower_sinr, interference
from femtogame.payoff import own_payoff, payoffs

from conftest import make_net


def _ref_interference(net, p):
    p = np.asarray(p, dtype=float)
    return net.background + p @ net.cross_gain


def _ref_follower_sinr(net, p):
    p = np.asarray(p, dtype=float)
    return net.own_gain * p / _ref_interference(net, p)


def _ref_own_payoff(p, gamma, W, pa, charge):
    return W * np.log1p(gamma) / (p + pa) - charge * p


def _ref_payoffs(net, p, prices):
    p = np.asarray(p, dtype=float)
    charge = np.asarray(prices, dtype=float) * net.gain[1:, 0]
    return _ref_own_payoff(p, _ref_follower_sinr(net, p), net.bandwidth, net.circuit_power, charge)


def _ref_expected_payoffs(net, action_sets, strategies, prices, block_rows):
    K = net.num_followers
    support = [np.flatnonzero(pi) for pi in strategies]
    powers = [a[s] for a, s in zip(action_sets, support)]
    weights = [np.asarray(pi, dtype=float)[s] for pi, s in zip(strategies, support)]
    lead, rows = K, 1
    while lead and rows * support[lead - 1].size <= block_rows:
        lead -= 1
        rows *= support[lead].size
    profiles = np.empty((rows, K))
    prob = np.ones(rows)
    grid = np.indices([s.size for s in support[lead:]]).reshape(K - lead, rows)
    for i, idx in enumerate(grid, start=lead):
        profiles[:, i] = powers[i][idx]
        prob *= weights[i][idx]
    total = np.zeros(K)
    for p, w in zip(itertools.product(*powers[:lead]), itertools.product(*weights[:lead])):
        profiles[:, :lead] = p
        total += (math.prod(w) * prob) @ _ref_payoffs(net, profiles, prices)
    return total


def _prices(kind, rng, K):
    """'scalar': one Python float for every link; 'zero'; 'large': up to 1e14."""
    return {
        "scalar": float(rng.uniform(0.0, 50.0)),
        "zero": np.zeros(K),
        "large": 10.0 ** rng.uniform(8.0, 14.0) * rng.random(K),
    }[kind]


@given(
    K=st.integers(1, 6),
    batch=st.sampled_from([(), (7,), (3, 5)]),
    seed=st.integers(0, 2**31 - 1),
    price_kind=st.sampled_from(["scalar", "zero", "large"]),
)
@settings(max_examples=60, deadline=None)
def test_kernel_out_buffers_are_bit_equal_to_the_plain_expressions(K, batch, seed, price_kind):
    net = make_net(K, seed=seed % 500)
    rng = np.random.default_rng(seed)
    p = rng.random(batch + (K,)) * net.power_max * (rng.random(batch + (K,)) < 0.8)
    prices = _prices(price_kind, rng, K)
    W, pa = net.bandwidth, net.circuit_power
    charge = np.asarray(prices) * net.gain[1:, 0]
    want_i, want_g, want_u = _ref_interference(net, p), _ref_follower_sinr(net, p), _ref_payoffs(net, p, prices)

    for out in (None, np.full(p.shape, np.nan)):
        got = interference(net, p, out=out)
        assert np.array_equal(got, want_i) and (out is None or got is out)
        got = follower_sinr(net, p, out=out)
        assert np.array_equal(got, want_g) and (out is None or got is out)
        got = payoffs(net, p, prices, out=out)
        assert np.array_equal(got, want_u) and (out is None or got is out)
    assert np.array_equal(payoffs(net, p.tolist(), prices), want_u)

    want = _ref_own_payoff(p, want_g, W, pa, charge)
    assert np.array_equal(own_payoff(p, want_g, W, pa, charge), want)
    assert np.array_equal(own_payoff(p, want_g, W, pa, charge, out=np.empty(p.shape)), want)
    gamma = want_g.copy()
    assert own_payoff(p, gamma, W, pa, charge, out=gamma) is gamma  # out aliasing gamma
    assert np.array_equal(gamma, want)


@given(
    p=st.floats(0.0, 10.0),
    gamma=st.floats(0.0, 1e6),
    W=st.floats(1e3, 1e7),
    pa=st.floats(1e-3, 1.0),
    charge=st.floats(0.0, 1e9),
)
def test_own_payoff_on_python_floats_keeps_value_and_type(p, gamma, W, pa, charge):
    got, want = own_payoff(p, gamma, W, pa, charge), _ref_own_payoff(p, gamma, W, pa, charge)
    assert type(got) is type(want) is np.float64
    assert got == want or (math.isnan(got) and math.isnan(want))


@given(
    K=st.integers(1, 5),
    M=st.integers(2, 6),
    seed=st.integers(0, 2**31 - 1),
    price_kind=st.sampled_from(["scalar", "zero", "large"]),
    block=st.sampled_from(["one", "last", "default"]),
)
@settings(max_examples=60, deadline=None)
def test_expected_payoffs_with_one_block_buffer_are_bit_equal(K, M, seed, price_kind, block):
    net = make_net(K, seed=seed % 500)
    rng = np.random.default_rng(seed)
    acts = default_action_sets(net, M)
    pis = []
    for _ in range(K):  # exact zeros in arbitrary components, at least one action kept
        keep = rng.random(M) < 0.6
        keep[rng.integers(M)] = True
        pi = rng.dirichlet(np.ones(M)) * keep
        pis.append(pi / pi.sum())
    block_rows = {"one": 1, "last": int(np.count_nonzero(pis[-1])), "default": discrete.BLOCK_ROWS}[block]
    prices = _prices(price_kind, rng, K)
    prices = np.full(K, prices) if np.ndim(prices) == 0 else prices
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrete, "BLOCK_ROWS", block_rows)
        got = expected_payoffs(net, acts, pis, prices)
    assert np.array_equal(got, _ref_expected_payoffs(net, acts, pis, prices, block_rows))
