"""The model kernel gives the bits of the plain expressions.

The ``_ref_*`` functions are the model kernel written plainly: one expression
per function, a new array per operation. The kernel, which reuses one array
per call and ``own_payoff``'s ``out=`` buffer, must match them with
``np.array_equal``, not within a tolerance, for every profile shape, price
kind and buffer choice. An expected-payoff enumeration's working memory
stays within a fixed bound.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtogame.discrete import default_action_sets
from femtogame.network import follower_sinr, interference
from femtogame.payoff import own_payoff, payoffs
from femtogame.pricing import algorithm2_price_step

from conftest import make_net


def _ref_interference(net, p):
    p = np.asarray(p, dtype=float)
    rows = [row @ net.cross_gain for row in p.reshape(-1, p.shape[-1])]  # each profile's own 1-D product
    return net.background + np.reshape(rows, p.shape)


def _ref_follower_sinr(net, p):
    p = np.asarray(p, dtype=float)
    return net.own_gain * p / _ref_interference(net, p)


def _ref_own_payoff(p, gamma, W, pa, charge):
    return W * np.log1p(gamma) / (p + pa) - charge * p


def _ref_payoffs(net, p, prices):
    p = np.asarray(p, dtype=float)
    charge = np.asarray(prices, dtype=float) * net.gain[1:, 0]
    return _ref_own_payoff(p, _ref_follower_sinr(net, p), net.bandwidth, net.circuit_power, charge)


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

    assert np.array_equal(interference(net, p), want_i)
    assert np.array_equal(follower_sinr(net, p), want_g)
    assert np.array_equal(payoffs(net, p, prices), want_u)
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


@pytest.mark.parametrize("seed", range(3))
def test_a_k7_price_step_allocates_at_most_1_8_mb(seed):
    # perfbench's enumeration-k7 mix: one silent follower, two near-pure and four Dirichlet(1) strategies
    rng = np.random.default_rng(seed)
    net = make_net(7, seed=seed)
    acts = default_action_sets(net, 6)
    pis = rng.dirichlet(np.ones(6), size=7)
    pis[0] = np.eye(6)[0]
    pis[1:3] = 0.02 * pis[1:3] + 0.98 * np.eye(6)[rng.integers(1, 6, size=2)]
    algorithm2_price_step(net, acts, pis)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        algorithm2_price_step(net, acts, pis)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.8e6
