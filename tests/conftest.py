"""Shared fixtures: small handcrafted networks and seeded default topologies."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from femtogame import NetworkInstance, default_constants, default_topology, generate_topology


def make_net(num_followers: int, seed: int, **overrides) -> NetworkInstance:
    """Default-constant topology with the given follower count and seed."""
    constants = default_constants()
    constants.update(overrides)
    return generate_topology(replace(default_topology(), rng_seed=seed), num_followers, **constants)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def hand_net(
    gain,
    noise,
    mu_power=1.0,
    power_max=None,
    bandwidth=1.0,
    circuit_power=1.0,
    mu_sinr_threshold=1.0,
) -> NetworkInstance:
    """Network with explicit gains/noise, for values checkable by hand."""
    gain = np.asarray(gain, dtype=float)
    K = gain.shape[0] - 1
    if power_max is None:
        power_max = np.ones(K)
    return NetworkInstance(
        num_followers=K,
        bandwidth=bandwidth,
        gain=gain,
        noise=np.asarray(noise, dtype=float),
        mu_power=mu_power,
        power_max=np.asarray(power_max, dtype=float),
        circuit_power=circuit_power,
        mu_sinr_threshold=mu_sinr_threshold,
    )


@pytest.fixture(scope="session")
def net6():
    return make_net(6, seed=0)


@pytest.fixture(scope="session")
def net3():
    return make_net(3, seed=1)


@pytest.fixture()
def hand2():
    # 2 followers, gains/noise chosen so every SINR is a short fraction
    return hand_net(
        gain=[[2.0, 0.5, 0.3], [0.4, 5.0, 0.2], [0.1, 0.3, 4.0]],
        noise=[0.1, 0.2, 0.3],
        mu_power=1.0,
        circuit_power=0.5,
    )
