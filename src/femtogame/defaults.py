"""Baseline scenario constants, stated once and overridable per experiment.

Power-type values are stored in linear watts (converted from their dBm
definitions); the SINR threshold is a linear ratio.
"""

from __future__ import annotations

from .network import TopologyConfig, dbm_to_watts

__all__ = [
    "BANDWIDTH_HZ",
    "MU_POWER_W",
    "FU_POWER_MAX_W",
    "CIRCUIT_POWER_W",
    "NOISE_W",
    "MU_SINR_THRESHOLD",
    "NUM_ACTIONS",
    "default_topology",
    "default_constants",
]

BANDWIDTH_HZ = 1e6  # 1 MHz
MU_POWER_W = dbm_to_watts(27.0)  # fixed MU transmit power
FU_POWER_MAX_W = dbm_to_watts(20.0)  # 0.1 W ceiling per follower
CIRCUIT_POWER_W = dbm_to_watts(3.0)  # p_a
NOISE_W = dbm_to_watts(-40.0)  # 1e-7 W at every receiver
MU_SINR_THRESHOLD = 10.0 ** (3.0 / 10.0)  # 3 dB, linear

NUM_ACTIONS = 6  # M


def default_topology(rng_seed: int = 0) -> TopologyConfig:
    """300 m macro disc, 15 m FU discs, exponents 4 (femto) / 2.5 (macro)."""
    return TopologyConfig(rng_seed=rng_seed)


def default_constants() -> dict:
    """Scenario constants as keyword arguments for generate_topology."""
    return {
        "bandwidth": BANDWIDTH_HZ,
        "noise_power": NOISE_W,
        "mu_power": MU_POWER_W,
        "power_max": FU_POWER_MAX_W,
        "circuit_power": CIRCUIT_POWER_W,
        "mu_sinr_threshold": MU_SINR_THRESHOLD,
    }
