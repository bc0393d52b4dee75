"""Scenario JSON: load, save, and unit-suffix handling.

A scenario file carries either a fully materialized ``network`` block
(every gain and noise value explicit) or a ``topology`` block plus
``constants`` from which a network is generated; an optional ``learner``
block configures discrete learning runs. One table per block states its
keys and how each is read, and ``save_network`` writes the ``network``
block from its table. Saved files write linear watts as JSON floats,
which round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import defaults
from .discrete import LearnerConfig, PowerLawSchedule
from .network import NetworkInstance, TopologyConfig, dbm_to_watts, generate_topology

__all__ = [
    "ScenarioError",
    "Scenario",
    "parse_power",
    "parse_ratio",
    "load_scenario",
    "save_network",
    "network_from_scenario",
]


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario file."""


def _parse_number(value, kind: str, unit: str, convert) -> float:
    """A plain number, or a numeric string; one ending in ``unit`` (any case) is passed through ``convert``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, str):
        raise ScenarioError(f"bad {kind} value {value!r}")
    text = value.strip()
    suffixed = text.lower().endswith(unit.lower())
    try:
        number = float(text[: -len(unit)] if suffixed else text)
    except ValueError as exc:
        raise ScenarioError(f"bad {unit if suffixed else kind} value {value!r}") from exc
    return convert(number) if suffixed else number


def parse_power(value) -> float:
    """A power field: plain number = watts, '<x> dBm' string converted."""
    return _parse_number(value, "power", "dBm", dbm_to_watts)


def parse_ratio(value) -> float:
    """A dimensionless field: plain number = linear, '<x> dB' converted."""
    return _parse_number(value, "ratio", "dB", lambda db: 10.0 ** (db / 10.0))


@dataclass
class Scenario:
    """Parsed scenario file."""

    network: NetworkInstance | None
    topology: TopologyConfig | None
    constants: dict
    learner: LearnerConfig
    num_actions: int
    num_followers: int | None


def _number(value):
    """A JSON number, kept as read; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _real(value) -> float:
    return float(_number(value))


def _integer(value) -> int:
    """An integral JSON number: 50 and 50.0 read as 50; 50.7 is refused."""
    if isinstance(_number(value), float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    return value


def _list_of(read):
    """A reader of a JSON list whose entries ``read`` reads, as a float array."""

    def read_list(value) -> np.ndarray:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        return np.array([read(entry) for entry in value], dtype=float)

    return read_list


def _read(name: str, block, table: dict, build):
    """``build(**fields)`` of a JSON object read through ``table`` (key -> (field, reader)). Refuses a non-object
    and unknown keys; a TypeError or ValueError becomes a ScenarioError naming the block and, from a reader, the key."""
    if not isinstance(block, dict):
        raise ScenarioError(f"{name} block must be a JSON object, got {block!r}")
    fields = {}
    for key, value in block.items():
        if key not in table:
            raise ScenarioError(f"unknown {name} field {key!r}")
        field, read = table[key]
        try:
            fields[field] = read(value)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{name} field {key!r}: {exc}") from exc
    try:
        return build(**fields)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{name} block: {exc}") from exc


# One table per block: JSON key -> (field, reader). Topology numbers keep their JSON type and learner and constants
# numbers become floats, as they always have: ``experiments`` hashes these objects into each row's config hash.
_NETWORK = {  # in the order save_network writes them
    "num_followers": ("num_followers", _integer),
    "bandwidth_hz": ("bandwidth", _real),
    "gain": ("gain", _list_of(_list_of(_real))),
    "noise": ("noise", _list_of(parse_power)),
    "mu_power": ("mu_power", parse_power),
    "power_max": ("power_max", _list_of(parse_power)),
    "circuit_power": ("circuit_power", parse_power),
    "mu_sinr_threshold": ("mu_sinr_threshold", parse_ratio),
    "positions": ("positions", _object),
}
_TOPOLOGY = {
    "macro_radius_m": ("macro_radius", _number),
    "femto_user_radius_m": ("femto_user_radius", _number),
    "pathloss_exponent_fu": ("pathloss_exponent_fu", _number),
    "pathloss_exponent_mu": ("pathloss_exponent_mu", _number),
    "min_distance_m": ("min_distance", _number),
    "shadowing_sigma_db": ("shadowing_sigma_db", _number),
    "rng_seed": ("rng_seed", _integer),
    "num_followers": ("num_followers", _integer),
}
_CONSTANTS = {key: (key, parse_power) for key in ("noise_power", "mu_power", "power_max", "circuit_power")}
_CONSTANTS |= {"bandwidth": ("bandwidth", _real), "mu_sinr_threshold": ("mu_sinr_threshold", parse_ratio)}
_SCHEDULE = {key: (key, _real) for key in "abc"}  # a / (t + b)**c


def _schedule(entry) -> PowerLawSchedule:
    return _read("schedule", entry, _SCHEDULE, PowerLawSchedule)


_LEARNER = {
    "tau": ("tau", _real),
    "alpha1": ("alpha1", _schedule),
    "alpha2": ("alpha2", _schedule),
    "rng_seed": ("rng_seed", _integer),
    "tol": ("tol", _real),
    "window": ("window", _integer),
    "max_iters": ("max_iters", _integer),
    "M": ("num_actions", _integer),
}


def _topology(num_followers=None, **fields) -> tuple[TopologyConfig, int | None]:
    return TopologyConfig(**fields), num_followers


def _learner(num_actions=defaults.NUM_ACTIONS, **fields) -> tuple[LearnerConfig, int]:
    return LearnerConfig(**fields), num_actions


def load_scenario(path: str | Path | None) -> Scenario:
    """Parse a scenario JSON file; a None path yields the all-defaults scenario."""
    try:
        raw = {} if path is None else json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be a JSON object")
    unknown = raw.keys() - {"network", "topology", "constants", "learner"}
    if unknown:
        raise ScenarioError(f"unknown scenario block {min(unknown)!r}")
    network = _read("network", raw["network"], _NETWORK, NetworkInstance) if "network" in raw else None
    topology, k = _read("topology", raw["topology"], _TOPOLOGY, _topology) if "topology" in raw else (None, None)
    constants = _read("constants", raw.get("constants", {}), _CONSTANTS, partial(dict, defaults.default_constants()))
    learner, num_actions = _read("learner", raw.get("learner", {}), _LEARNER, _learner)
    num_followers = k if k is not None else getattr(network, "num_followers", None)
    return Scenario(network, topology, constants, learner, num_actions, num_followers)


def network_from_scenario(
    scenario: Scenario,
    seed: int | None = None,
    num_followers: int | None = None,
) -> NetworkInstance:
    """Materialize the scenario's network, generating one if needed.

    ``seed`` and ``num_followers`` override the scenario for generated
    topologies; they are rejected for fully explicit networks (which have
    no randomness left to reseed).
    """
    if scenario.network is not None:
        if seed is not None or (
            num_followers is not None and num_followers != scenario.network.num_followers
        ):
            raise ScenarioError("explicit network block cannot be reseeded/resized")
        return scenario.network
    cfg = scenario.topology or defaults.default_topology()
    if seed is not None:
        cfg = replace(cfg, rng_seed=seed)
    K = num_followers if num_followers is not None else scenario.num_followers
    return generate_topology(cfg, 6 if K is None else K, **scenario.constants)


def save_network(net: NetworkInstance, path: str | Path) -> None:
    """Write a fully explicit scenario file through the ``network`` table; watt fields round-trip exactly."""
    block = {key: getattr(net, field) for key, (field, _) in _NETWORK.items() if key != "positions" or net.positions}
    block = {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in block.items()}
    Path(path).write_text(json.dumps({"network": block}, indent=2) + "\n", encoding="utf-8")
