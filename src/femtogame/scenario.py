"""Scenario JSON: load, save, and unit-suffix handling.

A scenario file carries either a fully materialized ``network`` block
(every gain and noise value explicit) or a ``topology`` block plus
``constants`` from which a network is generated. Power-typed values accept
either a plain number (linear watts) or a string with a dBm suffix
("27 dBm"); the dimensionless SINR threshold accepts "3 dB". Saved files
always write linear watts as JSON floats, which round-trip exactly.
An optional ``learner`` block configures discrete learning runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
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


def _parse_network(block: dict) -> NetworkInstance:
    try:
        K = int(block["num_followers"])
        gain = np.array(block["gain"], dtype=float)
        noise = np.array([parse_power(v) for v in block["noise"]])
        power_max = np.array([parse_power(v) for v in block["power_max"]])
        return NetworkInstance(
            num_followers=K,
            bandwidth=float(block["bandwidth_hz"]),
            gain=gain,
            noise=noise,
            mu_power=parse_power(block["mu_power"]),
            power_max=power_max,
            circuit_power=parse_power(block["circuit_power"]),
            mu_sinr_threshold=parse_ratio(block["mu_sinr_threshold"]),
            positions=block.get("positions", {}),
        )
    except KeyError as exc:
        raise ScenarioError(f"network block missing field {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _parse_topology(block: dict) -> TopologyConfig:
    known = {
        "macro_radius_m": "macro_radius",
        "femto_user_radius_m": "femto_user_radius",
        "pathloss_exponent_fu": "pathloss_exponent_fu",
        "pathloss_exponent_mu": "pathloss_exponent_mu",
        "min_distance_m": "min_distance",
        "rng_seed": "rng_seed",
        "shadowing_sigma_db": "shadowing_sigma_db",
    }
    kwargs = {}
    for key, value in block.items():
        if key == "num_followers":
            continue
        if key not in known:
            raise ScenarioError(f"unknown topology field {key!r}")
        kwargs[known[key]] = value
    try:
        return TopologyConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _schedule(entry) -> PowerLawSchedule:
    """A learner step-size entry a / (t + b)**c: an object with any of a, b, c."""
    if not isinstance(entry, dict) or not set(entry) <= {"a", "b", "c"}:
        raise ScenarioError(f"bad schedule entry {entry!r}: expected an object with keys a, b, c")
    return PowerLawSchedule(**{key: float(value) for key, value in entry.items()})


# learner block field -> parser; absent fields keep LearnerConfig's defaults
_LEARNER_FIELDS = {
    "tau": float,
    "alpha1": _schedule,
    "alpha2": _schedule,
    "rng_seed": int,
    "tol": float,
    "window": int,
    "max_iters": int,
}


def _parse_learner(block: dict) -> tuple[LearnerConfig, int]:
    for key in block:
        if key != "M" and key not in _LEARNER_FIELDS:
            raise ScenarioError(f"unknown learner field {key!r}")
    try:
        fields = {key: _LEARNER_FIELDS[key](value) for key, value in block.items() if key != "M"}
        return LearnerConfig(**fields), int(block.get("M", defaults.NUM_ACTIONS))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path: str | Path | None) -> Scenario:
    """Parse a scenario JSON file; a None path yields the all-defaults scenario."""
    if path is None:
        raw = {}
    else:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be a JSON object")
    for name in ("network", "topology", "constants", "learner"):
        if not isinstance(raw.get(name, {}), dict):
            raise ScenarioError(f"scenario block {name!r} must be a JSON object")

    network = _parse_network(raw["network"]) if "network" in raw else None
    topology = _parse_topology(raw["topology"]) if "topology" in raw else None

    constants = defaults.default_constants()
    for key, value in raw.get("constants", {}).items():
        if key not in constants:
            raise ScenarioError(f"unknown constant {key!r}")
        if key == "mu_sinr_threshold":
            constants[key] = parse_ratio(value)
        elif key == "bandwidth":
            constants[key] = float(value)
        else:
            constants[key] = parse_power(value)

    learner, num_actions = _parse_learner(raw.get("learner", {}))
    num_followers = None
    for block in (raw.get("network"), raw.get("topology")):
        if block and "num_followers" in block:
            num_followers = int(block["num_followers"])
    return Scenario(
        network=network,
        topology=topology,
        constants=constants,
        learner=learner,
        num_actions=num_actions,
        num_followers=num_followers,
    )


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
    """Write a fully explicit scenario file; watt fields round-trip exactly."""
    payload = {
        "network": {
            "num_followers": net.num_followers,
            "bandwidth_hz": net.bandwidth,
            "gain": net.gain.tolist(),
            "noise": net.noise.tolist(),
            "mu_power": net.mu_power,
            "power_max": net.power_max.tolist(),
            "circuit_power": net.circuit_power,
            "mu_sinr_threshold": net.mu_sinr_threshold,
        }
    }
    if net.positions:
        payload["network"]["positions"] = net.positions
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
