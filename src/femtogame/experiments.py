"""Experiment driver reproducing the simulation studies.

Five named experiments emit plot-ready CSV (UTF-8, header row, '.' decimal):

fig1-sweep          uniform-price sweep of the continuous game (revenue,
                    mean efficiency, MU SINR per price point);
fig2-3-se-compare   zero price vs asymptote price vs searched SE price as
                    the number of followers varies, Monte Carlo averaged;
fig4-discrete-sweep uniform-price sweep of the discrete game solved to its
                    exact pure-strategy NE per price point;
fig5-discrete-compare  discrete game under searched SE price, asymptote
                    price, and the heuristic outer-loop price;
fig6-7-convergence  stochastic learning traces (expected power and
                    strategy rows), at zero price and at the outer-loop
                    price.

``STUDIES`` defines each one: its trial and summary functions, CSV header,
follower counts and learner dependence. Every row carries the trial seed and
a hash of the generating configuration, so any row is reproducible from
(experiment id, seed, config hash).
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ._csv import write_rows
from .continuous import solve_equilibria
from .defaults import NUM_ACTIONS, default_constants, default_topology
from .discrete import LearnerConfig, default_action_sets, discrete_equilibria
from .network import NetworkInstance, TopologyConfig, _count, generate_topology, sinr_macro
from .payoff import efficiencies, leader_revenue
from .pricing import (
    PriceSearchConfig,
    asymptote_price,
    price_grid,
    run_algorithm2,
    se_price_search,
    zero_price_equilibrium,
)

__all__ = [
    "Study",
    "STUDIES",
    "EXPERIMENT_IDS",
    "ExperimentSpec",
    "config_hash",
    "sweep_grid",
    "continuous_sweep_rows",
    "discrete_sweep_rows",
    "run_experiment",
]

_SWEEP_HEADER = (
    "experiment",
    "seed",
    "config_hash",
    "lambda_per_watt",
    "revenue",
    "mean_efficiency_per_joule",
    "mu_sinr_linear",
    "converged",
    "status",
)
_COMPARE_HEADER = (
    "experiment",
    "k",
    "seed",
    "config_hash",
    "scheme",
    "mean_efficiency_per_joule",
    "revenue",
    "mu_sinr_linear",
)


@dataclass(frozen=True)
class Study:
    """Everything that sets one study apart; ``STUDIES`` holds one per experiment id."""

    trial: Callable  # (spec, net, seed) -> (row tails, summary entry)
    summarize: Callable | None  # (spec, the trials' entries) -> summary fields, or None
    header: tuple  # CSV header; README's "CSV schemas" section mirrors it
    per_k: bool = False  # every seed runs once per follower count in ``k_values``, not once at ``num_followers``
    learns: bool = False  # rows depend on ``ExperimentSpec.learner``, so the config hash covers it
    points: str | None = None  # the ``ExperimentSpec`` field the CLI's --points sets; None: it sweeps no prices


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment request.

    ``topology``/``constants`` default to the baseline scenario;
    ``k_values`` applies to the comparison experiments, ``num_followers``
    to the sweeps and traces. ``grid_count`` sizes price grids and
    ``search_grid_count`` the inner SE searches of the comparisons.
    """

    experiment_id: str
    trials: int = 1
    seed_base: int = 0
    output_path: str | Path = "experiment.csv"
    topology: TopologyConfig | None = None
    constants: dict | None = None
    learner: LearnerConfig = LearnerConfig()
    num_actions: int = NUM_ACTIONS
    num_followers: int = 6
    k_values: tuple = (2, 4, 6)
    grid_count: int = 40
    search_grid_count: int = 24
    learn_max_iters: int = 2_000

    def __post_init__(self) -> None:
        if self.experiment_id not in EXPERIMENT_IDS:
            raise ValueError(f"unknown experiment id {self.experiment_id!r}")
        for name, low in (("trials", 1), ("seed_base", 0), ("num_actions", 2), ("learn_max_iters", 1),
                          ("num_followers", 1), ("grid_count", 2), ("search_grid_count", 2)):
            _count(getattr(self, name), name, low)  # num_actions is the learner block's M
        if not self.k_values:
            raise ValueError("k_values must be a non-empty list of follower counts >= 1")
        for i, K in enumerate(self.k_values):
            _count(K, f"k_values[{i}]", 1)


def config_hash(config: dict) -> str:
    """Short stable hash of a JSON-serializable configuration."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# shared building blocks
# ---------------------------------------------------------------------------


def _spec_config(spec: ExperimentSpec) -> tuple[TopologyConfig, dict, str]:
    topo = spec.topology or default_topology()
    constants = dict(spec.constants or default_constants())
    geometry = asdict(topo)
    del geometry["rng_seed"]  # each trial reseeds the topology with its own seed
    config = {
        "experiment": spec.experiment_id,
        "topology": geometry,
        "constants": constants,
        "num_actions": spec.num_actions,
        "grid_count": spec.grid_count,
        "search_grid_count": spec.search_grid_count,
        "k_values": list(spec.k_values),
        "num_followers": spec.num_followers,
        "learn_max_iters": spec.learn_max_iters,
    }
    if STUDIES[spec.experiment_id].learns:
        config["learner"] = asdict(spec.learner)
        del config["learner"]["rng_seed"]  # each trial learns with its own seed
    return topo, constants, config_hash(config)


def sweep_grid(net: NetworkInstance, count: int) -> np.ndarray:
    """Uniform-price ``price_grid`` at the zero-price equilibrium.

    Spans 1e-3 * min_k lambda^a_k up to 10 * max_k cutoff price, so both the
    efficiency plateau and the revenue roll-off are inside the sweep. Warns
    when that equilibrium did not converge, since the grid then rests on an
    unsettled profile.
    """
    zp = zero_price_equilibrium(net)
    if not zp.converged:
        warnings.warn(
            f"sweep grid built on a zero-price equilibrium that did not converge in {zp.rounds} rounds",
            RuntimeWarning,
            stacklevel=2,
        )
    return price_grid(net, zp.profile, 1.0, count)


def mean_efficiency(net: NetworkInstance, profile: np.ndarray):
    """Average follower efficiency, one value per pure power profile of ``profile`` shaped (..., K)."""
    return efficiencies(net, profile).mean(axis=-1)


def _metrics(net: NetworkInstance, P: np.ndarray, prices: np.ndarray) -> tuple[list, list, list]:
    """(leader revenue, mean efficiency, MU SINR) lists of floats, one entry per row of (B, K) pure profiles."""
    return leader_revenue(net, P, prices).tolist(), mean_efficiency(net, P).tolist(), sinr_macro(net, P).tolist()


def _scheme(revenue: float, eff: float, mu: float, converged: bool) -> dict:
    """A scheme's summary entry from its metrics, in the order of a sweep row's cells."""
    return {"efficiency": eff, "revenue": revenue, "mu_sinr": mu, "converged": converged}


def _schemes(net: NetworkInstance, names, P: np.ndarray, prices: np.ndarray, converged) -> dict:
    """Summary entries of named schemes, row b of the pure profiles P solving price row b."""
    return {name: _scheme(*m) for name, *m in zip(names, *_metrics(net, P, prices), converged)}


def _scheme_tail(name: str, m: dict) -> tuple:
    """A comparison row's cells after (experiment, k, seed, config_hash)."""
    return name, m["efficiency"], m["revenue"], m["mu_sinr"]


def continuous_sweep_rows(net: NetworkInstance, grid: np.ndarray):
    """Equilibrium metrics per uniform price: (lambda, revenue, mean eff, MU SINR, converged).

    One batched solve over the whole grid, every row started from the
    zero-price equilibrium.
    """
    prices = np.outer(grid, np.ones(net.num_followers))
    batch = solve_equilibria(net, prices, zero_price_equilibrium(net).profile)
    return list(zip(grid.tolist(), *_metrics(net, batch.profiles, prices), batch.converged.tolist()))


def discrete_sweep_rows(net: NetworkInstance, grid: np.ndarray, num_actions: int):
    """Pure-strategy discrete-NE metrics per uniform price: (lambda, revenue, mean eff, MU SINR, converged, status).

    One ``discrete_equilibria`` batch over the whole grid, solved exactly, so
    rows are deterministic; status is the solver's ``ok``, ``cycle`` or
    ``unconverged``.
    """
    prices = np.outer(grid, np.ones(net.num_followers))
    _, profiles, status = discrete_equilibria(net, default_action_sets(net, num_actions), prices)
    return list(zip(grid.tolist(), *_metrics(net, profiles, prices), (status == "ok").tolist(), status.tolist()))


def _plateau_decades(grid: np.ndarray, effs: np.ndarray, reference: float) -> float:
    """Widest contiguous log10 span where efficiency stays within 10% of reference."""
    ok = np.abs(effs - reference) <= 0.1 * reference
    best = 0.0
    start = None
    for i, flag in enumerate(ok):
        if flag and start is None:
            start = i
        if (not flag or i == len(ok) - 1) and start is not None:
            end = i if flag else i - 1
            if end > start:
                best = max(best, math.log10(grid[end] / grid[start]))
            start = None
    return best


def _interior_max(values: np.ndarray) -> bool:
    best = int(np.argmax(values))
    return 0 < best < len(values) - 1


def _alg2_status(alg2) -> str:
    """Row status of a result that depends on Algorithm 2 meeting its SINR target."""
    return "ok" if alg2.converged else "unconverged"


# ---------------------------------------------------------------------------
# trial functions: (spec, net, seed) -> (row tails, summary entry)
# ---------------------------------------------------------------------------


def _sweep_entry(rows: list, seed: int) -> dict:
    """Interior-max summary entry of a price sweep (fig1, fig4) from its (lambda, revenue, ...) rows."""
    return {"seed": seed, "interior_max": _interior_max(np.array([m[1] for m in rows]))}


def _fig1_trial(spec: ExperimentSpec, net: NetworkInstance, seed: int):
    grid = sweep_grid(net, spec.grid_count)
    metrics = continuous_sweep_rows(net, grid)
    entry = _sweep_entry(metrics, seed)
    eff0 = mean_efficiency(net, zero_price_equilibrium(net).profile)
    entry["plateau_decades"] = _plateau_decades(grid, np.array([m[2] for m in metrics]), eff0)
    return [(*m, "ok" if m[4] else "unconverged") for m in metrics], entry


def _fig4_trial(spec: ExperimentSpec, net: NetworkInstance, seed: int):
    rows = discrete_sweep_rows(net, sweep_grid(net, spec.grid_count), spec.num_actions)
    return rows, _sweep_entry(rows, seed)


def _fig23_trial(spec: ExperimentSpec, net: NetworkInstance, seed: int):
    zp = zero_price_equilibrium(net)
    search = se_price_search(net, PriceSearchConfig(grid_count=spec.search_grid_count))
    prices = np.array([np.zeros(net.num_followers), asymptote_price(net, zp.profile), search.prices])
    batch = solve_equilibria(net, prices[:2], zp.profile)
    schemes = _schemes(
        net,
        ("zero-price", "asymptote", "se-search"),
        np.vstack([batch.profiles, search.equilibrium]),
        prices,
        [*batch.converged.tolist(), search.all_converged],
    )
    status = {"se-search": "boundary" if search.boundary_max else "ok"}
    tails = [(*_scheme_tail(name, m), status.get(name, "ok")) for name, m in schemes.items()]
    return tails, {"k": net.num_followers, "seed": seed, **schemes}


def _fig5_trial(spec: ExperimentSpec, net: NetworkInstance, seed: int):
    actions = default_action_sets(net, spec.num_actions)
    sweep = discrete_sweep_rows(net, sweep_grid(net, spec.search_grid_count), spec.num_actions)
    best = sweep[int(np.argmax([m[1] for m in sweep]))]
    alg2 = run_algorithm2(net, actions, learner=replace(spec.learner, rng_seed=seed))
    prices = np.array([asymptote_price(net, zero_price_equilibrium(net).profile), alg2.prices])
    _, profiles, status = discrete_equilibria(net, actions, prices)
    schemes = {
        "se-search": _scheme(*best[1:5]),
        **_schemes(net, ("asymptote", "algorithm2"), profiles, prices, (status == "ok").tolist()),
    }
    alg2_cells = (alg2.outer_iterations, _alg2_status(alg2))
    tails = [
        (*_scheme_tail(name, m), *(alg2_cells if name == "algorithm2" else ("", "ok")))
        for name, m in schemes.items()
    ]
    entry = {
        "k": net.num_followers,
        "seed": seed,
        "outer_iterations": alg2.outer_iterations,
        "converged": alg2.converged,
        **schemes,
    }
    return tails, entry


def _fig67_trial(spec: ExperimentSpec, net: NetworkInstance, seed: int):
    actions = default_action_sets(net, spec.num_actions)
    learner = replace(spec.learner, rng_seed=seed)
    alg2 = run_algorithm2(net, actions, learner=learner)
    phases = {
        "zero-price": (np.zeros(net.num_followers), "ok"),
        "algorithm2-price": (alg2.prices, _alg2_status(alg2)),
    }
    entry = {"seed": seed, "outer_iterations": alg2.outer_iterations, "converged": alg2.converged}
    phase_learner = replace(learner, max_iters=spec.learn_max_iters)
    tails = []
    for phase, (prices, status) in phases.items():
        report = phase_learner.run(net, actions, prices)
        entry[phase] = {"converged": report.converged, "iterations": report.iterations}
        tails += [(f"{phase},{line}", status) for line in report._trace_lines(";")]  # phase ... pi as one cell
    return tails, entry


def _interior_max_fraction(spec: ExperimentSpec, entries: list) -> dict:
    fraction = float(np.mean([e["interior_max"] for e in entries])) if entries else 0.0
    return {"interior_max_fraction": fraction}


def _scheme_means(spec: ExperimentSpec, entries: list) -> dict:
    """Per K: mean efficiency, revenue and MU SINR at the asymptote and searched prices."""
    means = {}
    for K in spec.k_values:
        sub = [t for t in entries if t["k"] == K]
        if sub:
            means[f"k{K}"] = {
                f"mean_{short}_{label}": float(np.mean([t[scheme][metric] for t in sub]))
                for metric, short in (("efficiency", "eff"), ("revenue", "rev"), ("mu_sinr", "mu_sinr"))
                for scheme, label in (("asymptote", "asymptote"), ("se-search", "se"))
            }
    return means


# The one definition of each study; EXPERIMENT_IDS is a view of it.
STUDIES = {
    "fig1-sweep": Study(_fig1_trial, _interior_max_fraction, _SWEEP_HEADER, points="grid_count"),
    "fig2-3-se-compare": Study(
        _fig23_trial, _scheme_means, _COMPARE_HEADER + ("status",), per_k=True, points="search_grid_count"
    ),
    "fig4-discrete-sweep": Study(_fig4_trial, _interior_max_fraction, _SWEEP_HEADER, points="grid_count"),
    "fig5-discrete-compare": Study(
        _fig5_trial,
        None,
        _COMPARE_HEADER + ("outer_iterations", "status"),
        per_k=True,
        learns=True,
        points="search_grid_count",
    ),
    "fig6-7-convergence": Study(
        _fig67_trial,
        None,
        ("experiment", "seed", "config_hash", "phase", "iteration", "k", "expected_power_w", "pi_row", "status"),
        learns=True,
    ),
}
EXPERIMENT_IDS = tuple(STUDIES)


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute the named study, write its CSV, and return a summary dict.

    Every seed of every follower count K (``k_values`` for a study whose
    ``per_k`` is set, ``num_followers`` for the rest) draws its own
    topology and runs the study's trial function. A trial that raises
    leaves one ``failed:<Name>`` row and an entry in ``failures``. Each
    trial's rows are written before the next trial runs, so memory does not
    grow with ``trials``.
    """
    topo, constants, digest = _spec_config(spec)
    study = STUDIES[spec.experiment_id]
    entries, failures, counts = [], [], {"rows": 0, "rows_not_ok": 0}

    def rows():
        for K in spec.k_values if study.per_k else (spec.num_followers,):
            for seed in range(spec.seed_base, spec.seed_base + spec.trials):
                where = {"k": K, "seed": seed} if study.per_k else {"seed": seed}
                lead = (spec.experiment_id, *where.values(), digest)
                try:
                    net = generate_topology(replace(topo, rng_seed=seed), K, **constants)
                    tails, entry = study.trial(spec, net, seed)
                    entries.append(entry)
                except Exception as exc:  # noqa: BLE001 - partial failures are data
                    blanks = ("",) * (len(study.header) - len(lead) - 1)
                    tails = [(*blanks, f"failed:{type(exc).__name__}")]
                    failures.append({**where, "error": f"{type(exc).__name__}: {exc}"})
                for tail in tails:
                    counts["rows"] += 1
                    counts["rows_not_ok"] += tail[-1] != "ok"
                    yield lead + tail
                del tails  # written: the next trial runs without them

    write_rows(spec.output_path, study.header, rows())
    summary = {"per_trial" if study.per_k else "per_seed": entries}
    if study.summarize is not None:
        summary.update(study.summarize(spec, entries))
    summary["experiment_id"] = spec.experiment_id
    summary["config_hash"] = digest
    summary["output_path"] = str(spec.output_path)
    summary.update(counts)
    summary["failures"] = failures
    return summary
