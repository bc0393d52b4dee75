"""Experiment driver and Monte Carlo engine reproducing the simulation studies.

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

Every row carries the trial seed and a hash of the generating configuration,
so any row is reproducible from (experiment id, seed, config hash).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._csv import write_rows
from .continuous import run_algorithm1
from .defaults import default_constants, default_topology
from .discrete import (
    default_action_sets,
    discrete_equilibrium,
    initial_state,
    run_learning,
)
from .network import NetworkInstance, TopologyConfig, generate_topology, sinr_macro
from .payoff import efficiencies, leader_revenue
from .pricing import (
    LearnerConfig,
    PriceSearchConfig,
    asymptote_price,
    cutoff_price,
    run_algorithm2,
    se_price_search,
    zero_price_equilibrium,
)

__all__ = [
    "EXPERIMENT_IDS",
    "HEADERS",
    "ExperimentSpec",
    "MonteCarloResult",
    "montecarlo",
    "config_hash",
    "sweep_grid",
    "continuous_sweep_rows",
    "discrete_sweep_rows",
    "run_experiment",
]

EXPERIMENT_IDS = (
    "fig1-sweep",
    "fig2-3-se-compare",
    "fig4-discrete-sweep",
    "fig5-discrete-compare",
    "fig6-7-convergence",
)

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

# CSV header of each experiment; README's "CSV schemas" section mirrors it.
HEADERS = {
    "fig1-sweep": _SWEEP_HEADER,
    "fig2-3-se-compare": _COMPARE_HEADER + ("status",),
    "fig4-discrete-sweep": _SWEEP_HEADER,
    "fig5-discrete-compare": _COMPARE_HEADER + ("outer_iterations", "status"),
    "fig6-7-convergence": (
        "experiment",
        "seed",
        "config_hash",
        "phase",
        "iteration",
        "k",
        "expected_power_w",
        "pi_row",
        "status",
    ),
}


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
    num_actions: int = 6
    num_followers: int = 6
    k_values: tuple = (2, 4, 6)
    grid_count: int = 40
    search_grid_count: int = 24
    learn_max_iters: int = 2_000

    def __post_init__(self) -> None:
        if self.experiment_id not in EXPERIMENT_IDS:
            raise ValueError(f"unknown experiment id {self.experiment_id!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass
class MonteCarloResult:
    mean: float
    standard_error: float
    rows: list  # (seed, value) per trial, in seed order


def montecarlo(fn, trials: int, seed_base: int = 0) -> MonteCarloResult:
    """Run fn(seed) for seeds base..base+trials-1 and aggregate.

    Per-trial rows are retained for audit; the standard error is the sample
    standard deviation over sqrt(trials) (0 for a single trial).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = [(seed, float(fn(seed))) for seed in range(seed_base, seed_base + trials)]
    values = np.array([v for _, v in rows])
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloResult(mean=float(values.mean()), standard_error=stderr, rows=rows)


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
    digest = config_hash(
        {
            "experiment": spec.experiment_id,
            "topology": {
                "macro_radius": topo.macro_radius,
                "femto_user_radius": topo.femto_user_radius,
                "pathloss_exponent_fu": topo.pathloss_exponent_fu,
                "pathloss_exponent_mu": topo.pathloss_exponent_mu,
                "min_distance": topo.min_distance,
                "shadowing_sigma_db": topo.shadowing_sigma_db,
            },
            "constants": constants,
            "num_actions": spec.num_actions,
            "grid_count": spec.grid_count,
            "search_grid_count": spec.search_grid_count,
            "k_values": list(spec.k_values),
            "num_followers": spec.num_followers,
            "learn_max_iters": spec.learn_max_iters,
        }
    )
    return topo, constants, digest


def _make_network(topo: TopologyConfig, constants: dict, seed: int, K: int) -> NetworkInstance:
    cfg = replace(topo, rng_seed=seed)
    return generate_topology(cfg, K, **constants)


def sweep_grid(net: NetworkInstance, count: int) -> np.ndarray:
    """Log grid from deep inside the linear-payment regime to past dropout.

    Spans 1e-3 * min_k lambda^a_k up to 10 * max_k cutoff price (evaluated
    at the zero-price equilibrium), so both the efficiency plateau and the
    revenue roll-off are inside the sweep.
    """
    zp = zero_price_equilibrium(net)
    lam_a = asymptote_price(net, zp.profile)
    cutoffs = [cutoff_price(net, k, zp.profile) for k in range(1, net.num_followers + 1)]
    lo = 1e-3 * float(lam_a.min())
    hi = 10.0 * max(cutoffs)
    return np.geomspace(lo, hi, count)


def mean_efficiency(net: NetworkInstance, profile: np.ndarray) -> float:
    """Average follower efficiency at a pure power profile."""
    return float(np.mean(efficiencies(net, profile)))


def _metrics(net: NetworkInstance, p: np.ndarray, prices) -> tuple[float, float, float]:
    """(leader revenue, mean efficiency, MU SINR) at a pure power profile."""
    return leader_revenue(net, p, prices), mean_efficiency(net, p), sinr_macro(net, p)


def _scheme(net: NetworkInstance, p: np.ndarray, prices, converged: bool) -> dict:
    revenue, eff, mu = _metrics(net, p, prices)
    return {"efficiency": eff, "revenue": revenue, "mu_sinr": mu, "converged": converged}


def _failed_row(spec: ExperimentSpec, lead: tuple, exc: Exception) -> tuple:
    """A failed trial's row: its identifying cells, blanks, then the status."""
    blanks = ("",) * (len(HEADERS[spec.experiment_id]) - len(lead) - 1)
    return (*lead, *blanks, f"failed:{type(exc).__name__}")


def continuous_sweep_rows(net: NetworkInstance, grid: np.ndarray, inner_tol: float = 1e-7):
    """Equilibrium metrics per uniform price: (lambda, revenue, mean eff, MU SINR, converged)."""
    K = net.num_followers
    rows = []
    init = zero_price_equilibrium(net, tol=inner_tol).profile
    for lam in grid:
        prices = np.full(K, float(lam))
        report = run_algorithm1(net, prices, init=init, tol=inner_tol)
        p = report.final_profile
        rows.append((float(lam), *_metrics(net, p, prices), report.converged))
        init = p
    return rows


def discrete_sweep_rows(net: NetworkInstance, grid: np.ndarray, num_actions: int):
    """Pure-strategy discrete-NE metrics per uniform price.

    The finite game is solved exactly by best-response iteration at each
    grid point, so rows are deterministic: (lambda, revenue, mean
    efficiency, MU SINR, converged).
    """
    K = net.num_followers
    actions = default_action_sets(net, num_actions)
    rows = []
    for lam in grid:
        prices = np.full(K, float(lam))
        _, profile, converged = discrete_equilibrium(net, actions, prices)
        rows.append((float(lam), *_metrics(net, profile, prices), converged))
    return rows


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


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------


def _run_fig1(spec: ExperimentSpec, topo, constants, digest):
    rows = []
    per_seed = []
    for seed in range(spec.seed_base, spec.seed_base + spec.trials):
        try:
            net = _make_network(topo, constants, seed, spec.num_followers)
            grid = sweep_grid(net, spec.grid_count)
            metrics = continuous_sweep_rows(net, grid)
            eff0 = mean_efficiency(net, zero_price_equilibrium(net).profile)
            revenues = np.array([m[1] for m in metrics])
            effs = np.array([m[2] for m in metrics])
            per_seed.append(
                {
                    "seed": seed,
                    "interior_max": _interior_max(revenues),
                    "plateau_decades": _plateau_decades(grid, effs, eff0),
                }
            )
            for m in metrics:
                rows.append((spec.experiment_id, seed, digest, *m, "ok"))
        except Exception as exc:  # noqa: BLE001 - partial failures are data
            rows.append(_failed_row(spec, (spec.experiment_id, seed, digest), exc))
    summary = {
        "per_seed": per_seed,
        "interior_max_fraction": float(np.mean([s["interior_max"] for s in per_seed]))
        if per_seed
        else 0.0,
    }
    return rows, summary


def _scheme_metrics(net, prices, init):
    report = run_algorithm1(net, prices, init=init)
    return _scheme(net, report.final_profile, prices, report.converged)


def _run_fig23(spec: ExperimentSpec, topo, constants, digest):
    rows = []
    per_trial = []
    for K in spec.k_values:
        for seed in range(spec.seed_base, spec.seed_base + spec.trials):
            try:
                net = _make_network(topo, constants, seed, K)
                zp = zero_price_equilibrium(net)
                lam_a = asymptote_price(net, zp.profile)
                search = se_price_search(
                    net, PriceSearchConfig(grid_count=spec.search_grid_count)
                )
                schemes = {
                    "zero-price": _scheme_metrics(net, np.zeros(K), zp.profile),
                    "asymptote": _scheme_metrics(net, lam_a, zp.profile),
                    "se-search": _scheme(
                        net, search.equilibrium, search.prices, search.all_converged
                    ),
                }
                entry = {"k": K, "seed": seed}
                for name, m in schemes.items():
                    rows.append(
                        (spec.experiment_id, K, seed, digest, name)
                        + (m["efficiency"], m["revenue"], m["mu_sinr"], "ok")
                    )
                    entry[name] = m
                per_trial.append(entry)
            except Exception as exc:  # noqa: BLE001
                rows.append(_failed_row(spec, (spec.experiment_id, K, seed, digest), exc))
    summary = {"per_trial": per_trial}
    for K in spec.k_values:
        sub = [t for t in per_trial if t["k"] == K]
        if not sub:
            continue
        summary[f"k{K}"] = {
            "mean_eff_asymptote": float(np.mean([t["asymptote"]["efficiency"] for t in sub])),
            "mean_eff_se": float(np.mean([t["se-search"]["efficiency"] for t in sub])),
            "mean_rev_asymptote": float(np.mean([t["asymptote"]["revenue"] for t in sub])),
            "mean_rev_se": float(np.mean([t["se-search"]["revenue"] for t in sub])),
            "mean_mu_sinr_asymptote": float(np.mean([t["asymptote"]["mu_sinr"] for t in sub])),
            "mean_mu_sinr_se": float(np.mean([t["se-search"]["mu_sinr"] for t in sub])),
        }
    return rows, summary


def _run_fig4(spec: ExperimentSpec, topo, constants, digest):
    rows = []
    per_seed = []
    for seed in range(spec.seed_base, spec.seed_base + spec.trials):
        try:
            net = _make_network(topo, constants, seed, spec.num_followers)
            grid = sweep_grid(net, spec.grid_count)
            metrics = discrete_sweep_rows(net, grid, spec.num_actions)
            revenues = np.array([m[1] for m in metrics])
            per_seed.append({"seed": seed, "interior_max": _interior_max(revenues)})
            for m in metrics:
                rows.append((spec.experiment_id, seed, digest, *m, "ok"))
        except Exception as exc:  # noqa: BLE001
            rows.append(_failed_row(spec, (spec.experiment_id, seed, digest), exc))
    summary = {
        "per_seed": per_seed,
        "interior_max_fraction": float(np.mean([s["interior_max"] for s in per_seed]))
        if per_seed
        else 0.0,
    }
    return rows, summary


def _discrete_scheme_metrics(net, actions, prices):
    _, profile, converged = discrete_equilibrium(net, actions, prices)
    return _scheme(net, profile, prices, converged)


def _alg2_status(alg2) -> str:
    """Row status of a result that depends on Algorithm 2 meeting its SINR target."""
    return "ok" if alg2.converged else "unconverged"


def _run_fig5(spec: ExperimentSpec, topo, constants, digest):
    rows = []
    per_trial = []
    for K in spec.k_values:
        for seed in range(spec.seed_base, spec.seed_base + spec.trials):
            try:
                net = _make_network(topo, constants, seed, K)
                actions = default_action_sets(net, spec.num_actions)
                learner = replace(spec.learner, rng_seed=seed)
                zp = zero_price_equilibrium(net)
                lam_a = asymptote_price(net, zp.profile)

                grid = sweep_grid(net, spec.search_grid_count)
                sweep = discrete_sweep_rows(net, grid, spec.num_actions)
                best = int(np.argmax([m[1] for m in sweep]))
                se_prices = np.full(K, float(grid[best]))

                alg2 = run_algorithm2(net, actions, learner=learner, max_outer=20)
                schemes = {
                    "se-search": _discrete_scheme_metrics(net, actions, se_prices),
                    "asymptote": _discrete_scheme_metrics(net, actions, lam_a),
                    "algorithm2": _discrete_scheme_metrics(net, actions, alg2.prices),
                }
                entry = {
                    "k": K,
                    "seed": seed,
                    "outer_iterations": alg2.outer_iterations,
                    "converged": alg2.converged,
                }
                for name, m in schemes.items():
                    alg = name == "algorithm2"
                    rows.append(
                        (spec.experiment_id, K, seed, digest, name)
                        + (m["efficiency"], m["revenue"], m["mu_sinr"])
                        + ((alg2.outer_iterations, _alg2_status(alg2)) if alg else ("", "ok"))
                    )
                    entry[name] = m
                per_trial.append(entry)
            except Exception as exc:  # noqa: BLE001
                rows.append(_failed_row(spec, (spec.experiment_id, K, seed, digest), exc))
    return rows, {"per_trial": per_trial}


def _run_fig67(spec: ExperimentSpec, topo, constants, digest):
    rows = []
    per_seed = []
    for seed in range(spec.seed_base, spec.seed_base + spec.trials):
        try:
            net = _make_network(topo, constants, seed, spec.num_followers)
            actions = default_action_sets(net, spec.num_actions)
            learner = replace(spec.learner, rng_seed=seed)
            alg2 = run_algorithm2(net, actions, learner=learner, max_outer=20)
            phases = {
                "zero-price": (np.zeros(net.num_followers), "ok"),
                "algorithm2-price": (alg2.prices, _alg2_status(alg2)),
            }
            seed_info = {
                "seed": seed,
                "outer_iterations": alg2.outer_iterations,
                "converged": alg2.converged,
            }
            for phase, (prices, status) in phases.items():
                state = initial_state(
                    actions,
                    tau=learner.tau,
                    alpha1=learner.alpha1,
                    alpha2=learner.alpha2,
                    rng_seed=seed,
                )
                report = run_learning(
                    net,
                    prices,
                    state,
                    tol=learner.tol,
                    window=learner.window,
                    max_iters=spec.learn_max_iters,
                )
                seed_info[phase] = {
                    "converged": report.converged,
                    "iterations": report.iterations,
                }
                for t in range(report.iterations):
                    for k in range(1, net.num_followers + 1):
                        pi_text = ";".join(repr(float(x)) for x in report.pi_trace[t, k - 1])
                        rows.append(
                            (spec.experiment_id, seed, digest, phase, t + 1, k)
                            + (float(report.expected_power_trace[t, k - 1]), pi_text, status)
                        )
            per_seed.append(seed_info)
        except Exception as exc:  # noqa: BLE001
            rows.append(_failed_row(spec, (spec.experiment_id, seed, digest), exc))
    return rows, {"per_seed": per_seed}


_RUNNERS = {
    "fig1-sweep": _run_fig1,
    "fig2-3-se-compare": _run_fig23,
    "fig4-discrete-sweep": _run_fig4,
    "fig5-discrete-compare": _run_fig5,
    "fig6-7-convergence": _run_fig67,
}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute the named study, write its CSV, and return a summary dict."""
    topo, constants, digest = _spec_config(spec)
    rows, summary = _RUNNERS[spec.experiment_id](spec, topo, constants, digest)
    write_rows(spec.output_path, HEADERS[spec.experiment_id], rows)
    summary["experiment_id"] = spec.experiment_id
    summary["config_hash"] = digest
    summary["output_path"] = str(spec.output_path)
    summary["rows"] = len(rows)
    summary["rows_not_ok"] = sum(row[-1] != "ok" for row in rows)
    return summary
