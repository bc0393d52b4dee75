"""Command line front end.

Subcommands:

generate    draw a random topology and write it as a scenario network block
sweep       uniform-price sweep of the continuous or discrete game -> CSV
            (alias: price-sweep)
search      zooming grid search for the revenue-optimal price
            (alias: price-search)
asymptote   closed-form high-price approximation per link
learn       run the stochastic learning dynamics, optionally with the
            heuristic outer price loop (--algorithm2), trace -> CSV
experiment  run a named study from the experiments module

Exit codes: 0 success, 2 invalid input or configuration, 3 a required
computation failed to converge or an experiment wrote a row whose status
is not ok.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ._csv import write_rows
from .discrete import default_action_sets, write_learning_csv
from .experiments import (
    EXPERIMENT_IDS,
    STUDIES,
    ExperimentSpec,
    continuous_sweep_rows,
    discrete_sweep_rows,
    run_experiment,
    sweep_grid,
)
from .pricing import (
    PriceSearchConfig,
    asymptote_price,
    run_algorithm2,
    se_price_search,
    zero_price_equilibrium,
)
from .scenario import Scenario, ScenarioError, load_scenario, network_from_scenario, save_network

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3


def _network(args, scenario: Scenario):
    return network_from_scenario(scenario, seed=args.seed, num_followers=args.followers)


def cmd_generate(args, scenario) -> int:
    net = _network(args, scenario)
    save_network(net, args.out)
    print(f"wrote network with {net.num_followers} followers to {args.out}")
    return EXIT_OK


def cmd_sweep(args, scenario) -> int:
    net = _network(args, scenario)
    grid = sweep_grid(net, args.points)
    if args.game == "continuous":
        rows = continuous_sweep_rows(net, grid)
    else:
        rows = discrete_sweep_rows(net, grid, scenario.num_actions)
    write_rows(args.out, STUDIES["fig1-sweep"].header[3:8], (r[:5] for r in rows))  # sweep columns: no lead, no status
    if not all(r[4] for r in rows):
        cycles = [i for i, r in enumerate(rows) if r[-1] == "cycle"]
        capped = [i for i, r in enumerate(rows) if not r[4] and i not in cycles]
        print(f"wrote {len(rows)} rows to {args.out}; some price points did not converge "
              f"(0-based price rows: cycle {cycles}, round cap {capped})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _emit_json(payload: dict, out: str | None, what: str) -> None:
    """Write ``payload`` as indented JSON to ``out``, or print it when no --out was given."""
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {what} to {out}")
    else:
        print(text)


def cmd_search(args, scenario) -> int:
    net = _network(args, scenario)
    cfg = PriceSearchConfig(mode=args.mode, grid_count=args.points)
    result = se_price_search(net, cfg)
    if not result.all_converged:
        print("price search: follower dynamics failed to converge at some grid point", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    payload = {
        "mode": args.mode,
        "prices_per_watt": [float(x) for x in result.prices],
        "revenue": result.revenue,
        "boundary_max": result.boundary_max,
        "equilibrium_powers_w": [float(x) for x in result.equilibrium],
    }
    _emit_json(payload, args.out, "search result")
    if result.boundary_max:
        print("note: best price is a grid endpoint and was not refined; try more --points", file=sys.stderr)
    return EXIT_OK


def cmd_asymptote(args, scenario) -> int:
    net = _network(args, scenario)
    zp = zero_price_equilibrium(net)
    if not zp.converged:
        print("zero-price equilibrium did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    lam = asymptote_price(net, zp.profile)
    payload = {
        "asymptote_prices_per_watt": [float(x) for x in lam],
        "zero_price_powers_w": [float(x) for x in zp.profile],
    }
    _emit_json(payload, args.out, "asymptote prices")
    return EXIT_OK


def cmd_learn(args, scenario) -> int:
    net = _network(args, scenario)
    actions = default_action_sets(net, scenario.num_actions)
    learner = scenario.learner
    if args.seed is not None:
        learner = replace(learner, rng_seed=args.seed)
    if args.algorithm2:
        if args.price is not None:
            raise ValueError("--price does not apply to --algorithm2, which sets its own prices")
        result = run_algorithm2(net, actions, learner=learner)
        print(
            f"outer iterations: {result.outer_iterations}, converged: {result.converged}, "
            f"prices: {[float(x) for x in result.prices]}"
        )
        if args.out:
            header = ("outer", *(f"lambda_{k}" for k in range(1, net.num_followers + 1)),
                      "mean_expected_power_w", "mu_sinr_linear", "expected_revenue")
            rows = [
                (outer, *(float(x) for x in prices), float(np.mean(powers)), mu, revenue)
                for outer, prices, powers, mu, revenue in result.trace
            ]
            write_rows(args.out, header, rows)
            print(f"wrote outer-loop trace to {args.out}")
        return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE
    report = learner.run(net, actions, np.full(net.num_followers, 0.0 if args.price is None else args.price))
    print(f"iterations: {report.iterations}, converged: {report.converged}")
    if args.out:
        write_learning_csv(report, args.out)
        print(f"wrote learning trace to {args.out}")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_experiment(args, scenario) -> int:
    if scenario.network is not None:
        raise ScenarioError(
            "experiment studies draw their own topologies; give a topology block, not a network block"
        )
    study = STUDIES[args.id]
    if args.points is not None and study.points is None:
        raise ValueError(f"--points does not apply to {args.id}, which sweeps no prices")
    followers = args.followers if args.followers is not None else scenario.num_followers
    overrides = {}
    if followers is not None:
        overrides = {"k_values": (followers,)} if study.per_k else {"num_followers": followers}
    if args.points is not None:
        overrides[study.points] = args.points
    spec = ExperimentSpec(
        experiment_id=args.id,
        trials=args.trials,
        seed_base=args.seed if args.seed is not None else getattr(scenario.topology, "rng_seed", 0),
        output_path=args.out,
        topology=scenario.topology,
        constants=scenario.constants,
        learner=scenario.learner,
        num_actions=scenario.num_actions,
        **overrides,
    )
    summary = run_experiment(spec)
    print(json.dumps(summary, indent=2, default=str))
    if summary["rows_not_ok"]:
        print(f"{summary['rows_not_ok']} rows have a status other than ok", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="femtogame", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, aliases=(), out_required=False,
                seed_help="topology RNG seed (overrides the scenario's)"):
        p = sub.add_parser(name, aliases=list(aliases), help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", help="scenario JSON path")
        p.add_argument("--seed", type=int, default=None, help=seed_help)
        p.add_argument("--followers", type=int, default=None, help="number of follower links")
        p.add_argument("--out", required=out_required, help="output file path")
        return p

    command("generate", cmd_generate, "draw a topology and save it", out_required=True)

    p = command("sweep", cmd_sweep, "uniform-price sweep -> CSV", ["price-sweep"], out_required=True)
    p.add_argument("--points", type=int, default=40, help="price grid size")
    p.add_argument("--game", choices=("continuous", "discrete"), default="continuous")

    p = command("search", cmd_search, "revenue-optimal price search", ["price-search"])
    p.add_argument("--points", type=int, default=60, help="price grid size")
    p.add_argument("--mode", choices=("uniform-price", "per-link"), default="uniform-price")

    command("asymptote", cmd_asymptote, "closed-form high-price approximation")

    p = command("learn", cmd_learn, "stochastic learning run -> CSV",
                seed_help="topology RNG seed and learner RNG seed (overrides both of the scenario's)")
    p.add_argument("--price", type=float, help="uniform interference price (default 0)")
    p.add_argument("--algorithm2", action="store_true", help="run the heuristic outer price loop")

    p = command("experiment", cmd_experiment, "run a named study", out_required=True,
                seed_help="first trial seed: trial i draws its topology, and in fig5 and fig6-7 "
                "its learner's RNG, from seed + i (default: the topology block's rng_seed, else 0)")
    p.add_argument("--id", required=True, choices=EXPERIMENT_IDS)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--points", type=int, default=None,
                   help="price grid size: the sweep grid of fig1/fig4, the SE search grid of fig2-3/fig5")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:  # refuse before the work, not when writing its result
            if Path(args.out).is_dir():
                raise IsADirectoryError(f"cannot write {args.out}: it is a directory")
            if not Path(args.out).parent.is_dir():
                raise FileNotFoundError(f"cannot write {args.out}: no directory {Path(args.out).parent}")
        return args.run(args, load_scenario(args.config or None))
    except (ScenarioError, ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
