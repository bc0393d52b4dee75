"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--workload all`` runs every workload in turn, each in its own process,
and prints each one's result line after a ``# <name>`` line.

Set-up is timed first, in fresh interpreters. The timed phase then runs
every input of the workload once per pass, pass after pass, until
``--seconds`` have gone by; every output is checked afterwards. With
``--trace 0`` the last line of output holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a run whose femtogame functions are
wrapped in spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import perfbench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
SETUP_REPEATS = 5

# Per-layer metrics are reported per pass of the timed phase, except
# generate_topology, which runs once, while the inputs are made.
LAYER_METRICS = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])
SETUP_LAYERS = ("network.generate_topology.total_s",)


def setup_seconds(workload: str, seed: int) -> float:
    """Median, over SETUP_REPEATS fresh interpreters, of import plus input generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_workload(workload, seed: int, seconds: float, trace: bool, out_dir: Path | None = None) -> dict:
    """Make the inputs, run passes for ``seconds``, check every output.

    Returns the result object (``correct``, ``attempted``, ``failed``,
    ``metrics``) plus a ``details`` entry with per-operation records.
    """
    tracer = None
    if trace:
        from perfbench.spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        inputs = workload.make_inputs(seed)
        gc.collect()
        latencies, pass_times, records = [], [], []
        first = [None] * len(inputs)
        began = time.perf_counter()
        while True:
            pass_time = 0.0
            for i, inp in enumerate(inputs):
                t0 = time.perf_counter()
                try:
                    out, error = workload.run(inp), None
                except Exception as exc:  # noqa: BLE001 - an operation failed; record why
                    out, error = None, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                latencies.append(dt)
                pass_time += dt
                if error is None:
                    error = workload.unconverged(out)
                record = {"pass": len(pass_times), "input": i, "seconds": dt, "failure": error, "problems": []}
                if out is not None:
                    digest = workload.fingerprint(out)
                    if first[i] is None:
                        first[i] = (out, digest)
                    elif digest != first[i][1]:
                        record["problems"].append("output differs from the first pass")
                records.append(record)
            pass_times.append(pass_time)
            if time.perf_counter() - began >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems = {}
    for i, inp in enumerate(inputs):
        if first[i] is not None:
            try:
                problems[i] = workload.check(inp, first[i][0])
            except Exception as exc:  # noqa: BLE001 - a check that cannot run rejects the output
                problems[i] = [f"check raised {type(exc).__name__}: {exc}"]
    for record in records:
        if record["failure"] is None:
            record["problems"] += problems.get(record["input"], [])

    failed = sum(1 for r in records if r["failure"] or r["problems"])
    correct = not any(r["problems"] for r in records)
    passes = len(pass_times)
    if tracer is None:
        metrics = {
            "wall_s": {"value": statistics.median(pass_times), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        layers = tracer.summary()
        metrics = {}
        for name, unit in LAYER_METRICS:
            value = layers.get(name, 0.0)
            metrics[name] = {"value": value if name in SETUP_LAYERS else value / passes, "unit": unit}
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.dump(out_dir / f"{workload.name}-seed{seed}-spans.npz")
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "details": {"passes": passes, "inputs": len(inputs), "records": records},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        # One process per workload, so that each peak_rss_mb is its own.
        for name in WORKLOAD_NAMES:
            print(f"# {name}", flush=True)
            flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.call([sys.executable, __file__, "--workload", name, *flags])
            if code:
                return code
        return 0

    try:
        perfbench.use_source_tree()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    from perfbench.workloads import WORKLOADS

    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), perfbench.OUT)
    if setup_s is not None:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}

    perfbench.OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (perfbench.OUT / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    del result["details"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
