"""Tests of the benchmark itself: every checker accepts today's outputs and
rejects a deliberately wrong one, and every workload runs end to end at a
tiny size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, run, workloads

TINY = {
    "continuous-k50": workloads.ContinuousK50(followers=6, panel=2, grid_count=10),
    "learning-k6": workloads.LearningK6(followers=3, actions=3, panel=2, max_outer=3, phase_max_iters=200),
    "enumeration-k7": workloads.EnumerationK7(followers=4, actions=3, topologies=1, profiles_per_topology=2),
}


@pytest.fixture
def tiny(tmp_path):
    return {name: dataclasses.replace(w, out_dir=tmp_path) if name == "learning-k6" else w for name, w in TINY.items()}


def _first_output(workload, seed=0):
    inp = workload.make_inputs(seed)[0]
    return inp, workload.run(inp)


def test_continuous_check_rejects_revenue_off_by_one_percent(tiny):
    net, out = _first_output(tiny["continuous-k50"])
    assert checks.check_continuous(net, out) == []
    best = int(np.argmax([row[1] for row in out.rows]))
    row = out.rows[best]
    wrong = dataclasses.replace(out, rows=out.rows[:best] + [(row[0], 1.01 * row[1], *row[2:])] + out.rows[best + 1:])
    assert any("revenue" in p for p in checks.check_continuous(net, wrong))


def test_continuous_check_rejects_a_follower_off_its_best_response(tiny):
    net, out = _first_output(tiny["continuous-k50"])
    profile = out.search.equilibrium.copy()
    k = int(np.argmax(profile))
    profile[k] *= 0.9
    wrong = dataclasses.replace(out, search=dataclasses.replace(out.search, equilibrium=profile))
    assert any(f"follower {k + 1} gains" in p for p in checks.check_continuous(net, wrong))


def test_learning_check_rejects_a_strategy_row_off_the_simplex(tiny):
    inp, out = _first_output(tiny["learning-k6"])
    assert checks.check_learning(inp, out, tiny["learning-k6"].max_outer) == []
    strategies = np.array(out.algorithm2.strategies)
    strategies[0, 0] += 0.01
    wrong = dataclasses.replace(out, algorithm2=dataclasses.replace(out.algorithm2, strategies=strategies))
    assert any("simplex" in p for p in checks.check_learning(inp, wrong, tiny["learning-k6"].max_outer))


def test_learning_check_rejects_a_csv_row_with_a_wrong_expected_power(tiny):
    inp, out = _first_output(tiny["learning-k6"])
    path = out.phases[0][3]
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(1.01 * float(cells[2]))
    lines[1] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    menu = checks.menus(inp.net, tiny["learning-k6"].actions)
    assert any("expected_power" in p for p in checks.learning_csv_problems(path, out.phases[0][2], menu))


def test_enumeration_check_rejects_a_price_scaled_by_1_01(tiny):
    inp, out = _first_output(tiny["enumeration-k7"])
    assert checks.check_enumeration(inp, out) == []
    prices, flagged, revenue = out
    assert flagged.any() and not flagged.all()
    assert any("net payoff" in p for p in checks.check_enumeration(inp, (1.01 * prices, flagged, revenue)))


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_at_a_tiny_size(tiny, name, trace):
    result = run.run_workload(tiny[name], seed=3, seconds=0.0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == result["details"]["inputs"] >= 1
    if trace:
        assert set(result["metrics"]) == {n for n, _ in run.LAYER_METRICS}
        assert result["metrics"]["network.generate_topology.total_s"]["value"] > 0.0
    else:
        assert set(result["metrics"]) == {"wall_s", "op_p50_ms", "peak_rss_mb"}
    assert all(m["value"] >= 0.0 for m in result["metrics"].values())


def test_a_tree_without_the_sources_exits_nonzero_without_a_result(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learning-k6", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
