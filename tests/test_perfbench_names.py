"""perfbench traces femtogame functions by name; a rename or deletion must fail here, not only there."""

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:  # perfbench sits beside src/, not inside the package
    sys.path.insert(0, ROOT)

from perfbench.spans import TRACED  # noqa: E402


@pytest.mark.parametrize("module, function", [entry[:2] for entry in TRACED])
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"femtogame.{module}"), function))


@pytest.mark.parametrize(
    "module, function, parameter",
    [("discrete", "expected_follower_payoff", "action_sets"), ("_csv", "write_rows", "path")],
)
def test_hooked_parameter_exists(module, function, parameter):
    fn = getattr(importlib.import_module(f"femtogame.{module}"), function)
    assert parameter in inspect.signature(fn).parameters


def _workload_tree() -> ast.Module:
    """perfbench/workloads.py, parsed and never run or edited."""
    return ast.parse((Path(ROOT) / "perfbench" / "workloads.py").read_text(encoding="utf-8"))


def _package_calls():
    """(dotted name, callable, positional count, keywords) for every ``fg.*`` or ``experiments.*`` call."""
    import femtogame as fg
    from femtogame import experiments

    modules = {"fg": fg, "experiments": experiments}
    return [
        (f"{node.func.value.id}.{node.func.attr}", getattr(modules[node.func.value.id], node.func.attr),
         len(node.args), [kw.arg for kw in node.keywords if kw.arg is not None])  # None: a ``**mapping``
        for node in ast.walk(_workload_tree())
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
    ]


def test_workload_calls_bind_to_the_package_signatures():
    # The benchmark calls these entry points with keywords; a renamed or dropped parameter would only show there,
    # as a run_failed workload.
    calls = _package_calls()
    assert {name for name, *_ in calls} >= {"fg.run_algorithm2", "fg.initial_state", "fg.run_learning",
                                           "fg.LearnerConfig", "experiments.continuous_sweep_rows"}
    for name, fn, positional, keywords in calls:
        try:
            inspect.signature(fn).bind_partial(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"perfbench/workloads.py calls {name} with {positional} positional and {keywords}: {exc}")


def test_workload_reads_only_learner_config_fields():
    import femtogame as fg

    read = {node.attr for node in ast.walk(_workload_tree())
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "learner"}
    assert read  # the parse found the learner's attributes
    assert read <= {field.name for field in dataclasses.fields(fg.LearnerConfig)}


def test_learning_csv_export_reaches_the_traced_write_rows_with_its_path(tmp_path):
    # perfbench's csv.write_rows span and byte count see a learning trace export only if write_learning_csv calls
    # the module-level write_rows that Tracer.install replaces, and passes it the file's path.
    import femtogame as fg
    from perfbench.spans import Tracer

    net = fg.generate_topology(fg.default_topology(0), 2, **fg.default_constants())
    steps = {"alpha1": fg.PowerLawSchedule(c=0.6), "alpha2": fg.PowerLawSchedule()}
    state = fg.initial_state(fg.default_action_sets(net, 3), rng_seed=0, **steps)
    report = fg.run_learning(net, np.zeros(2), state, max_iters=40)
    path = tmp_path / "trace.csv"
    tracer = Tracer()
    tracer.install()
    try:
        fg.write_learning_csv(report, path)
    finally:
        tracer.uninstall()
    counts = tracer.summary()
    assert counts["csv.write_rows.calls"] == 1.0
    assert counts["csv.write_rows.bytes"] == path.stat().st_size > 0
