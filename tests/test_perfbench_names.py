"""perfbench traces femtogame functions by name; a rename or deletion must fail here, not only there."""

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
