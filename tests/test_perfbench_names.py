"""perfbench traces femtogame functions by name; a rename or deletion must fail here, not only there."""

import importlib
import inspect
import sys
from pathlib import Path

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
