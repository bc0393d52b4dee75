"""The package's public names: a deleted or renamed function must fail here, not leave a dangling export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import femtogame
from femtogame import experiments, oracles, pricing

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(femtogame.__path__))


def _package_imports():
    """(submodule, name) for every ``from .submodule import name`` in ``femtogame/__init__.py``."""
    tree = ast.parse(Path(femtogame.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"femtogame.{module}")
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [name for name in exported if not hasattr(mod, name)] == []


def test_the_package_imports_only_exported_names():
    imports = _package_imports()
    assert imports  # the parse found the package's imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if name not in getattr(importlib.import_module(f"femtogame.{module}"), "__all__", ())
    ]
    assert missing == []


def _net(K=2):
    return femtogame.generate_topology(femtogame.default_topology(0), K, **femtogame.default_constants())


def _learning(t=0, pi_shift=0.0, **kwargs):
    """run_learning from a fresh K = 2, M = 3 state, its step count set to ``t`` and pi[0, 0] raised by ``pi_shift``."""
    net = _net()
    state = femtogame.initial_state(femtogame.default_action_sets(net, 3))
    state.t = t
    state.pi[0, 0] += pi_shift
    return lambda: femtogame.run_learning(net, np.zeros(2), state, **{"max_iters": 5, **kwargs})


def _algorithm2(max_outer):
    net = _net()
    actions = femtogame.default_action_sets(net, 3)
    return lambda: pricing.run_algorithm2(net, actions, femtogame.LearnerConfig(max_iters=5), max_outer=max_outer)


def _instance(num_followers):
    net = _net()
    fields = ("bandwidth", "gain", "noise", "mu_power", "power_max", "circuit_power", "mu_sinr_threshold")
    return lambda: femtogame.NetworkInstance(num_followers, **{name: getattr(net, name) for name in fields})


def _spec(**fields):
    return lambda: experiments.ExperimentSpec("fig2-3-se-compare", **fields)


_REFUSED = {
    "run_algorithm2-max_outer-True": ("max_outer", _algorithm2(True)),
    "run_algorithm2-max_outer-2.5": ("max_outer", _algorithm2(2.5)),
    "LearnerConfig-max_iters-True": ("max_iters", lambda: femtogame.LearnerConfig(max_iters=True)),
    "LearnerConfig-window-2.5": ("window", lambda: femtogame.LearnerConfig(window=2.5)),
    "run_learning-tol-inf": ("tol", _learning(tol=float("inf"))),
    "run_learning-max_iters-True": ("max_iters", _learning(max_iters=True)),
    "run_learning-state-t-True": (r"LearningState\.t\b", _learning(t=True)),
    "run_learning-state-pi-row-sum": (r"LearningState\.pi\b", _learning(pi_shift=5e-10)),
    "initial_state-tau-inf": ("tau", lambda: femtogame.initial_state(np.array([[0.0, 1.0]]), tau=float("inf"))),
    "initial_state-rng_seed-True": ("rng_seed", lambda: femtogame.initial_state(np.array([[0.0, 1.0]]), rng_seed=True)),
    "best_response-tol-True": ("tol", lambda: femtogame.best_response(_net(), 1, np.zeros(2), np.zeros(2), tol=True)),
    "solve_equilibria-tol-True": ("tol", lambda: femtogame.solve_equilibria(_net(), np.zeros((1, 2)), 0.0, tol=True)),
    "PowerLawSchedule-a-True": (r"\ba must be", lambda: femtogame.PowerLawSchedule(a=True)),
    "PriceSearchConfig-grid_count-2.5": ("grid_count", lambda: femtogame.PriceSearchConfig(grid_count=2.5)),
    "price_grid-count-3.0": (r"\bcount must be", lambda: pricing.price_grid(_net(), np.zeros(2), 1.0, 3.0)),
    "generate_topology-K-True": ("num_followers", lambda: _net(True)),
    "generate_topology-K-2.0": ("num_followers", lambda: _net(2.0)),
    "NetworkInstance-num_followers-2.0": ("num_followers", _instance(2.0)),
    "ExperimentSpec-k_values-2.5": ("k_values", _spec(k_values=(2.5,))),
    "ExperimentSpec-k_values-True": ("k_values", _spec(k_values=(True,))),
    "OracleConfig-grid_points-1000.5": ("grid_points", lambda: oracles.OracleConfig(grid_points=1000.5)),
}


@pytest.mark.parametrize("field, call", _REFUSED.values(), ids=_REFUSED.keys())
def test_entry_points_refuse_a_bool_a_fraction_or_an_infinity_naming_the_field(field, call):
    # Each of these got past the hand-written checks that the count, real and probability-row rules replace.
    # max_outer=2.5 ran 3 outer iterations and True ran 1; tol=inf stopped learning after its first window;
    # tol=True solved to a 1 W tolerance; a state row summing to 1 + 5e-10 passed a looser tolerance than
    # expected_payoffs applies; rng_seed=True seeded the learner with 1. The others were accepted, or failed later
    # inside numpy with a TypeError or an IndexError.
    with pytest.raises(ValueError, match=field):
        call()
