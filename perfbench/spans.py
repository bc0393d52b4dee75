"""Span tracing of femtogame's public functions, from outside the package.

``Tracer.install`` replaces each traced function on its defining module and
under every name by which another femtogame module imported it, so calls
between modules (``experiments.run_algorithm1``, ``pricing.run_algorithm1``)
are traced too. Each span keeps its name, start, end and parent in flat
arrays until the run ends; self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _rounds(tracer, fn, args, kwargs, result) -> None:
    tracer.counts["continuous.run_algorithm1.rounds"] += result.iterations


def _outer(tracer, fn, args, kwargs, result) -> None:
    tracer.counts["pricing.run_algorithm2.outer_iterations"] += result.outer_iterations


def _enumeration(tracer, fn, args, kwargs, result) -> None:
    actions = _bound(fn, args, kwargs)["action_sets"]
    sizes = [len(a) for a in actions]
    profiles = math.prod(sizes)
    tracer.counts["discrete.expected_follower_payoff.profiles"] += profiles
    # Joint grids the enumeration materializes: K index grids, K power
    # grids and one probability grid of M^K 8-byte entries each.
    tracer.counts["discrete.expected_follower_payoff.bytes_computed"] += 8 * profiles * (2 * len(sizes) + 1)


def _csv_bytes(tracer, fn, args, kwargs, result) -> None:
    tracer.counts["csv.write_rows.bytes"] += os.path.getsize(_bound(fn, args, kwargs)["path"])


# (module, function, label, keeps spans, hook on return). Functions without
# spans are only counted, so their time stays in their callers' self time.
TRACED = (
    ("network", "generate_topology", "network.generate_topology", True, None),
    ("payoff", "follower_payoff", "payoff.follower_payoff", False, None),
    ("continuous", "best_response", "continuous.best_response", True, None),
    ("continuous", "run_algorithm1", "continuous.run_algorithm1", True, _rounds),
    ("pricing", "zero_price_equilibrium", "pricing.zero_price_equilibrium", True, None),
    ("pricing", "se_price_search", "pricing.se_price_search", True, None),
    ("pricing", "algorithm2_price_step", "pricing.algorithm2_price_step", True, None),
    ("pricing", "run_algorithm2", "pricing.run_algorithm2", True, _outer),
    ("experiments", "sweep_grid", "experiments.sweep_grid", True, None),
    ("experiments", "continuous_sweep_rows", "experiments.continuous_sweep_rows", True, None),
    ("discrete", "learning_step", "discrete.learning_step", True, None),
    ("discrete", "run_learning", "discrete.run_learning", True, None),
    ("discrete", "expected_follower_payoff", "discrete.expected_follower_payoff", True, _enumeration),
    ("_csv", "write_rows", "csv.write_rows", True, _csv_bytes),
)


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.label_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by each span's children
        self.stack = [-1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._restore: list = []

    def _spanning(self, label: str, fn, hook):
        lid = len(self.labels)
        self.labels.append(label)
        clock = time.perf_counter
        label_id, parent, start, end, child, stack = (
            self.label_id, self.parent, self.start, self.end, self.child, self.stack,
        )

        def traced(*args, **kwargs):
            i = len(start)
            label_id.append(lid)
            parent.append(stack[-1])
            end.append(0.0)
            child.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = clock()
                stack.pop()
                end[i] = t
                if parent[i] >= 0:
                    child[parent[i]] += t - start[i]
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return traced

    def _counting(self, label: str, fn):
        counts = self.counts
        key = label + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "femtogame" or name.startswith("femtogame.")]
        for module_name, attr, label, spans, hook in TRACED:
            original = getattr(sys.modules[f"femtogame.{module_name}"], attr)
            wrapper = self._spanning(label, original, hook) if spans else self._counting(label, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._restore.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def dump(self, path) -> None:
        """Write the spans as .npz arrays: labels, label_id, parent, start, end."""
        np.savez(
            path,
            labels=np.array(self.labels),
            label_id=np.frombuffer(self.label_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def summary(self) -> dict:
        """Per label: span count, total and self seconds; plus the counters.

        Also counts the Algorithm-1 runs under se_price_search as
        ``pricing.se_price_search.solves``.
        """
        ids = np.frombuffer(self.label_id, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        self_time = duration - np.frombuffer(self.child)
        out = dict(self.counts)
        for lid, label in enumerate(self.labels):
            mine = ids == lid
            out[f"{label}.calls"] = float(np.count_nonzero(mine))
            out[f"{label}.total_s"] = float(duration[mine].sum())
            out[f"{label}.self_s"] = float(self_time[mine].sum())
        search = self.labels.index("pricing.se_price_search")
        solve = self.labels.index("continuous.run_algorithm1")
        id_list, parent_list = ids.tolist(), parent.tolist()
        under = [False] * len(id_list)
        for i, p in enumerate(parent_list):  # parents precede children
            under[i] = p >= 0 and (under[p] or id_list[p] == search)
        out["pricing.se_price_search.solves"] = float(
            sum(1 for i, u in enumerate(under) if u and id_list[i] == solve)
        )
        return out
