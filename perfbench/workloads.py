"""The benchmark's workloads: inputs made from a seed, and one operation each.

``make_inputs(seed)`` builds a workload's whole input set; the timed phase
then runs ``run(input)`` once per input, pass after pass. ``run`` calls
femtogame only through its public functions, looked up on the module at
call time, so a traced run goes through the wrapped versions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from perfbench import OUT, SRC, checks, use_source_tree

use_source_tree()

import femtogame as fg  # noqa: E402
import numpy as np  # noqa: E402
from femtogame import experiments  # noqa: E402

if not Path(fg.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"femtogame was imported from {fg.__file__}, not from {SRC}")

# The adapting step-size pair from the package README; with the stock 1/t^2
# strategy steps the learners freeze and Algorithm 2 rarely moves.
ALPHA1_EXPONENT = 0.6
ALPHA2_EXPONENT = 1.0


def network(topology_seed: int, followers: int):
    """Default-geometry topology with the default scenario constants."""
    return fg.generate_topology(
        fg.default_topology(topology_seed), followers, **fg.default_constants()
    )


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.asarray(part).tobytes() if not isinstance(part, bytes) else part)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# continuous-k50
# ---------------------------------------------------------------------------


@dataclass
class ContinuousOutput:
    zero_price: object  # ZeroPriceResult
    grid: np.ndarray
    rows: list  # (lambda, revenue, mean efficiency, MU SINR, converged)
    search: object  # PriceSearchResult


def panel_order(seed: int, panel: int) -> list[int]:
    """Topology seeds 0..panel-1, starting at ``seed mod panel``."""
    return [(seed + i) % panel for i in range(panel)]


@dataclass(frozen=True)
class ContinuousK50:
    """Zero-price equilibrium, 40-point uniform-price sweep and SE price search.

    The inputs are a fixed panel of default topologies, visited in an order
    rotated by the seed. Some default K = 50 topologies make Algorithm 1
    cycle until ``max_rounds`` (topology 101 does), so a panel drawn from
    the seed would fail on some seeds only.
    """

    name: str = "continuous-k50"
    followers: int = 50
    panel: int = 8
    grid_count: int = 40

    def make_inputs(self, seed: int) -> list:
        return [network(s, self.followers) for s in panel_order(seed, self.panel)]

    def run(self, net) -> ContinuousOutput:
        zero_price = fg.zero_price_equilibrium(net)
        grid = experiments.sweep_grid(net, self.grid_count)
        rows = experiments.continuous_sweep_rows(net, grid)
        search = fg.se_price_search(net)
        return ContinuousOutput(zero_price, grid, rows, search)

    def unconverged(self, out: ContinuousOutput) -> str | None:
        if not out.zero_price.converged:
            return "zero_price_equilibrium did not converge"
        bad = [i for i, row in enumerate(out.rows) if not row[4]]
        if bad:
            return f"continuous_sweep_rows did not converge at grid points {bad}"
        if not out.search.all_converged:
            return "se_price_search reports an unconverged Algorithm-1 run"
        return None

    def check(self, net, out: ContinuousOutput) -> list[str]:
        return checks.check_continuous(net, out)

    def fingerprint(self, out: ContinuousOutput) -> str:
        s = out.search
        return _digest(
            out.zero_price.profile, out.grid, np.array(out.rows, dtype=float),
            s.prices, np.array([s.revenue]), s.equilibrium, s.grid_revenues,
        )


# ---------------------------------------------------------------------------
# learning-k6
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LearningInput:
    topology_seed: int
    net: object  # NetworkInstance
    actions: list  # ActionSet per follower


@dataclass
class LearningOutput:
    algorithm2: object  # Algorithm2Result
    phases: list  # (phase, prices, LearningReport, csv path)


@dataclass(frozen=True)
class LearningK6:
    """Algorithm 2, then learning from fresh states at zero and at its prices.

    The inputs are a fixed panel of default topologies, visited in an order
    rotated by the seed: one topology's Algorithm-2 run costs anywhere from
    0.02 s to 5 s, so a panel drawn from the seed would make the timing of a
    run depend mostly on which topologies were drawn.
    """

    name: str = "learning-k6"
    followers: int = 6
    actions: int = 6
    panel: int = 8
    max_outer: int = 20
    phase_max_iters: int = 2_000  # ExperimentSpec.learn_max_iters of fig6-7
    out_dir: Path = OUT / "learning-k6"

    def learner(self, topology_seed: int):
        return fg.LearnerConfig(
            alpha1=fg.PowerLawSchedule(c=ALPHA1_EXPONENT),
            alpha2=fg.PowerLawSchedule(c=ALPHA2_EXPONENT),
            rng_seed=topology_seed,
        )

    def make_inputs(self, seed: int) -> list:
        inputs = []
        for s in panel_order(seed, self.panel):
            net = network(s, self.followers)
            inputs.append(LearningInput(s, net, fg.default_action_sets(net, self.actions)))
        return inputs

    def run(self, inp: LearningInput) -> LearningOutput:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        learner = self.learner(inp.topology_seed)
        alg2 = fg.run_algorithm2(inp.net, inp.actions, learner=learner, max_outer=self.max_outer)
        phases = []
        for phase, prices in (
            ("zero-price", np.zeros(inp.net.num_followers)),
            ("algorithm2-price", alg2.prices),
        ):
            state = fg.initial_state(
                inp.actions,
                tau=learner.tau,
                alpha1=learner.alpha1,
                alpha2=learner.alpha2,
                rng_seed=learner.rng_seed,
            )
            report = fg.run_learning(
                inp.net,
                prices,
                state,
                tol=learner.tol,
                window=learner.window,
                max_iters=self.phase_max_iters,
            )
            path = self.out_dir / f"topology{inp.topology_seed}-{phase}.csv"
            fg.write_learning_csv(report, path)
            phases.append((phase, prices, report, path))
        return LearningOutput(alg2, phases)

    def unconverged(self, out: LearningOutput) -> str | None:
        # Algorithm 2 may stop at max_outer and a learning phase at its
        # iteration cap; both are outcomes the checks pin, not failures.
        return None

    def check(self, inp: LearningInput, out: LearningOutput) -> list[str]:
        return checks.check_learning(inp, out, self.max_outer)

    def fingerprint(self, out: LearningOutput) -> str:
        a = out.algorithm2
        parts = [a.prices, a.strategies, np.array([a.outer_iterations, a.converged])]
        for _, _, report, path in out.phases:
            parts += [report.strategies, np.array([report.iterations]), Path(path).read_bytes()]
        return _digest(*parts)


# ---------------------------------------------------------------------------
# enumeration-k7
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationInput:
    net: object
    actions: list
    strategies: np.ndarray  # (K, M) rows on the simplex


def strategy_profile(rng: np.random.Generator, K: int, M: int) -> np.ndarray:
    """One all-on-zero row, two near-pure rows, the rest Dirichlet(1) rows.

    The row kinds are fixed in number, so every profile costs the same
    K - 1 enumerations; only their order and values come from ``rng``.
    """
    if K < 3:
        raise ValueError("profiles need K >= 3")
    kinds = rng.permutation(["zero", "near", "near"] + ["dirichlet"] * (K - 3))
    rows = np.zeros((K, M))
    for i, kind in enumerate(kinds):
        if kind == "zero":
            rows[i, 0] = 1.0
        elif kind == "near":
            rows[i] = 0.02 * rng.dirichlet(np.ones(M))
            rows[i, rng.integers(1, M)] += 0.98
        else:
            rows[i] = rng.dirichlet(np.ones(M))
        rows[i] /= rows[i].sum()
    return rows


@dataclass(frozen=True)
class EnumerationK7:
    """algorithm2_price_step and expected_leader_revenue on one strategy profile."""

    name: str = "enumeration-k7"
    followers: int = 7
    actions: int = 6
    topologies: int = 4
    profiles_per_topology: int = 4

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng([seed, self.followers])
        inputs = []
        for s in rng.integers(2**31, size=self.topologies).tolist():
            net = network(s, self.followers)
            actions = fg.default_action_sets(net, self.actions)
            for _ in range(self.profiles_per_topology):
                profile = strategy_profile(rng, self.followers, self.actions)
                inputs.append(EnumerationInput(net, actions, profile))
        return inputs

    def run(self, inp: EnumerationInput):
        prices, flagged = fg.algorithm2_price_step(inp.net, inp.actions, inp.strategies)
        revenue = fg.expected_leader_revenue(inp.net, inp.actions, inp.strategies, prices)
        return prices, flagged, revenue

    def unconverged(self, out) -> str | None:
        return None

    def check(self, inp: EnumerationInput, out) -> list[str]:
        return checks.check_enumeration(inp, out)

    def fingerprint(self, out) -> str:
        prices, flagged, revenue = out
        return _digest(prices, flagged, np.array([revenue]))


WORKLOADS = {w.name: w for w in (ContinuousK50(), LearningK6(), EnumerationK7())}
