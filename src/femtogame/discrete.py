"""Discrete-strategy follower game and two-timescale stochastic learning.

Followers draw powers from a finite menu, one (K, M) array with a row per
follower, keep a mixed strategy pi_k on their row, and learn from realized
payoffs only: a fast timescale updates the per-action payoff estimates U_k
(only the sampled action moves), a slow timescale nudges pi_k toward the
Logit response of the current estimates. The slot loop reuses its buffers,
draws uniforms in chunks and memoizes payoffs, bit for bit a per-slot loop.
Expected payoffs under product-form strategies sum each follower's own
action out by hand: its interference does not depend on its own power, so
one interference column over the others' joint support (actions of
probability exactly 0 skipped) serves all of its positive powers, and the
silent action pays exactly 0. The full K * M^K is still capped, so they are
reserved for small games.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._csv import CHUNK_ROWS, write_rows
from .defaults import NUM_ACTIONS
from .network import NetworkInstance, _validate_seed, follower_sinr, validate_follower
from .payoff import leader_revenue, own_payoff, validate_prices

__all__ = [
    "PowerLawSchedule",
    "LearnerConfig",
    "LearningState",
    "LearningReport",
    "validate_schedules",
    "validate_simplex",
    "default_action_sets",
    "expected_powers",
    "expected_payoffs",
    "expected_follower_payoff",
    "expected_leader_revenue",
    "discrete_equilibria",
    "initial_state",
    "learning_step",
    "run_learning",
    "write_learning_csv",
]

ENUMERATION_CAP = 10_000_000  # reject expected-value sums with K * M^K above this
BLOCK_CELLS = 16384  # expected_payoffs' memory bound, floats per block array: 128 KiB reuses heap (BENCH_18.json)
MAX_ROUNDS = 200  # discrete_equilibria's round-robin cap: rows still moving after it are "unconverged"


def default_action_sets(net: NetworkInstance, M: int = NUM_ACTIONS) -> np.ndarray:
    """The Table power menu p^j = (j/M) * p_max,k for j = 0..M-1: a read-only (K, M) array, one row per follower."""
    if M < 2:
        raise ValueError("M must be >= 2")
    menu = np.outer(net.power_max, np.arange(M) / M)
    menu.setflags(write=False)
    return menu


@dataclass(frozen=True)
class PowerLawSchedule:
    """Step-size schedule a / (t + b)^c, evaluated at t = 1, 2, ...

    The Table defaults are ``PowerLawSchedule()`` (1/t) for the payoff
    estimates and ``PowerLawSchedule(c=2.0)`` (1/t^2) for the strategies.
    """

    a: float = 1.0
    b: float = 0.0
    c: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.a < math.inf and 0.0 <= self.b < math.inf and 0.0 < self.c < math.inf):
            raise ValueError(f"need finite a > 0, b >= 0, c > 0; got {self.a}, {self.b}, {self.c}")

    def __call__(self, t: int) -> float:
        try:
            return self.a / (t + self.b) ** self.c
        except OverflowError:  # the power passed the float range: the step is 0.0, its limit
            return 0.0


def validate_schedules(alpha1: PowerLawSchedule, alpha2: PowerLawSchedule) -> list[str]:
    """Names of the two-timescale step-size conditions the pair fails; empty when all hold.

    For a/(t+b)^c power laws: the step sums diverge iff c <= 1, the squared
    sums converge iff c > 1/2, and alpha2/alpha1 -> 0 iff c2 > c1. Note the
    Table defaults (1/t, 1/t^2) FAIL the divergence condition for alpha2
    (sum 1/t^2 is finite); with them the strategies freeze after an initial
    transient. This is reported instead of rejected, since the defaults
    reproduce the published simulations; ``LearnerConfig`` warns about it.
    """
    conditions = {
        "alpha1_sum_diverges": alpha1.c <= 1.0,
        "alpha1_square_summable": alpha1.c > 0.5,
        "alpha2_sum_diverges": alpha2.c <= 1.0,
        "alpha2_square_summable": alpha2.c > 0.5,
        "ratio_vanishes": alpha2.c > alpha1.c,
    }
    return [name for name, ok in conditions.items() if not ok]


def validate_simplex(pi: np.ndarray, atol: float = 1e-12) -> None:
    """Raise unless pi is componentwise in [0,1] (so finite) and sums to 1 within atol."""
    pi = np.asarray(pi, dtype=float)
    if not np.all((pi >= 0.0) & (pi <= 1.0)):
        raise ValueError("probabilities must be finite and in [0, 1]")
    if abs(float(pi.sum()) - 1.0) > atol:
        raise ValueError(f"probabilities sum to {pi.sum()!r}, not 1")


def _validate_menu(action_sets, K: int) -> np.ndarray:
    """The menu as a float array; raise unless it is (K, M), M >= 2, finite, each row 0 first and increasing."""
    menu = np.asarray(action_sets, dtype=float)
    if menu.ndim != 2 or menu.shape[0] != K or menu.shape[1] < 2:
        raise ValueError(f"need {K} action sets as the rows of a (K, M) power menu, M >= 2; got shape {menu.shape}")
    if not (np.isfinite(menu).all() and (menu[:, 0] == 0.0).all() and (np.diff(menu, axis=1) > 0.0).all()):
        raise ValueError("every menu row must be finite, start at exactly 0 and strictly increase")
    return menu


def _validate_strategies(action_sets, strategies, K: int) -> tuple[np.ndarray, np.ndarray]:
    """The (K, M) menu and the strategies as float arrays; raise unless each strategy is a simplex over its row."""
    menu = _validate_menu(action_sets, K)
    pi = np.asarray(strategies, dtype=float)
    if pi.shape != menu.shape:
        raise ValueError(f"strategies of shape {pi.shape} do not fit a {menu.shape} menu")
    for row in pi:
        validate_simplex(row)
    return menu, pi


def _mean_powers(menu: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """sum_j pi^j * p^j per row, as one stacked (1, M) @ (M, 1) product per row (each row rounds like np.dot)."""
    return (pi[:, None, :] @ menu[:, :, None])[:, 0, 0]


def expected_powers(action_sets, strategies) -> np.ndarray:
    """Per-follower mean transmit power sum_j pi^j * p^j; rejects strategies that do not fit the menu."""
    return _mean_powers(*_validate_strategies(action_sets, strategies, len(action_sets)))


def expected_payoffs(net: NetworkInstance, action_sets, strategies, prices) -> np.ndarray:
    """Expected net payoff of every follower under product-form mixed strategies.

    Each follower's own action is summed out by hand: E[log1p(h_kk p / I_k)] over the others' support (actions of
    probability exactly 0 dropped) for each of its positive powers p, then ``own_payoff``'s steps after the log and
    the weights pi_k(p); pure strategies give the bits of ``payoffs``. Rejects strategies or prices that do not fit
    the network and its (K, M) menu, and K * M^K above ``ENUMERATION_CAP``.
    """
    return _expected_payoffs(net, action_sets, strategies, validate_prices(net, prices) * net.gain[1:, 0])[0]


def _expected_payoffs(net: NetworkInstance, action_sets, strategies, charge: np.ndarray):
    """(``expected_payoffs``, ``expected_powers``) from one check of the strategies, with charges lambda_k * h_k0.

    Follower k's rows are the others' joint support with k held at 0 W: the trailing others span one column-major
    (rows, K) grid, the leading ones are looped over, and neither the grid nor the (p.size, rows) SINR holds more
    than ``BLOCK_CELLS`` values (or one row).
    """
    menu, pi = _validate_strategies(action_sets, strategies, net.num_followers)
    K, M = menu.shape
    if (size := K * M**K) > ENUMERATION_CAP:
        raise ValueError(f"joint enumeration size K*M^K = {size} exceeds cap {ENUMERATION_CAP}")
    support = [np.flatnonzero(row) for row in pi]
    powers = [menu[k, s] for k, s in enumerate(support)]
    weights = [pi[k, s] for k, s in enumerate(support)]
    total = np.zeros(K)
    for k, (a, w) in enumerate(zip(powers, weights)):
        if not (on := a > 0.0).any():  # the silent action pays exactly 0
            continue
        p, others = a[on], [j for j in range(K) if j != k]
        sizes = [powers[j].size for j in others]
        lead = sum(math.prod(sizes[i:]) * max(K, p.size) > BLOCK_CELLS for i in range(len(sizes)))
        grid, prob, value = np.zeros((math.prod(sizes[lead:]), K), order="F"), np.ones(1), 0.0
        for j in others[lead:]:  # each power repeats over the profiles of the columns after it
            grid[:, j].reshape(-1, powers[j].size, len(grid) // prob.size // powers[j].size)[...] = powers[j][:, None]
            prob = np.multiply.outer(prob, weights[j]).reshape(-1)
        for head in np.ndindex(*sizes[:lead]):
            grid[:, others[:lead]] = [powers[j][i] for j, i in zip(others, head)]
            interference_k = (grid @ net.cross_gain)[:, k] + net.background[k]  # ``interference``, column k only
            gamma = net.own_gain[k] * p[:, None] / interference_k
            share = math.prod(weights[j][i] for j, i in zip(others, head))  # the leading others' probability
            value = value + np.log1p(gamma, out=gamma) @ (share * prob)
        total[k] = w[on] @ (value * net.bandwidth / (p + net.circuit_power) - charge[k] * p)  # own_payoff's order
    return total, _mean_powers(menu, pi)


def expected_follower_payoff(net: NetworkInstance, k: int, action_sets, strategies, prices) -> float:
    """Expected net payoff of follower k, 1..K; one entry of ``expected_payoffs``."""
    return float(expected_payoffs(net, action_sets, strategies, prices)[validate_follower(net, k) - 1])


def expected_leader_revenue(net: NetworkInstance, action_sets, strategies, prices) -> float:
    """Expected MBS revenue: sum_k lambda_k * h_k0 * sum_j pi^j_k * p^j_k."""
    mean_p = _mean_powers(*_validate_strategies(action_sets, strategies, net.num_followers))
    return float(leader_revenue(net, mean_p, validate_prices(net, prices)))


def discrete_equilibria(net: NetworkInstance, action_sets, prices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pure-strategy NE of the finite game for every row of a (B, K) price batch.

    Round-robin best response from the all-zero profile (the game's smallest
    point): follower k = 1..K of every unfinished row moves in turn. Its
    interference does not depend on its own power, so each best response
    takes one O(K) column of it, G = h_kk / interference_k, scores the
    follower's M menu powers with ``own_payoff`` and keeps the first argmax,
    so ties break toward the smaller power (the silent action pays exactly
    0). Returns (action indices (B, K), power profiles (B, K), status (B,)):
    a row is ``"ok"`` after a round in which no follower moved, ``"cycle"``
    once its indices equal those of two rounds back (the round robin then
    repeats forever), and ``"unconverged"`` if still moving after
    ``MAX_ROUNDS`` rounds.
    """
    menu = _validate_menu(action_sets, net.num_followers)
    prices = validate_prices(net, prices, ndim=2)
    charge = prices * net.gain[1:, 0]
    W, pa = net.bandwidth, net.circuit_power
    idx = np.zeros(prices.shape, dtype=int)
    profiles = np.zeros(prices.shape)
    back = np.full(prices.shape, -1)  # each row's indices one round back
    status = np.full(len(prices), "unconverged")
    rows = np.arange(len(prices))  # the unfinished rows
    for _ in range(MAX_ROUNDS):
        if not rows.size:
            break
        P, J, c = profiles[rows], idx[rows], charge[rows]  # copies of the unfinished rows for this round
        start = J.copy()
        for k, a in enumerate(menu):
            G = net.own_gain[k] / (P @ net.cross_gain[:, k] + net.background[k])
            J[:, k] = np.argmax(own_payoff(a, G[:, None] * a, W, pa, c[:, k, None]), axis=1)
            P[:, k] = a[J[:, k]]
        profiles[rows], idx[rows] = P, J
        settled = (J == start).all(axis=1)
        cycled = (J == back[rows]).all(axis=1) & ~settled
        status[rows[settled]] = "ok"
        status[rows[cycled]] = "cycle"
        back[rows] = start
        rows = rows[~(settled | cycled)]
    return idx, profiles, status


@dataclass
class LearningState:
    """Mutable state of the coupled learning processes for all followers."""

    powers: np.ndarray  # (K, M) power menu, one row per follower
    U: np.ndarray  # (K, M) payoff estimates
    pi: np.ndarray  # (K, M) mixed strategies
    t: int
    tau: float
    alpha1: PowerLawSchedule
    alpha2: PowerLawSchedule
    rng: np.random.Generator = field(repr=False, default=None)


def initial_state(
    action_sets,
    tau: float = 1.0,
    alpha1: PowerLawSchedule = PowerLawSchedule(),
    alpha2: PowerLawSchedule = PowerLawSchedule(c=2.0),
    rng_seed: int = 0,
) -> LearningState:
    """Uniform strategies over the (K, M) menu, zero payoff estimates, step counter at 0."""
    menu = _validate_menu(action_sets, len(action_sets))
    K, M = menu.shape
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    return LearningState(
        powers=menu,
        U=np.zeros((K, M)),
        pi=np.full((K, M), 1.0 / M),
        t=0,
        tau=tau,
        alpha1=alpha1,
        alpha2=alpha2,
        rng=np.random.default_rng(rng_seed),
    )


def _sample_actions(pi: np.ndarray, draws: np.ndarray, cdf: np.ndarray, hit=None, out=None) -> np.ndarray:
    """Inverse-CDF sampling, one action per row of pi, into ``out``: the first column whose running sum (in ``cdf``, a
    (K, M) buffer; the test in ``hit``, a bool one) reaches the row's draw. ``draws``, (K, M), holds the draw and
    -1.0 in the last column (a sum rounding below its draw gives M-1, ``searchsorted`` capped)."""
    np.add.accumulate(pi, 1, None, cdf)  # ``cumsum``'s sums
    return np.greater_equal(cdf, draws, hit).argmax(1, out)


def learning_step(state: LearningState, net: NetworkInstance, prices) -> LearningState:
    """One slot of ``run_learning`` (``max_iters=1``); mutates and returns ``state``."""
    run_learning(net, prices, state, max_iters=1)
    return state


@dataclass
class LearningReport:
    """Outcome of one run_learning call."""

    strategies: np.ndarray  # final pi, (K, M)
    U: np.ndarray  # final payoff estimates, (K, M)
    expected_power_trace: np.ndarray  # (iterations, K)
    pi_trace: np.ndarray  # (iterations, K, M)
    iterations: int
    converged: bool

    def _trace_lines(self, pi_sep: str = ","):
        """Yield "t,k,expected power,pi" per slot and follower, 1-based, pi's entries joined by ``pi_sep``. A block of
        ``CHUNK_ROWS // K`` slots (a ``write_rows`` chunk) is refused (``ValueError``) if it holds NaN or inf, then
        formatted by one ``%`` over its cells, filled a column at a time by slice (``%r`` is ``format_cell``'s text)."""
        K, M = self.pi_trace.shape[1:]
        step, line = max(1, CHUNK_ROWS // (K or 1)), "%d,%d,%r," + pi_sep.join(["%r"] * M)
        for start in range(0, len(self.pi_trace), step):
            powers, pis = self.expected_power_trace[start : start + step], self.pi_trace[start : start + step]
            if not (np.isfinite(powers).all() and np.isfinite(pis).all()):
                raise ValueError("non-finite value in learning trace")
            cells = [None] * (powers.size * (3 + M))  # a line's 3 + M cells, line after line
            cells[0 :: 3 + M] = np.arange(start + 1, start + len(pis) + 1).repeat(K).tolist()
            cells[1 :: 3 + M], cells[2 :: 3 + M] = list(range(1, K + 1)) * len(pis), powers.reshape(-1).tolist()
            for j in range(M):
                cells[3 + j :: 3 + M] = pis[:, :, j].reshape(-1).tolist()
            yield from ("\n".join([line] * powers.size) % tuple(cells)).splitlines()


def _learn(net: NetworkInstance, prices, state: LearningState, tol: float, window: int, max_iters: int, trace):
    """``run_learning``'s slots; (iterations, converged). Slot i's pi goes to trace[(i - 1) % len(trace)], so
    ``trace`` holds at least ``max_iters`` slots or exactly the ``window`` that the convergence check reads. The
    slot arithmetic writes into arrays made once per call, reads the sampled estimates once and skips ``/ tau`` at
    tau = 1 (x / 1.0 is x). Uniforms come ``BLOCK_CELLS // (K * M)`` slots at a time, laid out as
    ``_sample_actions`` compares them; a run that stops inside a chunk rewinds the generator and draws only the
    rows used. Payoffs are memoized per call (prices and menu are fixed) by joint action."""
    charge = validate_prices(net, prices) * net.gain[1:, 0]
    menu = _validate_menu(state.powers, net.num_followers)
    state.U, state.pi = U, pi = np.ascontiguousarray(state.U, dtype=float), np.ascontiguousarray(state.pi, dtype=float)
    for name, ok, need in (  # a state no slot can use is refused before the first, naming its field
        ("tau", 0.0 < state.tau < math.inf, "finite and > 0"),
        ("t", state.t >= 0, ">= 0"),
        ("rng", isinstance(state.rng, np.random.Generator), "a numpy.random.Generator"),
        ("U", U.shape == menu.shape and np.isfinite(U).all(), f"finite and shaped {menu.shape}"),
        ("pi", pi.shape == menu.shape and (pi >= 0).all() and abs(pi.sum(axis=1) - 1).max() <= 1e-9, "row-stochastic"),
    ):
        if not ok:
            raise ValueError(f"LearningState.{name} must be {need}; got {getattr(state, name)!r}")
    K, M = pi.shape
    menu_flat = menu.reshape(-1)
    U_flat = U.reshape(-1)  # a view, so writes through it land in U
    row_start = np.arange(0, K * M, M)
    rng, alpha1, alpha2, tau = state.rng, state.alpha1, state.alpha2, state.tau
    W, pa = net.bandwidth, net.circuit_power
    memo, slots, start, rows, converged, w = {}, len(trace), 0, 0, False, 0
    draws = np.full((max(1, min(BLOCK_CELLS // (K * M), max_iters)), K, M), -1.0)  # -1.0: the sentinel column
    (cdf, e), (top, total), (u, step), gap = np.empty((2, K, M)), np.empty((2, K, 1)), np.empty((2, K)), np.empty(K * M)
    pi_flat, ring, hit, cell = pi.reshape(-1), trace.reshape(slots, K * M), np.empty((K, M), bool), np.empty(K, int)
    for iterations in range(1, max_iters + 1):
        if iterations > start + rows:
            start, rows = start + rows, min(len(draws), max_iters - start - rows)
            saved = rng.bit_generator.state
            draws[:rows, :, :-1] = rng.random((rows, K))[:, :, None]
        t = state.t + iterations
        a1, a2 = alpha1(t), alpha2(t)
        _sample_actions(pi, draws[iterations - 1 - start], cdf, hit, cell)
        np.add(cell, row_start, cell)
        if (payoff := memo.get(key := cell.tobytes())) is None:
            p = menu_flat[cell]  # the pure joint action
            payoff = own_payoff(p, follower_sinr(net, p), W, pa, charge)
            if len(memo) < BLOCK_CELLS // (2 * K):  # keys and payoffs hold at most BLOCK_CELLS numbers
                memo[key] = payoff  # never written in place
        U_flat.take(cell, None, u, "clip")  # the sampled estimates, read once ("clip" writes u unbuffered)
        np.subtract(payoff, u, step)
        np.multiply(step, a1, step)
        U_flat[cell] = np.add(u, step, step)
        np.maximum.reduce(U, 1, None, top, True)
        np.subtract(U, top, e)
        if tau != 1.0:  # x / 1.0 is x
            np.divide(e, tau, e)
        np.exp(e, e)
        np.divide(e, np.add.reduce(e, 1, None, total, True), e)
        np.multiply(e, a2, e)
        np.multiply(pi, 1.0 - a2, pi)
        np.add(pi, e, pi)
        trace[(iterations - 1) % slots] = pi
        first = (iterations - window) % slots  # the window's first slot
        # max |pi - trace[first]| < tol, an exact pre-check of the range; w, the last largest gap, refuses most slots
        if iterations >= window and abs(pi_flat[w] - ring[first, w]) < tol:
            w = np.abs(np.subtract(pi_flat, ring[first], gap), gap).argmax()
            if gap[w] < tol and np.ptp(trace[first : first + window] if slots > window else trace, 0).max() < tol:
                converged = True
                break
    if iterations < start + rows:  # leave the generator where per-slot draws of K would
        rng.bit_generator.state = saved
        rng.random((iterations - start, K))
    state.t += iterations
    return iterations, converged


def run_learning(
    net: NetworkInstance,
    prices,
    state: LearningState,
    tol: float = 1e-3,
    window: int = 50,
    max_iters: int = 10_000,
) -> LearningReport:
    """Run the coupled processes slot by slot until the strategies settle or max_iters.

    Each slot t: (a) every follower samples an action from its pi_k; (b)
    realized payoffs come from the pure joint profile; (c) U moves toward
    the observation with step alpha1(t), only at the sampled action; (d) pi
    moves toward the Logit response softmax(U_k / tau) with step alpha2(t)
    in all components (an exact convex combination, so the simplex is
    preserved); (e) state.t advances. ``state`` is mutated in place.

    Convergence detector: over the last ``window`` iterations of the
    strategy trace, the largest per-component range of any pi_k falls
    below ``tol``. The range is computed only once the window's first and
    last strategies differ by less than ``tol``: an exact pre-check, as the
    rounded range is never below the rounded gap of two of its entries.
    The trace buffer holds ``max_iters`` slots (resident once written) and
    shrinks in place on return; the expected powers are filled
    ``BLOCK_CELLS`` products at a time: a run peaks near 1.3x its trace.
    The generator ends where per-slot ``rng.random(K)`` draws leave it. A
    ``state`` no slot can use is refused first, naming its field.
    """
    if window < 2 or max_iters < 1 or not tol >= 0.0:
        raise ValueError(f"need window >= 2, max_iters >= 1 and tol >= 0; got {window}, {max_iters}, {tol}")
    trace = np.empty((max_iters, *np.shape(state.pi)))
    iterations, converged = _learn(net, prices, state, tol, window, max_iters, trace)
    trace.resize((iterations, *trace.shape[1:]), refcheck=False)  # no view of the buffer outlives _learn
    power, step = np.empty(trace.shape[:2]), max(1, BLOCK_CELLS // trace[0].size)
    for start in range(0, iterations, step):
        power[start : start + step] = (trace[start : start + step] * state.powers).sum(axis=2)
    return LearningReport(
        strategies=state.pi.copy(),
        U=state.U.copy(),
        expected_power_trace=power,
        pi_trace=trace,
        iterations=iterations,
        converged=converged,
    )


@dataclass(frozen=True)
class LearnerConfig:
    """Configuration of one discrete learning run; ``run`` carries it out.

    The defaults are the Table values: temperature 1, 1/t payoff-estimate
    steps and 1/t^2 strategy steps. Those break the two-timescale
    conditions (``validate_schedules``), so every run warns about them.
    Values no run can use are refused on construction.
    """

    tau: float = 1.0
    alpha1: PowerLawSchedule = PowerLawSchedule()
    alpha2: PowerLawSchedule = PowerLawSchedule(c=2.0)
    rng_seed: int = 0
    tol: float = 1e-3
    window: int = 50
    max_iters: int = 10_000

    def __post_init__(self) -> None:
        if not (0.0 < self.tau < np.inf and 0.0 <= self.tol < np.inf and self.window >= 2 and self.max_iters >= 1):
            raise ValueError(f"need window >= 2, max_iters >= 1 and tol >= 0, tau > 0 and both finite; got {self}")
        _validate_seed(self.rng_seed)

    def run(self, net: NetworkInstance, action_sets, prices) -> LearningReport:
        """Learn from a fresh state (uniform strategies, this config's seed) at ``prices``."""
        state = self._fresh_state(action_sets, stacklevel=3)
        return run_learning(net, prices, state, tol=self.tol, window=self.window, max_iters=self.max_iters)

    def _final_strategies(self, net: NetworkInstance, action_sets, prices) -> np.ndarray:
        """``run(...).strategies`` without the trace: the slots go into a ring of the ``window`` strategies that
        the convergence check reads, so every decision and bit is ``run``'s. Warns the caller's caller."""
        state = self._fresh_state(action_sets, stacklevel=4)
        _learn(net, prices, state, self.tol, self.window, self.max_iters, np.empty((self.window, *state.pi.shape)))
        return state.pi

    def _fresh_state(self, action_sets, stacklevel: int) -> LearningState:
        """Uniform start at this config's seed; the two-timescale warning goes ``stacklevel`` frames up."""
        unmet = ", ".join(validate_schedules(self.alpha1, self.alpha2))
        if unmet:
            warnings.warn(f"step sizes fail the two-timescale conditions {unmet}", RuntimeWarning, stacklevel)
        return initial_state(action_sets, tau=self.tau, alpha1=self.alpha1, alpha2=self.alpha2, rng_seed=self.rng_seed)


def write_learning_csv(report: LearningReport, path) -> None:
    """Export a learning trace CSV: iteration,k,expected_power,pi_0..pi_{M-1}; refuses a non-finite trace."""
    M = report.pi_trace.shape[2]
    header = ["iteration", "k", "expected_power"] + [f"pi_{j}" for j in range(M)]
    write_rows(path, header, ((line,) for line in report._trace_lines()))
