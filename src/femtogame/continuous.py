"""Continuous-strategy follower game: best response and Algorithm-1 dynamics.

The best response maximizes the quasiconcave follower payoff over
[0, p_max] by bisecting its gradient, which changes sign at most once
(+ to -). Asynchronous rounds of best responses form the fixed-point
iteration; under the uniqueness condition the iteration converges to the
same profile from any initialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csv import write_rows
from .network import NetworkInstance, follower_sinr, interference
from .payoff import own_gradient, own_payoff, payoffs, validate_power_profile, validate_prices

__all__ = [
    "BisectionError",
    "BrSchedule",
    "EquilibriumReport",
    "best_response",
    "run_algorithm1",
    "check_uniqueness_condition",
    "check_supermodularity",
    "write_trace_csv",
]

_SCHEDULE_MODES = ("round-robin", "random-permutation", "independent-clocks")


class BisectionError(RuntimeError):
    """Bisection failed to shrink the bracket below tolerance."""


@dataclass(frozen=True)
class BrSchedule:
    """Update-order policy for the asynchronous best-response rounds.

    mode:
      round-robin        deterministic 1..K each round (default);
      random-permutation fresh uniform permutation each round;
      independent-clocks K single updates drawn uniformly with replacement
                         per round (a round may skip some followers, but
                         every follower updates infinitely often a.s.).
    """

    mode: str = "round-robin"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in _SCHEDULE_MODES:
            raise ValueError(f"unknown schedule mode {self.mode!r}")


@dataclass
class EquilibriumReport:
    """Outcome of one Algorithm-1 run."""

    final_profile: np.ndarray
    iterations: int
    converged: bool
    trace: list  # (round, profile copy, per-follower payoff array)
    max_residual: float


def best_response(
    net: NetworkInstance,
    k: int,
    opponents: np.ndarray,
    prices: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> float:
    """Unique maximizer of follower k's payoff over [0, p_max[k]].

    ``opponents`` is a full length-K profile; entry k-1 is ignored. The
    gradient sign at the interval ends decides boundary solutions; otherwise
    the gradient root is bisected to within ``tol`` watts, and bisection
    continues until some power with a positive gradient is found, so a root
    smaller than ``tol`` still yields a positive power. A final payoff
    comparison against p_k = 0 guards the boundary (ties go to the smaller
    power).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    G = net.gain[k, k] / interference(net, opponents)[k - 1]
    lam_h = prices[k - 1] * net.gain[k, 0]
    W = net.bandwidth
    pa = net.circuit_power
    p_max = float(net.power_max[k - 1])

    # Non-positive gradient at 0 means transmitting never pays (single + to -
    # sign change).
    if own_gradient(0.0, G, W, pa, lam_h) <= 0.0:
        return 0.0
    if own_gradient(p_max, G, W, pa, lam_h) >= 0.0:
        return p_max
    lo, hi = 0.0, p_max
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if own_gradient(mid, G, W, pa, lam_h) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol and lo > 0.0:
            break
    else:
        raise BisectionError(
            f"bracket {hi - lo:.3e} W still above tol {tol:.3e} after {max_iter} iterations"
        )
    root = 0.5 * (lo + hi)

    # Payoff at 0 is exactly 0; keep the root only if it strictly beats it.
    if own_payoff(root, G * root, W, pa, lam_h) > 0.0:
        return root
    return 0.0


def _round_order(sched: BrSchedule, K: int, rng: np.random.Generator | None) -> np.ndarray:
    if sched.mode == "round-robin":
        return np.arange(1, K + 1)
    if sched.mode == "random-permutation":
        return rng.permutation(K) + 1
    return rng.integers(1, K + 1, size=K)


def run_algorithm1(
    net: NetworkInstance,
    prices: np.ndarray,
    init: np.ndarray,
    sched: BrSchedule = BrSchedule(),
    tol: float = 1e-7,
    max_rounds: int = 10_000,
    br_tol: float = 1e-9,
) -> EquilibriumReport:
    """Asynchronous best-response iteration to a power-allocation fixed point.

    Runs rounds of single-follower best responses in the schedule's order
    until the profile changes by less than ``tol`` (infinity norm) over a
    full round, or ``max_rounds`` is hit (reported via ``converged=False``,
    not an exception). The trace records the initial profile as round 0 and
    every completed round thereafter.
    """
    K = net.num_followers
    prices = validate_prices(net, prices)
    p = validate_power_profile(net, init).copy()
    rng = None
    if sched.mode != "round-robin":
        rng = np.random.default_rng(sched.rng_seed)

    trace = [(0, p.copy(), payoffs(net, p, prices))]
    converged = False
    residual = math.inf
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        previous = p.copy()
        for k in _round_order(sched, K, rng):
            p[k - 1] = best_response(net, int(k), p, prices, tol=br_tol)
        residual = float(np.max(np.abs(p - previous)))
        trace.append((rounds, p.copy(), payoffs(net, p, prices)))
        if residual < tol:
            converged = True
            break
    return EquilibriumReport(
        final_profile=p,
        iterations=rounds,
        converged=converged,
        trace=trace,
        max_residual=residual,
    )


def check_uniqueness_condition(net: NetworkInstance, p: np.ndarray) -> np.ndarray:
    """Per-follower sufficient condition for a unique NE.

    Evaluates h_kk*p_k / (N_k + h_0k*p_0 + sum_j h_jk*p_j) >= p_a/p_k, with
    the denominator summed over ALL j including j = k (so the left side is
    gamma_k/(1+gamma_k)). Followers with p_k = 0 are vacuously False.
    """
    p = np.asarray(p, dtype=float)
    signal = net.own_gain * p
    return p * signal / (interference(net, p) + signal) >= net.circuit_power


def check_supermodularity(net: NetworkInstance, k: int, p: np.ndarray) -> bool:
    """Increasing-differences gate: gamma_k >= p_a/p_k (False at p_k = 0)."""
    return bool(p[k - 1] * follower_sinr(net, p)[k - 1] >= net.circuit_power)


def write_trace_csv(net: NetworkInstance, report: EquilibriumReport, path) -> None:
    """Export an Algorithm-1 trace as CSV: round,k,p_k,u_k,gamma_k."""
    rows = []
    for rnd, profile, util in report.trace:
        gamma = follower_sinr(net, profile)
        for k in range(net.num_followers):
            rows.append((rnd, k + 1, float(profile[k]), float(util[k]), float(gamma[k])))
    write_rows(path, ("round", "k", "p_k", "u_k", "gamma_k"), rows)
