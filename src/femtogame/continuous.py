"""Continuous-strategy follower game: best responses and equilibrium solvers.

The best response maximizes the quasiconcave follower payoff over
[0, p_max] at the root of its gradient, which changes sign at most once
(+ to -). One root finder, ``_best_responses`` (Newton steps on the scaled
gradient, safeguarded by bisection), holds the boundary rules and finds
that root for any batch. ``best_response`` calls it on one follower;
``run_algorithm1`` (the paper's Algorithm 1) iterates ``best_response`` one
follower at a time; ``solve_equilibria`` updates every follower of a batch
of price vectors at once. Where the paper's uniqueness condition holds,
both reach the one fixed point (Yates 1995, standard interference
functions). Outside it they may stop at different Nash points: default
K = 200 topology 1 at sweep point 24 ends 9.1e-4 W apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkInstance, interference, validate_follower
from .payoff import own_gradient, own_payoff, own_scaled_gradient, validate_power_profile, validate_prices

__all__ = [
    "BisectionError",
    "EquilibriumReport",
    "EquilibriumBatch",
    "best_response",
    "run_algorithm1",
    "solve_equilibria",
]

MAX_STEPS = 200  # Newton or bisection steps a best response may take before BisectionError
DAMPING = 0.5  # beta of the damped update p <- (1 - beta) p + beta BR(p)


class BisectionError(RuntimeError):
    """A best-response root search failed to shrink below tolerance."""


@dataclass
class EquilibriumReport:
    """Outcome of one Algorithm-1 run."""

    final_profile: np.ndarray
    iterations: int
    converged: bool
    trace: list  # profile after each round; entry 0 is the initial profile


@dataclass
class EquilibriumBatch:
    """Outcome of one ``solve_equilibria`` call; row b solves price row b."""

    profiles: np.ndarray  # (B, K) last profile of each row
    converged: np.ndarray  # (B,) BR moves no power of the profile by tol or more
    rounds: np.ndarray  # (B,) synchronous rounds run
    damped: np.ndarray  # (B,) a 2-cycle switched the row to damped updates


def best_response(
    net: NetworkInstance,
    k: int,
    opponents: np.ndarray,
    prices: np.ndarray,
    tol: float = 1e-9,
) -> float:
    """Unique maximizer of follower k's payoff, k in 1..K, over [0, p_max[k]].

    ``opponents`` is a full length-K profile of finite powers >= 0, which may
    exceed p_max; entry k-1 is ignored but, like the prices, checked. This is
    ``_best_responses`` on one (1, K) row in which only follower k is live,
    started from 0 W: the gradient sign at the interval ends decides boundary
    solutions, an interior root is found to within ``tol`` watts (a root
    smaller than ``tol`` still yields a positive power), and the root is kept
    only if its payoff beats p_k = 0 (ties go to the smaller power).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    k = validate_follower(net, k)
    opponents = np.asarray(opponents, dtype=float)
    if opponents.shape != (net.num_followers,) or not np.all(np.isfinite(opponents) & (opponents >= 0.0)):
        raise ValueError(f"opponents must be {net.num_followers} finite powers >= 0")
    prices = validate_prices(net, prices)
    G = np.zeros((1, net.num_followers))
    charge = np.zeros_like(G)  # G = charge = 0 leaves every other follower silent
    G[0, k - 1] = net.gain[k, k] / interference(net, opponents)[k - 1]
    charge[0, k - 1] = prices[k - 1] * net.gain[k, 0]
    return float(_best_responses(net, G, charge, np.zeros_like(G), tol)[0, k - 1])


def run_algorithm1(
    net: NetworkInstance,
    prices: np.ndarray,
    init: np.ndarray,
    tol: float = 1e-7,
    max_rounds: int = 10_000,
) -> EquilibriumReport:
    """Asynchronous best-response iteration to a power-allocation fixed point.

    Runs rounds of single-follower best responses, followers 1..K in turn,
    until the profile changes by less than ``tol`` (infinity norm) over a
    full round, or ``max_rounds`` is hit (reported via ``converged=False``,
    not an exception). The trace records the initial profile as round 0 and
    every completed round thereafter.
    """
    K = net.num_followers
    prices = validate_prices(net, prices)
    p = validate_power_profile(net, init).copy()
    trace = [p.copy()]
    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        previous = p.copy()
        for k in range(1, K + 1):
            p[k - 1] = best_response(net, k, p, prices)
        trace.append(p.copy())
        if np.max(np.abs(p - previous)) < tol:
            converged = True
            break
    return EquilibriumReport(final_profile=p, iterations=rounds, converged=converged, trace=trace)


def _best_responses(net: NetworkInstance, G, charge, start, tol: float = 1e-9) -> np.ndarray:
    """``best_response`` for every entry of (B, K) arrays G = h_kk/interference, charge = lambda_k h_k0.

    Same boundary rules; interior roots by safeguarded Newton steps from ``start`` on the scaled gradient
    ``own_scaled_gradient``, which falls strictly and has no 1/p pole. A step that stays inside the closed sign
    bracket is taken, so an exact root ends the search at once; one that leaves it bisects the bracket instead.
    The search stops once a step is <= tol W.
    """
    W, pa = net.bandwidth, net.circuit_power
    p_max = np.broadcast_to(net.power_max, G.shape)
    on = W * G / pa - charge > 0.0  # own_gradient at p = 0
    full = own_gradient(p_max, G, W, pa, charge) >= 0.0
    out = np.where(on & full, p_max, 0.0)
    idx = np.flatnonzero(on & ~full)
    G, c = G.ravel()[idx], charge.ravel()[idx]
    lo, hi = np.zeros(idx.size), p_max.ravel()[idx]
    x = np.clip(start.ravel()[idx], lo, hi)
    flat = out.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_STEPS):
            if idx.size == 0:
                return out
            f, slope = own_scaled_gradient(x, G, W, pa, c)
            rising = f > 0.0
            lo = np.where(rising, x, lo)
            hi = np.where(rising, hi, x)
            new = x - f / slope
            new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
            done = np.abs(new - x) <= tol
            x = new
            if done.any():
                root = x[done]
                keep = own_payoff(root, G[done] * root, W, pa, c[done]) > 0.0
                flat[idx[done]] = np.where(keep, root, 0.0)
                live = ~done
                idx, G, c, lo, hi, x = (a[live] for a in (idx, G, c, lo, hi, x))
    if idx.size:
        raise BisectionError(f"{idx.size} best responses still above tol {tol:.3e} W after {MAX_STEPS} steps")
    return out


def solve_equilibria(
    net: NetworkInstance,
    prices: np.ndarray,
    init: np.ndarray,
    tol: float = 1e-7,
    max_rounds: int = 10_000,
) -> EquilibriumBatch:
    """Follower equilibrium for every price vector of a (B, K) batch.

    Each round sets p <- BR(p) for all K followers of every unconverged row
    at once. A row converges once BR moves no power by ``tol`` or more in
    two rounds in a row; its profile is the last one checked, so scalar
    ``best_response`` moves none of its powers by ``tol`` either. A row
    whose proposal BR(p) lands nearer its profile two rounds back than its
    current one, with residual still >= ``tol``, is in a 2-cycle: it takes
    damped steps p <- (1 - DAMPING) p + DAMPING BR(p) from then on and
    ``damped`` records it. ``init`` is one (K,) start or (B, K) starts;
    the prices and the starts are each validated in one pass over the batch.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 2:
        raise ValueError("prices must be shaped (B, K)")
    B, K = validate_prices(net, prices, ndim=2).shape
    # a C-ordered copy: a copy of the zero-stride broadcast comes out column-major, and kernels round strided rows
    # differently from contiguous ones
    p = validate_power_profile(net, np.broadcast_to(np.asarray(init, dtype=float), (B, K)).copy(), ndim=2)
    charge = prices * net.gain[1:, 0]
    before = np.full((B, K), np.nan)  # each row's profile one round back
    converged = np.zeros(B, dtype=bool)
    quiet = np.zeros(B, dtype=bool)  # the previous round's residual was below tol
    damped = np.zeros(B, dtype=bool)
    rounds = np.zeros(B, dtype=int)
    rows = np.arange(B)
    for t in range(1, max_rounds + 1):
        if not rows.size:
            break
        P = p[rows]
        proposal = _best_responses(net, net.own_gain / interference(net, P), charge[rows], P)
        residual = np.abs(proposal - P).max(axis=1)
        returned = np.abs(proposal - before[rows]).max(axis=1) < residual
        slow = damped[rows] | (returned & (residual >= tol))
        damped[rows] = slow
        rounds[rows] = t
        before[rows] = P
        settled = (residual < tol) & quiet[rows]
        quiet[rows] = residual < tol
        converged[rows[settled]] = True
        step = np.where(slow[:, None], (1.0 - DAMPING) * P + DAMPING * proposal, proposal)
        p[rows[~settled]] = step[~settled]
        rows = rows[~settled]
    return EquilibriumBatch(profiles=p, converged=converged, rounds=rounds, damped=damped)
