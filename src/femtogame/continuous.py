"""Continuous-strategy follower game: best responses and equilibrium solvers.

The best response maximizes the quasiconcave follower payoff over
[0, p_max] at the root of its gradient, which changes sign at most once
(+ to -). One root finder, ``_best_responses`` (Newton steps on the scaled
gradient, safeguarded by bisection), holds the boundary rules and finds
that root for any batch. Both solvers map (B, K) prices to an
``EquilibriumBatch``: ``run_algorithm1`` (the paper's Algorithm 1) moves
followers 1..K in turn, each by one column step (``best_response`` is that
step on one row), and ``solve_equilibria`` moves all of them at once. Where
the paper's uniqueness condition holds, both reach the one fixed point
(Yates 1995, standard interference functions). Outside it they may stop at
different Nash points: default K = 200 topology 1 at sweep point 24 ends
9.1e-4 W apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkInstance, interference, validate_follower
from .payoff import own_gradient, own_payoff, own_scaled_gradient, validate_power_profile, validate_prices

__all__ = [
    "BisectionError",
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
class EquilibriumBatch:
    """Outcome of one ``solve_equilibria`` or ``run_algorithm1`` call; row b solves price row b."""

    profiles: np.ndarray  # (B, K) last profile of each row
    converged: np.ndarray  # (B,) the row settled within tol
    rounds: np.ndarray  # (B,) rounds run
    damped: np.ndarray  # (B,) a 2-cycle switched the row to damped updates (never in run_algorithm1)


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
    Algorithm 1's column step on one row, started from 0 W: the gradient sign
    at the interval ends decides boundary solutions, an interior root is
    found to within ``tol`` watts (a root smaller than ``tol`` still yields a
    positive power), and the root is kept only if its payoff beats p_k = 0
    (ties go to the smaller power).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    k = validate_follower(net, k)
    opponents = np.asarray(opponents, dtype=float)
    if opponents.shape != (net.num_followers,) or not np.all(np.isfinite(opponents) & (opponents >= 0.0)):
        raise ValueError(f"opponents must be {net.num_followers} finite powers >= 0")
    charge = validate_prices(net, prices)[k - 1 : k] * net.gain[k, 0]
    return float(_column_best_responses(net, k - 1, opponents[None], charge, tol)[0])


def _column_best_responses(net: NetworkInstance, j: int, P, charge, tol: float) -> np.ndarray:
    """Best response of follower j + 1, from 0 W, to every profile of P (B, K); ``charge`` (B,) is lambda h_0."""
    G = net.own_gain[j] / interference(net, P)[:, j]
    return _best_responses(net, G, charge, np.zeros_like(G), net.power_max[j], tol)


def _batch(net: NetworkInstance, prices, init) -> tuple[np.ndarray, np.ndarray]:
    """Validated (B, K) prices and a C-ordered (kernels round strided rows differently) copy of validated starts."""
    prices = validate_prices(net, prices, ndim=2)
    return prices, np.broadcast_to(validate_power_profile(net, init, ndim=(1, 2)), prices.shape).copy()


def run_algorithm1(
    net: NetworkInstance,
    prices: np.ndarray,
    init: np.ndarray,
    tol: float = 1e-7,
    max_rounds: int = 10_000,
) -> EquilibriumBatch:
    """Asynchronous best responses to a power-allocation fixed point for every price vector of a (B, K) batch.

    Each round moves follower j = 1..K of every unsettled row in turn to its best response to the row's profile
    (one column step). A row settles once a round changes it by less than ``tol`` (infinity norm); one still
    moving after ``max_rounds`` is reported via ``converged=False``. ``init`` is one (K,) start or (B, K) starts;
    ``damped`` is all False, and every row has the bits of its own one-row call.
    """
    prices, p = _batch(net, prices, init)
    charge = prices * net.gain[1:, 0]
    converged = np.zeros(len(p), dtype=bool)
    rounds = np.zeros(len(p), dtype=int)
    rows = np.arange(len(p))
    for t in range(1, max_rounds + 1):
        if not rows.size:
            break
        P = p[rows]
        for j in range(net.num_followers):
            P[:, j] = _column_best_responses(net, j, P, charge[rows, j], 1e-9)  # best_response's default tol
        settled = np.abs(P - p[rows]).max(axis=1) < tol
        p[rows] = P
        rounds[rows] = t
        converged[rows[settled]] = True
        rows = rows[~settled]
    return EquilibriumBatch(profiles=p, converged=converged, rounds=rounds, damped=np.zeros(len(p), dtype=bool))


def _best_responses(net: NetworkInstance, G, charge, start, p_max, tol: float = 1e-9) -> np.ndarray:
    """Best response for every entry of same-shaped arrays G = h_kk/interference, charge = lambda_k h_k0, in [0, p_max].

    Same boundary rules; interior roots by safeguarded Newton steps from ``start`` on the scaled gradient
    ``own_scaled_gradient``, which falls strictly and has no 1/p pole. A step that stays inside the closed sign
    bracket is taken, so an exact root ends the search at once; one that leaves it bisects the bracket instead.
    The search stops once a step is <= tol W.
    """
    W, pa = net.bandwidth, net.circuit_power
    p_max = np.broadcast_to(p_max, G.shape)
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
    prices, p = _batch(net, prices, init)
    B, K = p.shape
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
        proposal = _best_responses(net, net.own_gain / interference(net, P), charge[rows], P, net.power_max)
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
