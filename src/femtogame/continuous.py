"""Continuous-strategy follower game: best responses and equilibrium solvers.

The best response maximizes the quasiconcave follower payoff over [0, p_max] at the root of its gradient, which
changes sign at most once (+ to -); ``_boundary`` and ``_kept`` hold the rules for the ends. One step rule moves
toward that root: ``_newton_step``, a Newton step on the scaled gradient kept in its sign bracket by a secant. Both
solvers map (B, K) prices to an ``EquilibriumBatch``: ``run_algorithm1`` (the paper's Algorithm 1) moves followers
1..K in turn, each to its best response (``_best_responses`` repeats the step from 0 W; ``best_response`` is that
column step on one row), and ``solve_equilibria`` moves all at once, one step each per round (``_newton_steps``), a
Newton-Jacobi method with the fixed points and the rate of nonlinear Jacobi iteration (Ortega & Rheinboldt 1970).
Where the paper's uniqueness condition holds, both reach the one fixed point (Yates 1995, standard interference
functions). Outside it they may stop at different Nash points: default K = 200 topology 1 at sweep point 24 ends
9.1e-4 W apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkInstance, _count, _real, interference, validate_follower
from .payoff import own_payoff, own_scaled_gradient, validate_power_profile, validate_prices

__all__ = [
    "EquilibriumBatch",
    "best_response",
    "run_algorithm1",
    "solve_equilibria",
]

MAX_STEPS = 200  # Newton steps a best response may take before it raises RuntimeError
BR_TOL = 1e-9  # W: a best response stops once a Newton step is this small (best_response's and Algorithm 1's tol)
DAMPING = 0.5  # beta of the damped update p <- (1 - beta) p + beta N(p)
NOISE = 1e-6  # a residual below NOISE * tol is rounding noise: it settles a row however slowly it shrinks


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
    tol: float = BR_TOL,
) -> float:
    """Unique maximizer of follower k's payoff, k in 1..K, over [0, p_max[k]].

    ``opponents`` is a full length-K profile of finite powers >= 0, which may
    exceed p_max; entry k-1 is ignored but, like the prices, checked. This is
    Algorithm 1's column step on one row: the gradient sign at the interval
    ends decides boundary solutions, an interior root is approached by Newton
    steps from 0 W until one is <= ``tol`` watts (a root smaller than ``tol``
    still yields a positive power), and the root is kept only if its payoff
    beats p_k = 0 (ties go to the smaller power). ``tol`` is a positive finite number (README, "Input checks").
    """
    _real(tol, "tol", need="finite and positive")
    k = validate_follower(net, k)
    opponents = np.asarray(opponents, dtype=float)
    if opponents.shape != (net.num_followers,) or not np.all(np.isfinite(opponents) & (opponents >= 0.0)):
        raise ValueError(f"opponents must be {net.num_followers} finite powers >= 0")
    charge = validate_prices(net, prices)[k - 1 : k] * net.gain[k, 0]
    return float(_column_best_responses(net, k - 1, opponents[None], charge, tol)[0])


def _column_best_responses(net: NetworkInstance, j: int, P, charge, tol: float) -> np.ndarray:
    """Best response of follower j + 1, from 0 W, to every profile of P (B, K); ``charge`` (B,) is lambda h_0."""
    G = net.own_gain[j] / interference(net, P)[:, j]
    return _best_responses(net, G, charge, net.power_max[j], tol)


def _batch(net: NetworkInstance, prices, init, tol, max_rounds) -> tuple[np.ndarray, np.ndarray]:
    """Validated (B, K) prices and a C-ordered (kernels round strided rows differently) copy of validated starts;
    refuses a ``tol`` that is not a positive finite number and a ``max_rounds`` that is not a count >= 1."""
    _real(tol, "tol", need="finite and positive")
    _count(max_rounds, "max_rounds", 1)
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
    prices, p = _batch(net, prices, init, tol, max_rounds)
    charge, B = prices * net.gain[1:, 0], len(p)
    converged, rounds, rows = np.zeros(B, dtype=bool), np.zeros(B, dtype=int), np.arange(B)
    for t in range(1, max_rounds + 1):
        if not rows.size:
            break
        P = p[rows]
        for j in range(net.num_followers):
            P[:, j] = _column_best_responses(net, j, P, charge[rows, j], BR_TOL)
        settled = np.abs(P - p[rows]).max(axis=1) < tol
        p[rows], rounds[rows] = P, t
        converged[rows[settled]] = True
        rows = rows[~settled]
    return EquilibriumBatch(profiles=p, converged=converged, rounds=rounds, damped=np.zeros(B, dtype=bool))


def _best_responses(net: NetworkInstance, G, charge, p_max, tol: float = BR_TOL) -> np.ndarray:
    """Best response for every entry of same-shaped arrays G = h_kk/interference, charge = lambda_k h_k0, in [0, p_max].

    ``_boundary``'s rules, else ``_newton_step`` repeated from 0 W until a step is <= tol W, then ``_kept`` once: an
    iterate it zeroed inside the loop would restart the steps from 0 W, which can cycle. Entries still stepping after
    ``MAX_STEPS`` steps raise a ``RuntimeError`` that names their count, tol and ``MAX_STEPS``.
    """
    p_max = np.broadcast_to(p_max, G.shape)
    interior, out, head, tail, scale = _boundary(net, G, charge, p_max)
    idx = np.flatnonzero(interior)
    G, c, p_max, head, tail, scale = (a.ravel()[idx] for a in (G, charge, p_max, head, tail, scale))
    x, flat = np.zeros(idx.size), out.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_STEPS):
            if idx.size == 0:
                return out
            new = _newton_step(net, G, c, x, p_max, True, head, tail, scale)  # every packed entry is interior
            done, x = np.abs(new - x) <= tol, new
            if done.any():
                flat[idx[done]] = _kept(net, x[done], G[done], c[done])
                live = ~done
                idx, G, c, p_max, head, tail, scale, x = (a[live] for a in (idx, G, c, p_max, head, tail, scale, x))
    if idx.size:
        raise RuntimeError(f"{idx.size} best responses still above tol {tol:.3e} W after {MAX_STEPS} steps")
    return out


def _boundary(net: NetworkInstance, G, charge, p_max):
    """The best response where own_gradient at 0 W (``head``) or at p_max (``tail``) decides it: 0 W unless head > 0,
    else p_max unless tail < 0 or NaN, where the root is interior and ``_kept`` then checks it. Returns (interior,
    that answer elsewhere, head, tail, scale); W G and scale = (1 + G p_max)(p_max + p_a) are formed once for both."""
    W, pa = net.bandwidth, net.circuit_power
    WG, gamma, total = W * G, G * p_max, p_max + pa
    scale = (1.0 + gamma) * total
    head = WG / pa - charge
    tail = -W * np.log1p(gamma) / (total * total) + WG / scale - charge  # own_gradient at p_max
    up = head > 0.0
    return up & ~(tail >= 0.0), np.where(up, p_max, 0.0), head, tail, scale


def _kept(net: NetworkInstance, p, G, charge) -> np.ndarray:
    """p where its payoff beats p = 0, else 0 W (ties go to the smaller power)."""
    return np.where(own_payoff(p, G * p, net.bandwidth, net.circuit_power, charge) > 0.0, p, 0.0)


def _newton_step(net: NetworkInstance, G, charge, p, p_max, interior, head, tail, scale) -> np.ndarray:
    """One Newton step on ``own_scaled_gradient`` from every power p toward its best response, before ``_kept``.

    The step stays in its sign bracket, [0, p] where f(p) < 0 and [p, p_max] where f(p) > 0; an ``interior`` step
    that leaves it takes the secant through the bracket's ends (f = p_a ``head`` and ``scale`` ``tail``, from
    ``_boundary``), formed only in a call where some step does. Callers silence the division warnings.
    """
    f, slope = own_scaled_gradient(p, G, net.bandwidth, net.circuit_power, charge)
    rising = f > 0.0
    lo, hi = np.where(rising, p, 0.0), np.where(rising, p_max, p)
    new = p - f / slope
    off = interior & ~((new >= lo) & (new <= hi))
    if off.any():  # f = (1 + G p)(p + p_a) * own_gradient at both ends
        f_lo, f_hi = np.where(rising, f, net.circuit_power * head), np.where(rising, scale * tail, f)
        new = np.where(off, lo - f_lo * (hi - lo) / (f_hi - f_lo), new)
    return new


def _newton_steps(net: NetworkInstance, G, charge, p) -> np.ndarray:
    """One ``_newton_step`` from every power of p (B, K), kept by ``_kept``, where ``_boundary`` leaves it interior."""
    interior, out, head, tail, scale = _boundary(net, G, charge, net.power_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        new = _newton_step(net, G, charge, p, net.power_max, interior, head, tail, scale)
        return np.where(interior, _kept(net, new, G, charge), out)


def solve_equilibria(
    net: NetworkInstance,
    prices: np.ndarray,
    init: np.ndarray,
    tol: float = 1e-7,
    max_rounds: int = 10_000,
) -> EquilibriumBatch:
    """Follower equilibrium for every price vector of a (B, K) batch.

    Each round sets p <- N(p) for all K followers of every unconverged row at once, where N is one Newton step from
    p toward each best response (``_newton_steps``). A round's residual r is its largest move |N(p) - p|. A row
    converges once r < ``tol`` in one round and, in the next, r / (1 - q) <= ``tol`` with q = r / the previous r (the
    distance left to the fixed point if the steps keep shrinking by q) or r <= NOISE * ``tol`` (rounding noise). Its
    profile is the last one stepped from. Either test forces r < tol / 2; that scalar ``best_response`` then moves
    none of its powers by ``tol`` is a property the tests check (random batches, the 2-cycles of default K = 50
    topology 101), not one the construction guarantees. A row whose proposal N(p) lands nearer its profile two rounds
    back than its current one, with r still >= ``tol``, is in a 2-cycle: it takes damped steps
    p <- (1 - DAMPING) p + DAMPING N(p) from then on and ``damped`` records it; the damped step is formed only in a
    round where some row is slow. The unsettled rows' state (profile, charge, profile one round back, last residual,
    slow flag) stays packed, filtered only in a round where some row settles, which is when that row's results are
    written out. ``init`` is one (K,) start or (B, K) starts; the prices and the starts are each validated in one
    pass over the batch.
    """
    prices, p = _batch(net, prices, init, tol, max_rounds)
    B, K = p.shape
    rows, charge, P = np.arange(B), prices * net.gain[1:, 0], p
    before, last, slow = np.full((B, K), np.nan), np.full(B, np.nan), np.zeros(B, dtype=bool)
    converged, damped, rounds = np.zeros(B, dtype=bool), np.zeros(B, dtype=bool), np.full(B, max_rounds, dtype=int)
    for t in range(1, max_rounds + 1):
        if not rows.size:
            break
        proposal = _newton_steps(net, net.own_gain / interference(net, P), charge, P)
        residual = np.abs(proposal - P).max(axis=1)
        slow |= (np.abs(proposal - before).max(axis=1) < residual) & (residual >= tol)
        # residual / (1 - q) <= tol with q = residual / last, or rounding noise, after a round below tol
        settled = (last < tol) & ((residual * (last + tol) <= tol * last) | (residual <= NOISE * tol))
        if slow.any():
            proposal = np.where(slow[:, None], (1.0 - DAMPING) * P + DAMPING * proposal, proposal)
        if settled.any():
            done, live = rows[settled], ~settled
            p[done], converged[done], rounds[done], damped[done] = P[settled], True, t, slow[settled]
            rows, charge, P, proposal, residual, slow = (a[live] for a in (rows, charge, P, proposal, residual, slow))
        before, P, last = P, proposal, residual
    p[rows], damped[rows] = P, slow
    return EquilibriumBatch(profiles=p, converged=converged, rounds=rounds, damped=damped)
