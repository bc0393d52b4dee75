"""Leader-side price selection.

Four routes to a price: the zero-price follower equilibrium (the reference
operating point), the closed-form asymptote-intersection price, a
semi-exhaustive grid search with zooming grid refinement, and the heuristic
price update driven by reported mixed strategies (the outer loop of the
discrete game).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .continuous import solve_equilibria
from .discrete import LearnerConfig, _expected_payoffs, expected_powers
from .network import NetworkInstance, _count, interference, sinr_macro, validate_power_profile
from .payoff import leader_revenue

__all__ = [
    "PriceSearchConfig",
    "PriceSearchResult",
    "ZeroPriceResult",
    "Algorithm2Result",
    "zero_price_equilibrium",
    "asymptote_price",
    "cutoff_price",
    "price_grid",
    "se_price_search",
    "algorithm2_price_step",
    "run_algorithm2",
]

REFINEMENT_TOL = 1e-3  # relative price tolerance of se_price_search's zooming refinement


@dataclass(frozen=True)
class PriceSearchConfig:
    """Knobs for se_price_search.

    mode 'uniform-price' sweeps one price charged to every link; the grid
    values are absolute prices. mode 'per-link' sweeps a scalar multiplier x
    of the per-link asymptote prices, charging x * lambda^a_k to link k; the
    multipliers run from 1e-3 to 10 * max_k cutoff_k / lambda^a_k, so the
    largest multiplier silences every link (``price_grid``). ``grid_count``
    sizes the first grid and every zoom pass; it must be a count >= 2 (README, "Input checks").
    """

    mode: str = "uniform-price"
    grid_count: int = 60

    def __post_init__(self) -> None:
        if self.mode not in ("uniform-price", "per-link"):
            raise ValueError(f"unknown mode {self.mode!r}")
        _count(self.grid_count, "grid_count", 2)


@dataclass
class ZeroPriceResult:
    """Follower equilibrium at lambda = 0."""

    profile: np.ndarray
    converged: bool
    rounds: int  # synchronous Newton rounds of ``solve_equilibria``, one step per follower each


@dataclass
class PriceSearchResult:
    """Outcome of se_price_search."""

    prices: np.ndarray
    revenue: float
    equilibrium: np.ndarray  # follower profile at the returned prices
    boundary_max: bool  # first grid's argmax sat on an endpoint (no refinement)
    grid_revenues: np.ndarray  # leader revenue at each first-grid value
    all_converged: bool


_last_zero_price = (None, None, None)  # (net, tol, result) of the latest zero_price_equilibrium solve


def zero_price_equilibrium(net: NetworkInstance, tol: float = 1e-7) -> ZeroPriceResult:
    """Follower equilibrium at lambda = 0 from p = 0: the unpriced allocation p*.

    One slot keeps the latest result, keyed on ``tol`` and on the network object by ``is`` (a frozen
    ``NetworkInstance`` cannot go stale); every call returns a fresh copy of ``profile``.
    """
    global _last_zero_price
    last_net, last_tol, zp = _last_zero_price
    if last_net is not net or last_tol != tol:
        zero = np.zeros((1, net.num_followers))
        batch = solve_equilibria(net, zero, zero, tol=tol)
        zp = ZeroPriceResult(batch.profiles[0], bool(batch.converged[0]), int(batch.rounds[0]))
        _last_zero_price = (net, tol, zp)
    return replace(zp, profile=zp.profile.copy())


def asymptote_price(net: NetworkInstance, p_star: np.ndarray) -> np.ndarray:
    """Intersection of the low- and high-price payment asymptotes, per link.

    lambda^a_k = W / ((p*_k + p_a) * (N_k + h_0k*p_0)), with p* the
    zero-price equilibrium profile and N_k + h_0k*p_0 the interference at
    p = 0 (``net.background``).

    Solving the formula for the power, p_k = W/(lambda_k (N_k + h_0k*p_0)) - p_a,
    implies dropout at W/(p_a (N_k + h_0k*p_0)). That is not the model's
    dropout price: the payment uses h_k0, so followers fall silent at
    ``cutoff_price`` = W*G_k/(p_a*h_k0) instead. The two agree only when
    h_kk = h_k0 and no other femtocell interferes. ``p_star`` is a (K,) or (B, K) power profile, validated.
    """
    p_star = validate_power_profile(net, p_star, ndim=(1, 2))
    return net.bandwidth / ((p_star + net.circuit_power) * net.background)


def cutoff_price(net: NetworkInstance, profile: np.ndarray) -> np.ndarray:
    """Per follower, the price above which its best response to ``profile`` is exactly 0.

    The payoff gradient at p_k = 0 is W*G_k/p_a - lambda_k*h_k0, with
    G_k = h_kk / interference_k; it turns negative at
    lambda_k = W*G_k/(p_a*h_k0). Useful for sizing sweep grids so the
    revenue roll-off is actually inside them. Shaped like ``profile``, a (K,) or (B, K) power profile, validated.
    """
    G = net.own_gain / interference(net, validate_power_profile(net, profile, ndim=(1, 2)))
    return net.bandwidth * G / (net.circuit_power * net.gain[1:, 0])


def price_grid(net: NetworkInstance, p_star: np.ndarray, direction, count: int) -> np.ndarray:
    """Log-spaced multipliers x of a price direction, from the linear-payment regime to past dropout.

    The prices are x * direction. The multipliers span
    1e-3 * min_k lambda^a_k / direction_k up to 10 * max_k cutoff_k / direction_k,
    both evaluated at the zero-price profile ``p_star``, so the efficiency
    plateau and the revenue roll-off both lie inside the grid. Refuses a
    ``count`` that is not an integer >= 2 (a bool, 2.5 and 3.0 included;
    README, "Input checks") and a direction that is not finite and > 0.
    """
    _count(count, "count", 2)
    d = np.asarray(direction, dtype=float)
    if not np.all((d > 0.0) & (d < np.inf)):
        raise ValueError(f"a price direction must be finite and > 0, got {direction!r}")
    lo = 1e-3 * float(np.min(asymptote_price(net, p_star) / direction))
    hi = 10.0 * float(np.max(cutoff_price(net, p_star) / direction))
    if hi <= lo:
        raise ValueError("degenerate price grid")
    return np.geomspace(lo, hi, count)


def se_price_search(
    net: NetworkInstance,
    cfg: PriceSearchConfig = PriceSearchConfig(),
) -> PriceSearchResult:
    """Semi-exhaustive search for the revenue-maximizing price.

    Pass 1 solves the follower equilibria of ``price_grid`` as one batch,
    every row started from the zero-price profile. Each later pass solves
    ``grid_count`` log-spaced points strictly inside the two cells around
    the previous pass's best point, started from that point's profile, until
    those two cells span a price ratio of at most (1 + REFINEMENT_TOL)^2.
    If pass 1's argmax lies on an endpoint the result is flagged
    ``boundary_max`` and no refinement is attempted. Returns the best point
    over all passes.
    """
    zp = zero_price_equilibrium(net)
    direction = asymptote_price(net, zp.profile) if cfg.mode == "per-link" else np.ones(net.num_followers)
    grid = price_grid(net, zp.profile, direction, cfg.grid_count)

    # Pass 1 solves every point of its grid; a zoom pass solves only the
    # interior of its edges, whose two ends the previous pass already solved.
    values, edges, offset, start = grid, grid, 0, zp.profile  # values[i] is edges[i + offset]
    all_converged = zp.converged
    best_revenue = -np.inf
    while True:
        prices = values[:, None] * direction
        batch = solve_equilibria(net, prices, start)
        revenues = leader_revenue(net, batch.profiles, prices)
        all_converged = all_converged and bool(batch.converged.all())
        i = int(np.argmax(revenues))
        if revenues[i] > best_revenue:
            best_x, best_revenue, best_profile = float(values[i]), float(revenues[i]), batch.profiles[i]
        if offset == 0:
            grid_revenues, boundary = revenues, i in (0, cfg.grid_count - 1)
            if boundary:
                break
        lo, hi = edges[i + offset - 1], edges[i + offset + 1]
        if hi / lo <= (1.0 + REFINEMENT_TOL) ** 2:
            break
        edges = np.geomspace(lo, hi, cfg.grid_count + 2)
        values, offset, start = edges[1:-1], 1, batch.profiles[i]

    return PriceSearchResult(
        prices=best_x * direction,
        revenue=best_revenue,
        equilibrium=best_profile,
        boundary_max=boundary,
        grid_revenues=grid_revenues,
        all_converged=all_converged,
    )


def algorithm2_price_step(
    net: NetworkInstance,
    action_sets,
    strategies,
) -> tuple[np.ndarray, np.ndarray]:
    """Heuristic price from reported strategies.

    lambda_k = E[psi_k] / (h_k0 * E[p_k]), where the numerator is the
    expected efficiency over the joint strategy profile and the denominator
    the expected payment base. By construction the expected net payoff of
    every follower is 0 at the new price. Followers whose strategy puts all
    mass on p = 0 get lambda_k = 0 and a raised flag.

    Returns (prices, flagged) with ``flagged`` a boolean vector.
    """
    mean_psi, mean_p = _expected_payoffs(net, action_sets, strategies, np.zeros(net.num_followers))
    base = net.gain[1:, 0] * mean_p
    flagged = base <= 0.0
    prices = np.divide(mean_psi, base, out=np.zeros_like(base), where=~flagged)
    return prices, flagged


@dataclass
class Algorithm2Result:
    """Outcome of the heuristic price-updating outer loop."""

    prices: np.ndarray
    strategies: np.ndarray
    trace: list  # (outer, prices, expected powers, expected MU SINR, revenue)
    outer_iterations: int
    converged: bool
    flagged: np.ndarray


def run_algorithm2(
    net: NetworkInstance,
    action_sets,
    learner: LearnerConfig = LearnerConfig(),
    max_outer: int = 20,
) -> Algorithm2Result:
    """Heuristic price updating until the macro link's SINR target ``net.mu_sinr_threshold`` is met.

    Starts at lambda = 0, runs the followers' learning to convergence,
    computes the expected macro SINR from the reported strategies' expected
    powers, and while the target is unmet applies ``algorithm2_price_step``
    and re-learns. Hitting ``max_outer`` returns a flagged partial result.
    Refuses a ``max_outer`` that is not a count >= 0, so a bool or 2.5 (README,
    "Input checks"); ``learner`` checked its own fields on construction.
    """
    _count(max_outer, "max_outer", 0)
    K = net.num_followers
    prices = np.zeros(K)
    flagged = np.zeros(K, dtype=bool)
    trace = []
    outer = 0
    while True:
        strategies = replace(learner, rng_seed=learner.rng_seed + outer)._final_strategies(net, action_sets, prices)
        mean_p = expected_powers(action_sets, strategies)
        mu_sinr = sinr_macro(net, mean_p)
        revenue = leader_revenue(net, mean_p, prices)
        trace.append((outer, prices.copy(), mean_p, mu_sinr, revenue))
        converged = bool(mu_sinr >= net.mu_sinr_threshold)
        if converged or outer >= max_outer:
            break
        prices, flagged = algorithm2_price_step(net, action_sets, strategies)
        outer += 1
    return Algorithm2Result(
        prices=prices,
        strategies=strategies,
        trace=trace,
        outer_iterations=outer,
        converged=converged,
        flagged=flagged,
    )
