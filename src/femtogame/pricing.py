"""Leader-side price selection.

Four routes to a price: the zero-price follower equilibrium (the reference
operating point), the closed-form asymptote-intersection price, a
semi-exhaustive grid search with zooming grid refinement, and the heuristic
price update driven by reported mixed strategies (the outer loop of the
discrete game).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .continuous import solve_equilibria
from .discrete import (
    LearningReport,
    LearningState,
    PowerLawSchedule,
    _expected_payoffs,
    _learn,
    expected_powers,
    initial_state,
    run_learning,
    validate_schedules,
)
from .network import NetworkInstance, follower_sinr, interference, sinr_macro
from .payoff import leader_revenue

__all__ = [
    "PriceSearchConfig",
    "PriceSearchResult",
    "ZeroPriceResult",
    "LearnerConfig",
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
    sizes the first grid and every zoom pass.
    """

    mode: str = "uniform-price"
    grid_count: int = 60

    def __post_init__(self) -> None:
        if self.mode not in ("uniform-price", "per-link"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.grid_count < 2:
            raise ValueError("grid_count must be >= 2")


@dataclass
class ZeroPriceResult:
    """Follower equilibrium at lambda = 0 plus its SINR levels."""

    profile: np.ndarray
    sinr: np.ndarray
    converged: bool
    rounds: int  # synchronous best-response rounds of ``solve_equilibria``


@dataclass
class PriceSearchResult:
    """Outcome of se_price_search."""

    prices: np.ndarray
    revenue: float
    equilibrium: np.ndarray  # follower profile at the returned prices
    boundary_max: bool  # first grid's argmax sat on an endpoint (no refinement)
    grid_values: np.ndarray  # first grid: uniform prices or per-link multipliers
    grid_revenues: np.ndarray  # leader revenue at each first-grid value
    multiplier: float | None  # per-link mode: the returned multiplier
    all_converged: bool


_last_zero_price = (None, None, None)  # (net, tol, result) of the latest zero_price_equilibrium solve


def zero_price_equilibrium(net: NetworkInstance, tol: float = 1e-7) -> ZeroPriceResult:
    """Follower equilibrium at lambda = 0 from p = 0: the unpriced allocation p* and gamma*.

    One slot keeps the latest result, keyed on ``tol`` and on the network object by ``is`` (a frozen
    ``NetworkInstance`` cannot go stale); every call returns fresh copies of ``profile`` and ``sinr``.
    """
    global _last_zero_price
    last_net, last_tol, zp = _last_zero_price
    if last_net is not net or last_tol != tol:
        zero = np.zeros((1, net.num_followers))
        batch = solve_equilibria(net, zero, zero, tol=tol)
        p = batch.profiles[0]
        zp = ZeroPriceResult(p, follower_sinr(net, p), bool(batch.converged[0]), int(batch.rounds[0]))
        _last_zero_price = (net, tol, zp)
    return replace(zp, profile=zp.profile.copy(), sinr=zp.sinr.copy())


def asymptote_price(net: NetworkInstance, p_star: np.ndarray) -> np.ndarray:
    """Intersection of the low- and high-price payment asymptotes, per link.

    lambda^a_k = W / ((p*_k + p_a) * (N_k + h_0k*p_0)), with p* the
    zero-price equilibrium profile and N_k + h_0k*p_0 the interference at
    p = 0 (``net.background``).

    Solving the formula for the power, p_k = W/(lambda_k (N_k + h_0k*p_0)) - p_a,
    implies dropout at W/(p_a (N_k + h_0k*p_0)). That is not the model's
    dropout price: the payment uses h_k0, so followers fall silent at
    ``cutoff_price`` = W*G_k/(p_a*h_k0) instead. The two agree only when
    h_kk = h_k0 and no other femtocell interferes.
    """
    p_star = np.asarray(p_star, dtype=float)
    return net.bandwidth / ((p_star + net.circuit_power) * net.background)


def cutoff_price(net: NetworkInstance, profile: np.ndarray) -> np.ndarray:
    """Per follower, the price above which its best response to ``profile`` is exactly 0.

    The payoff gradient at p_k = 0 is W*G_k/p_a - lambda_k*h_k0, with
    G_k = h_kk / interference_k; it turns negative at
    lambda_k = W*G_k/(p_a*h_k0). Useful for sizing sweep grids so the
    revenue roll-off is actually inside them. Shaped like ``profile``.
    """
    G = net.own_gain / interference(net, profile)
    return net.bandwidth * G / (net.circuit_power * net.gain[1:, 0])


def price_grid(net: NetworkInstance, p_star: np.ndarray, direction, count: int) -> np.ndarray:
    """Log-spaced multipliers x of a price direction, from the linear-payment regime to past dropout.

    The prices are x * direction. The multipliers span
    1e-3 * min_k lambda^a_k / direction_k up to 10 * max_k cutoff_k / direction_k,
    both evaluated at the zero-price profile ``p_star``, so the efficiency
    plateau and the revenue roll-off both lie inside the grid. Refuses
    ``count < 2``.
    """
    if count < 2:
        raise ValueError(f"a price grid needs at least 2 points, got {count}")
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
        grid_values=grid,
        grid_revenues=grid_revenues,
        multiplier=best_x if cfg.mode == "per-link" else None,
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


@dataclass(frozen=True)
class LearnerConfig:
    """Configuration of one discrete learning run; ``run`` carries it out.

    The defaults are the Table values: temperature 1, 1/t payoff-estimate
    steps and 1/t^2 strategy steps. Those break the two-timescale
    conditions (``validate_schedules``), so ``run`` warns about them.
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

    def run(self, net: NetworkInstance, action_sets, prices) -> LearningReport:
        """Learn from a fresh state (uniform strategies, this config's seed) at ``prices``."""
        state = self._fresh_state(action_sets)
        return run_learning(net, prices, state, tol=self.tol, window=self.window, max_iters=self.max_iters)

    def _fresh_state(self, action_sets) -> LearningState:
        """Uniform start at this config's seed, with ``run``'s two-timescale warning pointed at our caller's caller."""
        unmet = ", ".join(validate_schedules(self.alpha1, self.alpha2).unmet)
        if unmet:
            warnings.warn(f"step sizes fail the two-timescale conditions {unmet}", RuntimeWarning, stacklevel=3)
        return initial_state(action_sets, tau=self.tau, alpha1=self.alpha1, alpha2=self.alpha2, rng_seed=self.rng_seed)


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
    sinr_threshold: float | None = None,
    max_outer: int = 20,
) -> Algorithm2Result:
    """Heuristic price updating until the macro link's SINR target is met.

    Starts at lambda = 0, runs the followers' learning to convergence,
    computes the expected macro SINR from the reported strategies' expected
    powers, and while the target is unmet applies ``algorithm2_price_step``
    and re-learns. Hitting ``max_outer`` returns a flagged partial result.
    Refuses ``max_outer < 0`` and a threshold that is NaN or not positive.
    """
    threshold = net.mu_sinr_threshold if sinr_threshold is None else sinr_threshold
    if max_outer < 0 or not threshold > 0.0:
        raise ValueError(f"need max_outer >= 0 and a positive SINR threshold; got {max_outer}, {threshold}")
    K = net.num_followers
    prices = np.zeros(K)
    flagged = np.zeros(K, dtype=bool)
    trace = []
    outer = 0
    while True:
        state = replace(learner, rng_seed=learner.rng_seed + outer)._fresh_state(action_sets)
        ring = np.empty((learner.window, *state.pi.shape))  # only the strategies are read: keep the last window
        _learn(net, prices, state, learner.tol, learner.window, learner.max_iters, ring)
        mean_p = expected_powers(action_sets, state.pi)
        mu_sinr = sinr_macro(net, mean_p)
        revenue = leader_revenue(net, mean_p, prices)
        trace.append((outer, prices.copy(), mean_p, mu_sinr, revenue))
        converged = bool(mu_sinr >= threshold)
        if converged or outer >= max_outer:
            break
        prices, flagged = algorithm2_price_step(net, action_sets, state.pi)
        outer += 1
    return Algorithm2Result(
        prices=prices,
        strategies=state.pi,
        trace=trace,
        outer_iterations=outer,
        converged=converged,
        flagged=flagged,
    )
