"""Leader-side price selection.

Four routes to a price: the zero-price follower equilibrium (the reference
operating point), the closed-form asymptote-intersection price, a
semi-exhaustive grid search over uniform prices with 1-D refinement, and
the heuristic price update driven by reported mixed strategies (the outer
loop of the discrete game).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .continuous import solve_equilibria
from .discrete import (
    LearningReport,
    PowerLawSchedule,
    expected_payoffs,
    expected_powers,
    initial_state,
    run_learning,
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
    "se_price_search",
    "algorithm2_price_step",
    "run_algorithm2",
]

REFINEMENT_TOL = 1e-3  # relative price tolerance of se_price_search's 1-D refinement


@dataclass(frozen=True)
class PriceSearchConfig:
    """Knobs for se_price_search.

    mode 'uniform-price' sweeps one price charged to every link; the grid
    values are absolute prices. mode 'per-link' sweeps a scalar multiplier
    applied to the per-link asymptote prices lambda^a. When grid bounds are
    omitted they default to [1e-3 * min_k lambda^a_k, 1e3 * max_k lambda^a_k]
    (uniform) or [1e-3, 1e3] (per-link multiplier).
    """

    mode: str = "uniform-price"
    grid_min: float | None = None
    grid_max: float | None = None
    grid_count: int = 60

    def __post_init__(self) -> None:
        if self.mode not in ("uniform-price", "per-link"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.grid_count < 2:
            raise ValueError("grid_count must be >= 2")
        if self.grid_min is not None and self.grid_min <= 0.0:
            raise ValueError("grid_min must be positive for log spacing")
        if self.grid_max is not None and self.grid_min is not None:
            if self.grid_max <= self.grid_min:
                raise ValueError("grid_max must exceed grid_min")


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
    boundary_max: bool  # grid argmax sat on an endpoint (grid too narrow)
    grid_values: np.ndarray  # swept uniform prices or per-link multipliers
    grid_revenues: np.ndarray
    multiplier: float | None  # per-link mode: the returned multiplier
    all_converged: bool


def zero_price_equilibrium(net: NetworkInstance, tol: float = 1e-7) -> ZeroPriceResult:
    """Follower equilibrium at lambda = 0 from p = 0: the unpriced allocation p* and gamma*."""
    zero = np.zeros((1, net.num_followers))
    batch = solve_equilibria(net, zero, zero, tol=tol)
    p = batch.profiles[0]
    return ZeroPriceResult(
        profile=p, sinr=follower_sinr(net, p), converged=bool(batch.converged[0]), rounds=int(batch.rounds[0])
    )


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


def se_price_search(
    net: NetworkInstance,
    cfg: PriceSearchConfig = PriceSearchConfig(),
    inner_tol: float = 1e-7,
) -> PriceSearchResult:
    """Semi-exhaustive search for the revenue-maximizing price.

    Solves the follower equilibria of a log-spaced grid as one batch (every
    row started from the zero-price profile), then refines around the best
    interior cell with a bounded 1-D minimization in log-price space, each
    evaluation one single-row solve started from the best grid profile. If the grid argmax
    lies on an endpoint the result is flagged ``boundary_max`` and no
    refinement is attempted.
    """
    from scipy.optimize import minimize_scalar  # scipy's import cost is paid only here

    zp = zero_price_equilibrium(net, tol=inner_tol)
    lam_a = asymptote_price(net, zp.profile)

    if cfg.mode == "uniform-price":
        lo = cfg.grid_min if cfg.grid_min is not None else 1e-3 * float(lam_a.min())
        hi = cfg.grid_max if cfg.grid_max is not None else 1e3 * float(lam_a.max())
        direction = np.ones(net.num_followers)
    else:
        lo = cfg.grid_min if cfg.grid_min is not None else 1e-3
        hi = cfg.grid_max if cfg.grid_max is not None else 1e3
        direction = lam_a
    if hi <= lo:
        raise ValueError("degenerate price grid")
    grid = np.geomspace(lo, hi, cfg.grid_count)

    prices = grid[:, None] * direction
    batch = solve_equilibria(net, prices, zp.profile, tol=inner_tol)
    revenues = np.array([leader_revenue(net, p, lam) for p, lam in zip(batch.profiles, prices)])
    all_converged = zp.converged and bool(batch.converged.all())

    best = int(np.argmax(revenues))
    boundary = best in (0, cfg.grid_count - 1)
    best_x = float(grid[best])
    best_revenue = float(revenues[best])
    best_profile = batch.profiles[best]

    if not boundary:

        def solved(x: float) -> tuple[float, np.ndarray, bool]:
            """Revenue, profile and convergence at multiplier x, started from the best grid profile."""
            lam = x * direction
            one = solve_equilibria(net, lam[None], best_profile, tol=inner_tol)
            return leader_revenue(net, one.profiles[0], lam), one.profiles[0], bool(one.converged[0])

        res = minimize_scalar(
            lambda log_x: -solved(math.exp(log_x))[0],
            bounds=(math.log(grid[best - 1]), math.log(grid[best + 1])),
            method="bounded",
            options={"xatol": math.log1p(REFINEMENT_TOL)},
        )
        refined_x = float(math.exp(res.x))
        refined_revenue, refined_profile, ok = solved(refined_x)
        all_converged = all_converged and ok
        if refined_revenue > best_revenue:
            best_x, best_revenue, best_profile = refined_x, refined_revenue, refined_profile

    return PriceSearchResult(
        prices=best_x * direction,
        revenue=best_revenue,
        equilibrium=best_profile,
        boundary_max=boundary,
        grid_values=grid,
        grid_revenues=revenues,
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
    base = net.gain[1:, 0] * expected_powers(action_sets, strategies)
    flagged = base <= 0.0
    mean_psi = expected_payoffs(net, action_sets, strategies, np.zeros(net.num_followers))
    prices = np.divide(mean_psi, base, out=np.zeros_like(base), where=~flagged)
    return prices, flagged


@dataclass(frozen=True)
class LearnerConfig:
    """Configuration of one discrete learning run; ``run`` carries it out.

    The defaults are the Table values: temperature 1, 1/t payoff-estimate
    steps and 1/t^2 strategy steps.
    """

    tau: float = 1.0
    alpha1: PowerLawSchedule = PowerLawSchedule()
    alpha2: PowerLawSchedule = PowerLawSchedule(c=2.0)
    rng_seed: int = 0
    tol: float = 1e-3
    window: int = 50
    max_iters: int = 10_000

    def run(self, net: NetworkInstance, action_sets, prices) -> LearningReport:
        """Learn from a fresh state (uniform strategies, this config's seed) at ``prices``."""
        state = initial_state(
            action_sets, tau=self.tau, alpha1=self.alpha1, alpha2=self.alpha2, rng_seed=self.rng_seed
        )
        return run_learning(net, prices, state, tol=self.tol, window=self.window, max_iters=self.max_iters)


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
    """
    threshold = net.mu_sinr_threshold if sinr_threshold is None else sinr_threshold
    K = net.num_followers
    prices = np.zeros(K)
    flagged = np.zeros(K, dtype=bool)
    trace = []
    converged = False
    outer = 0
    while True:
        seeded = replace(learner, rng_seed=learner.rng_seed + outer)
        strategies = seeded.run(net, action_sets, prices).strategies  # keeps no trace alive
        mean_p = expected_powers(action_sets, strategies)
        mu_sinr = sinr_macro(net, mean_p)
        revenue = leader_revenue(net, mean_p, prices)
        trace.append((outer, prices.copy(), mean_p, mu_sinr, revenue))
        if mu_sinr >= threshold:
            converged = True
            break
        if outer >= max_outer:
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
