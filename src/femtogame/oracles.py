"""Independent oracles the primary implementations are checked against.

Each oracle recomputes its target quantity by brute force (dense grids,
finite differences, literal enumeration) sharing nothing with the module it
checks beyond the payoff definitions: the interference and payoff below are
written out term by term, not taken from the vectorized kernel. They are
deliberately slow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .network import NetworkInstance

__all__ = [
    "OracleConfig",
    "grid_best_response",
    "finite_difference_gradient",
    "finite_difference_cross",
    "enumerate_expected_payoff",
]


@dataclass(frozen=True)
class OracleConfig:
    """Budgets for the brute-force checks."""

    grid_points: int = 1_000_000

    def __post_init__(self) -> None:
        if self.grid_points < 1_000:
            raise ValueError("grid_points must be >= 1000")


def _interference(net: NetworkInstance, k: int, profile) -> float:
    """N_k + h_0k*p_0 + sum over j != k of h_jk*p_j, one term at a time."""
    denom = net.noise[k] + net.gain[0, k] * net.mu_power
    for j in range(1, net.num_followers + 1):
        if j != k:
            denom += net.gain[j, k] * profile[j - 1]
    return denom


def _payoff(net: NetworkInstance, k: int, profile, prices) -> float:
    """W*log(1 + gamma_k)/(p_k + p_a) - lambda_k*h_k0*p_k at one pure profile."""
    p = float(profile[k - 1])
    gamma = net.gain[k, k] * p / _interference(net, k, profile)
    return net.bandwidth * math.log1p(gamma) / (p + net.circuit_power) - prices[k - 1] * net.gain[k, 0] * p


def grid_best_response(
    net: NetworkInstance,
    k: int,
    opponents: np.ndarray,
    prices: np.ndarray,
    cfg: OracleConfig = OracleConfig(),
) -> float:
    """Argmax of follower k's payoff over a uniform grid on [0, p_max].

    Vectorized over the whole grid with its own payoff expression (the
    best-response Newton steps never touch this code path).
    """
    denom = _interference(net, k, np.asarray(opponents, dtype=float))
    grid = np.linspace(0.0, float(net.power_max[k - 1]), cfg.grid_points)
    gamma = net.gain[k, k] * grid / denom
    payoff = net.bandwidth * np.log1p(gamma) / (grid + net.circuit_power)
    payoff -= prices[k - 1] * net.gain[k, 0] * grid
    return float(grid[int(np.argmax(payoff))])


def finite_difference_gradient(f, x: float, step: float, floor: float = 0.0) -> float:
    """Central difference (f(x+h) - f(x-h)) / 2h with h = step*max(|x|, floor)."""
    h = step * max(abs(x), floor)
    if h <= 0.0:
        raise ValueError("finite-difference step collapsed to 0; pass a floor")
    return (f(x + h) - f(x - h)) / (2.0 * h)


def finite_difference_cross(
    f,
    x: float,
    y: float,
    step_x: float,
    step_y: float,
    floor_x: float = 0.0,
    floor_y: float = 0.0,
    richardson: bool = False,
) -> float:
    """Mixed second difference of f(x, y) with anisotropic steps.

    [f(x+h,y+g) - f(x+h,y-g) - f(x-h,y+g) + f(x-h,y-g)] / (4hg). The two
    steps are independent on purpose: payoffs here are near-linear in the
    opponent power, so a large g keeps the numerator above roundoff while a
    small h controls the truncation error in x. With ``richardson`` the
    stencil is evaluated at (h, g) and (h/2, g/2) and extrapolated,
    cancelling the leading O(h^2 + g^2) truncation term; that allows steps
    large enough to beat roundoff even when the coupling is strong.
    """
    h = step_x * max(abs(x), floor_x)
    g = step_y * max(abs(y), floor_y)
    if h <= 0.0 or g <= 0.0:
        raise ValueError("finite-difference step collapsed to 0; pass floors")

    def stencil(h: float, g: float) -> float:
        return (
            f(x + h, y + g) - f(x + h, y - g) - f(x - h, y + g) + f(x - h, y - g)
        ) / (4.0 * h * g)

    coarse = stencil(h, g)
    if not richardson:
        return coarse
    fine = stencil(0.5 * h, 0.5 * g)
    return (4.0 * fine - coarse) / 3.0


def enumerate_expected_payoff(
    net: NetworkInstance,
    k: int,
    action_sets,
    strategies,
    prices,
) -> float:
    """Literal expectation of follower k's payoff over all joint profiles.

    Walks every profile with itertools.product, evaluates the literal
    payoff ``_payoff``, and accumulates with math.fsum. Independent of the
    vectorized module path in its payoff expression, loop structure and
    summation order.
    """
    K = net.num_followers
    sizes = [len(a) for a in action_sets]
    total = 1
    for m in sizes:
        total *= m
    if K * total > 10_000_000:
        raise ValueError(f"enumeration size K*M^K = {K * total} exceeds cap")
    terms = []
    for combo in itertools.product(*[range(m) for m in sizes]):
        prob = 1.0
        for i, j in enumerate(combo):
            prob *= float(strategies[i][j])
        if prob == 0.0:
            continue
        profile = np.array([action_sets[i][j] for i, j in enumerate(combo)])
        terms.append(prob * _payoff(net, k, profile, prices))
    return math.fsum(terms)
