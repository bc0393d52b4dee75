"""Utilities, revenue, and derivatives for both tiers.

Everything here is a pure function of an immutable ``NetworkInstance``, a
follower power profile ``p`` (length K, watts), and a price vector
``prices`` (length K, nonnegative). Follower indices are 1-based to match
the gain-matrix convention (index 0 = macro link).

The follower model is written once: ``payoffs`` and ``efficiencies``
evaluate every follower of profiles shaped (..., K) through
``network.interference``, and the scalar functions are views of one entry.
``leader_revenue`` takes (K,) or (B, K) profiles, one value per profile.
``own_payoff`` and ``own_gradient`` hold the payoff and its own-power
derivative as expressions in one follower's power; ``own_scaled_gradient``
is that derivative times (1 + G p)(p + p_a), with its slope, the function
the one best-response step rule (``continuous._newton_step``) takes its
Newton steps on. ``sufficient_conditions`` evaluates the
paper's sufficient conditions (uniqueness, increasing differences) and the
cross derivatives for profiles shaped (..., K).
"""

from __future__ import annotations

import numpy as np

from .network import (NetworkInstance, follower_sinr, interference, validate_follower, validate_power_profile,
                      validate_rank)

__all__ = [
    "validate_prices",
    "own_payoff",
    "own_gradient",
    "own_scaled_gradient",
    "payoffs",
    "efficiencies",
    "follower_payoff",
    "leader_revenue",
    "sufficient_conditions",
]


def validate_prices(net: NetworkInstance, prices: np.ndarray, ndim=1) -> np.ndarray:
    """Check (K,) prices, (B, K) with ``ndim=2``, either with ``ndim=(1, 2)``, are finite and >= 0; returns floats."""
    lam = np.asarray(prices, dtype=float)
    validate_rank("prices", lam, ndim, net.num_followers)
    if lam.shape[-1] != net.num_followers:
        raise ValueError(f"price vector must have length {net.num_followers}")
    if not ((lam >= 0.0) & (lam < np.inf)).all():  # NaN fails both comparisons, -inf the first, +inf the second
        raise ValueError("prices must be finite and nonnegative")
    return lam


def own_payoff(p, gamma, W: float, pa: float, charge, out=None):
    """W * log(1 + gamma) / (p + p_a) - charge * p, elementwise.

    ``charge`` is lambda_k * h_k0; with charge 0 this is the efficiency.
    Natural logarithm; the value is 0 at p = 0. The value is shaped like
    ``gamma`` and lands in ``out``, which may be ``gamma`` itself, with the
    bits of ``out=None``. Floats give an np.float64.
    """
    value = np.log1p(gamma, out=out)
    value *= W
    value /= p + pa
    value -= charge * p
    return value


def own_gradient(p, G, W: float, pa: float, charge):
    """d/dp of ``own_payoff`` at gamma = G*p, elementwise (floats or arrays).

    -W*log(1+G p)/(p+p_a)^2 + W*G/((1+G p)(p+p_a)) - charge; at p = 0 it
    reduces to W*G/p_a - charge.
    """
    gamma = G * p
    total = p + pa
    return -W * np.log1p(gamma) / (total * total) + W * G / ((1.0 + gamma) * total) - charge


def own_scaled_gradient(p, G, W: float, pa: float, charge):
    """(f, f') with f = (1 + G p)(p + p_a) * ``own_gradient``, from shared intermediates, elementwise.

    f = W*G - W*(1+G p)*log(1+G p)/(p+p_a) - charge*(1+G p)(p+p_a) has the gradient's sign and root but no 1/p
    pole; f' = W*((1+G p)*log(1+G p)/(p+p_a) - G*(1 + log(1+G p)))/(p+p_a) - charge*(G*(p+p_a) + 1 + G p) is
    negative for p >= 0, so f falls strictly, close to linearly, and Newton steps on it settle in a few steps.
    """
    gamma = G * p
    one_plus = 1.0 + gamma
    total = p + pa
    log = np.log1p(gamma)
    spread = one_plus * log / total
    f = W * (G - spread) - charge * one_plus * total
    return f, W * (spread - G * (1.0 + log)) / total - charge * (G * total + one_plus)


def payoffs(net: NetworkInstance, p: np.ndarray, prices) -> np.ndarray:
    """Net payoff of every follower for profiles p shaped (..., K).

    psi(gamma_k, p_k) - lambda_k * h_k0 * p_k, one value per follower, shaped
    like p (prices broadcast to it). The SINR, then the payoff, go into one array.
    """
    p = np.asarray(p, dtype=float)
    charge = np.asarray(prices, dtype=float) * net.gain[1:, 0]
    gamma = follower_sinr(net, p)
    return own_payoff(p, gamma, net.bandwidth, net.circuit_power, charge, out=gamma)


def efficiencies(net: NetworkInstance, p: np.ndarray) -> np.ndarray:
    """Energy efficiency W * log(1 + gamma_k) / (p_k + p_a) of every follower."""
    return payoffs(net, p, 0.0)


def follower_payoff(net: NetworkInstance, k: int, p: np.ndarray, prices: np.ndarray) -> float:
    """Net payoff of follower k, 1..K; one entry of ``payoffs``."""
    return float(payoffs(net, p, prices)[validate_follower(net, k) - 1])


def leader_revenue(net: NetworkInstance, p: np.ndarray, prices: np.ndarray):
    """Total payment sum_k lambda_k * h_k0 * p_k collected by the MBS, one value per profile of p, (K,) or (B, K).

    Prices, (K,) or (B, K), broadcast to p; each row sums like its own 1-D call. p and prices are validated.
    """
    p = validate_power_profile(net, p, ndim=(1, 2))
    return (validate_prices(net, prices, ndim=(1, 2)) * net.gain[1:, 0] * p).sum(axis=-1)


def sufficient_conditions(net: NetworkInstance, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The paper's sufficient conditions at every profile of p, shaped (..., K): (unique, increasing, cross).

    - ``unique`` (..., K): p_k * h_kk p_k / (I_k + h_kk p_k) >= p_a, i.e. gamma_k/(1 + gamma_k) >= p_a/p_k,
      the uniqueness condition of the best-response fixed point;
    - ``increasing`` (..., K): p_k * gamma_k >= p_a, increasing differences;
    - ``cross`` (..., K, K): entry [k-1, j-1] is d^2 u_k / (d p_k d p_j) = W * H_kj * [p_k/((1+gamma_k)(p_k+p_a)^2)
      + gamma_k/((1+gamma_k)^2 (p_k+p_a)) - 1/((1+gamma_k)(p_k+p_a))] with H_kj = h_jk h_kk / I_k^2, zero on the
      diagonal. The bracket is >= 0 exactly where ``increasing`` holds.

    Both flags are False at p_k = 0. Every profile of a batch has the bits of its own 1-D call.
    """
    p = np.asarray(p, dtype=float)
    pa = net.circuit_power
    denom = interference(net, p)
    signal = net.own_gain * p
    gamma = signal / denom
    total = p + pa
    one_plus = 1.0 + gamma
    bracket = p / (one_plus * total * total) + gamma / (one_plus * one_plus * total) - 1.0 / (one_plus * total)
    H = net.cross_gain.T * net.own_gain[:, None] / (denom * denom)[..., None]
    return p * signal / (denom + signal) >= pa, p * gamma >= pa, net.bandwidth * H * bracket[..., None]
