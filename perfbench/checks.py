"""Output checks built on computations made apart from femtogame.

The game is re-derived here from its equations, vectorized with numpy, and
shares no code with the package:

- follower k's interference I_k = N_k + h_0k p_0 + sum_{j != k} h_jk p_j;
- efficiency psi_k = W ln(1 + h_kk p_k / I_k) / (p_k + p_a);
- payoff u_k = psi_k - lambda_k h_k0 p_k, revenue sum_k lambda_k h_k0 p_k;
- macro SINR h_00 p_0 / (N_0 + sum_k h_k0 p_k).

Only the network's data (gains, noise, powers, limits) is read from the
femtogame objects. Each ``check_*`` function returns a list of problems,
empty when the output is right.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Algorithm 1 stops once no power moves by more than 1e-7 W in a round; its
# powers then sit within about 1e-9 W of the fixed point (seen on default
# topologies 0-10). Sweep metrics may differ from the ones at the
# independent equilibrium by what a 1e-8 W error in every power explains.
POWER_SLACK_W = 1e-8
FIXED_POINT_TOL_W = 1e-13
BISECTION_STEPS = 64


# ---------------------------------------------------------------------------
# independent model
# ---------------------------------------------------------------------------


def interference(net, p: np.ndarray) -> np.ndarray:
    """I_k for every follower of every profile in p, shaped (..., K)."""
    g = np.asarray(net.gain)
    femto = g[1:, 1:]
    cross = femto - np.diag(np.diag(femto))
    return net.noise[1:] + g[0, 1:] * net.mu_power + p @ cross


def own_gain(net) -> np.ndarray:
    return np.diag(np.asarray(net.gain))[1:]


def payoff(net, G: np.ndarray, p: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """W ln(1 + G p)/(p + p_a) - cost p, with G = h_kk / I_k and cost = lambda_k h_k0."""
    return net.bandwidth * np.log1p(G * p) / (p + net.circuit_power) - cost * p


def best_responses(net, interf: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Payoff maximizers over [0, p_max] by bisection on the payoff slope."""
    W, pa = net.bandwidth, net.circuit_power
    G = own_gain(net) / interf
    cost = prices * np.asarray(net.gain)[1:, 0]

    def slope(p):
        x = G * p
        return W * (G / ((1.0 + x) * (p + pa)) - np.log1p(x) / (p + pa) ** 2) - cost

    p_max = np.broadcast_to(net.power_max, G.shape)
    lo, hi = np.zeros(G.shape), np.array(p_max)
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        rising = slope(mid) > 0.0
        lo = np.where(rising, mid, lo)
        hi = np.where(rising, hi, mid)
    br = np.where(slope(p_max) >= 0.0, p_max, 0.5 * (lo + hi))
    return np.where(W * G / pa <= cost, 0.0, br)


def equilibrium(net, prices: np.ndarray, max_iterations: int = 5000) -> np.ndarray:
    """Fixed point of the best-response map for each price row of ``prices``.

    Damped simultaneous updates p <- (p + BR(p)) / 2 from p = 0; undamped
    ones can cycle between two followers that each silence the other. The
    returned profiles have a fixed-point residual below FIXED_POINT_TOL_W.
    """
    p = np.zeros(np.shape(prices))
    for _ in range(max_iterations):
        target = best_responses(net, interference(net, p), prices)
        if np.max(np.abs(target - p)) <= FIXED_POINT_TOL_W:
            return p
        p = 0.5 * (p + target)
    raise ArithmeticError("independent equilibrium did not settle")


def macro_sinr(net, p: np.ndarray) -> np.ndarray:
    g = np.asarray(net.gain)
    return g[0, 0] * net.mu_power / (net.noise[0] + p @ g[1:, 0])


def menus(net, M: int) -> np.ndarray:
    """The Table power menu p^j = (j / M) p_max,k for j = 0..M-1, shaped (K, M)."""
    return np.outer(np.asarray(net.power_max), np.arange(M) / M)


def _off(value: float, reference: float, tol: float) -> bool:
    return not abs(value - reference) <= tol


# ---------------------------------------------------------------------------
# continuous-k50
# ---------------------------------------------------------------------------


def check_continuous(net, out) -> list[str]:
    problems = []
    g = np.asarray(net.gain)
    K = net.num_followers
    W, pa = net.bandwidth, net.circuit_power

    lam = np.array([row[0] for row in out.rows], dtype=float)
    prices = np.repeat(lam[:, None], K, axis=1)
    p = equilibrium(net, prices)
    revenue = (prices * g[1:, 0] * p).sum(axis=1)
    G = own_gain(net) / interference(net, p)
    efficiency = (W * np.log1p(G * p) / (p + pa)).mean(axis=1)
    sinr = macro_sinr(net, p)
    # First-order effect of POWER_SLACK_W in every power on each metric.
    rev_tol = 1e-6 * revenue + lam * g[1:, 0].sum() * POWER_SLACK_W
    eff_tol = 1e-6 * efficiency + 2.0 * (W * G / pa).mean(axis=1) * POWER_SLACK_W
    sinr_tol = 1e-6 * sinr + sinr * g[1:, 0].sum() * POWER_SLACK_W / (net.noise[0] + p @ g[1:, 0])
    for i, row in enumerate(out.rows):
        for label, got, want, tol in (
            ("revenue", row[1], revenue[i], rev_tol[i]),
            ("mean efficiency", row[2], efficiency[i], eff_tol[i]),
            ("macro SINR", row[3], sinr[i], sinr_tol[i]),
        ):
            if _off(got, want, tol):
                problems.append(f"sweep row {i} (lambda {row[0]:.6g}): {label} {got!r}, independent {want!r}")

    s = out.search
    if not (np.all(np.isfinite(s.prices)) and np.all(s.prices >= 0.0)):
        problems.append(f"search prices not finite and nonnegative: {s.prices}")
    recomputed = float(np.sum(s.prices * g[1:, 0] * s.equilibrium))
    if _off(s.revenue, recomputed, 1e-12 * abs(recomputed)):
        problems.append(f"search revenue {s.revenue!r} but sum lambda h p = {recomputed!r}")
    if s.revenue < float(np.max(s.grid_revenues)):
        problems.append(f"search revenue {s.revenue!r} below its grid maximum {np.max(s.grid_revenues)!r}")

    for label, profile, lam_k in (
        ("zero-price equilibrium", out.zero_price.profile, np.zeros(K)),
        ("search equilibrium", s.equilibrium, s.prices),
    ):
        gain = deviation_gain(net, profile, lam_k)
        if gain is not None:
            problems.append(f"{label}: {gain}")
    return problems


def deviation_gain(net, profile: np.ndarray, prices: np.ndarray, points: int = 4001) -> str | None:
    """Describe the best unilateral gain on a dense power grid, if any is real."""
    p = np.asarray(profile, dtype=float)
    G = own_gain(net) / interference(net, p)
    cost = prices * np.asarray(net.gain)[1:, 0]
    grid = np.asarray(net.power_max)[:, None] * np.linspace(0.0, 1.0, points)[None, :]
    on_grid = payoff(net, G[:, None], grid, cost[:, None]).max(axis=1)
    at_profile = payoff(net, G, p, cost)
    allowed = 1e-9 * np.abs(at_profile) + 1e-12 * net.bandwidth / net.circuit_power
    gain = on_grid - at_profile
    k = int(np.argmax(gain - allowed))
    if gain[k] > allowed[k]:
        return f"follower {k + 1} gains {gain[k]!r} by deviating from {p[k]!r} W"
    return None


# ---------------------------------------------------------------------------
# learning-k6
# ---------------------------------------------------------------------------


def simplex_problem(label: str, pi: np.ndarray) -> str | None:
    pi = np.asarray(pi, dtype=float)
    if np.any(pi < 0.0) or np.any(np.abs(pi.sum(axis=-1) - 1.0) > 1e-9):
        return f"{label} is not on the simplex: row sums {pi.sum(axis=-1)}"
    return None


def check_learning(inp, out, max_outer: int) -> list[str]:
    problems = []
    net = inp.net
    a = out.algorithm2
    M = np.shape(a.strategies)[1]
    menu = menus(net, M)
    strategies = [("algorithm-2 strategies", a.strategies)]
    strategies += [(f"{phase} strategies", report.strategies) for phase, _, report, _ in out.phases]
    problems += [p for p in (simplex_problem(label, pi) for label, pi in strategies) if p]

    if not (np.all(np.isfinite(a.prices)) and np.all(a.prices >= 0.0)):
        problems.append(f"algorithm-2 prices not finite and nonnegative: {a.prices}")
    sinr = float(macro_sinr(net, (np.asarray(a.strategies) * menu).sum(axis=1)))
    meets = sinr >= net.mu_sinr_threshold
    if a.converged != meets:
        problems.append(f"algorithm 2 reports converged={a.converged} at macro SINR {sinr!r}")
    if not a.converged and a.outer_iterations != max_outer:
        problems.append(f"algorithm 2 stopped unconverged after {a.outer_iterations} outer iterations")

    for _, _, report, path in out.phases:
        problems += learning_csv_problems(path, report, menu)
    return problems


def learning_csv_problems(path, report, menu: np.ndarray) -> list[str]:
    """Parse a learning CSV back and hold every row against the menu."""
    K, M = menu.shape
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = ["iteration", "k", "expected_power"] + [f"pi_{j}" for j in range(M)]
    if rows[0] != header:
        return [f"{path}: header {rows[0]}"]
    body = np.array(rows[1:], dtype=float)
    T = report.iterations
    if body.shape != (T * K, 3 + M):
        return [f"{path}: {body.shape[0]} rows for {T} iterations of {K} followers"]
    expected_index = np.column_stack([np.repeat(np.arange(1, T + 1), K), np.tile(np.arange(1, K + 1), T)])
    if not np.array_equal(body[:, :2], expected_index):
        return [f"{path}: iteration/k columns out of order"]
    pi = body[:, 3:]
    problems = []
    if not np.array_equal(pi.reshape(T, K, M), report.pi_trace):
        problems.append(f"{path}: pi columns differ from the report's trace")
    problem = simplex_problem(f"{path} pi rows", pi)
    if problem:
        problems.append(problem)
    power = (pi * np.tile(menu, (T, 1))).sum(axis=1)
    worst = int(np.argmax(np.abs(body[:, 2] - power)))
    if _off(body[worst, 2], power[worst], 1e-12 * float(menu.max())):
        problems.append(f"{path} row {worst + 2}: expected_power {body[worst, 2]!r}, sum pi p = {power[worst]!r}")
    return problems


# ---------------------------------------------------------------------------
# enumeration-k7
# ---------------------------------------------------------------------------


def expected_efficiency(net, menu: np.ndarray, strategies: np.ndarray, k: int) -> float:
    """E[psi_k] under the product measure, by one einsum over all M^K profiles."""
    K, M = menu.shape
    g = np.asarray(net.gain)

    def along(i, values):
        shape = [1] * K
        shape[i] = M
        return values.reshape(shape)

    interf = net.noise[k] + g[0, k] * net.mu_power
    for j in range(1, K + 1):
        if j != k:
            interf = interf + g[j, k] * along(j - 1, menu[j - 1])
    own = along(k - 1, menu[k - 1])
    psi = net.bandwidth * np.log1p(g[k, k] * own / interf) / (own + net.circuit_power)
    psi = np.broadcast_to(psi, (M,) * K)
    operands = [psi, list(range(K))]
    for i in range(K):
        operands += [strategies[i], [i]]
    return float(np.einsum(*operands, []))


def check_enumeration(inp, out) -> list[str]:
    prices, flagged, revenue = out
    net = inp.net
    g = np.asarray(net.gain)
    strategies = np.asarray(inp.strategies, dtype=float)
    menu = menus(net, strategies.shape[1])
    mean_p = (strategies * menu).sum(axis=1)
    prices = np.asarray(prices, dtype=float)
    problems = []
    if not (np.all(np.isfinite(prices)) and np.all(prices >= 0.0)):
        return [f"prices not finite and nonnegative: {prices}"]
    if not np.array_equal(np.asarray(flagged, dtype=bool), mean_p == 0.0):
        problems.append(f"flags {flagged} but expected powers {mean_p}")
    for k in range(1, net.num_followers + 1):
        if mean_p[k - 1] == 0.0:
            if prices[k - 1] != 0.0:
                problems.append(f"silent follower {k} priced at {prices[k - 1]!r}")
            continue
        psi = expected_efficiency(net, menu, strategies, k)
        net_payoff = psi - prices[k - 1] * g[k, 0] * mean_p[k - 1]
        if abs(net_payoff) > 1e-9 * psi:
            problems.append(f"follower {k}: expected net payoff {net_payoff!r} at price {prices[k - 1]!r}")
    recomputed = float(np.sum(prices * g[1:, 0] * mean_p))
    if not math.isclose(revenue, recomputed, rel_tol=1e-12):
        problems.append(f"expected revenue {revenue!r}, recomputed {recomputed!r}")
    return problems
