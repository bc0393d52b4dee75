"""Acceptance suite: one check per stated criterion, tolerances pinned here.

Each criterion is a function returning (ok, detail). Under pytest every
criterion is its own test; running the file directly prints one PASS/FAIL
line per criterion and exits nonzero if any failed:

    python3 tests/test_acceptance.py
"""

import sys
import time
from functools import lru_cache

import numpy as np
import pytest

from femtogame import (
    best_response,
    follower_payoff,
    leader_revenue,
    run_algorithm1,
    sufficient_conditions,
)
from femtogame.discrete import (
    default_action_sets,
    expected_follower_payoff,
    initial_state,
    run_learning,
    validate_simplex,
)
from femtogame.experiments import (
    ExperimentSpec,
    _interior_max,
    _plateau_decades,
    continuous_sweep_rows,
    discrete_sweep_rows,
    mean_efficiency,
    run_experiment,
    sweep_grid,
)
from femtogame.network import interference, sinr_macro
from femtogame.oracles import (
    finite_difference_cross,
    finite_difference_gradient,
    grid_best_response,
    enumerate_expected_payoff,
)
from femtogame.payoff import own_gradient
from femtogame.pricing import (
    PriceSearchConfig,
    asymptote_price,
    se_price_search,
    zero_price_equilibrium,
)

from conftest import make_net


# --------------------------------------------------------------------- shared


@lru_cache(maxsize=None)
def _sweep_data(seed: int):
    """Per-seed price sweep shared by the peak/plateau/ratio criteria."""
    net = make_net(6, seed=seed)
    grid = sweep_grid(net, 40)
    cont = continuous_sweep_rows(net, grid)
    disc = discrete_sweep_rows(net, grid, 6)
    eff0 = mean_efficiency(net, zero_price_equilibrium(net).profile)
    return net, grid, cont, disc, eff0


# ------------------------------------------------------------------ criteria


def criterion_01_derivative_oracles():
    """Analytic gradient and cross derivative vs finite differences.

    100 random default-scale instances; relative 1e-5 (gradient) and 1e-4
    (cross, Richardson stencil); whole check under 5 seconds.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_g = 0.0
    for i in range(100):
        net = make_net(4, seed=i)
        p = rng.uniform(0.005, 0.095, 4)
        lam = np.full(4, 10.0 ** rng.uniform(10, 15))
        k = int(rng.integers(1, 5))

        def u(x, k=k, p=p, lam=lam, net=net):
            q = p.copy()
            q[k - 1] = x
            return follower_payoff(net, k, q, lam)

        fd = finite_difference_gradient(u, p[k - 1], step=1e-6)
        G = net.gain[k, k] / interference(net, p)[k - 1]
        an = own_gradient(p[k - 1], G, net.bandwidth, net.circuit_power, lam[k - 1] * net.gain[k, 0])
        worst_g = max(worst_g, abs(an - fd) / max(abs(an), abs(fd), 1.0))

    rng = np.random.default_rng(43)
    worst_c = 0.0
    for i in range(100):
        net = make_net(4, seed=1000 + i)
        p = rng.uniform(0.005, 0.095, 4)
        k = int(rng.integers(1, 5))
        j = int(rng.choice([x for x in range(1, 5) if x != k]))

        def u2(x, y, k=k, j=j, p=p, net=net):
            q = p.copy()
            q[k - 1] = x
            q[j - 1] = y
            return follower_payoff(net, k, q, np.zeros(4))

        fd = finite_difference_cross(
            u2, p[k - 1], p[j - 1], step_x=1e-3, step_y=0.5,
            floor_x=0.01, floor_y=0.01, richardson=True,
        )
        an = sufficient_conditions(net, p)[2][k - 1, j - 1]
        worst_c = max(worst_c, abs(an - fd) / max(abs(an), abs(fd), 1.0))

    elapsed = time.perf_counter() - start
    ok = worst_g < 1e-5 and worst_c < 1e-4 and elapsed < 5.0
    return ok, (
        f"gradient worst rel {worst_g:.2e} (tol 1e-05), "
        f"cross worst rel {worst_c:.2e} (tol 1e-04), {elapsed:.2f}s (budget 5s)"
    )


def criterion_02_supermodularity_gate():
    """gamma_k >= p_a/p_k implies a nonnegative cross derivative.

    1000 random in-bounds points; zero violations below -1e-12 allowed.
    """
    rng = np.random.default_rng(11)
    qualifying = violations = 0
    for i in range(1000):
        net = make_net(4, seed=1000 + i)
        p = rng.uniform(0.0, 0.1, 4)
        k = int(rng.integers(1, 5))
        _, increasing, cross = sufficient_conditions(net, p)
        if not increasing[k - 1]:
            continue
        qualifying += 1
        j = int(rng.choice([x for x in range(1, 5) if x != k]))
        if cross[k - 1, j - 1] < -1e-12:
            violations += 1
    ok = violations == 0 and qualifying > 0
    return ok, f"{qualifying}/1000 points qualified, {violations} cross-sign violations"


def criterion_03_best_response_grid_agreement():
    """best_response vs the million-point grid argmax.

    100 instances; agreement within max(1e-6 W, grid step); zero failures.
    """
    rng = np.random.default_rng(7)
    failures = 0
    worst = 0.0
    for i in range(100):
        net = make_net(3, seed=2000 + i)
        opp = rng.uniform(0.0, 0.08, 3)
        lam = np.full(3, 10.0 ** rng.uniform(10, 15))
        k = int(rng.integers(1, 4))
        br = best_response(net, k, opp, lam)
        grid = grid_best_response(net, k, opp, lam)
        step = float(net.power_max[k - 1]) / (1_000_000 - 1)
        gap = abs(br - grid)
        worst = max(worst, gap)
        if gap > max(1e-6, step):
            failures += 1
    return failures == 0, f"{failures}/100 disagreements, worst gap {worst:.2e} W"


def criterion_04_standard_function_properties():
    """Positivity, monotonicity, scalability of the best-response map.

    200 ordered opponent pairs; scalability factors 1.5, 2, 4; properties
    must hold on every sample where the uniqueness condition holds at the
    best-response point.
    """
    rng = np.random.default_rng(21)
    pairs = mono_ok = q_pairs = 0
    scal = scal_ok = 0
    pos_fail = 0
    for i in range(200):
        net = make_net(4, seed=5000 + i)
        opp = rng.uniform(0.0, 0.08, 4)
        bump = rng.uniform(0.001, 0.02, 4)
        lam = np.full(4, 10.0 ** rng.uniform(10.5, 13.0))
        k = int(rng.integers(1, 5))
        br1 = best_response(net, k, opp, lam)
        prof1 = opp.copy()
        prof1[k - 1] = br1
        if not sufficient_conditions(net, prof1)[0][k - 1]:
            continue
        opp2 = opp + bump
        br2 = best_response(net, k, opp2, lam)
        prof2 = opp2.copy()
        prof2[k - 1] = br2
        if not sufficient_conditions(net, prof2)[0][k - 1]:
            continue
        q_pairs += 1
        if br1 <= 0.0 or br2 <= 0.0:
            pos_fail += 1
        pairs += 1
        mono_ok += br2 >= br1 - 1e-12
        for alpha in (1.5, 2.0, 4.0):
            scal += 1
            scal_ok += alpha * br1 >= best_response(net, k, alpha * opp, lam) - 1e-12
    ok = q_pairs >= 100 and pos_fail == 0 and mono_ok == pairs and scal_ok == scal
    return ok, (
        f"{q_pairs}/200 pairs qualified; positivity failures {pos_fail}; "
        f"monotone {mono_ok}/{pairs}; scalable {scal_ok}/{scal}"
    )


def criterion_05_unique_equilibrium_from_any_start():
    """Fixed-point profile independent of initialization where uniqueness holds.

    K=6 instances whose unpriced fixed point satisfies the uniqueness
    condition for every follower: 10 random starts plus all-zeros and
    all-max agree within inf-norm 1e-5 W in at most 10000 rounds, and the
    all-zeros trajectory is monotone nondecreasing.
    """
    seeds = (2, 5, 13, 19, 20, 39, 41, 42, 43, 52)
    worst = 0.0
    monotone = True
    for seed in seeds:
        net = make_net(6, seed=seed)
        zp = zero_price_equilibrium(net, tol=1e-9)
        if not (zp.converged and sufficient_conditions(net, zp.profile)[0].all()):
            return False, f"seed {seed} no longer qualifies"
        ref = zp.profile
        rng = np.random.default_rng(seed)
        inits = [np.zeros(6), np.asarray(net.power_max, dtype=float)]
        inits += [rng.uniform(0.0, net.power_max, 6) for _ in range(10)]
        for init in inits:
            rep = run_algorithm1(net, np.zeros(6), init=init, tol=1e-9, max_rounds=10_000)
            if not rep.converged:
                return False, f"seed {seed} failed to converge from one start"
            worst = max(worst, float(np.abs(rep.final_profile - ref).max()))
        from_zero = run_algorithm1(net, np.zeros(6), init=np.zeros(6), tol=1e-9)
        traj = np.array(from_zero.trace)
        monotone = monotone and bool((np.diff(traj, axis=0) >= -1e-12).all())
    ok = worst <= 1e-5 and monotone
    return ok, (
        f"{len(seeds)} qualifying instances x 12 starts, worst profile gap "
        f"{worst:.2e} W (tol 1e-05), monotone from zeros: {monotone}"
    )


def criterion_06_revenue_peak_and_plateau():
    """Uniform-price sweep: interior revenue max and an efficiency plateau.

    20 seeded K=6 topologies; interior max in at least 19; at least one
    decade of prices keeps mean efficiency within 10% of its unpriced value.
    """
    interior = 0
    min_plateau = np.inf
    for seed in range(20):
        net, grid, cont, _, eff0 = _sweep_data(seed)
        revenues = np.array([r[1] for r in cont])
        effs = np.array([r[2] for r in cont])
        interior += _interior_max(revenues)
        min_plateau = min(min_plateau, _plateau_decades(grid, effs, eff0))
    ok = interior >= 19 and min_plateau >= 1.0
    return ok, (
        f"interior revenue max in {interior}/20 seeds (need >= 19), "
        f"narrowest plateau {min_plateau:.2f} decades (need >= 1)"
    )


def criterion_07_asymptote_price_quality():
    """Closed-form price vs searched price across topology Monte Carlo.

    100 topologies per K in {2, 4, 6}: mean efficiency at the closed-form
    price at least that at the searched price, mean revenue at most that at
    the searched price. Macro-user SINR gap reported without a threshold.
    """
    details = []
    ok = True
    for K in (2, 4, 6):
        eff_a, eff_s, rev_a, rev_s, mu_a, mu_s = [], [], [], [], [], []
        for seed in range(100):
            net = make_net(K, seed=seed)
            zp = zero_price_equilibrium(net)
            lam_a = asymptote_price(net, zp.profile)
            rep = run_algorithm1(net, lam_a, init=zp.profile)
            eff_a.append(mean_efficiency(net, rep.final_profile))
            rev_a.append(leader_revenue(net, rep.final_profile, lam_a))
            mu_a.append(sinr_macro(net, rep.final_profile))
            res = se_price_search(net, PriceSearchConfig(grid_count=24))
            eff_s.append(mean_efficiency(net, res.equilibrium))
            rev_s.append(res.revenue)
            mu_s.append(sinr_macro(net, res.equilibrium))
        eff_gain = np.mean(eff_a) / np.mean(eff_s)
        rev_ratio = np.mean(rev_a) / np.mean(rev_s)
        mu_drop = np.mean(mu_s) / np.mean(mu_a)
        ok = ok and np.mean(eff_a) >= np.mean(eff_s) and np.mean(rev_a) <= np.mean(rev_s)
        details.append(
            f"K={K}: eff x{eff_gain:.2f}, revenue x{rev_ratio:.2f}, MU SINR /{mu_drop:.2f}"
        )
    return ok, "; ".join(details) + " (SINR gap report-only)"


def criterion_08_high_price_power_prediction():
    """Follower power at 100x the asymptote price vs the single-link prediction.

    The asymptote price pictures each follower at high price as facing only
    noise plus macro interference, N_k + h_0k*p_0. The prediction for
    follower k is the maximizer of its own payoff in that picture, with every
    other femtocell silent, found by the grid oracle from the price alone
    (neither best_response nor the Algorithm-1 profile enters it).
    50 seeded K=6 instances, Algorithm 1 at 100 * lambda^a. A follower
    matches when both powers are exactly 0, or both are positive and within
    20% of the prediction; at least 90% of followers must match.

    The closed-form inverse of lambda^a, W/(lambda_k (N_k + h_0k p_0)) - p_a,
    is only reported: it leaves out h_kk and h_k0, so it is not the payoff's
    own optimum.
    """
    matched = silent = predicted_silent = inverse_positive = total = 0
    worst = 0.0
    for seed in range(50):
        net = make_net(6, seed=seed)
        zp = zero_price_equilibrium(net)
        lam = 100.0 * asymptote_price(net, zp.profile)
        rep = run_algorithm1(net, lam, init=zp.profile)
        base = np.array([net.noise[k] + net.gain[0, k] * net.mu_power for k in range(1, 7)])
        inverse_positive += int(np.sum(net.bandwidth / (lam * base) - net.circuit_power > 0.0))
        for k in range(1, 7):
            p = rep.final_profile[k - 1]
            pred = grid_best_response(net, k, np.zeros(6), lam)
            silent += p == 0.0
            predicted_silent += pred == 0.0
            if p == 0.0 or pred == 0.0:
                matched += p == pred
            else:
                gap = abs(p - pred) / pred
                worst = max(worst, gap)
                matched += gap <= 0.2
            total += 1
    rate = matched / total
    return rate >= 0.9, (
        f"{matched}/{total} followers matched ({rate:.1%}, need >= 90%); "
        f"{silent} silent, {predicted_silent} predicted silent; worst gap among "
        f"transmitting {worst:.1%}; inverse of lambda^a positive for "
        f"{inverse_positive}/{total} (report-only)"
    )


def criterion_09_learning_convergence_rate():
    """Stochastic learning with the published schedule defaults.

    K=6, M=6, unpriced: at least 90 of 100 seeded runs meet the detector
    within 600 iterations, and every step of every run stays on the
    probability simplex (componentwise in [0,1], sums within 1e-12 of 1).
    """
    converged = 0
    for seed in range(100):
        net = make_net(6, seed=seed)
        acts = default_action_sets(net, 6)
        state = initial_state(acts, rng_seed=seed)
        rep = run_learning(net, np.zeros(6), state, tol=1e-3, window=50, max_iters=600)
        converged += rep.converged
        for pi_t in rep.pi_trace:
            for row in pi_t:
                validate_simplex(row, atol=1e-12)
    return converged >= 90, f"{converged}/100 runs converged within 600 iterations (need >= 90)"


def criterion_10_expected_payoff_enumeration():
    """Vectorized expected payoff vs the literal enumeration oracle.

    K=3, M=3: relative agreement within 1e-12; mixing two own strategies
    reproduces the convex combination of expected payoffs to the same
    precision (multilinearity).
    """
    net = make_net(3, seed=7)
    acts = default_action_sets(net, 3)
    rng = np.random.default_rng(17)
    worst = worst_lin = 0.0
    for _ in range(20):
        pis = [rng.dirichlet(np.ones(3)) for _ in range(3)]
        lam = np.full(3, 10.0 ** rng.uniform(10, 13))
        for k in (1, 2, 3):
            fast = expected_follower_payoff(net, k, acts, pis, lam)
            slow = enumerate_expected_payoff(net, k, acts, pis, lam)
            worst = max(worst, abs(fast - slow) / max(abs(slow), 1e-30))
        a, b = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        w = float(rng.uniform(0.1, 0.9))
        mix = [w * a + (1 - w) * b, pis[1], pis[2]]
        lhs = expected_follower_payoff(net, 1, acts, mix, lam)
        rhs = w * expected_follower_payoff(net, 1, acts, [a, pis[1], pis[2]], lam) + (
            1 - w
        ) * expected_follower_payoff(net, 1, acts, [b, pis[1], pis[2]], lam)
        worst_lin = max(worst_lin, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    ok = worst <= 1e-12 and worst_lin <= 1e-12
    return ok, (
        f"worst oracle gap {worst:.2e}, worst multilinearity gap {worst_lin:.2e} "
        f"(both rel, tol 1e-12)"
    )


def criterion_11_discrete_revenue_peak():
    """Uniform-price sweep of the finite game has an interior revenue max.

    20 seeds; expected revenue at the discrete equilibrium peaks strictly
    inside the grid in at least 80% of them.
    """
    interior = 0
    for seed in range(20):
        _, _, _, disc, _ = _sweep_data(seed)
        revenues = np.array([r[1] for r in disc])
        interior += _interior_max(revenues)
    return interior >= 16, f"interior max in {interior}/20 seeds (need >= 16)"


def criterion_12_discrete_continuous_efficiency_ratio():
    """Quantization cost on the efficiency plateau.

    Per seed, average the ratio of discrete to continuous mean efficiency
    over the plateau prices (continuous efficiency within 10% of unpriced);
    the median seed must land in [0.3, 0.7].
    """
    ratios = []
    for seed in range(20):
        _, _, cont, disc, eff0 = _sweep_data(seed)
        eff_c = np.array([r[2] for r in cont])
        eff_d = np.array([r[2] for r in disc])
        band = eff_c >= 0.9 * eff0
        ratios.append(float(np.mean(eff_d[band] / eff_c[band])))
    med = float(np.median(ratios))
    ok = 0.3 <= med <= 0.7
    return ok, (
        f"median plateau ratio {med:.3f} (band [0.3, 0.7]); "
        f"per-seed range [{min(ratios):.3f}, {max(ratios):.3f}]"
    )


def criterion_13_deterministic_experiment_output(tmp_dir=None):
    """Every experiment rerun with the same seed emits byte-identical CSV."""
    import tempfile
    from pathlib import Path

    specs = [
        dict(experiment_id="fig1-sweep", trials=2, num_followers=6, grid_count=12),
        dict(
            experiment_id="fig2-3-se-compare", trials=2, k_values=(2, 4), search_grid_count=8
        ),
        dict(experiment_id="fig4-discrete-sweep", trials=2, num_followers=6, grid_count=10),
        dict(
            experiment_id="fig5-discrete-compare",
            trials=1,
            num_followers=2,
            num_actions=4,
            learn_max_iters=300,
            search_grid_count=8,
        ),
        dict(
            experiment_id="fig6-7-convergence",
            trials=1,
            num_followers=2,
            num_actions=3,
            learn_max_iters=150,
        ),
    ]
    with tempfile.TemporaryDirectory(dir=tmp_dir) as d:
        for kw in specs:
            blobs = []
            for run in ("a", "b"):
                out = Path(d) / f"{kw['experiment_id']}-{run}.csv"
                run_experiment(ExperimentSpec(output_path=out, **kw))
                blobs.append(out.read_bytes())
            if blobs[0] != blobs[1]:
                return False, f"{kw['experiment_id']} rerun differed"
    return True, f"{len(specs)} experiments rerun byte-identical"


CRITERIA = (
    criterion_01_derivative_oracles,
    criterion_02_supermodularity_gate,
    criterion_03_best_response_grid_agreement,
    criterion_04_standard_function_properties,
    criterion_05_unique_equilibrium_from_any_start,
    criterion_06_revenue_peak_and_plateau,
    criterion_07_asymptote_price_quality,
    criterion_08_high_price_power_prediction,
    criterion_09_learning_convergence_rate,
    criterion_10_expected_payoff_enumeration,
    criterion_11_discrete_revenue_peak,
    criterion_12_discrete_continuous_efficiency_ratio,
    criterion_13_deterministic_experiment_output,
)


def _report(fn):
    ok, detail = fn()
    number = fn.__name__.split("_")[1]
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok, detail


@pytest.mark.parametrize("fn", CRITERIA, ids=lambda f: f.__name__)
def test_criterion(fn):
    ok, detail = _report(fn)
    assert ok, detail


if __name__ == "__main__":
    results = [_report(fn) for fn in CRITERIA]
    failed = sum(1 for ok, _ in results if not ok)
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    sys.exit(1 if failed else 0)
