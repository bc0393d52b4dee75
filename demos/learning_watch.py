"""
Followers that only see their own payoffs
=========================================

Strip the followers of everything but realized payoffs: no gains, no
closed-form best response. Each link keeps a running payoff estimate per
action and softens it into a mixed strategy. This script runs that learner
on one layout twice, first unpriced and then at a punitive price, and
prints what the strategies settle on.
"""

import numpy as np

from femtogame import default_constants, default_topology, generate_topology
from femtogame.discrete import PowerLawSchedule, default_action_sets, initial_state, run_learning
from femtogame.pricing import asymptote_price, zero_price_equilibrium

net = generate_topology(default_topology(), 3, **default_constants())
actions = default_action_sets(net, 6)
print("action grid per link (W):", np.round(actions[0], 4))


def watch(prices, label):
    # slow/fast step sizes that keep adapting (the published defaults freeze
    # the strategies after the first step; see validate_schedules)
    state = initial_state(
        actions, alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule(), rng_seed=0
    )
    report = run_learning(net, prices, state, max_iters=6000)
    print(f"\n--- {label} ---")
    print(f"converged: {report.converged} after {report.iterations} iterations")
    for k in range(net.num_followers):
        top = int(np.argmax(report.strategies[k]))
        print(
            f"  link {k + 1}: favourite action {top} "
            f"(p = {actions[k, top]:.4f} W, "
            f"mass {report.strategies[k][top]:.2f}), "
            f"expected power {report.expected_power_trace[-1, k]:.4f} W"
        )
    return report


watch(np.zeros(net.num_followers), "unpriced")

# Now price interference so aggressively that transmitting never pays.
lam = 1e3 * asymptote_price(net, zero_price_equilibrium(net).profile)
report = watch(lam, "price at 1000x the asymptote")

print(
    "\nunder the punitive price the estimates for every positive power go"
    "\nnegative and the strategies pile onto silence; the macrocell has"
    "\npriced the femtocells out of the spectrum without signalling them."
)
