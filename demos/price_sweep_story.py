"""
Where should the macrocell set its interference price?
======================================================

Sweep a uniform price over one random six-femtocell layout and watch the
two quantities the leader cares about: its interference revenue, and the
energy efficiency the follower links keep.
"""

import numpy as np

from femtogame import default_constants, default_topology, generate_topology
from femtogame.experiments import continuous_sweep_rows, mean_efficiency, sweep_grid
from femtogame.pricing import zero_price_equilibrium

net = generate_topology(default_topology(), 6, **default_constants())

# The unpriced game first: this is the efficiency the followers enjoy when
# the macrocell charges nothing at all.
zp = zero_price_equilibrium(net)
eff0 = mean_efficiency(net, zp.profile)
print(f"unpriced mean efficiency: {eff0:.3e} bit/J")
print(f"equilibrium found in:     {zp.rounds} synchronous Newton rounds")

grid = sweep_grid(net, 50)
rows = continuous_sweep_rows(net, grid)

lam = np.array([r[0] for r in rows])
revenue = np.array([r[1] for r in rows])
eff = np.array([r[2] for r in rows])

best = int(np.argmax(revenue))
print(f"\nswept {len(grid)} prices from {grid[0]:.2e} to {grid[-1]:.2e} per watt")
print(f"revenue peaks at lambda = {lam[best]:.3e}, revenue {revenue[best]:.3e}")
print(f"efficiency there: {eff[best]:.3e} bit/J ({eff[best] / eff0:.0%} of unpriced)")

# The plateau: a wide band of prices where the followers barely notice the
# charge. The leader can harvest revenue anywhere inside it for free.
inside = eff >= 0.9 * eff0
first, last = np.flatnonzero(inside)[[0, -1]]
print(f"\nefficiency stays within 10% of unpriced from {lam[first]:.2e} to {lam[last]:.2e}")
print(f"that is {np.log10(lam[last] / lam[first]):.1f} decades of pricing freedom")

# Past the plateau every follower's gradient at zero turns negative and the
# links drop out one by one; revenue collapses with them.
silent = np.flatnonzero((revenue == 0.0) & (lam > lam[best]))
if silent.size:
    print(f"all links silent from lambda = {lam[silent[0]]:.2e} onward")

np.savetxt(
    "sweep_story.csv",
    np.column_stack([lam, revenue, eff]),
    delimiter=",",
    header="lambda_per_watt,revenue,mean_efficiency_per_joule",
    comments="",
)
print("\nwrote sweep_story.csv")
