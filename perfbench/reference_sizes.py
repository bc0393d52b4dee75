"""Reference figures, not a workload: continuous sweep plus price search at several K.

    python3 perfbench/reference_sizes.py [K ...]

For each follower count (default 6 20 50 200) times, on default topology 0,
the continuous-k50 operation: zero-price equilibrium, 40-point sweep and
se_price_search. Prints one JSON line per K with the seconds of each stage
and whether every Algorithm-1 run in it converged.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import ContinuousK50, fg, network  # noqa: E402


def main(sizes: list[int]) -> None:
    for K in sizes:
        net = network(0, K)
        stages = {}
        t = time.perf_counter()
        zero_price = fg.zero_price_equilibrium(net)
        stages["zero_price_s"] = time.perf_counter() - t
        t = time.perf_counter()
        grid = fg.experiments.sweep_grid(net, ContinuousK50.grid_count)
        rows = fg.experiments.continuous_sweep_rows(net, grid)
        stages["sweep_s"] = time.perf_counter() - t
        t = time.perf_counter()
        search = fg.se_price_search(net)
        stages["search_s"] = time.perf_counter() - t
        converged = {
            "zero_price": zero_price.converged,
            "sweep": all(r[4] for r in rows),
            "search": search.all_converged,
        }
        print(json.dumps({"K": K, **stages, "total_s": sum(stages.values()), "converged": converged}), flush=True)


if __name__ == "__main__":
    main([int(k) for k in sys.argv[1:]] or [6, 20, 50, 200])
