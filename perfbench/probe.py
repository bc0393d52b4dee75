"""Print the seconds a fresh interpreter takes to import femtogame and make a workload's inputs.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

began = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]))
print(time.perf_counter() - began)
