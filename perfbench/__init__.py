"""Benchmark of the femtogame package: workloads, output checks and span tracing.

Run from the repository root::

    python3 perfbench/run.py --workload continuous-k50 --seed 0 --seconds 15 --trace 0

See perfbench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def use_source_tree() -> None:
    """Put the repository's ``src`` first on ``sys.path``.

    The benchmark measures the femtogame sources next to it, never an
    installed copy, so a tree without ``src/femtogame`` is an error.
    """
    if not (SRC / "femtogame" / "__init__.py").is_file():
        raise FileNotFoundError(f"femtogame sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
