"""Deterministic CSV emission shared by trace exports and experiments.

Floats are serialized with repr() (shortest round-trip form, '.' decimal),
text as-is, UTF-8 with a header row. Identical inputs yield byte-identical
files, which the reproducibility tests rely on.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = ["format_cell", "write_rows"]


def format_cell(value) -> str:
    if type(value) is not float:  # plain floats, the common cell, skip the type tests
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        if isinstance(value, np.integer):
            return str(int(value))
        if not isinstance(value, (float, np.floating)):
            return str(value)
        value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value in CSV row: {value!r}")
    return repr(value)


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(format_cell, row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
