"""Deterministic CSV emission shared by trace exports and experiments.

Floats are serialized with repr() (shortest round-trip form, '.' decimal),
text as-is, UTF-8 with a header row. A row that is a ``str`` is taken as an
already formatted line (the learning trace export formats its own); any
other row is a sequence of cells, each through ``format_cell``. Identical
inputs yield byte-identical files, which the reproducibility tests rely on.
"""

from __future__ import annotations

import math
import os
import shutil
from contextlib import suppress
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = ["format_cell", "write_rows"]

CHUNK_ROWS = 512  # rows formatted per write: bounds the text held in memory (BENCH_19.json)


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
    """Stream ``CHUNK_ROWS`` rows at a time to a sibling temporary file that then replaces ``path``, so the file
    appears whole or not at all: a refused row leaves ``path`` as it was and no temporary file behind. A rewrite
    keeps the permission bits of the file it replaces."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    lines = (row if type(row) is str else ",".join(map(format_cell, row)) for row in rows)
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            while chunk := list(islice(lines, CHUNK_ROWS)):
                fh.write("\n".join(chunk) + "\n")
        with suppress(FileNotFoundError):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
