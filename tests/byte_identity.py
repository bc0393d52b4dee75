"""Byte identity of the CLI and the demos: the runs, their digests and the manifest that pins them.

Each run executes in-process in an empty working directory. A CLI run is digested as the sha256 of the file it
writes, the sha256 of its stdout and its exit code; a demo run as the sha256 of its stdout and its exit code.
``byte_identity.json`` holds those digests beside the numpy and BLAS versions that made them; the test in
``test_byte_identity.py`` re-runs everything and compares. After a change that is meant to move an output,
rewrite the manifest with

    PYTHONPATH=src python tests/byte_identity.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
from pathlib import Path

import numpy as np

from femtogame import cli
from femtogame.experiments import EXPERIMENT_IDS

MANIFEST = Path(__file__).with_name("byte_identity.json")
DEMOS = sorted(Path(__file__).resolve().parents[1].joinpath("demos").glob("*.py"))

# name -> CLI arguments; every run writes its result to the file "out"
RUNS = {
    "generate": ["generate"],
    "sweep-k6": ["sweep", "--followers", "6"],
    "sweep-k50": ["sweep", "--followers", "50"],
    "sweep-discrete": ["sweep", "--game", "discrete"],
    "search-uniform-price": ["search"],
    "search-per-link": ["search", "--mode", "per-link"],
    "asymptote": ["asymptote"],
    "learn": ["learn"],
    "learn-algorithm2": ["learn", "--algorithm2"],
    **{f"experiment-{name}": ["experiment", "--id", name, "--trials", "2"] for name in EXPERIMENT_IDS},
}


def versions() -> dict:
    """numpy's version and the BLAS it calls, which set the last bits of every product."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(run, workdir: Path) -> dict:
    stdout = io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run()
    finally:
        os.chdir(here)
    entry = {"stdout": _sha256(stdout.getvalue().encode()), "exit": code}
    if (workdir / "out").exists():
        entry["out"] = _sha256((workdir / "out").read_bytes())
    return entry


def _run_demo(path: Path) -> int:
    runpy.run_path(str(path), run_name="__main__")
    return 0


def digests(workdir: Path) -> dict:
    """Digest of every CLI run and demo, each run in its own empty directory under ``workdir``."""
    jobs = {name: (lambda argv=argv: cli.main([*argv, "--out", "out"])) for name, argv in RUNS.items()}
    jobs |= {f"demo-{path.stem}": (lambda path=path: _run_demo(path)) for path in DEMOS}
    out = {}
    for name, run in jobs.items():
        (workdir / name).mkdir()
        out[name] = _digest(run, workdir / name)
    return out


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = {"versions": versions(), "runs": digests(Path(tmp))}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest['runs'])} digests to {MANIFEST}", file=sys.stderr)


if __name__ == "__main__":
    main()
