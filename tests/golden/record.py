"""Rewrite the golden CLI outputs that tests/test_golden.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record.py

Each run in RUNS writes its files, and its console output as stdout.txt,
into the directory of its name next to this script.  manifest.json records
each run's command line and exit code, each file's sha256, and the Python
and numpy versions that wrote them: the package imports no other library.
A change that re-records says which files moved, by how much, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import shutil
import sys
from pathlib import Path

import numpy as np

from oxidefv.cli import main

GOLDEN = Path(__file__).resolve().parent
MANIFEST = GOLDEN / "manifest.json"

# Small runs of each CSV-writing command: a completed wave, both collapse
# presets (their messages carry the collapse bracket) and a refinement study.
RUNS = {
    "simulate-testcase1": ["simulate", "--preset", "testcase1", "--cells", "50", "--t-final", "1"],
    "energy-testcase1": ["energy", "--preset", "testcase1", "--cells", "50", "--t-final", "1"],
    "simulate-testcase2": ["simulate", "--preset", "testcase2", "--cells", "50"],
    "simulate-testcase3": ["simulate", "--preset", "testcase3", "--cells", "50"],
    "converge-testcase1": ["converge", "--preset", "testcase1", "--levels", "1", "--ref-level", "2"],
}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def run_one(name: str, out: Path) -> int:
    """Run RUNS[name] with its files written to out, its console output to
    out/stdout.txt; returns the exit code."""
    console = io.StringIO()
    with contextlib.redirect_stdout(console):
        code = main([*RUNS[name], "--out", str(out)])
    (out / "stdout.txt").write_text(console.getvalue())
    return code


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record() -> dict:
    runs = {}
    for name, argv in RUNS.items():
        out = GOLDEN / name
        shutil.rmtree(out, ignore_errors=True)
        code = run_one(name, out)
        files = {path.name: sha256(path) for path in sorted(out.iterdir())}
        runs[name] = {"argv": argv, "exit": code, "files": files}
    manifest = {"versions": versions(), "runs": runs}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


if __name__ == "__main__":
    for name, entry in record()["runs"].items():
        print(f"{name}: exit {entry['exit']}, {len(entry['files'])} files", file=sys.stderr)
