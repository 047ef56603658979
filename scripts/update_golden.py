#!/usr/bin/env python3
"""Rewrite tests/golden.json, the record of every artifact's bytes.

Runs a fixed set of idspipe commands in-process (``cli.main``) inside an
empty directory, on ``synthetic_lines(1500, seed=3)``, with every path
relative to that directory. The manifest maps each file the commands leave
there to its SHA-256, and each command to its stdout. ``tests/test_golden.py``
runs the same commands and compares. A change that moves a hash must be
named in CHANGES.md, with the files it moves.

Usage: PYTHONPATH=src python scripts/update_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from idspipe import cli
from idspipe.synth import synthetic_lines

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden.json"
INPUT = "traffic.txt"
N_RECORDS, SEED = 1500, 3

DISC = "chain/disc/discretized.csv"
SELECT_METHODS = ("cfs-greedy", "cfs-bestfirst", "ig", "gainratio", "correlation", "hybrid")

# In order: each stage command reads what the one before it wrote.
COMMANDS = (
    ("run", "--input", INPUT, "--out", "run-leaky-boost"),
    ("run", "--input", INPUT, "--discretization", "fold-safe", "--no-boost",
     "--out", "run-foldsafe"),
    ("run", "--input", INPUT, "--discretization", "fold-safe", "--method", "cfs-greedy",
     "--no-boost", "--out", "run-foldsafe-cfs-greedy"),
    ("run", "--input", INPUT, "--granularity", "category5", "--out", "run-category5"),
    ("ingest", INPUT, "--out", "chain/data.csv"),
    ("discretize", "chain/data.csv", "--out", "chain/disc"),
    ("select", DISC, "--out", "chain/selection.json"),
    ("train", DISC, "--selection", "chain/selection.json", "--out", "chain/model.json"),
    ("eval", DISC, "--model", "chain/model.json", "--out", "chain/report.json"),
    *(("select", DISC, "--method", m, "--out", f"select/{m}.json") for m in SELECT_METHODS),
    ("reproduce-tables", INPUT, "--out", "tables", "--no-sample", "--k", "3", "--rounds", "3"),
)


@contextlib.contextmanager
def _inside(directory: Path):
    previous = Path.cwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def manifest(workdir: Path) -> dict:
    """Run :data:`COMMANDS` in the empty directory ``workdir`` and record what they left."""
    workdir = Path(workdir)
    (workdir / INPUT).write_text("\n".join(synthetic_lines(N_RECORDS, seed=SEED)) + "\n")
    stdout = {}
    with _inside(workdir):
        for args in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(args))
            command = " ".join(args)
            if code != 0:
                raise RuntimeError(f"`{command}` exited {code}")
            stdout[command] = out.getvalue()
    files = {
        path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    return {**versions, "stdout": stdout, "files": files}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        payload = manifest(Path(tmp))
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload['files'])} file hashes to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
