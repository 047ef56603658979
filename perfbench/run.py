#!/usr/bin/env python3
"""Benchmark of the idspipe CLI: three closed-loop workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed makes the inputs (``gen.py``); the program only sees the generated
files. Each workload execution runs its idspipe commands one after another
as fresh processes, each starting after the previous one exits, into a fresh
output directory, and then checks the outputs. A first, untimed execution
warms up; timed executions repeat until ``--seconds`` is used up (at least
three).

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, as medians over the timed executions. With ``--trace 1`` untraced and
traced executions alternate; the traced ones run each command under
``tracer.py`` and the last line holds the per-layer metrics of ``layers.py``
(medians over the traced executions) and the tracing overhead. The line
before the last holds the environment record, the input checksums and the
per-execution samples. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"  # everything a run writes, removed at its start

# Share of the 62,984-record reference sample every workload runs at. Full
# scale takes 50 to 95 s per execution; at 1/24 each execution takes 2 to 4 s
# on a 2-core machine, so a run measures several and reports their median.
SCALE = 1 / 24
# The record population is fixed and the benchmark seed shuffles it (see README).
POPULATION_SEED = 20150723
MIN_EXECUTIONS = 3  # timed executions, after the warm-up one
MIN_TRACED_PAIRS = 2
TIME_CAP_S = 140.0  # no execution starts after this many seconds of a run
KILL_AFTER_S = 170.0  # a process still running this long into a run is killed
# Sanity floor for the weighted F-measure of every report. The generated
# classes overlap, so results near 0.95 are expected; a model that no longer
# reads its own vocabularies scores near 0.
MIN_WEIGHTED_F = 0.85


@dataclass(frozen=True)
class Workload:
    why: str
    input: str  # generated record file: "pool" or "ref"; reports evaluate "ref"
    steps: tuple[tuple[str, ...], ...]  # idspipe arguments, with {input} {counts} {out}


WORKLOADS = {
    "cv-boost": Workload(
        why="The paper's proposed pipeline: reference-shape sample, 23 classes, "
        "leaky MDL, hybrid selection, AdaBoost.M1 (10 rounds), 10-fold CV.",
        input="pool",
        steps=(
            ("run", "--input", "{input}", "--sample", "{counts}", "--granularity",
             "attack23", "--discretization", "leaky", "--method", "hybrid",
             "--boost", "--rounds", "10", "--k", "10", "--seed", "0", "--out", "{out}"),
        ),
    ),
    "cv-foldsafe": Workload(
        why="Refits the discretizer and selector in every fold at 5 classes; "
        "selection-bound, and the null workload for classifier-only changes.",
        input="ref",
        steps=(
            ("run", "--input", "{input}", "--sample", "none", "--granularity",
             "category5", "--discretization", "fold-safe", "--method", "hybrid",
             "--no-boost", "--k", "10", "--seed", "0", "--out", "{out}"),
        ),
    ),
    "staged-cli": Workload(
        why="Five stage commands with CSV round trips between them; the only "
        "user of the stage commands, read/write_dataset and model.json loading.",
        input="pool",
        steps=(
            ("ingest", "{input}", "--sample", "{counts}", "--sample-seed", "0",
             "--out", "{out}/dataset.csv"),
            ("discretize", "{out}/dataset.csv", "--out", "{out}/disc"),
            ("select", "{out}/disc/discretized.csv", "--method", "hybrid",
             "--out", "{out}/selection.json"),
            ("train", "{out}/disc/discretized.csv", "--selection", "{out}/selection.json",
             "--boost", "--rounds", "10", "--out", "{out}/model.json"),
            ("eval", "{out}/disc/discretized.csv", "--model", "{out}/model.json",
             "--out", "{out}/report.json"),
        ),
    ),
}

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("weighted_f", "ratio"),
)


def rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Process:
    start: float
    end: float
    cpu: float
    rss_mb: float
    returncode: int


def run_process(argv: list[str], log: Path, kill_at: float) -> Process:
    """Run one child to completion, or kill it at perf_counter time ``kill_at``.

    Its CPU time and peak RSS come from wait4.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log, "w", encoding="utf-8") as fh:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(0.0, kill_at - start), child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        end = time.perf_counter()
    child.returncode = os.waitstatus_to_exitcode(status)
    return Process(
        start=start,
        end=end,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        returncode=child.returncode,
    )


@dataclass
class Inputs:
    paths: dict[str, Path]
    n_records: int  # records every report evaluates: the reference-shape histogram
    checksums: dict[str, str]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the workload's record file and sample histogram from the seed."""
    ref = gen.scaled_counts(SCALE)
    counts = {"ref": ref, "pool": {label: 2 * n for label, n in ref.items()}}
    stream = {"pool": 0, "ref": 1}[workload.input]
    inputs_dir = WORK / "inputs"
    inputs_dir.mkdir(parents=True)
    records = inputs_dir / f"{workload.input}.txt"
    counts_file = inputs_dir / "counts.json"
    counts_file.write_text(json.dumps(ref, sort_keys=True) + "\n")
    return Inputs(
        paths={"input": records, "counts": counts_file},
        n_records=sum(ref.values()),
        checksums={
            records.name: gen.write_records(
                records, counts[workload.input], [POPULATION_SEED, stream], [seed, stream]
            ),
            counts_file.name: sha256(counts_file),
        },
    )


@dataclass
class Execution:
    traced: bool
    processes: list[Process]
    problems: list[str]
    digests: dict[str, str]
    weighted_f: float = 0.0
    weighted_fpr: float = 0.0
    layer_metrics: dict | None = None

    @property
    def wall(self) -> float:
        return self.processes[-1].end - self.processes[0].start


def artifact_digests(out: Path) -> dict[str, str]:
    return {rel(p): sha256(p) for p in sorted(out.rglob("*")) if p.is_file()}


def check_report(inputs: Inputs, out: Path, execution: Execution) -> None:
    """Record count, matrix total and the F-measure floor of the report."""
    path = out / "report.json"
    if not path.is_file():
        execution.problems.append("no report.json")
        return
    report = json.loads(path.read_text())
    total = sum(map(sum, report["matrix"]["counts"]))
    described = report["descriptor"].get("n_records", inputs.n_records)
    if not total == described == inputs.n_records:
        execution.problems.append(
            f"{rel(path)}: matrix total {total}, n_records {described}, "
            f"expected {inputs.n_records}"
        )
    execution.weighted_f = report["weighted"]["f_measure"]
    execution.weighted_fpr = report["weighted"]["fpr"]
    if execution.weighted_f < MIN_WEIGHTED_F:
        execution.problems.append(
            f"weighted F {execution.weighted_f:.4f} below {MIN_WEIGHTED_F}"
        )


def execute(workload: Workload, inputs: Inputs, traced: bool, kill_at: float) -> Execution:
    """One closed-loop run of the workload's commands, then its output checks."""
    out = WORK / "out"
    shutil.rmtree(out, ignore_errors=True)
    spans_dir = WORK / "spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    if traced:
        spans_dir.mkdir()
    fields = {"input": rel(inputs.paths["input"]), "counts": rel(inputs.paths["counts"]),
              "out": rel(out)}
    processes, problems = [], []
    for i, template in enumerate(workload.steps):
        args = [a.format(**fields) for a in template]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), rel(spans_dir / f"{i}.json"),
                    "--", *args]
        else:
            argv = [sys.executable, "-m", "idspipe.cli", *args]
        log = WORK / "logs" / f"step{i}.log"
        proc = run_process(argv, log, kill_at)
        processes.append(proc)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            problems.append(f"{args[0]} exited {proc.returncode}: {' | '.join(tail)}")
            break
    execution = Execution(traced, processes, problems, {})
    if problems:
        return execution
    execution.digests = artifact_digests(out)
    check_report(inputs, out, execution)
    if traced:
        payloads = [json.loads((spans_dir / f"{i}.json").read_text())
                    for i in range(len(processes))]
        unseen = [sum(p["unseen"][0] for p in payloads), sum(p["unseen"][1] for p in payloads)]
        execution.layer_metrics = layers.per_layer(
            [(p.start, p.end, payload) for p, payload in zip(processes, payloads)],
            unseen,
            artifact_bytes=sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        )
    return execution


def measure_setup(kill_at: float) -> float:
    """Wall time of a fresh `idspipe --help` process: interpreter start plus imports."""
    proc = run_process([sys.executable, "-m", "idspipe.cli", "--help"],
                       WORK / "logs" / "help.log", kill_at)
    if proc.returncode != 0:
        raise RuntimeError(f"idspipe --help exited {proc.returncode}")
    return proc.end - proc.start


def environment(args, inputs: Inputs) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": SCALE,
        "concurrent_processes": 1,
        "input_checksums": inputs.checksums,
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "idspipe" / "cli.py").is_file():
        print(f"error: no idspipe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "logs").mkdir(parents=True)
    inputs = make_inputs(workload, args.seed)
    kill_at = started + KILL_AFTER_S

    # The first execution warms the file cache and the compiled bytecode; it
    # is checked but not timed. Then, with --trace 1, untraced and traced
    # executions alternate. With --trace 0 a set-up sample is taken before
    # every timed execution, so that it spans the same stretch of the run.
    setup: list[float] = []
    executions: list[Execution] = []
    laps: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        lap = time.perf_counter()
        warm = bool(executions)
        if args.trace == 0 and warm:
            setup.append(measure_setup(kill_at))
        traced = args.trace == 1 and warm and len(executions) % 2 == 0
        executions.append(execute(workload, inputs, traced, kill_at))
        timed = len(executions) - 1
        enough = (timed >= 2 * MIN_TRACED_PAIRS and timed % 2 == 0) if args.trace else (
            timed >= MIN_EXECUTIONS)
        now = time.perf_counter()
        laps.append(now - lap)
        if now - started > TIME_CAP_S or (enough and now + statistics.median(laps) > deadline):
            break

    # Determinism: every execution's artifacts and F-measure match the first
    # successful one, traced executions included.
    reference = next((e for e in executions if not e.problems), None)
    for e in executions:
        if reference is None or e.problems or e is reference:
            continue
        if e.digests != reference.digests:
            changed = sorted(k for k in set(e.digests) | set(reference.digests)
                             if e.digests.get(k) != reference.digests.get(k))
            e.problems.append(f"artifacts differ from the first execution: {changed[:5]}")
        if e.weighted_f != reference.weighted_f:
            e.problems.append(f"weighted F {e.weighted_f!r} != first {reference.weighted_f!r}")

    good = [e for e in executions[1:] if not e.problems]  # timed, i.e. not the warm-up
    plain = [e for e in good if not e.traced]
    traced = [e for e in good if e.traced]
    if args.trace == 0:
        samples = {
            "wall_s": [e.wall for e in plain],
            "cpu_s": [sum(p.cpu for p in e.processes) for e in plain],
            "peak_rss_mb": [max(p.rss_mb for p in e.processes) for e in plain],
            "setup_s": setup,
            "weighted_f": [e.weighted_f for e in plain],
        }
        units = dict(END_TO_END)
    else:
        untraced_wall = statistics.median(e.wall for e in plain) if plain else float("nan")
        for e in traced:
            m = e.layer_metrics
            m["trace.overhead_s"] = m["trace.wall_s"] - untraced_wall
            # The self times of all spans add up to the processes' wall time;
            # a gap larger than the tracing overhead means a broken span tree.
            if abs(m["trace.self_total_s"] - m["trace.wall_s"]) > (
                abs(m["trace.overhead_s"]) + 0.01 * m["trace.wall_s"]
            ):
                e.problems.append("span self times do not add up to the wall time")
        traced = [e for e in traced if not e.problems]
        samples = {name: [e.layer_metrics[name] for e in traced]
                   for name, _ in layers.PER_LAYER}
        units = dict(layers.PER_LAYER)

    failed = sum(1 for e in executions if e.problems)
    for e in executions:
        for problem in e.problems:
            print(f"check failed ({'traced' if e.traced else 'untraced'}): {problem}",
                  file=sys.stderr)
    if any(not values for values in samples.values()):
        print("error: no successful execution to report", file=sys.stderr)
        return 1
    detail = {
        "environment": environment(args, inputs),
        "why": workload.why,
        "executions": {"untraced": len(plain), "traced": len(traced)},
        "samples": samples,
        "quartiles": {name: quartiles(values) for name, values in samples.items()},
        # Reported here, not as bounded metrics: the FPR of a 1/24-scale sample
        # spreads by more than any allowed bound across seeds, and fail_frac is 0.
        "weighted_fpr": [e.weighted_fpr for e in plain],
        "fail_frac": failed / len(executions),
        "elapsed_s": time.perf_counter() - started,
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {
            name: {"value": float(statistics.median(values)), "unit": units[name]}
            for name, values in samples.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
