"""oxidefv benchmark: each workload timed to a checked result.

    python3 perfbench/run.py [--workload wave|collapse|refine|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout; oxidefv is loaded from its `src/`. Every
repetition runs in a fresh single-threaded process (BLAS pinned to one
thread) that sets up, runs the workload's pipeline once and checks it. The
seed scales the preset's initial amplitude by a factor in [0.98, 1.02];
seed 0 is the preset itself and is also compared against the fingerprints
in perfbench/fingerprints.json.

--trace 0 prints the end-to-end metrics, each the median over the processes
started within --seconds (at least MIN_PROCESSES). --trace 1 prints the
per-layer metrics of a separate process that wraps the program's public
names from outside.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A full record of each run, with the
environment, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
WORKER = ROOT / "perfbench" / "worker.py"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("wave", "collapse", "refine")
# Fewest processes behind an end-to-end median, however short --seconds is.
MIN_PROCESSES = 3
# The dense solves of the homotopy otherwise run OpenBLAS on every core.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A run must end within 180 s; the last repetition may overrun --seconds.
RUN_BUDGET_S = 170.0
# On a shared virtual machine each CPU can run fast or slow for seconds at a
# time, independently of the others. A worker that stays on one CPU can
# spend a whole run in a slow phase, so it is moved to the next allowed CPU
# at this interval and samples all of them alike.
ROTATE_S = 0.25


class BenchError(Exception):
    """The benchmark could not produce a result."""


class WorkerFailed(BenchError):
    """A worker process exited with an error."""


def worker(mode, workload, seed, seconds, deadline):
    """Start one worker process, wait for it and return its JSON result."""
    if time.monotonic() >= deadline:
        raise BenchError(f"no time left to start a {mode} process")
    env = dict(os.environ, **PINNED)
    cmd = [
        sys.executable, str(WORKER), "--mode", mode, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0
    while True:
        try:
            out, err = proc.communicate(timeout=ROTATE_S)
            break
        except subprocess.TimeoutExpired:
            if time.monotonic() > deadline:
                proc.kill()
                proc.communicate()
                raise BenchError(f"{mode} process for {workload} ran out of time") from None
        turn += 1
        try:
            os.sched_setaffinity(proc.pid, {cpus[turn % len(cpus)]})
        except (ProcessLookupError, PermissionError):
            pass  # the worker has just exited
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} process for {workload} exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def source_record():
    """Git commit when the checkout is a repository, and a digest of the
    program's sources either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def declared(kind):
    """Metric names and units of one kind ("end_to_end" or "per_layer"), in
    the order BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[kind]}


def as_metrics(kind, values, samples):
    """Declared metrics with their measured value and sample count."""
    missing = [name for name in declared(kind) if name not in values]
    if missing:
        raise BenchError(f"no measurement for {', '.join(missing)}")
    return {
        name: {"value": values[name], "unit": unit, "samples": samples[name]}
        for name, unit in declared(kind).items()
    }


def end_to_end(workload, seed, seconds, deadline):
    """Start one process per repetition until --seconds is used up."""
    samples = {name: [] for name in ("setup_s", "wall_s", "solve_s", "diagnostics_s", "peak_rss_mb")}
    failures = []
    attempted = 0
    start = time.monotonic()
    while True:
        t = time.monotonic()
        attempted += 1
        try:
            res = worker("run", workload, seed, 0, deadline)
        except WorkerFailed as exc:
            failures.append(str(exc))
        else:
            env = res["env"]
            failures += res["failures"]
            samples["setup_s"].append(res["setup_s"])
            samples["peak_rss_mb"].append(res["peak_rss_mb"])
            if res["rep"] is not None:
                for name in ("wall_s", "solve_s", "diagnostics_s"):
                    samples[name].append(res["rep"][name])
        now = time.monotonic()
        if attempted >= MIN_PROCESSES and now + (now - t) > start + seconds:
            break
    if not samples["wall_s"]:
        raise BenchError(f"no repetition of {workload} finished:\n" + "\n".join(failures))
    metrics = as_metrics(
        "end_to_end",
        {name: statistics.median(v) for name, v in samples.items()},
        {name: len(v) for name, v in samples.items()},
    )
    return metrics, {"env": env, "attempted": attempted, "failures": failures}, samples


def per_layer(workload, seed, seconds, deadline):
    res = worker("trace", workload, seed, seconds, deadline)
    per_rep = res["per_rep"]
    if not per_rep or not res["untraced_wall"]:
        raise BenchError(f"no traced repetition of {workload} finished:\n" + "\n".join(res["failures"]))
    units = declared("per_layer")
    values, samples, unstable = {}, {}, []
    for name in per_rep[0]:
        series = [m[name] for m in per_rep]
        if units.get(name) == "count":
            # counts come from the first traced repetition; the rest must match
            if len(set(series)) > 1:
                unstable.append(name)
            series = series[:1]
        values[name], samples[name] = statistics.median(series), len(series)
    values["cli.parse_config.s"], samples["cli.parse_config.s"] = res["parse_config_s"], 1
    values["trace.overhead_s"] = (
        statistics.median(res["traced_wall"]) - statistics.median(res["untraced_wall"])
    )
    samples["trace.overhead_s"] = min(len(res["traced_wall"]), len(res["untraced_wall"]))
    res["counts_repeat"] = not unstable
    res["counts_varied"] = unstable
    return as_metrics("per_layer", values, samples), res, {}


def run_one(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    measure = per_layer if trace else end_to_end
    metrics, res, samples = measure(workload, seed, seconds, deadline)
    attempted = res["attempted"]
    failed = len(res["failures"])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": dict(
            res["env"],
            nproc=os.cpu_count(),
            cpus_allowed=len(os.sched_getaffinity(0)),
            blas_env=PINNED,
            **source_record(),
        ),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": res["failures"],
        "metrics": metrics,
        "samples": samples,
    }
    if trace:
        record.update(counts_repeat=res["counts_repeat"], counts_varied=res["counts_varied"],
                      spans_file=res["spans_file"])
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    return record


def print_record(record):
    env = record["env"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  {env['blas']}  "
        f"blas threads {env['blas_threads']}  nproc {env['nproc']}  "
        f"commit {env['git_commit'] or '-'}  src {env['src_sha256'][:12]}"
    )
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']:6s} (median of {m['samples']})")
    print(
        f"  {'error_rate':36s} {record['error_rate']:>14.6g} ratio  "
        f"({record['failed']} failed of {record['attempted']} runs)"
    )
    if record["trace"]:
        print(f"  counts repeat across traced runs: {record['counts_repeat']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="oxidefv benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "oxidefv" / "__init__.py").is_file():
        print(f"error: no oxidefv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for workload in workloads:
            records.append(run_one(workload, args.seed, args.seconds, args.trace))
            print_record(records[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
