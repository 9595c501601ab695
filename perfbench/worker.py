"""One workload process of the oxidefv benchmark, started by run.py.

Modes:
  run    set up (import, configure, warm up), then one checked repetition
         of the workload's pipeline, untraced;
  trace  set up, then alternate untraced and traced repetitions until the
         time is up, and report the per-layer metrics of the traced ones.

The process loads oxidefv from the `src/` directory of the checkout it sits
in. It prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import Tracer, percentile, summarize

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

# Preset, mesh and time grid of each workload; refine takes its meshes and
# grids from convergence_study.
WORKLOADS = {
    "wave": {"preset": "testcase1", "cells": 100, "dt": 1e-2, "t_final": 20.0},
    "collapse": {"preset": "testcase2", "cells": 400, "dt": 1e-2, "t_final": 3.5},
    "refine": {"preset": "testcase1", "max_level": 3, "ref_level": 4, "t_final": 0.2},
}
# Collapse step window over the seed range (146..152 measured at factors
# 0.98, 1.00 and 1.02).
COLLAPSE_WINDOW = (140, 160)
MASS_TOL = 1e-8
# Same slack the test suite allows on the total free energy.
H_TOT_TOL = 1e-9
SPACE_RATE = (2.0, 0.3)
TIME_RATE = (1.0, 0.2)
# Diagnostics passes per untraced repetition. On a shared machine the
# speed can swing between phases lasting a second or so; a collapse
# diagnostics pass (~0.1 s) fits inside one phase, so a single timing mostly
# tells which phase it hit. diagnostics_s is the mean over these passes; the
# first pass alone counts towards wall_s.
DIAG_PASSES = {"wave": 1, "collapse": 6, "refine": 1}


class CheckFailed(Exception):
    """A repetition produced an output that violates an invariant."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def amplitude_factor(seed: int) -> float:
    """Scale of the preset's initial amplitude u_init_c1: exactly 1 at seed
    0, otherwise uniform in [0.98, 1.02]."""
    return 1.0 if seed == 0 else random.Random(seed).uniform(0.98, 1.02)


def blas_threads():
    """Thread count reported by the OpenBLAS loaded in this process, or None
    when it cannot be queried."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


class Case:
    """Everything a repetition needs, built during set-up."""

    def __init__(self, workload, seed, tracer):
        from oxidefv import analysis, cli, core, energy, scheme

        self.workload = workload
        self.seed = seed
        self.analysis, self.cli, self.energy, self.scheme = analysis, cli, energy, scheme
        spec = WORKLOADS[workload]
        text = {"preset": spec["preset"]}
        text["u_init_c1"] = cli.PRESETS[spec["preset"]]["u_init_c1"] * amplitude_factor(seed)
        if "cells" in spec:
            text.update(cells=spec["cells"], dt=spec["dt"], t_final=spec["t_final"])
        if tracer is not None:
            declare_wraps(tracer, self)
            tracer.install()
        self.config = cli.parse_config(json.dumps(text))
        if tracer is not None:
            tracer.uninstall()
        cfg = self.config
        self.mesh = core.uniform_mesh(cfg.cells)
        self.grid = core.TimeGrid.from_step_and_horizon(cfg.dt, cfg.t_final)
        self.first = core.discretize_initial(cfg.params, self.mesh, cfg.initial_mode)
        warm = scheme.run(
            cfg.params, core.uniform_mesh(16), core.TimeGrid.from_step(cfg.dt, 3),
            cfg.solver, cfg.initial_mode,
        )
        require(warm.completed, "warm-up run did not complete")


def declare_wraps(tracer, case):
    """The public names wrapped in a traced repetition, each in the module
    namespace its callers look it up in."""
    import numpy as np

    scheme, energy, analysis, cli = case.scheme, case.energy, case.analysis, case.cli

    def elems(args, kwargs):
        return int(np.size(args[0])), True

    def step_result(result):
        return int(result.iterations), result.status.value == "converged"

    tracer.wrap(scheme, "newton_step_solve", "scheme.newton", on_result=step_result)
    tracer.wrap(scheme, "homotopy_solve", "scheme.homotopy", on_result=step_result)
    tracer.wrap(scheme, "bernoulli", "bernoulli.from_scheme", on_args=elems)
    tracer.wrap(scheme, "bernoulli_prime", "bernoulli_prime.from_scheme", on_args=elems)
    tracer.wrap(scheme, "solve_banded", "scheme.band_solve")
    tracer.wrap(scheme, "State", "core.state_new")
    tracer.wrap(scheme, "run", "scheme.run")
    tracer.wrap_linalg(np.linalg)
    tracer.wrap(energy, "bernoulli", "bernoulli.from_energy", on_args=elems)
    tracer.wrap(energy, "dissipation_split", "energy.dissipation_split")
    tracer.wrap(energy, "free_energy", "energy.free_energy")
    tracer.wrap(energy, "build_ledger", "energy.build_ledger")
    tracer.wrap(energy, "write_ledger_csv", "energy.write_ledger_csv")
    tracer.wrap(analysis, "run", "analysis.run")
    tracer.wrap(analysis, "project_reference", "analysis.project_reference")
    tracer.wrap(analysis, "mass_balance_defects", "analysis.mass_balance_defects")
    tracer.wrap(analysis, "verify_trajectory", "analysis.verify_trajectory")
    tracer.wrap(analysis, "convergence_study", "analysis.convergence_study")
    tracer.wrap(analysis, "write_convergence_csv", "analysis.write_convergence_csv")
    # The step CSV writer looks wave_distance up in the cli namespace.
    tracer.wrap(cli, "wave_distance", "analysis.wave_distance")
    tracer.wrap(cli, "parse_config", "cli.parse_config")


# ---------------------------------------------------------------------------
# One repetition of a workload's pipeline
# ---------------------------------------------------------------------------


def trajectory_diagnostics(case, traj, outdir, span):
    """The four ledgers, verify_trajectory and the CSVs the CLI writes for
    `simulate` and `energy`."""
    cfg, mesh = case.config, case.mesh
    energy, analysis, cli = case.energy, case.analysis, case.cli
    with span("bench.diagnostics"):
        ledgers = [
            energy.build_ledger(traj, mesh, cfg.params, density)
            for density in energy.builtin_densities()
        ]
        report = analysis.verify_trajectory(traj, mesh, cfg.params)
        with span("cli.steps_csv"):
            cli._write_steps_csv(traj, mesh, cfg.params, outdir / "steps.csv")
        with span("cli.profile_csv"):
            cli._write_profile_csv(traj.final_state, mesh, outdir / "profile_final.csv")
        for ledger in ledgers:
            energy.write_ledger_csv(ledger, outdir / f"energy_{ledger.density.name}.csv")
    return ledgers, report


def rep_trajectory(case, outdir, span, passes):
    """wave and collapse: run(), then the diagnostics."""
    cfg = case.config
    t0 = time.perf_counter()
    traj = case.scheme.run(cfg.params, case.mesh, case.grid, cfg.solver, initial_state=case.first)
    t1 = time.perf_counter()
    ledgers, report = trajectory_diagnostics(case, traj, outdir, span)
    t2 = time.perf_counter()
    for _ in range(passes - 1):
        trajectory_diagnostics(case, traj, outdir, span)
    t3 = time.perf_counter()
    times = {"wall_s": t2 - t0, "solve_s": t1 - t0, "diagnostics_s": (t3 - t1) / passes}
    return times, lambda: check_trajectory(case, traj, ledgers, report, outdir)


def rep_refine(case, outdir, span, passes):
    """refine: convergence_study at K = 3 against level 4, then its CSV.

    The study reads the stored reference trajectory through
    project_reference, so its diagnostics are the time spent there plus the
    CSV. project_reference runs inside the study: it counts towards solve_s
    as well."""
    cfg = case.config
    spec = WORKLOADS["refine"]
    analysis = case.analysis
    project = analysis.project_reference
    projecting = [0.0]

    def timed_project(*args, **kwargs):
        t = time.perf_counter()
        try:
            return project(*args, **kwargs)
        finally:
            projecting[0] += time.perf_counter() - t

    analysis.project_reference = timed_project
    try:
        t0 = time.perf_counter()
        report = analysis.convergence_study(
            cfg.params,
            max_level=spec["max_level"],
            ref_level=spec["ref_level"],
            t_final=spec["t_final"],
            opts=cfg.solver,
            initial_mode=cfg.initial_mode,
        )
        t1 = time.perf_counter()
    finally:
        analysis.project_reference = project
    with span("bench.diagnostics"):
        analysis.write_convergence_csv(report, outdir / "convergence.csv")
    t2 = time.perf_counter()
    times = {"wall_s": t2 - t0, "solve_s": t1 - t0, "diagnostics_s": projecting[0] + t2 - t1}
    return times, lambda: check_refine(case, report, outdir)


def csv_rows(path):
    with open(path) as f:
        return sum(1 for _ in f) - 1


def check_trajectory(case, traj, ledgers, report, outdir):
    kind = traj.termination.kind.value
    if case.workload == "wave":
        require(kind == "completed", f"wave ended with {kind} at step {traj.termination.step}")
    else:
        step = traj.termination.step
        require(kind == "width_collapsed", f"collapse ended with {kind}")
        lo, hi = COLLAPSE_WINDOW
        require(lo <= step <= hi, f"collapse at step {step}, outside [{lo}, {hi}]")
    require(
        report.mass_balance.worst <= MASS_TOL,
        f"worst mass-balance defect {report.mass_balance.worst:.3e} > {MASS_TOL:g}",
    )
    require(report.all_passed, f"verify_trajectory failed: {report}")
    for ledger in ledgers:
        rise = max(b - a for a, b in zip(ledger.H_tot[:-1], ledger.H_tot[1:]))
        require(rise <= H_TOT_TOL, f"H_tot of {ledger.density.name} rises by {rise:.3e}")
    rows = len(traj.states)
    for name in ["steps.csv"] + [f"energy_{l.density.name}.csv" for l in ledgers]:
        got = csv_rows(outdir / name)
        require(got == rows, f"{name} has {got} rows, expected {rows}")
    require(csv_rows(outdir / "profile_final.csv") == case.mesh.num_cells + 2, "profile rows")
    if case.seed == 0:
        ref = fingerprints()[case.workload]
        final_L = traj.final_state.L
        iters = sum(traj.newton_iters)
        require(
            abs(final_L - ref["final_L"]) <= ref["final_L_rtol"] * ref["final_L"],
            f"final L {final_L!r} differs from the recorded {ref['final_L']!r}",
        )
        require(
            abs(iters - ref["newton_iters"]) <= ref["newton_iters_rtol"] * ref["newton_iters"],
            f"{iters} Newton iterations, recorded {ref['newton_iters']}",
        )
        if "collapse_step" in ref:
            require(traj.termination.step == ref["collapse_step"], "collapse step moved")


def check_refine(case, report, outdir):
    finest = report.levels[-1]
    rate, slack = SPACE_RATE
    require(abs(finest.rate_w - rate) <= slack, f"space rate {finest.rate_w:.3f}")
    rate, slack = TIME_RATE
    for r in (finest.rate_x0, finest.rate_x1):
        require(abs(r - rate) <= slack, f"time rate {r:.3f}")
    got = csv_rows(outdir / "convergence.csv")
    require(got == len(report.levels), f"convergence.csv has {got} rows")
    if case.seed == 0:
        ref = fingerprints()["refine"]
        for key in ("err_w", "err_x0", "err_x1"):
            value = getattr(finest, key)
            require(
                abs(value - ref[key]) <= ref["rtol"] * ref[key],
                f"finest {key} {value!r} differs from the recorded {ref[key]!r}",
            )


def fingerprints():
    return json.loads(FINGERPRINTS.read_text())


def repetition(case, span=None, passes=1):
    """One checked run of the pipeline, its diagnostics repeated `passes`
    times. Returns (timings, csv bytes, failed check or None); raises when
    the program raises."""
    span = span or (lambda name: contextlib.nullcontext())
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="rep-") as tmp:
        outdir = Path(tmp)
        body = rep_refine if case.workload == "refine" else rep_trajectory
        times, check = body(case, outdir, span, passes)
        csv_bytes = sum(p.stat().st_size for p in outdir.iterdir())
        try:
            check()
        except CheckFailed as exc:
            return times, csv_bytes, f"check failed: {exc}"
    return times, csv_bytes, None


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced repetition
# ---------------------------------------------------------------------------


def layer_metrics(summary, csv_bytes):
    """The per-layer metrics of one traced repetition, named as in
    BENCHMARK.json; the time ones are totals over the repetition."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "ok": 0, "sizes": [], "durations": []}

    def g(name):
        return summary.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    newton, homotopy, dense = g("scheme.newton"), g("scheme.homotopy"), g("scheme.dense_solve")
    return {
        "core.state_new.calls": g("core.state_new")["calls"],
        "core.state_new.s": g("core.state_new")["s"],
        "bernoulli.from_scheme.calls": g("bernoulli.from_scheme")["calls"],
        "bernoulli.from_scheme.s": g("bernoulli.from_scheme")["s"],
        "bernoulli.from_scheme.elems": sum(g("bernoulli.from_scheme")["sizes"]),
        "bernoulli_prime.from_scheme.calls": g("bernoulli_prime.from_scheme")["calls"],
        "bernoulli_prime.from_scheme.s": g("bernoulli_prime.from_scheme")["s"],
        "bernoulli.from_energy.calls": g("bernoulli.from_energy")["calls"],
        "bernoulli.from_energy.s": g("bernoulli.from_energy")["s"],
        "scheme.newton.calls": newton["calls"],
        "scheme.newton.s": newton["s"],
        "scheme.newton.self_s": newton["self_s"],
        "scheme.newton.iters": sum(newton["sizes"]),
        "scheme.newton.converged": ratio(newton["ok"], newton["calls"]),
        "scheme.newton.call_ms.p50": 1e3 * percentile(newton["durations"], 50),
        "scheme.newton.call_ms.p99": 1e3 * percentile(newton["durations"], 99),
        "scheme.band_solve.calls": g("scheme.band_solve")["calls"],
        "scheme.band_solve.s": g("scheme.band_solve")["s"],
        "scheme.schur_solve.calls": g("scheme.schur_solve")["calls"],
        "scheme.schur_solve.s": g("scheme.schur_solve")["s"],
        "scheme.homotopy.calls": homotopy["calls"],
        "scheme.homotopy.s": homotopy["s"],
        "scheme.homotopy.self_s": homotopy["self_s"],
        "scheme.homotopy.converged": ratio(homotopy["ok"], homotopy["calls"]),
        "scheme.dense_solve.calls": dense["calls"],
        "scheme.dense_solve.s": dense["s"],
        "scheme.dense_solve.flop_computed": sum(2.0 / 3.0 * n**3 for n in dense["sizes"]),
        "energy.build_ledger.s": g("energy.build_ledger")["s"],
        "energy.dissipation_split.calls": g("energy.dissipation_split")["calls"],
        "energy.dissipation_split.s": g("energy.dissipation_split")["s"],
        "energy.dissipation_split.self_s": g("energy.dissipation_split")["self_s"],
        "energy.free_energy.s": g("energy.free_energy")["s"],
        "energy.write_ledger_csv.s": g("energy.write_ledger_csv")["s"],
        "analysis.verify_trajectory.s": g("analysis.verify_trajectory")["s"],
        "analysis.mass_balance_defects.s": g("analysis.mass_balance_defects")["s"],
        "analysis.wave_distance.calls": g("analysis.wave_distance")["calls"],
        "analysis.wave_distance.s": g("analysis.wave_distance")["s"],
        "analysis.run.calls": g("analysis.run")["calls"],
        "analysis.run.s": g("analysis.run")["s"],
        "analysis.project_reference.s": g("analysis.project_reference")["s"],
        "cli.steps_csv.s": g("cli.steps_csv")["s"],
        "csv.bytes": csv_bytes,
    }


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def attempt(case, failures, span=None, passes=1):
    """Run one repetition; a failed check or a raised error is recorded and
    counted, and does not stop the benchmark. Returns (timings, csv bytes),
    or None when the program raised."""
    try:
        times, csv_bytes, failed = repetition(case, span, passes)
    except Exception:  # every error of the program is counted, not fatal
        failures.append(traceback.format_exc())
        return None
    if failed is not None:
        failures.append(failed)
    return times, csv_bytes


def mode_trace(case, seconds, tracer):
    untraced, traced, per_rep, failures = [], [], [], []
    attempted = 0
    kept_spans = None
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        attempted += 1
        out = attempt(case, failures)
        if out is not None:
            untraced.append(out[0]["wall_s"])
        attempted += 1
        tracer.install()
        try:
            out = attempt(case, failures, tracer.span)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        if out is not None:
            traced.append(out[0]["wall_s"])
            per_rep.append(layer_metrics(summarize(spans), out[1]))
            if kept_spans is None:
                kept_spans = spans
        took = time.perf_counter() - t
        if time.perf_counter() + took > start + seconds:
            break
    return {
        "untraced_wall": untraced,
        "traced_wall": traced,
        "per_rep": per_rep,
        "attempted": attempted,
        "failures": failures,
        "spans": kept_spans or [],
    }


def write_spans(path, setup_spans, spans):
    """Spans as CSV, times in seconds from the first span of each group."""
    with open(path, "w") as f:
        f.write("group,index,name,start_s,end_s,parent,size,ok\n")
        for group, items in (("setup", setup_spans), ("rep", spans)):
            base = items[0][1] if items else 0.0
            for i, (name, t0, t1, parent, size, ok) in enumerate(items):
                f.write(f"{group},{i},{name},{t0 - base:.9f},{t1 - base:.9f},{parent},{size},{int(ok)}\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("run", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0, help="trace mode: time to fill")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer() if args.mode == "trace" else None
    case = Case(args.workload, args.seed, tracer)
    setup_s = time.monotonic() - args.spawned_at

    import oxidefv

    src = Path(oxidefv.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"oxidefv was loaded from {src}, not from this checkout")

    result = {"setup_s": setup_s, "env": environment()}
    if args.mode == "run":
        failures = []
        out = attempt(case, failures, passes=DIAG_PASSES[args.workload])
        result["rep"] = out[0] if out else None
        result["failures"] = failures
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        setup_spans = tracer.take()
        traced = mode_trace(case, args.seconds, tracer)
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        write_spans(spans_path, setup_spans, traced.pop("spans"))
        parse = [s for s in setup_spans if s[0] == "cli.parse_config"]
        traced["parse_config_s"] = parse[0][2] - parse[0][1] if parse else 0.0
        traced["spans_file"] = str(spans_path.relative_to(ROOT))
        result.update(traced)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
