"""Command-line interface: configuration parsing, experiment orchestration
and deterministic CSV emission.

Config files are flat JSON documents; the built-in presets testcase1/2/3
carry the standard parameter sets.  Exit codes: 0 success, 2 configuration
error, 3 solver failure, 4 width collapse (partial output is flushed).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    convergence_study,
    wave_distance,  # not called here: perfbench/worker.py wraps cli.wave_distance
    wave_distances,
    write_convergence_csv,
)
from .core import (
    ExponentialProfile,
    InitialMode,
    InputError,
    Mesh,
    ModelParams,
    TabulatedProfile,
    TerminationKind,
    TimeGrid,
    Trajectory,
    _finite,
    _integer,
    _positive_int,
    check_storable,
    discretize_initial,
    uniform_mesh,
)
from .energy import build_ledger, builtin_densities, write_ledger_csv
from .formatting import format_float, write_csv
from .scheme import SolverOptions, run
from .waves import RegimeKind, classify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_COLLAPSE = 4

class ConfigError(ValueError):
    """Configuration problem with a message that names its line or flag."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description: model parameters, discretization,
    initial-data mode, solver options and output directory."""

    params: ModelParams
    cells: int
    dt: float
    t_final: float
    initial_mode: InitialMode
    solver: SolverOptions
    out: str


def _preset(a, b, alpha0, beta0, alpha1, beta1, R, L0, t_final):
    # Every preset starts from the exponential reference profile
    # (a/b) exp(-R c x) on [0, L0].
    c_hat = (alpha0 - beta0 * a / b) / R
    return {
        "a": a,
        "b": b,
        "alpha0": alpha0,
        "beta0": beta0,
        "alpha1": alpha1,
        "beta1": beta1,
        "R": R,
        "L0": L0,
        "u_init_kind": "exp",
        "u_init_c1": a / b,
        "u_init_c2": -R * c_hat,
        "u_init_c3": 0.0,
        "cells": 100,
        "dt": 1e-2,
        "t_final": t_final,
    }


PRESETS = {
    "testcase1": _preset(1.0, 1.0, 1.5, 1.0, 0.5, 4.0, 2.0, 1.0, 20.0),
    "testcase2": _preset(1.75, 1.0, 5.0, 2.0, 5.0, 2.0, 2.0, 1.0, 3.5),
    "testcase3": _preset(1.0, 1.0, 4.0, 1.0, 3.0, 1.5, 2.0, 1.0, 10.0),
}


# u_init_kind -> the profile's class and its name in errors
_PROFILES = {"exp": (ExponentialProfile, "an exponential profile"),
             "table": (TabulatedProfile, "a tabulated profile")}
# (value test, parse, what a value must be)
_NUMBER = (_finite, float, "a finite number")
_INTEGER = (_integer, int, "an integer")
_STRING = (lambda v: isinstance(v, str), str, "a string")

# Every key a document may set: key -> (group, value test, parse, what a
# value must be).  The keys of the groups model, profile and run, and of the
# profile group u_init_kind names, are required; the document may not set
# the other profile group's.  A profile key is "u_init_" and the profile's
# argument; any other key a constructor takes is its argument's name.
_KEYS = {
    "preset": ("", *_STRING),
    **dict.fromkeys(("a", "b", "alpha0", "beta0", "alpha1", "beta1", "R", "L0"),
                    ("model", *_NUMBER)),
    "u_init_kind": ("profile", lambda v: isinstance(v, str) and v in _PROFILES, str,
                    "'exp' or 'table'"),
    **dict.fromkeys(("u_init_c1", "u_init_c2", "u_init_c3"), ("exp", *_NUMBER)),
    **dict.fromkeys(("u_init_x", "u_init_values"), (
        "table", lambda v: isinstance(v, list) and all(map(_finite, v)),
        lambda v: tuple(map(float, v)), "a list of finite numbers")),
    "cells": ("run", *_INTEGER),
    "dt": ("run", *_NUMBER),
    "t_final": ("run", *_NUMBER),
    "newton_tol": ("solver", *_NUMBER),
    "max_newton_iters": ("solver", *_INTEGER),
    # null is SolverOptions' default
    "width_floor": ("solver", lambda v: v is None or _finite(v),
                    lambda v: None if v is None else float(v), "a finite number"),
    "initial_mode": ("", lambda v: v in ("average", "sample"), InitialMode,
                     "'average' or 'sample'"),
    "out": ("", *_STRING),
}


def _key_lines(text: str) -> dict:
    """The line of each top-level key of the JSON object text.  A key set
    twice gets the line of its last value, the one json.loads keeps."""
    space = json.decoder.WHITESPACE.match
    decode = json.JSONDecoder().raw_decode
    lines = {}
    pos = space(text, space(text).end() + 1).end()  # past the "{"
    while text.startswith('"', pos):
        key, end = json.decoder.scanstring(text, pos + 1)
        lines[key] = text.count("\n", 0, pos) + 1
        _, end = decode(text, space(text, space(text, end).end() + 1).end())  # past the ":"
        pos = space(text, space(text, end).end() + 1).end()  # past the "," or "}"
    return lines


def _build_config(raw: dict, text: str, flags=(), with_horizon: bool = True) -> RunConfig:
    """Check the merged key set raw against _KEYS and build the run.  An
    error about some keys, most to blame first (a constructor's names its
    arguments), names the first of them in flags, else the line of the first
    one the document text sets, else line 1.  With with_horizon False, dt and
    t_final must be finite numbers but need not make a time grid."""

    def where(*keys: str) -> str:
        lines = _key_lines(text)
        flag = next(("--" + key.replace("_", "-") for key in keys if key in flags), None)
        return flag or f"line {next((lines[key] for key in keys if key in lines), 1)}"

    for key, value in raw.items():
        if key not in _KEYS:
            raise ConfigError(f"{where(key)}: unknown key {key!r}")
        _, test, _, must = _KEYS[key]
        if not test(value):
            raise ConfigError(f"{where(key)}: {key} must be {must}")

    given = raw
    if "preset" in raw:
        if raw["preset"] not in PRESETS:
            raise ConfigError(
                f"{where('preset')}: unknown preset {raw['preset']!r}; "
                f"choose from {', '.join(sorted(PRESETS))}"
            )
        raw = {**PRESETS[raw["preset"]], **raw}
    kind = raw.get("u_init_kind")
    # u_init_kind precedes the profile keys in _KEYS: kind is known at theirs
    for key, (group, *_) in _KEYS.items():
        if group in _PROFILES and group != kind:
            if key in given:
                raise ConfigError(f"{where(key)}: {key} is not valid for {_PROFILES[kind][1]}")
        elif group in ("model", "profile", "run", kind) and key not in raw:
            raise ConfigError(f"line 1: missing required key {key!r}")

    args = {}
    for key, value in raw.items():
        group, _, parse, _ = _KEYS[key]
        args.setdefault(group, {})[key] = parse(value)
    run_args, other = args["run"], args.get("", {})
    if not _positive_int(run_args["cells"]):
        raise ConfigError(f"{where('cells')}: cells must be at least 1")
    mode = other.get("initial_mode", InitialMode.CELL_AVERAGE)
    try:
        profile = _PROFILES[kind][0](**{k.removeprefix("u_init_"): v for k, v in args[kind].items()})
        params = ModelParams(u_init=profile, **args["model"])
        if with_horizon:
            TimeGrid.from_step_and_horizon(run_args["dt"], run_args["t_final"])
        # The initial state on one cell holds the profile's end values,
        # which bound an exponential profile on [0, L0], and its mean there.
        discretize_initial(params, Mesh((0.0, 1.0)), mode)
        # an absent key takes SolverOptions' default
        solver = SolverOptions(**args.get("solver", {}))
        if solver.resolved_floor(params) >= params.L0:
            raise InputError(f"width_floor {solver.width_floor!r} must be below the "
                             f"initial width L0 = {params.L0!r}", "width_floor")
    except InputError as exc:
        keys = [name if name in _KEYS else "u_init_" + name for name in exc.names]
        raise ConfigError(f"{where(*keys)}: {exc}") from exc

    out = other.get("out", "out")
    # the commands create out and its missing parents only after their runs,
    # so the nearest part of it that exists must be a directory, and a path
    # the system rejects, or a missing part longer than the names that
    # directory's file system takes, is rejected here
    try:
        existing = next(p for p in (Path(out), *Path(out).parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"{where('out')}: {existing} is not a directory")
        # pathconf gives -1 for a file system without a limit
        name_max = os.pathconf(existing, "PC_NAME_MAX")
        if any(0 < name_max < len(os.fsencode(p)) for p in Path(out).relative_to(existing).parts):
            raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG))
    except OSError as exc:
        raise ConfigError(f"{where('out')}: cannot create {out}: {exc.strerror}") from exc

    return RunConfig(params=params, initial_mode=mode, solver=solver, out=out, **run_args)


def _read_object(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("line 1: configuration must be a JSON object")
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat JSON configuration document.

    A "preset" key selects one of the built-in test-case parameter sets;
    any other keys override the preset values.  Unknown keys and invalid
    values are rejected with line-anchored messages.
    """
    return _build_config(_read_object(text), text)


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def _write_profile_csv(state, mesh, path) -> None:
    write_csv(
        path,
        ("i", "xi_center", "x_physical", "u"),
        (np.arange(mesh.num_cells + 2), mesh.centers, state.X0 + state.L * mesh.centers, state.u),
    )


def _write_steps_csv(traj: Trajectory, mesh, params, path) -> None:
    regime = classify(params)
    wave = regime.wave if regime.kind is RegimeKind.UNIQUE_WAVE else None
    # a squared distance that overflows is written as inf, without a warning
    with np.errstate(over="ignore"):
        d = np.full(traj.L.shape, np.nan) if wave is None else wave_distances(traj, mesh, wave)
    write_csv(
        path,
        ("n", "t", "X0", "X1", "L", "u0", "uI1", "d", "newton_iters", "residual_inf"),
        (
            np.arange(len(traj.X0)),
            traj.times,
            traj.X0,
            traj.X1,
            traj.L,
            traj.U[:, 0],
            traj.U[:, -1],
            d,
            traj.newton_iters,
            traj.residual_inf,
        ),
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _load_config(args, with_horizon: bool = True) -> RunConfig:
    """The config of --preset or --config with the given flags written over
    its keys.  With with_horizon False, --dt and --t-final are neither
    applied nor checked, and the config's dt need not divide its t_final:
    converge takes its own horizon and builds its own time grids."""
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
    elif args.preset is not None:
        text = json.dumps({"preset": args.preset})
    else:
        raise ConfigError("line 1: provide --preset or --config")
    keys = ("cells", "out", "initial_mode") + (("dt", "t_final") if with_horizon else ())
    flags = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    return _build_config({**_read_object(text), **flags}, text, flags, with_horizon)


def _output_dir(config: RunConfig) -> Path:
    """config.out, created with its missing parents after a run.  What
    _build_config's check cannot see before the run fails here as a config
    error, and the directories made for it are removed again."""
    out = Path(config.out)
    made = []
    try:
        made = [p for p in (out, *out.parents) if not p.exists()]
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        for p in made:
            with suppress(OSError):
                p.rmdir()
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from exc
    return out


def _run_config(config: RunConfig) -> tuple[Mesh, Trajectory]:
    """The mesh and trajectory of a config.  A run whose trajectory would
    not fit in memory is a config error, raised before any mesh is built."""
    grid = TimeGrid.from_step_and_horizon(config.dt, config.t_final)
    try:
        check_storable(config.cells, grid.n_steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    mesh = uniform_mesh(config.cells)
    return mesh, run(config.params, mesh, grid, config.solver, config.initial_mode)


def _termination_exit(traj: Trajectory) -> int:
    kind = traj.termination.kind
    if kind is TerminationKind.COMPLETED:
        return EXIT_OK
    if kind is TerminationKind.WIDTH_COLLAPSED:
        return EXIT_COLLAPSE
    return EXIT_SOLVER


def _report_termination(traj: Trajectory) -> None:
    kind = traj.termination.kind
    if kind is TerminationKind.COMPLETED:
        final = traj.final_state
        print(
            f"completed {traj.time_grid.n_steps} steps; "
            f"final width L = {final.L:.6g}"
        )
    elif kind is TerminationKind.WIDTH_COLLAPSED:
        t = traj.termination.step * traj.time_grid.dt
        message = f"width collapsed at step {traj.termination.step} (t = {t:.6g})"
        if traj.termination.bracket is not None:
            lo, hi = traj.termination.bracket
            message += f"; collapse time in [{format_float(lo)}, {format_float(hi)}]"
        print(message)
    else:
        print(f"solver failed at step {traj.termination.step}", file=sys.stderr)


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    mesh, traj = _run_config(config)
    out = _output_dir(config)
    _write_steps_csv(traj, mesh, config.params, out / "steps.csv")
    _write_profile_csv(traj.final_state, mesh, out / "profile_final.csv")
    _report_termination(traj)
    return _termination_exit(traj)


def _cmd_tw(args) -> int:
    config = _load_config(args)
    regime = classify(config.params)
    if regime.kind is RegimeKind.UNIQUE_WAVE:
        wave = regime.wave
        print("unique travelling wave")
        print(f"c_hat = {format_float(wave.c_hat)}")
        print(f"L_hat = {format_float(wave.L_hat)}")
    elif regime.kind is RegimeKind.EQUILIBRIUM_CONTINUUM:
        print("continuum of constant steady states")
        print(f"level = {format_float(regime.level)}")
    else:
        print("no travelling wave")
    return EXIT_OK


def _cmd_energy(args) -> int:
    config = _load_config(args)
    densities = builtin_densities()
    if args.phi is not None:
        byname = {d.name: d for d in densities}
        if args.phi not in byname:
            raise ConfigError(
                f"unknown energy density {args.phi!r}; choose from {', '.join(sorted(byname))}"
            )
        densities = (byname[args.phi],)
    mesh, traj = _run_config(config)
    out = _output_dir(config)
    for density in densities:
        ledger = build_ledger(traj, mesh, config.params, density)
        write_ledger_csv(ledger, out / f"energy_{density.name}.csv")
    _report_termination(traj)
    return _termination_exit(traj)


def _cmd_converge(args) -> int:
    config = _load_config(args, with_horizon=False)
    try:
        report = convergence_study(
            config.params,
            max_level=args.levels,
            ref_level=args.ref_level if args.ref_level is not None else args.levels + 1,
            t_final=args.t_final,
            opts=config.solver,
            initial_mode=config.initial_mode,
        )
    except ValueError as exc:
        # the study rejects inputs it cannot run with, such as its levels or
        # a horizon it cannot step or store, before it builds any mesh
        raise ConfigError(str(exc)) from exc
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    out = _output_dir(config)
    write_convergence_csv(report, out / "convergence.csv")
    print(f"{'k':>2} {'h':>12} {'dt':>12} {'err_w':>12} {'rate_w':>7} "
          f"{'err_0':>12} {'rate_0':>7} {'err_1':>12} {'rate_1':>7}")
    for row in report.levels:
        fmt_rate = lambda r: "     --" if r is None else f"{r:7.2f}"
        print(
            f"{row.k:>2} {row.h:>12.4e} {row.dt:>12.4e} {row.err_w:>12.4e} "
            f"{fmt_rate(row.rate_w)} {row.err_x0:>12.4e} {fmt_rate(row.rate_x0)} "
            f"{row.err_x1:>12.4e} {fmt_rate(row.rate_x1)}"
        )
    return EXIT_OK


def _add_common_flags(sub):
    sub.add_argument("--preset", choices=sorted(PRESETS), help="built-in test case")
    sub.add_argument("--config", help="path to a flat JSON config file")
    sub.add_argument("--cells", type=int, help="number of mesh cells")
    sub.add_argument("--dt", type=float, help="time step")
    sub.add_argument("--t-final", dest="t_final", type=float, help="final time")
    sub.add_argument("--out", help="output directory")
    sub.add_argument(
        "--initial-mode",
        choices=("average", "sample"),
        help="initial discretization: cell averages or center samples",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oxidefv",
        description="Implicit finite-volume solver for a moving-boundary oxide layer model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the time loop, write step and profile CSVs")
    _add_common_flags(p_sim)

    p_tw = sub.add_parser("tw", help="classify the parameter regime, print the wave data")
    _add_common_flags(p_tw)

    p_energy = sub.add_parser("energy", help="run and write free-energy ledgers")
    _add_common_flags(p_energy)
    p_energy.add_argument("--phi", help="energy density name (default: all built-ins)")

    p_conv = sub.add_parser("converge", help="nested-mesh refinement study")
    _add_common_flags(p_conv)
    p_conv.add_argument("--levels", type=int, default=3, help="finest study level K (default 3)")
    p_conv.set_defaults(t_final=0.2)
    p_conv.add_argument("--ref-level", dest="ref_level", type=int, help="reference level (default K+1)")

    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "tw": _cmd_tw,
        "energy": _cmd_energy,
        "converge": _cmd_converge,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
