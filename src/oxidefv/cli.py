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
    wave_distance,
    write_convergence_csv,
)
from .core import (
    ExponentialProfile,
    InitialMode,
    Mesh,
    ModelParams,
    TabulatedProfile,
    TerminationKind,
    TimeGrid,
    Trajectory,
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

_MODEL_KEYS = ("a", "b", "alpha0", "beta0", "alpha1", "beta1", "R", "L0")
_EXP_KEYS = ("u_init_c1", "u_init_c2", "u_init_c3")
_TABLE_KEYS = ("u_init_x", "u_init_values")
# u_init_kind -> (the profile keys it requires, those it forbids, its name in errors)
_PROFILE_KEYS = {
    "exp": (_EXP_KEYS, _TABLE_KEYS, "an exponential profile"),
    "table": (_TABLE_KEYS, _EXP_KEYS, "a tabulated profile"),
}
_RUN_KEYS = ("cells", "dt", "t_final")
_SOLVER_KEYS = ("newton_tol", "max_newton_iters", "width_floor")
_OPTIONAL_DEFAULTS = {"initial_mode": "average", "out": "out"}


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


def _key_line(text: str, key: str) -> int:
    for i, line in enumerate(text.splitlines(), start=1):
        if f'"{key}"' in line:
            return i
    return 1


def _finite_number(value) -> bool:
    # the bound rejects nan, inf and an integer too large for a float
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max)


def _expect_number(raw: dict, key: str, where) -> float:
    if not _finite_number(raw[key]):
        raise ConfigError(f"{where(key)}: {key} must be a finite number")
    return float(raw[key])


def _expect_int(raw: dict, key: str, where) -> int:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where(key)}: {key} must be an integer")
    return value


def _build_config(raw: dict, text: str, flags=(), with_horizon: bool = True) -> RunConfig:
    """Validate the merged key set.  A key in flags came from the command
    line, and its errors name the flag; any other key's errors name its line
    in text.  With with_horizon False, dt and t_final must be finite
    numbers but need not make a time grid."""

    def where(key: str) -> str:
        if key in flags:
            return "--" + key.replace("_", "-")
        return f"line {_key_line(text, key)}"

    known = {*_MODEL_KEYS, *_RUN_KEYS, *_SOLVER_KEYS, *_OPTIONAL_DEFAULTS,
             "u_init_kind", *_EXP_KEYS, *_TABLE_KEYS, "preset"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{where(key)}: unknown key {key!r}")

    given = set(raw)
    if "preset" in raw:
        name = raw["preset"]
        if name not in PRESETS:
            raise ConfigError(
                f"{where('preset')}: unknown preset {name!r}; "
                f"choose from {', '.join(sorted(PRESETS))}"
            )
        merged = dict(PRESETS[name])
        merged.update({k: v for k, v in raw.items() if k != "preset"})
        raw = merged

    for key in (*_MODEL_KEYS, *_RUN_KEYS, "u_init_kind"):
        if key not in raw:
            raise ConfigError(f"line 1: missing required key {key!r}")

    kind = raw["u_init_kind"]
    if not (isinstance(kind, str) and kind in _PROFILE_KEYS):
        raise ConfigError(f"{where('u_init_kind')}: u_init_kind must be 'exp' or 'table'")
    keys, foreign, profile_name = _PROFILE_KEYS[kind]
    for key in keys:
        if key not in raw:
            raise ConfigError(f"line 1: missing required key {key!r}")
    for key in foreign:
        if key in given:
            raise ConfigError(f"{where(key)}: {key} is not valid for {profile_name}")
    if kind == "exp":
        profile = ExponentialProfile(*(_expect_number(raw, key, where) for key in keys))
    else:
        for key in keys:
            if not (isinstance(raw[key], list) and all(map(_finite_number, raw[key]))):
                raise ConfigError(f"{where(key)}: {key} must be a list of finite numbers")
        try:
            profile = TabulatedProfile(*(tuple(map(float, raw[key])) for key in keys))
        except ValueError as exc:
            raise ConfigError(f"{where('u_init_x')}: {exc}") from exc

    model_values = {key: _expect_number(raw, key, where) for key in _MODEL_KEYS}
    try:
        params = ModelParams(u_init=profile, **model_values)
    except ValueError as exc:
        bad = next((k for k in _MODEL_KEYS if model_values[k] <= 0), _MODEL_KEYS[0])
        raise ConfigError(f"{where(bad)}: {exc}") from exc

    cells = _expect_int(raw, "cells", where)
    if cells < 1:
        raise ConfigError(f"{where('cells')}: cells must be at least 1")
    dt = _expect_number(raw, "dt", where)
    t_final = _expect_number(raw, "t_final", where)
    if with_horizon:
        try:
            TimeGrid.from_step_and_horizon(dt, t_final)
        except ValueError as exc:
            # a horizon given alone on the command line is what broke the grid
            key = "t_final" if "t_final" in flags and "dt" not in flags else "dt"
            raise ConfigError(f"{where(key)}: {exc}") from exc

    try:
        mode = InitialMode(raw.get("initial_mode", _OPTIONAL_DEFAULTS["initial_mode"]))
    except ValueError as exc:
        raise ConfigError(
            f"{where('initial_mode')}: initial_mode must be 'average' or 'sample'"
        ) from exc
    # The initial state on one cell holds the profile's end values, which
    # bound an exponential profile on [0, L0], and its mean there.  An error
    # names the first profile key the document sets.
    try:
        discretize_initial(params, Mesh.from_edges((0.0, 1.0)), mode)
    except ValueError as exc:
        raise ConfigError(f"{where(next((k for k in keys if k in given), keys[0]))}: {exc}") from exc

    # Only the keys present reach SolverOptions, so its defaults are the
    # only ones; a null width_floor is its default.
    solver_values = {}
    for key in _SOLVER_KEYS:
        if key not in raw or (key == "width_floor" and raw[key] is None):
            continue
        expect = _expect_int if key == "max_newton_iters" else _expect_number
        solver_values[key] = expect(raw, key, where)
        try:
            SolverOptions(**{key: solver_values[key]})
        except ValueError as exc:
            raise ConfigError(f"{where(key)}: {exc}") from exc
    solver = SolverOptions(**solver_values)
    if solver.resolved_floor(params) >= params.L0:
        raise ConfigError(
            f"{where('width_floor')}: width_floor {solver.width_floor!r} must be below "
            f"the initial width L0 = {params.L0!r}"
        )

    out = raw.get("out", _OPTIONAL_DEFAULTS["out"])
    if not isinstance(out, str):
        raise ConfigError(f"{where('out')}: out must be a string")
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

    return RunConfig(
        params=params,
        cells=cells,
        dt=dt,
        t_final=t_final,
        initial_mode=mode,
        solver=solver,
        out=out,
    )


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
        (range(mesh.num_cells + 2), mesh.centers, state.X0 + state.L * mesh.centers, state.u),
    )


def _write_steps_csv(traj: Trajectory, mesh, params, path) -> None:
    regime = classify(params)
    wave = regime.wave if regime.kind is RegimeKind.UNIQUE_WAVE else None
    nan = float("nan")
    # a squared distance that overflows is written as inf, without a warning
    with np.errstate(over="ignore"):
        write_csv(
            path,
            ("n", "t", "X0", "X1", "L", "u0", "uI1", "d", "newton_iters", "residual_inf"),
            (
                range(len(traj.X0)),
                traj.times,
                traj.X0,
                traj.X1,
                traj.L,
                traj.U[:, 0],
                traj.U[:, -1],
                (nan if wave is None else wave_distance(s, mesh, wave) for s in traj.states),
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
    levels = args.levels if args.levels is not None else 3
    ref_level = args.ref_level if args.ref_level is not None else levels + 1
    t_final = args.t_final if args.t_final is not None else 0.2
    if levels < 0:
        raise ConfigError(f"--levels must be at least 0, got {levels}")
    if ref_level <= levels:
        raise ConfigError(f"--ref-level must exceed --levels, got {ref_level} <= {levels}")
    if not (np.isfinite(t_final) and t_final > 0.0):
        raise ConfigError(f"--t-final must be positive and finite, got {t_final!r}")
    try:
        report = convergence_study(
            config.params,
            max_level=levels,
            ref_level=ref_level,
            t_final=t_final,
            opts=config.solver,
            initial_mode=config.initial_mode,
        )
    except ValueError as exc:
        # the study rejects inputs it cannot run with, such as a reference
        # level it cannot step or store, before it builds any mesh
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
    p_conv.add_argument("--levels", type=int, help="finest study level K (default 3)")
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
