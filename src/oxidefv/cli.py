"""Command-line interface: configuration parsing, experiment orchestration
and deterministic CSV emission.

Config files are flat JSON documents; the built-in presets testcase1/2/3
carry the standard parameter sets.  Exit codes: 0 success, 2 configuration
error, 3 solver failure, 4 width collapse (partial output is flushed).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
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
    ModelParams,
    TabulatedProfile,
    TerminationKind,
    TimeGrid,
    Trajectory,
    uniform_mesh,
)
from .energy import build_ledger, builtin_densities, write_ledger_csv
from .formatting import format_float
from .scheme import SolverOptions, run
from .waves import RegimeKind, classify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_COLLAPSE = 4

_MODEL_KEYS = ("a", "b", "alpha0", "beta0", "alpha1", "beta1", "R", "L0")
_EXP_KEYS = ("u_init_c1", "u_init_c2", "u_init_c3")
_TABLE_KEYS = ("u_init_x", "u_init_values")
_RUN_KEYS = ("cells", "dt", "t_final")
_OPTIONAL_DEFAULTS = {
    "initial_mode": "average",
    "newton_tol": 1e-10,
    "max_newton_iters": 50,
    "homotopy_steps": 16,
    "width_floor": None,
    "out": "out",
    "experiment": "simulate",
}
_EXPERIMENTS = ("simulate", "tw", "energy", "converge")


class ConfigError(ValueError):
    """Configuration problem with a line-anchored message."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description: model parameters, discretization,
    initial-data mode, solver options, output directory and experiment."""

    params: ModelParams
    cells: int
    dt: float
    t_final: float
    initial_mode: InitialMode
    solver: SolverOptions
    out: str
    experiment: str


def _wave_speed_estimate(a, b, alpha0, beta0, R):
    # Speed of the exponential reference profile used by all presets.
    return (alpha0 - beta0 * a / b) / R


def _preset(a, b, alpha0, beta0, alpha1, beta1, R, L0, t_final):
    # Every preset starts from the exponential reference profile
    # (a/b) exp(-R c x) on [0, L0].
    c_hat = _wave_speed_estimate(a, b, alpha0, beta0, R)
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


def _expect_number(raw: dict, key: str, text: str) -> float:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"line {_key_line(text, key)}: {key} must be a number")
    return float(value)


def _expect_int(raw: dict, key: str, text: str) -> int:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"line {_key_line(text, key)}: {key} must be an integer")
    return value


def _build_config(raw: dict, text: str) -> RunConfig:
    known = set(_MODEL_KEYS) | set(_RUN_KEYS) | set(_OPTIONAL_DEFAULTS) | {
        "u_init_kind",
        *_EXP_KEYS,
        *_TABLE_KEYS,
        "preset",
    }
    for key in raw:
        if key not in known:
            raise ConfigError(f"line {_key_line(text, key)}: unknown key {key!r}")

    if "preset" in raw:
        name = raw["preset"]
        if name not in PRESETS:
            raise ConfigError(
                f"line {_key_line(text, 'preset')}: unknown preset {name!r}; "
                f"choose from {', '.join(sorted(PRESETS))}"
            )
        merged = dict(PRESETS[name])
        merged.update({k: v for k, v in raw.items() if k != "preset"})
        raw = merged

    for key in (*_MODEL_KEYS, *_RUN_KEYS, "u_init_kind"):
        if key not in raw:
            raise ConfigError(f"line 1: missing required key {key!r}")

    kind = raw["u_init_kind"]
    if kind == "exp":
        for key in _EXP_KEYS:
            if key not in raw:
                raise ConfigError(f"line 1: missing required key {key!r}")
        for key in _TABLE_KEYS:
            if key in raw:
                raise ConfigError(
                    f"line {_key_line(text, key)}: {key} is not valid for an exponential profile"
                )
        profile = ExponentialProfile(
            c1=_expect_number(raw, "u_init_c1", text),
            c2=_expect_number(raw, "u_init_c2", text),
            c3=_expect_number(raw, "u_init_c3", text),
        )
    elif kind == "table":
        for key in _TABLE_KEYS:
            if key not in raw:
                raise ConfigError(f"line 1: missing required key {key!r}")
        for key in _EXP_KEYS:
            if key in raw:
                raise ConfigError(
                    f"line {_key_line(text, key)}: {key} is not valid for a tabulated profile"
                )
        try:
            profile = TabulatedProfile(
                x=tuple(float(v) for v in raw["u_init_x"]),
                values=tuple(float(v) for v in raw["u_init_values"]),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"line {_key_line(text, 'u_init_x')}: {exc}") from exc
    else:
        raise ConfigError(
            f"line {_key_line(text, 'u_init_kind')}: u_init_kind must be 'exp' or 'table'"
        )

    model_values = {key: _expect_number(raw, key, text) for key in _MODEL_KEYS}
    try:
        params = ModelParams(u_init=profile, **model_values)
    except ValueError as exc:
        bad = next(
            (k for k in _MODEL_KEYS if model_values[k] <= 0 or not np.isfinite(model_values[k])),
            _MODEL_KEYS[0],
        )
        raise ConfigError(f"line {_key_line(text, bad)}: {exc}") from exc

    cells = _expect_int(raw, "cells", text)
    if cells < 1:
        raise ConfigError(f"line {_key_line(text, 'cells')}: cells must be at least 1")
    dt = _expect_number(raw, "dt", text)
    t_final = _expect_number(raw, "t_final", text)
    try:
        TimeGrid.from_step_and_horizon(dt, t_final)
    except ValueError as exc:
        raise ConfigError(f"line {_key_line(text, 'dt')}: {exc}") from exc

    mode_raw = raw.get("initial_mode", _OPTIONAL_DEFAULTS["initial_mode"])
    try:
        mode = InitialMode(mode_raw)
    except ValueError as exc:
        raise ConfigError(
            f"line {_key_line(text, 'initial_mode')}: initial_mode must be 'average' or 'sample'"
        ) from exc

    width_floor = raw.get("width_floor", None)
    if width_floor is not None:
        if isinstance(width_floor, bool) or not isinstance(width_floor, (int, float)):
            raise ConfigError(
                f"line {_key_line(text, 'width_floor')}: width_floor must be a number or null"
            )
        width_floor = float(width_floor)
    try:
        solver = SolverOptions(
            newton_tol=float(raw.get("newton_tol", _OPTIONAL_DEFAULTS["newton_tol"])),
            max_newton_iters=int(raw.get("max_newton_iters", _OPTIONAL_DEFAULTS["max_newton_iters"])),
            homotopy_steps=int(raw.get("homotopy_steps", _OPTIONAL_DEFAULTS["homotopy_steps"])),
            width_floor=width_floor,
        )
    except ValueError as exc:
        raise ConfigError(f"line {_key_line(text, 'newton_tol')}: {exc}") from exc

    experiment = raw.get("experiment", _OPTIONAL_DEFAULTS["experiment"])
    if experiment not in _EXPERIMENTS:
        raise ConfigError(
            f"line {_key_line(text, 'experiment')}: experiment must be one of "
            f"{', '.join(_EXPERIMENTS)}"
        )
    out = raw.get("out", _OPTIONAL_DEFAULTS["out"])
    if not isinstance(out, str):
        raise ConfigError(f"line {_key_line(text, 'out')}: out must be a string")

    return RunConfig(
        params=params,
        cells=cells,
        dt=dt,
        t_final=t_final,
        initial_mode=mode,
        solver=solver,
        out=out,
        experiment=experiment,
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat JSON configuration document.

    A "preset" key selects one of the built-in test-case parameter sets;
    any other keys override the preset values.  Unknown keys and invalid
    values are rejected with line-anchored messages.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("line 1: configuration must be a JSON object")
    return _build_config(raw, text)


def render_config(config: RunConfig) -> str:
    """Canonical JSON form of a config; parse(render(c)) == c."""
    profile = config.params.u_init
    data: dict = {key: getattr(config.params, key) for key in _MODEL_KEYS}
    if isinstance(profile, ExponentialProfile):
        data["u_init_kind"] = "exp"
        data["u_init_c1"] = profile.c1
        data["u_init_c2"] = profile.c2
        data["u_init_c3"] = profile.c3
    else:
        data["u_init_kind"] = "table"
        data["u_init_x"] = list(profile.x)
        data["u_init_values"] = list(profile.values)
    data["cells"] = config.cells
    data["dt"] = config.dt
    data["t_final"] = config.t_final
    data["initial_mode"] = config.initial_mode.value
    data["newton_tol"] = config.solver.newton_tol
    data["max_newton_iters"] = config.solver.max_newton_iters
    data["homotopy_steps"] = config.solver.homotopy_steps
    data["width_floor"] = config.solver.width_floor
    data["out"] = config.out
    data["experiment"] = config.experiment
    return json.dumps(data, indent=2) + "\n"


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def _write_profile_csv(state, mesh, path) -> None:
    with open(path, "w", newline="") as f:
        f.write("i,xi_center,x_physical,u\n")
        for i in range(mesh.num_cells + 2):
            xi = mesh.centers[i]
            fields = [
                str(i),
                format_float(xi),
                format_float(state.X0 + state.L * xi),
                format_float(state.u[i]),
            ]
            f.write(",".join(fields) + "\n")


def _write_steps_csv(traj: Trajectory, mesh, params, path) -> None:
    regime = classify(params)
    wave = regime.wave if regime.kind is RegimeKind.UNIQUE_WAVE else None
    with open(path, "w", newline="") as f:
        f.write("n,t,X0,X1,L,u0,uI1,d,newton_iters,residual_inf\n")
        times = traj.times
        for i, s in enumerate(traj.states):
            n = traj.step_indices[i]
            d = wave_distance(s, mesh, wave) if wave is not None else float("nan")
            iters = traj.newton_iters[i - 1] if i >= 1 else 0
            resid = traj.residual_inf[i - 1] if i >= 1 else float("nan")
            fields = [
                str(n),
                format_float(times[i]),
                format_float(s.X0),
                format_float(s.X1),
                format_float(s.L),
                format_float(s.u[0]),
                format_float(s.u[-1]),
                format_float(d),
                str(iters),
                format_float(resid),
            ]
            f.write(",".join(fields) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _load_config(args) -> RunConfig:
    if args.config is not None:
        text = Path(args.config).read_text()
        config = parse_config(text)
    elif args.preset is not None:
        config = parse_config(json.dumps({"preset": args.preset}))
    else:
        raise ConfigError("line 1: provide --preset or --config")

    overrides = {}
    if args.cells is not None:
        overrides["cells"] = args.cells
    if args.dt is not None:
        overrides["dt"] = args.dt
    if getattr(args, "t_final", None) is not None:
        overrides["t_final"] = args.t_final
    if args.out is not None:
        overrides["out"] = args.out
    if getattr(args, "initial_mode", None) is not None:
        overrides["initial_mode"] = InitialMode(args.initial_mode)
    if overrides:
        if "dt" in overrides or "t_final" in overrides:
            try:
                TimeGrid.from_step_and_horizon(
                    overrides.get("dt", config.dt), overrides.get("t_final", config.t_final)
                )
            except ValueError as exc:
                raise ConfigError(f"line 1: {exc}") from exc
        if "cells" in overrides and overrides["cells"] < 1:
            raise ConfigError("line 1: cells must be at least 1")
        config = replace(config, **overrides)
    return config


def _run_config(config: RunConfig) -> Trajectory:
    mesh = uniform_mesh(config.cells)
    grid = TimeGrid.from_step_and_horizon(config.dt, config.t_final)
    return run(config.params, mesh, grid, config.solver, config.initial_mode)


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
        print(f"width collapsed at step {traj.termination.step} (t = {t:.6g})")
    else:
        print(f"solver failed at step {traj.termination.step}", file=sys.stderr)


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    mesh = uniform_mesh(config.cells)
    traj = _run_config(config)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
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
    mesh = uniform_mesh(config.cells)
    traj = _run_config(config)
    densities = builtin_densities()
    if args.phi is not None:
        byname = {d.name: d for d in densities}
        if args.phi not in byname:
            print(
                f"error: unknown energy density {args.phi!r}; "
                f"choose from {', '.join(sorted(byname))}",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        densities = (byname[args.phi],)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    for density in densities:
        ledger = build_ledger(traj, mesh, config.params, density)
        write_ledger_csv(ledger, out / f"energy_{density.name}.csv")
    _report_termination(traj)
    return _termination_exit(traj)


def _cmd_converge(args) -> int:
    config = _load_config(args)
    levels = args.levels if args.levels is not None else 3
    ref_level = args.ref_level if args.ref_level is not None else levels + 1
    t_final = args.t_final if args.t_final is not None else 0.2
    try:
        report = convergence_study(
            config.params,
            max_level=levels,
            ref_level=ref_level,
            t_final=t_final,
            opts=config.solver,
            initial_mode=config.initial_mode,
        )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
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


def _add_common_flags(sub, with_mode=True):
    sub.add_argument("--preset", choices=sorted(PRESETS), help="built-in test case")
    sub.add_argument("--config", help="path to a flat JSON config file")
    sub.add_argument("--cells", type=int, help="number of mesh cells")
    sub.add_argument("--dt", type=float, help="time step")
    sub.add_argument("--t-final", dest="t_final", type=float, help="final time")
    sub.add_argument("--out", help="output directory")
    if with_mode:
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
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
