import errno
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from oxidefv import (
    ExponentialProfile,
    RegimeKind,
    StepStatus,
    TabulatedProfile,
    TimeGrid,
    analysis,
    build_ledger,
    builtin_densities,
    classify,
    cli,
    run,
    scheme,
    uniform_mesh,
    wave_distance,
)
from oxidefv.cli import (
    ConfigError,
    EXIT_COLLAPSE,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    PRESETS,
    main,
    parse_config,
)
from oxidefv.formatting import format_float, write_csv
from conftest import limited_python


class TestParseConfig:
    def test_preset_testcase1(self):
        config = parse_config(json.dumps({"preset": "testcase1"}))
        p = config.params
        assert (p.a, p.b, p.alpha0, p.beta0) == (1.0, 1.0, 1.5, 1.0)
        assert (p.alpha1, p.beta1, p.R, p.L0) == (0.5, 4.0, 2.0, 1.0)
        assert config.t_final == 20.0
        assert config.cells == 100 and config.dt == 1e-2
        assert isinstance(p.u_init, ExponentialProfile)
        assert p.u_init.c2 == -0.5

    def test_preset_testcase3(self):
        config = parse_config(json.dumps({"preset": "testcase3"}))
        p = config.params
        assert (p.a, p.b, p.alpha0, p.beta0) == (1.0, 1.0, 4.0, 1.0)
        assert (p.alpha1, p.beta1, p.R, p.L0) == (3.0, 1.5, 2.0, 1.0)
        assert config.t_final == 10.0

    def test_preset_overrides(self):
        config = parse_config(json.dumps({"preset": "testcase1", "cells": 40}))
        assert config.cells == 40
        assert config.t_final == 20.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config(json.dumps({"preset": "nope"}))

    def test_negative_parameter_rejected_with_line(self):
        raw = dict(PRESETS["testcase1"])
        raw["a"] = -1.0
        text = json.dumps(raw, indent=2)
        with pytest.raises(ConfigError, match=r"line \d+.*strictly positive"):
            parse_config(text)

    def test_unknown_key_rejected_with_line(self):
        text = json.dumps({"preset": "testcase1", "bogus": 1}, indent=2)
        with pytest.raises(ConfigError, match=r"line \d+: unknown key 'bogus'"):
            parse_config(text)

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config(json.dumps({"a": 1.0}))

    def test_invalid_json_line_anchored(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config('{\n  "preset": testcase1\n}')

    def test_dt_must_divide_horizon(self):
        text = json.dumps({"preset": "testcase1", "dt": 0.3, "t_final": 1.0})
        with pytest.raises(ConfigError, match="does not divide"):
            parse_config(text)

    def test_tabulated_profile(self):
        # a full document: every model, profile, run and optional key set
        raw = dict(PRESETS["testcase1"])
        for key in ("u_init_c1", "u_init_c2", "u_init_c3"):
            raw.pop(key)
        raw["u_init_kind"] = "table"
        raw["u_init_x"] = [0.0, 0.5, 1.0]
        raw["u_init_values"] = [1.0, 2.0, 1.5]
        raw.update(initial_mode="sample", newton_tol=1e-9, out="elsewhere")
        config = parse_config(json.dumps(raw))
        assert config.params.u_init == TabulatedProfile(x=(0.0, 0.5, 1.0), values=(1.0, 2.0, 1.5))
        assert config.initial_mode.value == "sample"
        assert config.solver.newton_tol == 1e-9
        assert config.out == "elsewhere"

    @pytest.mark.parametrize("entry", ["true", '"0.5"', "NaN", "1e400", "null"])
    def test_table_entries_must_be_finite_numbers(self, entry):
        raw = dict(PRESETS["testcase1"])
        for key in ("u_init_c1", "u_init_c2", "u_init_c3"):
            raw.pop(key)
        raw.update(u_init_kind="table", u_init_x=[0.0, 0.5, 1.0], u_init_values="VALUES")
        text = json.dumps(raw, indent=2).replace('"VALUES"', f"[1.0, {entry}, 1.5]")
        line = next(i for i, row in enumerate(text.splitlines(), 1) if "u_init_values" in row)
        with pytest.raises(ConfigError, match=f"line {line}: u_init_values must be a list"):
            parse_config(text)

    def test_mixed_profile_keys_rejected(self):
        raw = dict(PRESETS["testcase1"])
        raw["u_init_x"] = [0.0, 1.0]
        with pytest.raises(ConfigError, match="not valid for an exponential"):
            parse_config(json.dumps(raw))

    def test_bad_mode_rejected(self):
        text = json.dumps({"preset": "testcase1", "initial_mode": "middle"})
        with pytest.raises(ConfigError, match="initial_mode"):
            parse_config(text)


_SOLVER_KEYS = tuple(key for key, (group, *_) in cli._KEYS.items() if group == "solver")
# JSON literals at the edge of the solver keys' types: 1e400 reads as inf
_EDGE_VALUES = ("null", "true", "2.7", '"16"', "NaN", "1e400")
# these are valid: a tolerance of 2.7, a floor below testcase1's L0 = 1 and a
# null floor (the default); a floor of 2.7 is at or above L0
_VALID_EDGES = {("newton_tol", "2.7"), ("width_floor", "null"), ("width_floor", "0.27")}


def _one_key_config(key, literal):
    return f'{{\n  "preset": "testcase1",\n  "{key}": {literal}\n}}\n'


_BOUNDARY_CASES = [
    *(
        pytest.param(_one_key_config(key, value), [], "line 3: ", id=f"{key}={value}")
        for key in _SOLVER_KEYS
        for value in _EDGE_VALUES
        if (key, value) not in _VALID_EDGES
    ),
    pytest.param(_one_key_config("dt", "1" + "0" * 400), [], "line 3: ", id="dt=10**400"),
    # exp(800 x) overflows on [0, L0]; an offset of -5 turns the profile negative
    pytest.param(_one_key_config("u_init_c2", "800.0"), [], "line 3: initial profile must be finite",
                 id="u_init_c2=800"),
    pytest.param(_one_key_config("u_init_c3", "-5.0"), [], "line 3: initial profile must be nonnegative",
                 id="u_init_c3=-5"),
    pytest.param(_one_key_config("experiment", '"converge"'), [], "line 3: unknown key",
                 id="experiment"),
    pytest.param(_one_key_config("homotopy_steps", "16"), [], "line 3: unknown key",
                 id="homotopy_steps"),
    pytest.param('{\n  "cells": 30,\n  "preset": "testcase1"\n}\n', ["--cells", "0"],
                 "--cells: ", id="--cells 0"),
]


class TestConfigBoundary:
    @pytest.mark.parametrize("text,flags,where", _BOUNDARY_CASES)
    def test_edge_input_is_config_error(self, text, flags, where, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(text)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(path), *flags, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {where}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", sorted(_VALID_EDGES))
    def test_valid_edge_is_accepted(self, key, value):
        config = parse_config(_one_key_config(key, value))
        assert getattr(config.solver, key) == json.loads(value)


class TestMain:
    def test_tw_testcase1(self, capsys):
        assert main(["tw", "--preset", "testcase1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "unique travelling wave" in out
        assert "c_hat = 0.25" in out
        assert "3.3479528" in out

    def test_python_m_oxidefv(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, path)) if path else src)
        result = subprocess.run(
            [sys.executable, "-m", "oxidefv", "tw", "--preset", "testcase1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == EXIT_OK, result.stderr
        assert "unique travelling wave" in result.stdout

    def test_tw_testcase2(self, capsys):
        assert main(["tw", "--preset", "testcase2"]) == EXIT_OK
        assert "no travelling wave" in capsys.readouterr().out

    def test_tw_equilibrium_from_config(self, tmp_path, capsys):
        cfg = {
            "a": 1.0, "b": 1.0, "alpha0": 1.0, "beta0": 1.0, "alpha1": 1.0,
            "beta1": 1.0, "R": 2.0, "L0": 1.0,
            "u_init_kind": "exp", "u_init_c1": 0.0, "u_init_c2": 0.0, "u_init_c3": 1.0,
            "cells": 10, "dt": 0.1, "t_final": 1.0,
        }
        path = tmp_path / "eq.json"
        path.write_text(json.dumps(cfg))
        assert main(["tw", "--config", str(path)]) == EXIT_OK
        assert "constant steady states" in capsys.readouterr().out

    def test_simulate_writes_deterministic_output(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        args = ["simulate", "--preset", "testcase1", "--cells", "16",
                "--t-final", "0.1"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        for name in ("steps.csv", "profile_final.csv"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2
        steps = (out1 / "steps.csv").read_text().splitlines()
        assert steps[0] == "n,t,X0,X1,L,u0,uI1,d,newton_iters,residual_inf"
        assert len(steps) == 12
        profile = (out1 / "profile_final.csv").read_text().splitlines()
        assert profile[0] == "i,xi_center,x_physical,u"
        assert len(profile) == 19
        # line n is step n; d is the wave distance of that step's state
        params = parse_config(json.dumps({"preset": "testcase1"})).params
        mesh = uniform_mesh(16)
        traj = run(params, mesh, TimeGrid.from_step_and_horizon(1e-2, 0.1))
        wave = classify(params).wave
        for n, (line, state) in enumerate(zip(steps[1:], traj.states)):
            fields = line.split(",")
            assert fields[0] == str(n)
            assert fields[7] == format_float(wave_distance(state, mesh, wave))

    def test_simulate_collapse_exit_code(self, tmp_path, capsys):
        code = main(["simulate", "--preset", "testcase2", "--out", str(tmp_path / "c")])
        assert code == EXIT_COLLAPSE
        assert "width collapsed" in capsys.readouterr().out
        steps = (tmp_path / "c" / "steps.csv").read_text().splitlines()[1:]
        assert len(steps) == 149
        # testcase2 admits no travelling wave
        assert all(line.split(",")[7] == "nan" for line in steps)

    def test_simulate_solver_failure_exit_code(self, tmp_path, capsys):
        # one Newton iteration converges no step, nor any continuation sub-step
        path = tmp_path / "one_iteration.json"
        path.write_text(json.dumps({"preset": "testcase1", "max_newton_iters": 1,
                                    "t_final": 0.05}))
        out = tmp_path / "f"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.err == "solver failed at step 1\n" and captured.out == ""
        steps = (out / "steps.csv").read_text().splitlines()
        assert steps[0] == "n,t,X0,X1,L,u0,uI1,d,newton_iters,residual_inf"
        assert len(steps) == 2 and steps[1].startswith("0,0,")

    def test_overflowing_initial_data_fails_without_warning(self, tmp_path, capsys):
        # the table's squared distance to the wave overflows: d is written
        # as inf, and pytest turns any warning into an error
        raw = dict(PRESETS["testcase1"])
        for key in ("u_init_c1", "u_init_c2", "u_init_c3"):
            raw.pop(key)
        raw.update(u_init_kind="table", u_init_x=[0.0, 1.0], u_init_values=[0.0, 1.7e308],
                   cells=100, t_final=0.05)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "h"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_SOLVER
        assert capsys.readouterr().err == "solver failed at step 1\n"
        header, row0 = (out / "steps.csv").read_text().splitlines()[:2]
        assert row0.split(",")[header.split(",").index("d")] == "inf"

    def test_energy_writes_ledger(self, tmp_path, capsys):
        code = main(["energy", "--preset", "testcase1", "--cells", "16",
                     "--t-final", "0.1", "--phi", "quadratic",
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_OK
        ledger = (tmp_path / "e" / "energy_quadratic.csv").read_text().splitlines()
        assert ledger[0] == "n,t,H,H_tot,D_bulk,D_bound"
        assert len(ledger) == 12

    def test_energy_unknown_density(self, tmp_path, capsys):
        code = main(["energy", "--preset", "testcase1", "--cells", "8",
                     "--t-final", "0.05", "--phi", "septic",
                     "--out", str(tmp_path / "e2")])
        assert code == EXIT_CONFIG

    def test_energy_unknown_density_rejected_before_running(self, tmp_path, monkeypatch, capsys):
        def no_run(config):
            raise AssertionError("the simulation ran before --phi was checked")

        monkeypatch.setattr(cli, "_run_config", no_run)
        out = tmp_path / "e3"
        code = main(["energy", "--preset", "testcase1", "--phi", "septic", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "unknown energy density 'septic'" in capsys.readouterr().err
        assert not out.exists()

    def test_converge_smoke(self, tmp_path, capsys):
        code = main(["converge", "--preset", "testcase1", "--levels", "0",
                     "--ref-level", "1", "--out", str(tmp_path / "cv")])
        assert code == EXIT_OK
        table = (tmp_path / "cv" / "convergence.csv").read_text().splitlines()
        assert table[0].startswith("k,h,dt,err_w")
        assert len(table) == 2

    @pytest.mark.parametrize("flags,levels", [([], (3, 4)), (["--levels", "1"], (1, 2))])
    def test_converge_defaults(self, flags, levels, tmp_path, monkeypatch, capsys):
        seen = {}

        def study(params, **kwargs):
            seen.update(kwargs)
            raise RuntimeError("stopped")

        monkeypatch.setattr(cli, "convergence_study", study)
        code = main(["converge", "--preset", "testcase1", *flags, "--out", str(tmp_path / "cv")])
        assert code == EXIT_SOLVER
        assert (seen["max_level"], seen["ref_level"], seen["t_final"]) == (*levels, 0.2)

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--levels", "3", "--ref-level", "2"], "ref_level must exceed max_level"),
            (["--levels", "2", "--ref-level", "2"], "ref_level must exceed max_level"),
            (["--levels", "-1"], "max_level must be at least 0, got -1"),
            (["--levels", "0", "--t-final", "nan"], "t_final must be positive and finite, got nan"),
            (["--levels", "0", "--t-final", "0"], "t_final must be positive and finite, got 0.0"),
            (["--levels", "0", "--ref-level", "1", "--t-final", "1e-310"], "1/dt overflows"),
            (["--levels", "0", "--ref-level", "600"], "gives no usable time step"),
        ],
    )
    def test_converge_bad_levels_or_horizon_is_config_error(self, flags, message, tmp_path, capsys):
        out = tmp_path / "cv"
        assert main(["converge", "--preset", "testcase1", *flags, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--levels", "0", "--ref-level", "10000000000"],
                                       ["--levels", "10000000000"]])
    def test_converge_huge_level_is_config_error(self, flags, tmp_path):
        # no power of 4 of such a level is computed: the child has 1 GB of
        # address space, in which 4**10000000000 fails with MemoryError
        result = limited_python("-m", "oxidefv", "converge", "--preset", "testcase1", *flags,
                                "--out", str(tmp_path / "cv"))
        assert result.returncode == EXIT_CONFIG, result.stderr
        assert re.match(r"config error: .*gives no usable time step", result.stderr)
        assert not (tmp_path / "cv").exists()

    def test_converge_unstorable_reference_level_is_config_error(
        self, tmp_path, monkeypatch, capsys
    ):
        # one level-0 slab of reference level 20 would hold 52M cells over
        # 1.1e12 steps
        def no_mesh(cells):
            raise AssertionError("a mesh was built for a rejected reference level")

        monkeypatch.setattr(analysis, "uniform_mesh", no_mesh)
        out = tmp_path / "cv"
        start = time.perf_counter()
        code = main(["converge", "--preset", "testcase1", "--levels", "0", "--ref-level", "20",
                     "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "physical memory" in err
        assert elapsed < 1.0
        assert not out.exists()

    def test_converge_horizon_need_not_be_a_multiple_of_dt(self, tmp_path, capsys):
        # converge builds its own grids, t_final / (10 4^k): the preset's
        # dt = 0.01 does not divide 0.123 and plays no part
        out = tmp_path / "cv"
        code = main(["converge", "--preset", "testcase1", "--levels", "0", "--ref-level", "1",
                     "--t-final", "0.123", "--out", str(out)])
        assert code == EXIT_OK
        table = (out / "convergence.csv").read_text().splitlines()
        assert len(table) == 2
        assert table[1].split(",")[2] == "0.0123"

    def test_converge_ignores_dt(self, tmp_path, capsys):
        # --dt = 0.3 does not divide the preset's horizon 20; converge uses no dt
        out = tmp_path / "cv"
        code = main(["converge", "--preset", "testcase1", "--levels", "0", "--ref-level", "1",
                     "--dt", "0.3", "--out", str(out)])
        assert code == EXIT_OK
        assert len((out / "convergence.csv").read_text().splitlines()) == 2

    def test_initial_mode_override(self, tmp_path, capsys):
        out_avg = tmp_path / "avg"
        out_smp = tmp_path / "smp"
        base = ["simulate", "--preset", "testcase1", "--cells", "8", "--t-final", "0.05"]
        assert main(base + ["--out", str(out_avg)]) == EXIT_OK
        assert main(base + ["--initial-mode", "sample", "--out", str(out_smp)]) == EXIT_OK
        # sampling vs averaging the initial profile changes the trajectory
        assert (out_avg / "steps.csv").read_text() != (out_smp / "steps.csv").read_text()

    def test_config_error_exit_code(self, capsys):
        assert main(["simulate"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/x.json"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags",
        [["--dt", "0.03"], ["--dt", "-1"], ["--t-final", "0"],
         ["--dt", "0.1", "--t-final", "0.3000000001"]],
    )
    def test_bad_time_grid_override_is_config_error(self, flags, capsys):
        assert main(["tw", "--preset", "testcase1", *flags]) == EXIT_CONFIG
        # the error names the flag that broke the grid
        assert capsys.readouterr().err.startswith(f"config error: {flags[0]}: ")

    def test_overflowing_dt_is_config_error(self, tmp_path, capsys):
        # 1/dt overflows: rejected with the time grid, before any step runs
        # and without a floating-point warning
        out = tmp_path / "tiny"
        argv = ["simulate", "--preset", "testcase1", "--cells", "20", "--dt", "1e-320",
                "--t-final", "1e-318", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "1/dt overflows" in err
        assert not out.exists()

    def test_simulate_collapse_reports_bracket(self, tmp_path, capsys):
        code = main(["simulate", "--preset", "testcase2", "--out", str(tmp_path / "c")])
        assert code == EXIT_COLLAPSE
        line = capsys.readouterr().out.strip()
        head, _, tail = line.partition("; collapse time in [")
        assert head == "width collapsed at step 149 (t = 1.49)"
        lo, hi = (float(x) for x in tail.rstrip("]").split(", "))
        assert 1.48 < lo < hi <= 1.49 and hi - lo <= 1e-12

    def test_collapse_csvs_match_the_continuation_route(self, tmp_path, monkeypatch, capsys):
        # the files written when a Newton collapse ends the run are those
        # written when the continuation is tried on that step first
        argv = ["simulate", "--preset", "testcase2", "--cells", "40"]
        assert main(argv + ["--out", str(tmp_path / "event")]) == EXIT_COLLAPSE
        # every Newton solve, the steps' and the bracket's, goes through
        # scheme._newton_step
        solve, continuation = scheme._newton_step, scheme._continuation
        tried = []

        def collapse_as_no_convergence(*args, **kwargs):
            solved = solve(*args, **kwargs)
            if solved.status is StepStatus.WIDTH_COLLAPSED:
                solved = replace(solved, status=StepStatus.NO_CONVERGENCE)
            return solved

        def counted(*args, **kwargs):
            tried.append(args)
            return continuation(*args, **kwargs)

        monkeypatch.setattr(scheme, "_newton_step", collapse_as_no_convergence)
        monkeypatch.setattr(scheme, "_continuation", counted)
        main(argv + ["--out", str(tmp_path / "continued")])
        assert len(tried) == 1
        for name in ("steps.csv", "profile_final.csv"):
            assert (tmp_path / "event" / name).read_bytes() == (
                tmp_path / "continued" / name
            ).read_bytes()


def _csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _field(value):
    return str(value) if isinstance(value, int) else format_float(value)


def _stored_run(preset, cells, t_final):
    """The config, mesh and trajectory that `simulate --preset preset --cells
    cells --t-final t_final` computes."""
    config = parse_config(json.dumps({"preset": preset, "cells": cells, "t_final": t_final}))
    mesh = uniform_mesh(cells)
    grid = TimeGrid.from_step_and_horizon(config.dt, config.t_final)
    return config, mesh, run(config.params, mesh, grid, config.solver, config.initial_mode)


# testcase1 completes; testcase2 collapses and has no wave, so d is nan
_CSV_RUNS = [
    pytest.param("testcase1", 16, 0.1, EXIT_OK, id="testcase1"),
    pytest.param("testcase2", 40, 3.5, EXIT_COLLAPSE, id="testcase2-collapse"),
]


def _reference_steps_csv(traj, mesh, params, path) -> None:
    """The steps writer as it was when `newton_iters` and `residual_inf`
    were tuples for rows 1.. of `U`, spliced behind the row-0 values."""
    newton_iters = tuple(traj.newton_iters[1:].tolist())
    residual_inf = tuple(traj.residual_inf[1:].tolist())
    regime = classify(params)
    wave = regime.wave if regime.kind is RegimeKind.UNIQUE_WAVE else None
    nan = float("nan")
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
            (0, *newton_iters),
            (nan, *residual_inf),
        ),
    )


class TestCsvFields:
    """Every field of every CSV is format_float (or str) of the value it
    was written from."""

    @pytest.mark.parametrize("preset,cells,t_final,code", _CSV_RUNS)
    def test_simulate_csvs(self, preset, cells, t_final, code, tmp_path, capsys):
        out = tmp_path / "s"
        argv = ["simulate", "--preset", preset, "--cells", str(cells),
                "--t-final", str(t_final), "--out", str(out)]
        assert main(argv) == code
        config, mesh, traj = _stored_run(preset, cells, t_final)
        wave = classify(config.params).wave if preset == "testcase1" else None

        names, rows = _csv_rows(out / "steps.csv")
        assert names == ["n", "t", "X0", "X1", "L", "u0", "uI1", "d",
                         "newton_iters", "residual_inf"]
        assert len(rows) == len(traj.states)
        for n, (row, state) in enumerate(zip(rows, traj.states)):
            d = float("nan") if wave is None else wave_distance(state, mesh, wave)
            values = (n, traj.times[n], state.X0, state.X1, state.L, state.u[0],
                      state.u[-1], d, int(traj.newton_iters[n]), traj.residual_inf[n])
            assert row == [_field(v) for v in values]
        # no solve produced the initial state
        assert rows[0][8:] == ["0", "nan"]
        if wave is None:
            assert {row[7] for row in rows} == {"nan"}

        names, rows = _csv_rows(out / "profile_final.csv")
        assert names == ["i", "xi_center", "x_physical", "u"]
        final = traj.final_state
        assert len(rows) == cells + 2
        for i, row in enumerate(rows):
            xi = mesh.centers[i]
            assert row == [_field(v) for v in (i, xi, final.X0 + final.L * xi, final.u[i])]

    @pytest.mark.parametrize("preset,cells,t_final,code", _CSV_RUNS)
    def test_steps_csv_matches_spliced_writer(self, preset, cells, t_final, code, tmp_path):
        config, mesh, traj = _stored_run(preset, cells, t_final)
        cli._write_steps_csv(traj, mesh, config.params, tmp_path / "columns.csv")
        _reference_steps_csv(traj, mesh, config.params, tmp_path / "spliced.csv")
        got = (tmp_path / "columns.csv").read_bytes()
        assert got == (tmp_path / "spliced.csv").read_bytes()
        assert got.count(b"\n") == len(traj.states) + 1

    @pytest.mark.parametrize("preset,cells,t_final,code", _CSV_RUNS)
    def test_energy_csvs(self, preset, cells, t_final, code, tmp_path, capsys):
        out = tmp_path / "e"
        argv = ["energy", "--preset", preset, "--cells", str(cells),
                "--t-final", str(t_final), "--out", str(out)]
        assert main(argv) == code
        config, mesh, traj = _stored_run(preset, cells, t_final)
        for density in builtin_densities():
            ledger = build_ledger(traj, mesh, config.params, density)
            names, rows = _csv_rows(out / f"energy_{density.name}.csv")
            assert names == ["n", "t", "H", "H_tot", "D_bulk", "D_bound"]
            assert len(rows) == len(traj.states)
            for n, row in enumerate(rows):
                values = (n, n * ledger.dt, ledger.H[n], ledger.H_tot[n],
                          ledger.D_bulk[n], ledger.D_bound[n])
                assert row == [_field(v) for v in values]
            assert rows[0][4:] == ["nan", "nan"]

    def test_convergence_csv(self, tmp_path, capsys):
        out = tmp_path / "cv"
        argv = ["converge", "--preset", "testcase1", "--levels", "1", "--ref-level", "2",
                "--t-final", "0.05", "--out", str(out)]
        assert main(argv) == EXIT_OK
        config = parse_config(json.dumps({"preset": "testcase1"}))
        report = analysis.convergence_study(
            config.params, max_level=1, ref_level=2, t_final=0.05,
            opts=config.solver, initial_mode=config.initial_mode,
        )
        names, rows = _csv_rows(out / "convergence.csv")
        assert names == ["k", "h", "dt", "err_w", "rate_w", "err_x0", "rate_x0",
                         "err_x1", "rate_x1"]
        assert len(rows) == 2
        for row, level in zip(rows, report.levels):
            values = [getattr(level, name) for name in names]
            assert row == ["" if v is None else _field(v) for v in values]
        assert rows[0][4::2] == ["", "", ""]


def _assert_config_error(code, err, *parts):
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    for part in parts:
        assert part in err


class TestCommandErrors:
    """Inputs that used to end in a traceback or after the run are config
    errors (exit 2) raised before any work."""

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_is_config_error(self, kind, tmp_path, capsys):
        path = tmp_path / "c.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"preset": "testcase1", "cells": \xff}')
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        _assert_config_error(code, capsys.readouterr().err, str(path))
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "energy", "converge"])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_that_cannot_be_a_directory_is_rejected_before_running(
        self, command, below, tmp_path, monkeypatch, capsys
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the solver ran before --out was checked")

        monkeypatch.setattr(cli, "run", no_run)
        monkeypatch.setattr(cli, "convergence_study", no_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / below if below else blocker
        code = main([command, "--preset", "testcase1", "--out", str(out)])
        _assert_config_error(code, capsys.readouterr().err,
                             f"--out: {blocker} is not a directory")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("command", ["simulate", "energy", "converge"])
    @pytest.mark.parametrize("below", ["", "missing"])
    def test_out_whose_name_is_too_long_is_config_error(self, command, below, tmp_path, capsys):
        # no file system here takes a 300-byte name: the name is rejected
        # before the run, also below a missing directory, which is not made
        out = tmp_path / below / ("x" * 300)
        flags = ["--t-final", "0.05"] if command != "converge" else [
            "--levels", "0", "--ref-level", "1", "--t-final", "0.05"]
        code = main([command, "--preset", "testcase1", "--cells", "10", *flags,
                     "--out", str(out)])
        _assert_config_error(code, capsys.readouterr().err, f"--out: cannot create {out}: ")
        assert list(tmp_path.iterdir()) == []

    def test_out_whose_name_is_too_long_in_a_config_file_names_its_line(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the solver ran before out was checked")

        monkeypatch.setattr(cli, "run", no_run)
        out = tmp_path / "missing" / ("x" * 300)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preset": "testcase1", "out": str(out)}, indent=2))
        code = main(["simulate", "--config", str(path)])
        _assert_config_error(code, capsys.readouterr().err, f"line 3: cannot create {out}: ")
        assert list(tmp_path.iterdir()) == [path]

    def test_output_dir_that_fails_late_leaves_nothing_made(self, tmp_path, monkeypatch, capsys):
        # a failure the check before the run cannot foresee, in the last
        # of three directories to be made
        mkdir = Path.mkdir

        def refuse_last(self, *args, **kwargs):
            if self.name == "c" and self.parent.is_dir():
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", refuse_last)
        out = tmp_path / "a" / "b" / "c"
        code = main(["simulate", "--preset", "testcase1", "--cells", "10", "--t-final", "0.05",
                     "--out", str(out)])
        _assert_config_error(code, capsys.readouterr().err,
                             f"cannot create output directory {out}: Permission denied")
        assert list(tmp_path.iterdir()) == []

    def test_out_in_a_config_file_names_its_line(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preset": "testcase1", "out": str(blocker)}, indent=2))
        code = main(["tw", "--config", str(path)])
        _assert_config_error(code, capsys.readouterr().err, "line 3: ")

    @pytest.mark.parametrize("command", ["simulate", "energy"])
    @pytest.mark.parametrize(
        "flags",
        [["--t-final", "1e13"], ["--cells", "100000000000", "--t-final", "0.01"]],
        ids=["long-horizon", "many-cells"],
    )
    def test_unstorable_run_is_config_error(self, command, flags, tmp_path, monkeypatch, capsys):
        def no_mesh(cells):
            raise AssertionError("a mesh was built for a run that cannot be stored")

        monkeypatch.setattr(cli, "uniform_mesh", no_mesh)
        out = tmp_path / "big"
        code = main([command, "--preset", "testcase1", *flags, "--out", str(out)])
        _assert_config_error(code, capsys.readouterr().err, "physical memory")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "tw", "energy"])
    def test_uncountable_horizon_is_config_error(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([command, "--preset", "testcase1", "--dt", "1e-300", "--t-final", "1e308",
                     "--out", str(out)])
        _assert_config_error(code, capsys.readouterr().err, "--dt: ", "too many steps")
        assert not out.exists()

    def test_tw_does_not_check_storage(self, capsys):
        assert main(["tw", "--preset", "testcase1", "--t-final", "1e13"]) == EXIT_OK

    def test_converge_config_dt_need_not_divide_its_horizon(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preset": "testcase1", "dt": 0.3, "t_final": 1.0}, indent=2))
        out = tmp_path / "cv"
        code = main(["converge", "--config", str(path), "--levels", "0", "--ref-level", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert len((out / "convergence.csv").read_text().splitlines()) == 2
        # tw and simulate still build the grid from the file's keys
        for command in ("tw", "simulate"):
            code = main([command, "--config", str(path), "--out", str(tmp_path / "s")])
            _assert_config_error(code, capsys.readouterr().err, "line 3: ", "does not divide")

    def test_converge_config_dt_must_still_be_a_finite_number(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{\n  "preset": "testcase1",\n  "dt": true\n}\n')
        out = tmp_path / "cv"
        code = main(["converge", "--config", str(path), "--levels", "0", "--ref-level", "1",
                     "--out", str(out)])
        _assert_config_error(code, capsys.readouterr().err,
                             "line 3: dt must be a finite number")
        assert not out.exists()


def _table_preset(**keys):
    """A testcase1 document that switches its profile to a table."""
    return {"preset": "testcase1", "u_init_kind": "table", **keys}


_EXP_DOCUMENT = {k: v for k, v in PRESETS["testcase1"].items() if k != "u_init_c3"}


class TestProfileKeys:
    """A preset's profile keys are its own: a document may switch the preset
    to another kind of profile, but may not set both kinds' keys itself."""

    def test_preset_takes_a_tabulated_profile(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_table_preset(u_init_x=[0, 1], u_init_values=[1, 1],
                                                 t_final=0.05)))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        names, rows = _csv_rows(out / "steps.csv")
        assert float(rows[0][names.index("u0")]) == 1.0

    @pytest.mark.parametrize(
        "raw,key,message",
        [
            (_table_preset(u_init_x=[0, 1], u_init_values=[1, 1], u_init_c1=1.0),
             "u_init_c1", "u_init_c1 is not valid for a tabulated profile"),
            ({"preset": "testcase1", "u_init_x": [0, 1]},
             "u_init_x", "u_init_x is not valid for an exponential profile"),
        ],
        ids=["table-with-exp-key", "exp-with-table-key"],
    )
    def test_both_kinds_keys_rejected_with_line(self, raw, key, message, tmp_path, capsys):
        text = json.dumps(raw, indent=2)
        line = next(i for i, row in enumerate(text.splitlines(), 1) if f'"{key}"' in row)
        assert line > 1
        path = tmp_path / "c.json"
        path.write_text(text)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        _assert_config_error(code, capsys.readouterr().err, f"line {line}: {message}")


_DOCUMENT_REJECTIONS = [
    pytest.param(json.dumps(_EXP_DOCUMENT), "line 1: missing required key 'u_init_c3'",
                 id="missing-exp-key"),
    pytest.param(json.dumps(_table_preset(u_init_x=[0, 1])),
                 "line 1: missing required key 'u_init_values'", id="missing-table-key"),
    pytest.param('{\n  "preset": "testcase1",\n  "u_init_kind": "table",\n'
                 '  "u_init_x": [0, 1, 0.5],\n  "u_init_values": [1, 1, 1]\n}\n',
                 "line 4: tabulated profile abscissae must be strictly increasing",
                 id="table-not-increasing"),
    pytest.param('{\n  "preset": "testcase1",\n  "u_init_kind": "table",\n'
                 '  "u_init_x": [0, 0.5],\n  "u_init_values": [1, 1]\n}\n',
                 "line 4: tabulated profile does not cover the requested interval",
                 id="table-short-of-L0"),
    pytest.param(_one_key_config("u_init_kind", '"gauss"'),
                 "line 3: u_init_kind must be 'exp' or 'table'", id="bad-kind"),
    pytest.param(_one_key_config("u_init_kind", '["exp"]'),
                 "line 3: u_init_kind must be 'exp' or 'table'", id="kind-a-list"),
    pytest.param(_one_key_config("u_init_kind", '{"exp": 1}'),
                 "line 3: u_init_kind must be 'exp' or 'table'", id="kind-an-object"),
    pytest.param(_one_key_config("newton_tol", "0"),
                 "line 3: newton_tol must be positive and finite", id="zero-newton-tol"),
    pytest.param(_one_key_config("out", "5"), "line 3: out must be a string",
                 id="out-not-a-string"),
    pytest.param('[{"preset": "testcase1"}]', "line 1: configuration must be a JSON object",
                 id="json-array"),
    pytest.param('{"preset": ["testcase1"]}', "line 1: preset must be a string",
                 id="preset-a-list"),
    pytest.param('{"preset": {"a": 1}}', "line 1: preset must be a string",
                 id="preset-an-object"),
    *(
        pytest.param(_one_key_config(key, "0"),
                     f"line 3: ModelParams.{key} must be strictly positive, got 0.0",
                     id=f"zero-{key}")
        for key, (group, *_) in cli._KEYS.items()
        if group == "model"
    ),
    pytest.param(_one_key_config("u_init_c1", "-1"),
                 "line 3: initial profile must be nonnegative on [0, L0]",
                 id="negative-u_init_c1"),
    pytest.param(_one_key_config("initial_mode", '"middle"'),
                 "line 3: initial_mode must be 'average' or 'sample'", id="bad-initial-mode"),
    # a time-grid error names the key of the file that broke the grid: the
    # horizon, also when the step comes from the preset
    pytest.param(_one_key_config("t_final", "0"),
                 "line 3: TimeGrid: t_final must be positive and finite, got 0.0",
                 id="zero-t_final"),
    pytest.param('{"preset": "testcase1",\n"t_final": 0.015}\n',
                 "line 2: time step 0.01 does not divide the horizon 0.015",
                 id="t_final-not-a-multiple-of-the-preset-dt"),
    # the line of a key, not of a string value that reads like it, the last
    # line of a key set twice (json keeps its last value) and the line of
    # an escaped key
    pytest.param('{"preset": "testcase1",\n  "max_newton_iters": 5,\n  "out": "cells",\n'
                 '  "cells": 0\n}\n', "line 4: cells must be at least 1",
                 id="key-after-a-value-that-names-it"),
    pytest.param('{"preset": "testcase1",\n  "max_newton_iters": 5,\n  "cells": 1,\n'
                 '  "cells": 0\n}\n', "line 4: cells must be at least 1", id="key-set-twice"),
    pytest.param('{"preset": "testcase1",\n  "max_newton_iters": 5,\n  "\\u0063ells": 0\n}\n',
                 "line 3: cells must be at least 1", id="escaped-key"),
]


def test_key_lines_are_those_of_the_top_level_keys():
    # nested values that hold braces, quotes and key names; odd spacing
    text = '{"a": {"b": [1, "}", {"c": 2}]},\n\n "c" : "\\"d\\": 1",\r\n"d":\n[],"a":2 }  \n'
    assert cli._key_lines(text) == {"a": 5, "c": 3, "d": 4}
    assert cli._key_lines(" {\n} ") == {}


def _keys_rejected(text, message):
    """The table keys a rejecting case is about: the key of the flag its
    message names, the one key an object document sets on the line it
    names, and any key the message quotes."""
    keys = set(re.findall(r"'(\w+)'", message))
    place = message.partition(":")[0]
    if place.startswith("--"):
        keys.add(place[2:].replace("-", "_"))
    elif place.startswith("line ") and isinstance(json.loads(text), dict):
        row = text.splitlines()[int(place[5:]) - 1]
        on_row = re.findall(r'"(\w+)":', row)
        keys.update(on_row if len(on_row) == 1 else ())
    return keys & set(cli._KEYS)


def test_every_key_has_a_rejection_test():
    cases = [(p.values[0], p.values[2]) for p in _BOUNDARY_CASES]
    cases += [p.values for p in _DOCUMENT_REJECTIONS]
    covered = set().union(*(_keys_rejected(text, message) for text, message in cases))
    assert set(cli._KEYS) - covered == set()


class TestRejectionPaths:
    """Each rejection of a document, and the study whose reference run
    fails, with its exit code and message; nothing is written."""

    @pytest.mark.parametrize("text,message", _DOCUMENT_REJECTIONS)
    def test_document_rejected(self, text, message, tmp_path, monkeypatch, capsys):
        # no --out: the document's own out is read
        monkeypatch.chdir(tmp_path)
        Path("c.json").write_text(text)
        code = main(["simulate", "--config", "c.json"])
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert code == EXIT_CONFIG
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_converge_reference_run_that_collapses_is_a_solver_failure(self, tmp_path, capsys):
        # testcase2's width collapses near t = 1.48, before the horizon 2
        out = tmp_path / "cv"
        code = main(["converge", "--preset", "testcase2", "--levels", "0", "--ref-level", "1",
                     "--t-final", "2.0", "--out", str(out)])
        assert capsys.readouterr().err == (
            "error: convergence_study: reference level 1 did not complete\n"
        )
        assert code == EXIT_SOLVER
        assert not out.exists()
