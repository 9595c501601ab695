import json


import numpy as np
import pytest

from oxidefv import ExponentialProfile, TabulatedProfile, cli
from oxidefv.cli import (
    ConfigError,
    EXIT_COLLAPSE,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    PRESETS,
    main,
    parse_config,
    render_config,
)


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
        raw = dict(PRESETS["testcase1"])
        for key in ("u_init_c1", "u_init_c2", "u_init_c3"):
            raw.pop(key)
        raw["u_init_kind"] = "table"
        raw["u_init_x"] = [0.0, 0.5, 1.0]
        raw["u_init_values"] = [1.0, 2.0, 1.5]
        config = parse_config(json.dumps(raw))
        assert isinstance(config.params.u_init, TabulatedProfile)

    def test_mixed_profile_keys_rejected(self):
        raw = dict(PRESETS["testcase1"])
        raw["u_init_x"] = [0.0, 1.0]
        with pytest.raises(ConfigError, match="not valid for an exponential"):
            parse_config(json.dumps(raw))

    def test_bad_mode_rejected(self):
        text = json.dumps({"preset": "testcase1", "initial_mode": "middle"})
        with pytest.raises(ConfigError, match="initial_mode"):
            parse_config(text)


class TestRoundTrip:
    def test_preset_round_trip(self):
        config = parse_config(json.dumps({"preset": "testcase2"}))
        assert parse_config(render_config(config)) == config

    def test_tabulated_round_trip(self):
        raw = dict(PRESETS["testcase1"])
        for key in ("u_init_c1", "u_init_c2", "u_init_c3"):
            raw.pop(key)
        raw.update(
            u_init_kind="table",
            u_init_x=[0.0, 0.3, 1.0],
            u_init_values=[1.0, 1.7, 1.2],
            newton_tol=1e-9,
            out="elsewhere",
        )
        config = parse_config(json.dumps(raw))
        assert parse_config(render_config(config)) == config


class TestMain:
    def test_tw_testcase1(self, capsys):
        assert main(["tw", "--preset", "testcase1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "unique travelling wave" in out
        assert "c_hat = 0.25" in out
        assert "3.3479528" in out

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

    def test_simulate_collapse_exit_code(self, tmp_path, capsys):
        code = main(["simulate", "--preset", "testcase2", "--out", str(tmp_path / "c")])
        assert code == EXIT_COLLAPSE
        assert "width collapsed" in capsys.readouterr().out
        assert (tmp_path / "c" / "steps.csv").exists()

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
        [["--dt", "0.03"], ["--dt", "-1"], ["--t-final", "0"]],
    )
    def test_bad_time_grid_override_is_config_error(self, flags, capsys):
        assert main(["tw", "--preset", "testcase1", *flags]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_overflowing_step_is_solver_failure(self, tmp_path, capsys):
        # a valid but tiny dt overflows the step matrix: exit 3, no traceback
        argv = ["simulate", "--preset", "testcase1", "--cells", "20", "--dt", "1e-320",
                "--t-final", "1e-318", "--out", str(tmp_path)]
        with np.errstate(all="ignore"):
            assert main(argv) == EXIT_SOLVER
        assert "solver failed at step 1" in capsys.readouterr().err
