"""The benchmark traces layers by wrapping module attributes from outside
(`perfbench/worker.py`), calls module attributes directly and reads
attributes of the trajectories `run()` returns and of the configs
`parse_config` returns; a refactor that drops one of those names would
break the benchmark without any test failing.  Check each name still
exists, and that the time loop runs the same under the benchmark's wraps."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
_WRAP = re.compile(r'tracer\.wrap\(\s*(\w+)\s*,\s*"(\w+)"')
_TRAJ_READ = re.compile(r"\btraj\.(\w+)")
_CONFIG_READ = re.compile(r"\bcfg\.(\w+)")
_MODULES = ("analysis", "cli", "core", "energy", "scheme")


def wrapped_names():
    if not WORKER.is_file():
        return []
    return _WRAP.findall(WORKER.read_text())


def module_reads():
    """(module, name) for each `<module>.<name>` the worker's code reads,
    directly or through an attribute (`case.scheme.run`).  The worker's
    metric names ("scheme.newton") are strings, not reads, and are skipped."""
    if not WORKER.is_file():
        return []
    reads = set()
    for node in ast.walk(ast.parse(WORKER.read_text())):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name):
            module = base.id
        elif isinstance(base, ast.Attribute):
            module = base.attr
        else:
            continue
        if module in _MODULES:
            reads.add((module, node.attr))
    return sorted(reads)


def trajectory_reads():
    if not WORKER.is_file():
        return []
    return sorted(set(_TRAJ_READ.findall(WORKER.read_text())))


def config_reads():
    if not WORKER.is_file():
        return []
    return sorted(set(_CONFIG_READ.findall(WORKER.read_text())))


def test_worker_declares_wraps():
    if not WORKER.is_file():
        pytest.skip("perfbench/worker.py is absent")
    assert len(wrapped_names()) >= 10


@pytest.mark.parametrize("module,name", wrapped_names())
def test_wrapped_name_exists(module, name):
    mod = importlib.import_module(f"oxidefv.{module}")
    assert hasattr(mod, name), f"oxidefv.{module}.{name} is traced by the benchmark but missing"


def test_worker_reads_modules():
    if not WORKER.is_file():
        pytest.skip("perfbench/worker.py is absent")
    assert {("cli", "_write_steps_csv"), ("core", "discretize_initial"),
            ("scheme", "run")} <= set(module_reads())


@pytest.mark.parametrize("module,name", module_reads())
def test_module_read_exists(module, name):
    mod = importlib.import_module(f"oxidefv.{module}")
    assert hasattr(mod, name), f"oxidefv.{module}.{name} is called by the benchmark but missing"


def test_worker_reads_trajectories():
    if not WORKER.is_file():
        pytest.skip("perfbench/worker.py is absent")
    assert {"states", "final_state", "newton_iters", "termination"} <= set(trajectory_reads())


@pytest.fixture(scope="module")
def small_run():
    from oxidefv import TimeGrid, run, uniform_mesh
    from conftest import make_tc1

    return run(make_tc1(), uniform_mesh(16), TimeGrid.from_step(1e-2, 3))


def test_diagnostics_call_traced_names_through_the_module(small_run, monkeypatch):
    # The benchmark times refine's diagnostics by replacing
    # analysis.project_reference, and traces analysis.mass_balance_defects,
    # energy.free_energy and energy.bernoulli by wrapping these module
    # attributes: the diagnostics must look them up there.
    from oxidefv import analysis, energy, uniform_mesh
    from conftest import make_tc1

    counts = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((analysis, "project_reference"), (analysis, "mass_balance_defects"),
                         (energy, "free_energy"), (energy, "bernoulli")):
        count(module, name)
    params, mesh = make_tc1(), uniform_mesh(16)
    # one projection of the reference onto level 0 in each of its 10 slabs
    analysis.convergence_study(params, max_level=0, ref_level=1, t_final=0.02)
    assert counts == {"project_reference": 10}
    analysis.verify_trajectory(small_run, mesh, params)
    assert counts["mass_balance_defects"] == 1
    # the ledger's three steps are one block: B(w) and B(-w) once each
    energy.build_ledger(small_run, mesh, params, energy.builtin_densities()[0])
    assert counts == {"project_reference": 10, "mass_balance_defects": 1, "free_energy": 1,
                      "bernoulli": 2}


@pytest.mark.parametrize("attr", trajectory_reads())
def test_trajectory_read_exists(attr, small_run):
    assert hasattr(small_run, attr), f"the benchmark reads traj.{attr}, which run() does not return"


def test_worker_reads_config():
    if not WORKER.is_file():
        pytest.skip("perfbench/worker.py is absent")
    assert {"params", "cells", "dt", "t_final", "initial_mode", "solver"} <= set(config_reads())


@pytest.mark.parametrize("attr", config_reads())
def test_config_read_exists(attr):
    from oxidefv.cli import parse_config

    config = parse_config('{"preset": "testcase1"}')
    assert hasattr(config, attr), f"the benchmark reads cfg.{attr}, which parse_config does not return"


def test_run_under_the_benchmark_wraps(monkeypatch):
    # The traced benchmark replaces the names declare_wraps lists, among
    # them scheme.State, with wrappers; the time loop, its continuation,
    # the collapse and its bisection must run the same under them.
    # declare_wraps wraps scheme.solve_banded, whose access imports scipy.
    pytest.importorskip("scipy.linalg")
    if not WORKER.is_file():
        pytest.skip("perfbench/worker.py is absent")
    from types import SimpleNamespace

    from oxidefv import TerminationKind, TimeGrid, analysis, cli, energy, scheme, uniform_mesh
    from conftest import make_tc2

    monkeypatch.syspath_prepend(str(WORKER.parent))
    worker = importlib.import_module("worker")
    params, mesh, grid = make_tc2(), uniform_mesh(50), TimeGrid.from_step_and_horizon(0.25, 5.0)
    want = scheme.run(params, mesh, grid)
    tracer = worker.Tracer()
    worker.declare_wraps(
        tracer, SimpleNamespace(scheme=scheme, energy=energy, analysis=analysis, cli=cli)
    )
    tracer.install()
    try:
        got = scheme.run(params, mesh, grid)
    finally:
        tracer.uninstall()
    assert got.termination == want.termination
    assert got.termination.kind is TerminationKind.WIDTH_COLLAPSED
    assert got.termination.step == 6 and got.termination.bracket is not None
    for name in ("U", "X0", "X1", "L", "newton_iters", "residual_inf"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert [span[0] for span in tracer.take()] == ["scheme.run"]
