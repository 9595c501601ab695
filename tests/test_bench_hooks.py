"""The benchmark traces layers by wrapping module attributes from outside
(`perfbench/worker.py`) and reads attributes of the trajectories `run()`
returns; a refactor that drops one of those names would break the
benchmark without any test failing.  Check each name still exists."""

import importlib
import re
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
_WRAP = re.compile(r'tracer\.wrap\(\s*(\w+)\s*,\s*"(\w+)"')
_TRAJ_READ = re.compile(r"\btraj\.(\w+)")


def wrapped_names():
    if not WORKER.is_file():
        return []
    return _WRAP.findall(WORKER.read_text())


def trajectory_reads():
    if not WORKER.is_file():
        return []
    return sorted(set(_TRAJ_READ.findall(WORKER.read_text())))


def test_worker_declares_wraps():
    if not WORKER.is_file():
        pytest.skip("perfbench/worker.py is absent")
    assert len(wrapped_names()) >= 10


@pytest.mark.parametrize("module,name", wrapped_names())
def test_wrapped_name_exists(module, name):
    mod = importlib.import_module(f"oxidefv.{module}")
    assert hasattr(mod, name), f"oxidefv.{module}.{name} is traced by the benchmark but missing"


def test_worker_reads_trajectories():
    if not WORKER.is_file():
        pytest.skip("perfbench/worker.py is absent")
    assert {"states", "final_state", "newton_iters", "termination"} <= set(trajectory_reads())


@pytest.fixture(scope="module")
def small_run():
    from oxidefv import TimeGrid, run, uniform_mesh
    from conftest import make_tc1

    return run(make_tc1(), uniform_mesh(16), TimeGrid.from_step(1e-2, 3))


@pytest.mark.parametrize("attr", trajectory_reads())
def test_trajectory_read_exists(attr, small_run):
    assert hasattr(small_run, attr), f"the benchmark reads traj.{attr}, which run() does not return"
