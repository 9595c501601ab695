import os
import resource
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from oxidefv import ExponentialProfile, ModelParams, Termination, TerminationKind, Trajectory
from oxidefv.cli import PRESETS

# Property tests draw the same examples on every run, keep no example
# database, and set no per-example deadline that a loaded machine could miss.
settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")


def _preset_params(name: str, offset: float) -> ModelParams:
    """The model of the named cli.PRESETS entry, its exponential profile
    (a/b) exp(-R c x) shifted by offset."""
    preset = PRESETS[name]
    model = {f.name: preset[f.name] for f in fields(ModelParams) if f.name != "u_init"}
    profile = ExponentialProfile(c1=preset["u_init_c1"], c2=preset["u_init_c2"], c3=offset)
    return ModelParams(**model, u_init=profile)


def make_tc1(offset: float = 0.0) -> ModelParams:
    return _preset_params("testcase1", offset)


def make_tc2(offset: float = 0.0) -> ModelParams:
    return _preset_params("testcase2", offset)


def make_tc3(offset: float = 0.0) -> ModelParams:
    return _preset_params("testcase3", offset)


@pytest.fixture(scope="session")
def tc1() -> ModelParams:
    return make_tc1()


@pytest.fixture(scope="session")
def tc2() -> ModelParams:
    return make_tc2()


@pytest.fixture(scope="session")
def tc3() -> ModelParams:
    return make_tc3()


def trajectory_of(states, time_grid, termination=Termination(TerminationKind.COMPLETED)):
    """A trajectory holding copies of the given states' data, state k being
    the state after step k.  Its solver columns read (0, nan) at row 0, as
    run() writes them, and (1, 0.0) on every later row."""
    rows = len(states)
    newton_iters = np.ones(rows, dtype=int)
    residual_inf = np.zeros(rows)
    newton_iters[0], residual_inf[0] = 0, np.nan
    return Trajectory(
        U=np.stack([s.u for s in states]),
        X0=np.array([s.X0 for s in states], dtype=float),
        X1=np.array([s.X1 for s in states], dtype=float),
        L=np.array([s.L for s in states], dtype=float),
        time_grid=time_grid,
        termination=termination,
        newton_iters=newton_iters,
        residual_inf=residual_inf,
    )


SRC = str(Path(__file__).resolve().parent.parent / "src")
# An address-space limit for a child process: a run that would grow
# without bound fails with MemoryError instead of filling the machine.
CHILD_MEMORY = 1 << 30


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def limited_python(*args: str) -> subprocess.CompletedProcess:
    """python *args in a child process that loads oxidefv from src/, with
    at most CHILD_MEMORY bytes of address space and a 60 s timeout."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, path)) if path else SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60, preexec_fn=_limit_memory)
