import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from oxidefv import ExponentialProfile, ModelParams, Termination, TerminationKind, Trajectory

# Property tests draw the same examples on every run, keep no example
# database, and set no per-example deadline that a loaded machine could miss.
settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")


def make_tc1(offset: float = 0.0) -> ModelParams:
    # reference profile (a/b) exp(-R c x) + offset with c = (alpha0 - beta0 a/b)/R
    return ModelParams(
        a=1.0, b=1.0, alpha0=1.5, beta0=1.0, alpha1=0.5, beta1=4.0, R=2.0, L0=1.0,
        u_init=ExponentialProfile(c1=1.0, c2=-0.5, c3=offset),
    )


def make_tc2(offset: float = 0.0) -> ModelParams:
    return ModelParams(
        a=1.75, b=1.0, alpha0=5.0, beta0=2.0, alpha1=5.0, beta1=2.0, R=2.0, L0=1.0,
        u_init=ExponentialProfile(c1=1.75, c2=-1.5, c3=offset),
    )


def make_tc3(offset: float = 0.0) -> ModelParams:
    return ModelParams(
        a=1.0, b=1.0, alpha0=4.0, beta0=1.0, alpha1=3.0, beta1=1.5, R=2.0, L0=1.0,
        u_init=ExponentialProfile(c1=1.0, c2=-3.0, c3=offset),
    )


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
