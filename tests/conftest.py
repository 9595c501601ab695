import pytest
from hypothesis import settings

from oxidefv import ExponentialProfile, ModelParams

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
