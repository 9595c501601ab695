"""The one value rule of the package: a number is a real, not a bool, that
a float holds finitely, and an integer is an integral number, not a bool.
Every scalar field of the public constructors, every numeric parameter of
every function oxidefv exports, the argument of each exported method that
takes values and every array input is rejected with a ValueError that
names it, at the call: never a TypeError, an OverflowError, a
ZeroDivisionError or a MemoryError, and never accepted."""

import inspect
import math
import re
import sys
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

import oxidefv
from oxidefv import (
    ExponentialProfile,
    Mesh,
    ModelParams,
    SolverOptions,
    State,
    TabulatedProfile,
    TimeGrid,
    TravellingWave,
    bernoulli,
    bernoulli_prime,
    builtin_densities,
    convergence_study,
    dissipation_split,
    homotopy_solve,
    jacobian,
    mean_value_theta,
    newton_step_solve,
    residual,
    uniform_mesh,
    velocities,
    velocity_bounds,
    width_rate_bounds,
)
from oxidefv.analysis import project_time_series
from oxidefv.core import InputError, _check_values, _float_values
from oxidefv.energy import shifted_plus_squared
from conftest import limited_python, make_tc1

# A valid call of each constructor, by keyword.
VALID = {
    ExponentialProfile: dict(c1=1.0, c2=-0.5, c3=0.0),
    ModelParams: dict(a=1.0, b=1.0, alpha0=1.5, beta0=1.0, alpha1=0.5, beta1=4.0, R=2.0, L0=1.0,
                      u_init=ExponentialProfile(1.0, -0.5, 0.0)),
    TravellingWave: dict(c_hat=0.1, L_hat=1.0, u_left=1.0, decay=0.2),
    SolverOptions: dict(newton_tol=1e-10, max_newton_iters=50, width_floor=0.5),
    TimeGrid: dict(dt=0.1, n_steps=3),
    State: dict(u=np.ones(3), X0=0.0, X1=1.0, L=1.0),
}

FINITE, POSITIVE, POSITIVE_INT = "finite", "positive", "positive integer"
LEVEL, REF_LEVEL, VALUES = "level", "reference level", "values"
# What each scalar field must be.  A field that holds no scalar is checked
# by the array rows below, or by its own type's rows.
SCALAR_FIELDS = {
    ExponentialProfile: dict(c1=FINITE, c2=FINITE, c3=FINITE),
    ModelParams: dict.fromkeys(("a", "b", "alpha0", "beta0", "alpha1", "beta1", "R", "L0"),
                               POSITIVE),
    TravellingWave: dict(c_hat=FINITE, L_hat=POSITIVE, u_left=POSITIVE, decay=FINITE),
    SolverOptions: dict(newton_tol=POSITIVE, max_newton_iters=POSITIVE_INT, width_floor=POSITIVE),
    TimeGrid: dict(dt=POSITIVE, n_steps=POSITIVE_INT),
    State: dict(X0=FINITE, X1=FINITE, L=POSITIVE),
}
NOT_SCALAR = {ModelParams: {"u_init"}, State: {"u"}}
# None is width_floor's default, 1e-8 * L0
OPTIONAL = {(SolverOptions, "width_floor")}

P = make_tc1()
MESH = uniform_mesh(4)
S = State(u=np.ones(6), X0=0.0, X1=1.0, L=1.0)
QUADRATIC = builtin_densities()[0]
STEP = dict(prev=S, mesh=MESH, dt=0.1, params=P)
# A valid call, by keyword, of each exported function that takes a number,
# and of the module-level helpers the API uses.
FUNCTION_ARGS = {
    bernoulli: dict(r=0.5),
    bernoulli_prime: dict(r=0.5),
    mean_value_theta: dict(u=np.ones(3), density=QUADRATIC),
    uniform_mesh: dict(cells=4),
    velocities: dict(prev=S, nxt=S, mesh=MESH, dt=0.1, R=2.0),
    residual: dict(STEP, cand=S),
    jacobian: dict(STEP, cand=S),
    newton_step_solve: STEP,
    homotopy_solve: STEP,
    dissipation_split: dict(STEP, nxt=S, density=QUADRATIC),
    velocity_bounds: dict(params=P, m=0.5, M=1.0),
    width_rate_bounds: dict(params=P, m=0.5, M=1.0),
    convergence_study: dict(params=P, max_level=0, ref_level=1, t_final=0.02),
    project_time_series: dict(series=[1.0, 3.0], m=2),
    shifted_plus_squared: dict(center=1.0, blend=0.5),
}
# What each numeric parameter of those functions must be.
PARAMETERS = {
    bernoulli: dict(r=VALUES),
    bernoulli_prime: dict(r=VALUES),
    mean_value_theta: dict(u=VALUES),
    uniform_mesh: dict(cells=POSITIVE_INT),
    velocities: dict(dt=POSITIVE, R=POSITIVE),
    **dict.fromkeys((residual, jacobian, newton_step_solve, homotopy_solve, dissipation_split),
                    dict(dt=POSITIVE)),
    **dict.fromkeys((velocity_bounds, width_rate_bounds), dict(m=FINITE, M=FINITE)),
    convergence_study: dict(max_level=LEVEL, ref_level=REF_LEVEL, t_final=POSITIVE),
    project_time_series: dict(series=VALUES, m=POSITIVE_INT),
    shifted_plus_squared: dict(center=FINITE, blend=POSITIVE),
}
# The parameters of exported functions that take no number.
NOT_A_NUMBER = {"params", "mesh", "traj", "state", "prev", "nxt", "cand", "density", "opts",
                "initial_mode", "initial_state", "mode", "time_grid", "fine", "fine_mesh",
                "coarse_mesh", "coarse_time", "into", "wave", "report", "ledger", "path"}

WAVE = TravellingWave(**VALID[TravellingWave])
EXPONENTIAL = ExponentialProfile(**VALID[ExponentialProfile])
TABULATED = TabulatedProfile((0.0, 1.0), (1.0, 2.0))
# The exported methods that take values: an array or a number.  The density
# callables phi and phi_prime are the user's own and take what they take.
METHODS = {
    ("ConvexDensity.pi", "r"): lambda _, v: QUADRATIC.pi(v),
    ("TravellingWave.profile", "y"): lambda _, v: WAVE.profile(v),
    ("TravellingWave.profile_rescaled", "xi"): lambda _, v: WAVE.profile_rescaled(v),
    ("ExponentialProfile.__call__", "x"): lambda _, v: EXPONENTIAL(v),
    ("TabulatedProfile.__call__", "x"): lambda _, v: TABULATED(v),
}
# The exported methods that take numbers: the profiles' averages and
# bounds over [x_lo, x_hi], called by keyword with the one named replaced.
INTERVAL = dict(x_lo=0.0, x_hi=1.0)
NUMBER_METHODS = {
    (f"{type(profile).__name__}.{method}", name):
        lambda n, v, f=getattr(profile, method): f(**{**INTERVAL, n: v})
    for profile in (EXPONENTIAL, TABULATED)
    for method in ("average", "bounds")
    for name in INTERVAL
}

# the constructors, functions and arguments that raise InputError, whose
# names the CLI maps to keys; the others raise a plain ValueError
INPUT_ERRORS = {ExponentialProfile, ModelParams, SolverOptions, TabulatedProfile,
                (TimeGrid, "dt"), (TimeGrid, "t_final"), ("from_horizon", "t_final"),
                *(set(PARAMETERS) - {convergence_study}), (convergence_study, "t_final"),
                *METHODS, *NUMBER_METHODS}

NOT_NUMBERS = (True, False, "1", None)
# array inputs: an integer or floating dtype, or entries that are numbers
ARRAYS = (["0", "0.5", "1"], [False, 0.5, True], [0.0, math.nan, 1.0], [0, 10**400, 1],
          np.array(["0", "0.5", "1"]), np.array([False, True, True]),
          np.array([0.0, math.inf, 1.0]), [[0.0, 0.5], [1.0]])
BAD = {
    FINITE: (*NOT_NUMBERS, 10**400, -10**400, math.nan, math.inf, -math.inf),
    POSITIVE: (*NOT_NUMBERS, 10**400, -10**400, math.nan, math.inf, -math.inf, 0, 0.0, -1),
    POSITIVE_INT: (*NOT_NUMBERS, math.nan, math.inf, 2.5, 1.0, 0, -1),
    LEVEL: (*NOT_NUMBERS, math.nan, math.inf, 2.5, 1.0, -1),
    # above max_level 0, and at most 510: no finer level has a float step
    # count.  Far larger levels are tried in a child process below.
    REF_LEVEL: (*NOT_NUMBERS, math.nan, math.inf, 2.5, 1.0, 0, -1, 511),
    VALUES: (*NOT_NUMBERS, 10**400, math.nan, math.inf, *ARRAYS),
}


def _label(value) -> str:
    return re.sub(r"\d{400}", "10**400", repr(value))


def _field_call(cls):
    return lambda name, value: cls(**{**VALID[cls], name: value})


def _argument_call(fn):
    return lambda name, value: fn(**{**FUNCTION_ARGS[fn], name: value})


def _rows():
    for cls, kinds in SCALAR_FIELDS.items():
        for name, kind in kinds.items():
            for value in BAD[kind]:
                if value is None and (cls, name) in OPTIONAL:
                    continue
                yield cls, name, _field_call(cls), value
    for fn, kinds in PARAMETERS.items():
        for name, kind in kinds.items():
            for value in BAD[kind]:
                yield fn, name, _argument_call(fn), value
    # the horizons the time grids take
    calls = {
        (TimeGrid, "t_final"): lambda _, v: TimeGrid.from_step_and_horizon(0.1, v),
        ("from_horizon", "t_final"): lambda _, v: TimeGrid.from_horizon(v, 3),
    }
    for (owner, name), call in calls.items():
        for value in BAD[POSITIVE]:
            yield owner, name, call, value
    for (owner, name), call in METHODS.items():
        for value in BAD[VALUES]:
            yield owner, name, call, value
    for (owner, name), call in NUMBER_METHODS.items():
        for value in BAD[FINITE]:
            yield owner, name, call, value
    for value in ARRAYS:
        yield Mesh, "edges", lambda _, v: Mesh(v), value
        yield State, "u", _field_call(State), value
        for name in ("x", "values"):
            good = (0.0, 0.5, 1.0)
            yield (TabulatedProfile, name,
                   lambda n, v: TabulatedProfile(**{"x": good, "values": good, n: v}), value)


ROWS = list(_rows())


def _id(row) -> str:
    owner, name, _, value = row
    owner = owner if isinstance(owner, str) else owner.__name__
    return f"{owner}.{name}={_label(value)}"


def test_every_scalar_field_has_a_kind():
    # a new field of a constructor must be given its kind here, and so
    # rows in the table
    for cls, kinds in SCALAR_FIELDS.items():
        assert set(kinds) == {f.name for f in fields(cls)} - NOT_SCALAR.get(cls, set())
    covered = {(owner, name) for owner, name, _, _ in ROWS}
    assert {(cls, name) for cls, kinds in SCALAR_FIELDS.items() for name in kinds} <= covered


def test_every_exported_parameter_has_a_kind():
    # a new exported function, or a new parameter of one, must be given its
    # kind here, and so rows in the table, or be listed as taking no number
    exported = [fn for _, fn in inspect.getmembers(oxidefv, inspect.isfunction)]
    assert len(exported) >= 25
    for fn in exported:
        for name in inspect.signature(fn).parameters:
            assert name in PARAMETERS.get(fn, {}) or name in NOT_A_NUMBER, f"{fn.__name__}({name})"
    covered = {(owner, name) for owner, name, _, _ in ROWS}
    assert {(fn, name) for fn, kinds in PARAMETERS.items() for name in kinds} <= covered


@pytest.mark.parametrize("cls", list(VALID))
def test_valid_call_accepted(cls):
    cls(**VALID[cls])


@pytest.mark.parametrize("fn", list(FUNCTION_ARGS), ids=lambda fn: fn.__name__)
def test_valid_function_call_accepted(fn):
    fn(**FUNCTION_ARGS[fn])


@pytest.mark.parametrize("method", list(METHODS), ids=lambda key: key[0])
def test_valid_method_call_accepted(method):
    # a number, a list or an array of any real dtype: the same float64 values
    call = METHODS[method]
    expected = call(None, np.array([0.0, 0.5, 1.0]))
    for value in ([0, 0.5, 1], np.array([0.0, 0.5, 1.0], dtype=np.float32)):
        assert np.array_equal(call(None, value), expected)
    assert call(None, np.int64(1)) == call(None, 1.0) == expected[2]


@pytest.mark.parametrize("method", list(NUMBER_METHODS), ids=lambda key: f"{key[0]}-{key[1]}")
def test_valid_number_method_call_accepted(method):
    # any real number: the result of its float
    call, name = NUMBER_METHODS[method], method[1]
    value = INTERVAL[name]
    expected = call(name, value)
    for other in (np.float32(value), np.int64(value), int(value), Fraction(value)):
        assert call(name, other) == expected


@pytest.mark.parametrize("owner, name, call, value", [pytest.param(*r, id=_id(r)) for r in ROWS])
def test_rejected_naming_the_argument(owner, name, call, value):
    # pytest.raises lets a TypeError or an OverflowError through: it fails
    with pytest.raises(ValueError) as info:
        call(name, value)
    exc = info.value
    assert name in getattr(exc, "names", ()) or re.search(rf"\b{name}\b", str(exc)), str(exc)
    if owner in INPUT_ERRORS or (owner, name) in INPUT_ERRORS:
        assert isinstance(exc, InputError)


@pytest.mark.parametrize(
    "call",
    [lambda: TimeGrid(0.1, 10**400), lambda: TimeGrid.from_horizon(1.0, 10**400),
     lambda: TimeGrid(1e300, 10**10)],
    ids=["int-above-float", "from_horizon", "inf"],
)
def test_horizon_must_be_a_finite_float(call):
    # t_final = n_steps * dt would raise OverflowError or be inf
    with pytest.raises(InputError, match="have no finite horizon") as info:
        call()
    assert info.value.names == ("n_steps", "dt")


def test_largest_horizon_accepted():
    assert TimeGrid(1e300, 10**8).t_final == 1e308


@pytest.mark.parametrize("levels", ["0, 10**400", "10**10, 10**10 + 1"])
def test_huge_levels_rejected_at_once(levels):
    # in a child with 1 GB of address space, where computing 4**ref_level
    # fails with MemoryError: the study rejects the level without it
    code = (
        "import time\n"
        "from oxidefv import convergence_study\n"
        "from oxidefv.cli import parse_config\n"
        "params = parse_config('{\"preset\": \"testcase1\"}').params\n"
        "start = time.perf_counter()\n"
        "try:\n"
        f"    convergence_study(params, {levels})\n"
        "except ValueError as exc:\n"
        "    print(time.perf_counter() - start, exc)\n"
    )
    result = limited_python("-c", code)
    assert result.returncode == 0, result.stderr
    seconds, message = result.stdout.split(" ", 1)
    assert float(seconds) < 1.0
    assert "gives no usable time step: ref_level above 510" in message


def test_level_bound_is_the_last_float_step_count():
    # level 510's 10 * 4^510 steps make a grid, whose step 0.2 / 1.1e308
    # is then too small; level 511's step count is above the largest float
    assert 10 * 4**510 <= sys.float_info.max < 10 * 4**511
    with pytest.raises(ValueError, match="1/dt overflows"):
        convergence_study(P, 0, 510)


def test_overflowing_tolerance_rejected_at_construction():
    # sqrt(newton_tol) in the Newton loop would raise OverflowError
    with pytest.raises(InputError, match="newton_tol must be positive and finite"):
        SolverOptions(newton_tol=10**400)


@pytest.mark.parametrize(
    "value", [np.float64(0.5), np.float32(0.5), np.int64(1), 1, Fraction(1, 2)],
    ids=["float64", "float32", "int64", "int", "Fraction"],
)
def test_other_real_numbers_accepted(value):
    assert ModelParams(**{**VALID[ModelParams], "a": value}).a == value
    assert ExponentialProfile(value, value, value).c1 == value
    assert State(u=[value] * 3, X0=value, X1=value, L=value).u.tolist() == [float(value)] * 3
    assert TimeGrid.from_step_and_horizon(value, 2 * value).n_steps == 2
    assert bernoulli(value) == bernoulli(float(value))
    assert velocity_bounds(P, value, 2 * value) == velocity_bounds(P, float(value), 2 * float(value))


def test_integer_arrays_accepted():
    edges = Mesh(np.array([0, 1], dtype=np.int32)).edges
    assert edges.dtype == np.float64 and edges.tolist() == [0.0, 1.0]
    assert State(np.array([1, 0, 2], dtype=np.uint8), 0.0, 1.0, 1.0).u.tolist() == [1.0, 0.0, 2.0]


def test_read_only_functions_do_not_copy_a_float_array():
    # bernoulli takes the energy ledger's blocks as they are; a constructor
    # keeps a copy of its own
    u = np.ones(3)
    assert _float_values(u) is u
    assert _check_values("ConvexDensity.pi", "r", u) is u
    assert State(u, 0.0, 1.0, 1.0).u is not u
    assert Mesh(np.array([0.0, 1.0])).edges.flags.owndata
