"""The one value rule of the constructors: a number is a real, not a bool,
that a float holds finitely.  Every scalar field of the public constructors
and every array input is rejected with a ValueError that names it, never a
TypeError or an OverflowError, and never accepted."""

import math
import re
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from oxidefv import (
    ExponentialProfile,
    Mesh,
    ModelParams,
    SolverOptions,
    State,
    TabulatedProfile,
    TimeGrid,
    TravellingWave,
    convergence_study,
)
from oxidefv.core import InputError
from conftest import make_tc1

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
# the constructors and arguments that raise InputError, whose names the CLI
# maps to keys; the others raise a plain ValueError
INPUT_ERRORS = {ExponentialProfile, ModelParams, SolverOptions, TabulatedProfile,
                (TimeGrid, "dt"), (TimeGrid, "t_final"), ("from_horizon", "t_final")}

NOT_NUMBERS = (True, False, "1", None)
BAD = {
    FINITE: (*NOT_NUMBERS, 10**400, -10**400, math.nan, math.inf, -math.inf),
    POSITIVE: (*NOT_NUMBERS, 10**400, -10**400, math.nan, math.inf, -math.inf, 0, 0.0, -1),
    POSITIVE_INT: (*NOT_NUMBERS, math.nan, math.inf, 2.5, 1.0, 0, -1),
}


def _label(value) -> str:
    return re.sub(r"\d{400}", "10**400", repr(value))


def _field_call(cls):
    return lambda name, value: cls(**{**VALID[cls], name: value})


def _rows():
    for cls, kinds in SCALAR_FIELDS.items():
        for name, kind in kinds.items():
            for value in BAD[kind]:
                if value is None and (cls, name) in OPTIONAL:
                    continue
                yield cls, name, _field_call(cls), value
    # the horizons the time grids and the refinement study take
    calls = {
        (TimeGrid, "t_final"): lambda _, v: TimeGrid.from_step_and_horizon(0.1, v),
        ("from_horizon", "t_final"): lambda _, v: TimeGrid.from_horizon(v, 3),
        ("convergence_study", "t_final"): lambda _, v: convergence_study(make_tc1(), 0, 1, v),
    }
    for (owner, name), call in calls.items():
        for value in BAD[POSITIVE]:
            yield owner, name, call, value
    # array inputs: an integer or floating dtype, or entries that are numbers
    arrays = (["0", "0.5", "1"], [False, 0.5, True], [0.0, math.nan, 1.0], [0, 10**400, 1],
              np.array(["0", "0.5", "1"]), np.array([False, True, True]),
              np.array([0.0, math.inf, 1.0]), [[0.0, 0.5], [1.0]])
    for value in arrays:
        yield Mesh, "edges", lambda _, v: Mesh.from_edges(v), value
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


@pytest.mark.parametrize("cls", list(VALID))
def test_valid_call_accepted(cls):
    cls(**VALID[cls])


@pytest.mark.parametrize("owner, name, call, value", [pytest.param(*r, id=_id(r)) for r in ROWS])
def test_rejected_naming_the_argument(owner, name, call, value):
    # pytest.raises lets a TypeError or an OverflowError through: it fails
    with pytest.raises(ValueError) as info:
        call(name, value)
    exc = info.value
    assert name in getattr(exc, "names", ()) or re.search(rf"\b{name}\b", str(exc)), str(exc)
    if owner in INPUT_ERRORS or (owner, name) in INPUT_ERRORS:
        assert isinstance(exc, InputError)


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


def test_integer_arrays_accepted():
    edges = Mesh.from_edges(np.array([0, 1], dtype=np.int32)).edges
    assert edges.dtype == np.float64 and edges.tolist() == [0.0, 1.0]
    assert State(np.array([1, 0, 2], dtype=np.uint8), 0.0, 1.0, 1.0).u.tolist() == [1.0, 0.0, 2.0]
