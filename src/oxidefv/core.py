"""Shared domain types: model parameters, reference mesh, time grid,
discrete states and trajectories.

All types are immutable snapshots after construction and safe to share
across threads.  The moving domain [X0(t), X1(t)] is mapped onto the fixed
reference interval [0, 1]; a state therefore carries the cell and boundary
concentrations on the reference mesh plus the interface positions.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from numbers import Integral, Real
from typing import Union

import numpy as np

# 3-point Gauss-Legendre rule on [-1, 1], used to average profiles without
# a closed-form antiderivative.  The weights are halved, which is exact, so
# that they sum to 1: an average of finite samples cannot overflow.
_GAUSS3_NODES = np.array([-0.7745966692414834, 0.0, 0.7745966692414834])
_GAUSS3_HALF_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


class InputError(ValueError):
    """A ValueError about the arguments in names, most to blame first."""

    def __init__(self, message: str, *names: str):
        super().__init__(message)
        self.names = names


_FLOAT_MAX = sys.float_info.max


def _finite(value) -> bool:
    """Every constructor's rule for a number: a real, not a bool, that a float holds finitely."""
    if not isinstance(value, float):
        if isinstance(value, bool) or not isinstance(value, Real):
            return False
        if isinstance(value, np.floating):
            value = float(value)  # against a float32, the bound would overflow to inf
    return abs(value) <= _FLOAT_MAX


def _positive_finite(value) -> bool:
    return _finite(value) and value > 0


def _integer(value) -> bool:
    """The integer rule: an integral number that is not a bool."""
    return not isinstance(value, bool) and isinstance(value, Integral)


def _positive_int(value) -> bool:
    return _integer(value) and value >= 1


def _float_values(values) -> np.ndarray | None:
    """values as a float64 array, or None unless each entry is a number: an
    array by its integer or floating dtype, any other input entry by entry.
    A float64 array is returned itself, not copied, for functions that only
    read their argument."""
    if not isinstance(values, np.ndarray):
        entries = np.array(values, dtype=object)
        return entries.astype(float) if all(map(_finite, entries.flat)) else None
    if values.dtype.kind not in "iuf":
        return None
    arr = values.astype(float, copy=False)
    return arr if np.isfinite(arr).all() else None


def _check_values(where: str, name: str, values) -> np.ndarray:
    """_float_values(values), or InputError, led by where, naming name."""
    arr = _float_values(values)
    if arr is None:
        raise InputError(f"{where}: {name} must be finite", name)
    return arr


def _finite_array(values) -> np.ndarray | None:
    """A new float64 array of values, or None unless _float_values takes it."""
    arr = _float_values(values)
    return arr.copy() if arr is values else arr


def _check_fields(obj, test, must: str, *names: str) -> None:
    """Reject with InputError the first named field of obj that fails test."""
    for name in names:
        value = getattr(obj, name)
        if not test(value):
            raise InputError(f"{type(obj).__name__}.{name} must be {must}, got {value!r}", name)


def _check_args(where: str, test, must: str, **values) -> None:
    """Reject with InputError, led by where, the first of the named values that fails test."""
    for name, value in values.items():
        if not test(value):
            raise InputError(f"{where}: {name} must be {must}, got {value!r}", name)


def _check_positive(where: str, name: str, value) -> None:
    """Reject with InputError, led by where, an argument that is not a positive number."""
    _check_args(where, _positive_finite, "positive and finite", **{name: value})


@dataclass(frozen=True)
class ExponentialProfile:
    """Initial concentration profile c1 * exp(c2 * x) + c3."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        _check_fields(self, _finite, "finite", "c1", "c2", "c3")

    def __call__(self, x):
        x = _check_values("ExponentialProfile", "x", x)
        return self.c1 * np.exp(self.c2 * x) + self.c3

    def average(self, x_lo: float, x_hi: float) -> float:
        """Exact mean value over [x_lo, x_hi] via the antiderivative."""
        _check_args("ExponentialProfile.average", _finite, "finite", x_lo=x_lo, x_hi=x_hi)
        x_lo, x_hi = float(x_lo), float(x_hi)
        width = x_hi - x_lo
        if width <= 0.0:
            raise ValueError("average: interval must have positive width")
        z = self.c2 * width
        if z == 0.0:
            exp_part = self.c1 * np.exp(self.c2 * x_lo)
        else:
            # (e^{c2 x_hi} - e^{c2 x_lo}) / (c2 w) = e^{c2 x_lo} expm1(z) / z
            exp_part = self.c1 * np.exp(self.c2 * x_lo) * np.expm1(z) / z
        return float(exp_part + self.c3)

    def bounds(self, x_lo: float, x_hi: float) -> tuple[float, float]:
        """(inf, sup) over [x_lo, x_hi]; the profile is monotone."""
        _check_args("ExponentialProfile.bounds", _finite, "finite", x_lo=x_lo, x_hi=x_hi)
        x_lo, x_hi = float(x_lo), float(x_hi)
        lo = float(self(x_lo))
        hi = float(self(x_hi))
        return (min(lo, hi), max(lo, hi))


@dataclass(frozen=True)
class TabulatedProfile:
    """Piecewise-linear interpolation of sampled initial data."""

    x: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.x) != len(self.values) or len(self.x) < 2:
            raise InputError("tabulated profile needs matching x/values, at least 2 samples",
                             "x", "values")
        if _float_values(self.x) is None or _float_values(self.values) is None:
            raise InputError("tabulated profile samples must be finite", "x", "values")
        if np.any(np.diff(self.x) <= 0.0):
            raise InputError("tabulated profile abscissae must be strictly increasing", "x")

    def __call__(self, x):
        return np.interp(_check_values("TabulatedProfile", "x", x), self.x, self.values)

    def average(self, x_lo: float, x_hi: float) -> float:
        _check_args("TabulatedProfile.average", _finite, "finite", x_lo=x_lo, x_hi=x_hi)
        x_lo, x_hi = float(x_lo), float(x_hi)
        width = x_hi - x_lo
        if width <= 0.0:
            raise ValueError("average: interval must have positive width")
        mid = 0.5 * (x_lo + x_hi)
        pts = mid + 0.5 * width * _GAUSS3_NODES
        return float(np.dot(_GAUSS3_HALF_WEIGHTS, self(pts)))

    def bounds(self, x_lo: float, x_hi: float) -> tuple[float, float]:
        _check_args("TabulatedProfile.bounds", _finite, "finite", x_lo=x_lo, x_hi=x_hi)
        x_lo, x_hi = float(x_lo), float(x_hi)
        xs = np.asarray(self.x)
        if x_lo < xs[0] or x_hi > xs[-1]:
            raise InputError("tabulated profile does not cover the requested interval", "x")
        inside = (xs > x_lo) & (xs < x_hi)
        cands = np.concatenate(([self(x_lo)], np.asarray(self.values)[inside], [self(x_hi)]))
        return (float(cands.min()), float(cands.max()))


InitialProfile = Union[ExponentialProfile, TabulatedProfile]


@dataclass(frozen=True)
class ModelParams:
    """Kinetic constants, molar-volume ratio, initial width and profile.

    a, b govern the solution-side exchange flux; alpha0/beta0 the
    dissolution speed; alpha1/beta1 the oxidation speed; R is the
    Pilling-Bedworth molar-volume ratio; L0 the initial layer width.
    """

    a: float
    b: float
    alpha0: float
    beta0: float
    alpha1: float
    beta1: float
    R: float
    L0: float
    u_init: InitialProfile

    def __post_init__(self):
        _check_fields(self, _positive_finite, "strictly positive",
                      "a", "b", "alpha0", "beta0", "alpha1", "beta1", "R", "L0")


@dataclass(frozen=True, eq=False)
class Mesh:
    """Partition of the reference interval [0, 1] into cells, built from its edges.

    edges has length I+1 with edges[0] = 0 and edges[-1] = 1.  centers has
    length I+2: the two boundary points 0 and 1 plus the I cell midpoints.
    cell_sizes are the I cell widths; gaps are the I+1 distances between
    consecutive centers (boundary points included), pairing each edge with
    the concentrations it connects.  All four are read-only.
    """

    edges: np.ndarray
    centers: np.ndarray = field(init=False)
    cell_sizes: np.ndarray = field(init=False)
    gaps: np.ndarray = field(init=False)

    def __post_init__(self):
        e = _finite_array(self.edges)
        if e is None:
            raise ValueError("mesh edges must be finite")
        if e.ndim != 1 or e.size < 2:
            raise ValueError("mesh needs at least two edges")
        if e[0] != 0.0 or e[-1] != 1.0:
            raise ValueError("mesh edges must start at 0 and end at 1")
        if np.any(np.diff(e) <= 0.0):
            raise ValueError("mesh edges must be strictly increasing")
        centers = np.concatenate(([0.0], 0.5 * (e[:-1] + e[1:]), [1.0]))
        derived = dict(edges=e, centers=centers, cell_sizes=np.diff(e), gaps=np.diff(centers))
        for name, arr in derived.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_cells(self) -> int:
        return self.edges.size - 1


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def uniform_mesh(cells: int) -> Mesh:
    """Uniform mesh of [0, 1] with the given number of cells (an integer, at least 1)."""
    if not _positive_int(cells):
        raise InputError(f"uniform_mesh: cell count must be a positive integer, got {cells!r}",
                         "cells")
    memory = _physical_memory()
    if (cells + 1) * 8 > memory:
        raise InputError(f"uniform_mesh: the edges of {cells} cells need more than the "
                         f"{memory} bytes of physical memory", "cells")
    return Mesh(np.linspace(0.0, 1.0, cells + 1))


def _check_dt(name: str, dt) -> None:
    """Reject with InputError, led by name, a step size dt that is not a
    positive number or whose 1/dt overflows: the step matrix carries 1/dt."""
    _check_positive(name, "dt", dt)
    if not _finite(1.0 / float(dt)):
        raise InputError(f"{name}: dt {float(dt)!r} is too small: 1/dt overflows", "dt")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time discretization: n_steps steps of size dt.  The horizon
    t_final is n_steps * dt, which must be a finite float;
    `from_step_and_horizon` accepts a given horizon only when a whole number
    of steps meets it within 1e-12 relative."""

    dt: float
    n_steps: int

    def __post_init__(self):
        _check_dt("TimeGrid", self.dt)
        if not _positive_int(self.n_steps):
            raise ValueError(f"TimeGrid: n_steps must be a positive integer, got {self.n_steps!r}")
        # an int above the largest float does not convert to one
        if not (self.n_steps <= _FLOAT_MAX and _finite(float(self.n_steps) * float(self.dt))):
            raise InputError(f"TimeGrid: {self.n_steps!r} steps of {self.dt!r} have no finite "
                             "horizon", "n_steps", "dt")

    @property
    def t_final(self) -> float:
        return self.n_steps * self.dt

    @classmethod
    def from_step(cls, dt: float, n_steps: int) -> "TimeGrid":
        return cls(dt=dt, n_steps=n_steps)

    @classmethod
    def from_horizon(cls, t_final: float, n_steps: int) -> "TimeGrid":
        _check_positive("TimeGrid", "t_final", t_final)
        # for an n_steps the constructor rejects, 1.0 stands in for dt
        countable = _positive_int(n_steps) and n_steps <= _FLOAT_MAX
        return cls(dt=t_final / n_steps if countable else 1.0, n_steps=n_steps)

    @classmethod
    def from_step_and_horizon(cls, dt: float, t_final: float) -> "TimeGrid":
        _check_dt("TimeGrid", dt)
        _check_positive("TimeGrid", "t_final", t_final)
        ratio = float(t_final) / float(dt)
        if not _finite(ratio):
            raise InputError(f"the horizon {t_final!r} takes too many steps of {dt!r} to count",
                             "dt", "t_final")
        n = int(round(ratio))
        if n < 1 or abs(n * dt - t_final) > 1e-12 * max(1.0, abs(t_final)):
            raise InputError(f"time step {dt!r} does not divide the horizon {t_final!r}",
                             "dt", "t_final")
        return cls(dt=dt, n_steps=n)


@dataclass(frozen=True, eq=False)
class State:
    """One time level: concentrations u (length I+2, entries 0 and I+1 are
    the boundary traces), interface positions X0 and X1, and width L."""

    u: np.ndarray
    X0: float
    X1: float
    L: float

    def __post_init__(self):
        arr = _finite_array(self.u)
        if arr is None:
            raise ValueError("State.u must be finite")
        if arr.ndim != 1 or arr.size < 3:
            raise ValueError("State.u must be a 1-d vector of length I+2 with I >= 1")
        if np.minimum.reduce(arr) < 0.0:
            raise ValueError("State.u must be nonnegative")
        if not _positive_finite(self.L):
            raise ValueError("State.L must be strictly positive")
        if not (_finite(self.X0) and _finite(self.X1)):
            raise ValueError(f"State interfaces must be finite: X0 = {self.X0!r}, X1 = {self.X1!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "u", arr)

    @classmethod
    def _view(cls, u: np.ndarray, X0, X1, L) -> "State":
        """A State over the read-only row u of a trajectory, which holds
        only validated states: no copy and no checks."""
        state = object.__new__(cls)
        state.__dict__.update(u=u, X0=X0, X1=X1, L=L)
        return state

    @property
    def num_cells(self) -> int:
        return self.u.size - 2


def _frame_velocity(d0, d1, dL, mesh: Mesh, dt: float, R: float, out=None):
    """(1 - R) d1/dt - xi_edge * dL/dt - d0/dt per edge, into out if given,
    from a step's displacements d0 of X0 and d1 of X1 and its change dL of L.

    Scalars give one row of edge velocities; column arrays of shape (k, 1)
    give k rows, one per step.
    """
    dX0 = d0 / dt
    dX1 = d1 / dt
    dL = dL / dt
    v = np.multiply(mesh.edges, dL, out=out)
    np.subtract((1.0 - R) * dX1, v, out=v)
    return np.subtract(v, dX0, out=v)


def _check_rates(name: str, prev: State, nxt: State, mesh: Mesh, dt, R: float) -> np.ndarray:
    """The edge velocities of the step from prev to nxt over dt.  Raises
    ValueError, led by name, for a dt or an R that is not positive and
    finite, or a dt that makes a velocity overflow, as every infinite rate
    of X0, X1 or L does."""
    _check_positive(name, "dt", dt)
    _check_positive(name, "R", R)
    with np.errstate(over="ignore", invalid="ignore"):
        v = _frame_velocity(nxt.X0 - prev.X0, nxt.X1 - prev.X1, nxt.L - prev.L, mesh, dt, R)
    if not np.isfinite(v).all():
        raise ValueError(f"{name}: dt {float(dt)!r} is too small: the frame velocities overflow")
    return v


class InitialMode(str, Enum):
    """How the initial profile is put on the mesh: exact cell averages, or
    point samples at the cell centers (used to seed travelling waves)."""

    CELL_AVERAGE = "average"
    CENTER_SAMPLE = "sample"


def discretize_initial(
    params: ModelParams,
    mesh: Mesh,
    mode: InitialMode = InitialMode.CELL_AVERAGE,
) -> State:
    """Discretize the initial profile on [0, L0] onto the reference mesh.

    Cell averages are exact for the exponential family and 3-point Gauss
    otherwise; boundary entries are the endpoint traces in both modes.
    Raises InputError, about the profile's fields and L0, without a
    floating-point warning, for a profile that overflows or turns negative
    on [0, L0].
    """
    profile = params.u_init
    L0 = params.L0
    mode = InitialMode(mode)
    u = np.empty(mesh.num_cells + 2)
    # an overflow is reported below as the profile's error
    with np.errstate(over="ignore", invalid="ignore"):
        lo, _ = profile.bounds(0.0, L0)
        u[0] = profile(0.0)
        u[-1] = profile(L0)
        if mode is InitialMode.CELL_AVERAGE:
            phys = L0 * mesh.edges
            for i in range(mesh.num_cells):
                u[i + 1] = profile.average(phys[i], phys[i + 1])
        else:
            u[1:-1] = profile(L0 * mesh.centers[1:-1])
    names = (*(f.name for f in fields(profile)), "L0")
    if not np.isfinite(u).all():
        raise InputError("initial profile must be finite on [0, L0]", *names)
    if lo < 0.0:
        raise InputError("initial profile must be nonnegative on [0, L0]", *names)
    return State(u=u, X0=0.0, X1=L0, L=L0)


class TerminationKind(Enum):
    COMPLETED = "completed"
    WIDTH_COLLAPSED = "width_collapsed"
    SOLVER_FAILED = "solver_failed"


@dataclass(frozen=True)
class Termination:
    """Why a run ended; step is the offending step index when not completed.

    bracket is set when the width collapses at a step Newton cannot take:
    (t_lo, t_hi) with t_hi - t_lo <= 1e-10 * dt, where a shorter step from
    the last accepted state still converges at t_lo and fails at t_hi.  It
    is None otherwise, including when an accepted state reached the width
    floor.
    """

    kind: TerminationKind
    step: int | None = None
    bracket: tuple[float, float] | None = None


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Stored time levels of one run, in columns.

    U has one row of concentrations (length I+2) per time step reached:
    row n is the state after step n (row 0 the initial state).  X0, X1
    and L are the matching interface positions and widths; newton_iters
    (int) and residual_inf (float) are the iterations and the final
    residual sup-norm of the solve that produced row n, 0 and nan at row 0,
    which no solve produced.  All six are read-only.

    `states` and `final_state` present the rows as `State` objects: views
    over the rows, neither copied nor validated again (see StateRows).
    """

    U: np.ndarray
    X0: np.ndarray
    X1: np.ndarray
    L: np.ndarray
    time_grid: TimeGrid
    termination: Termination
    newton_iters: np.ndarray
    residual_inf: np.ndarray

    def __post_init__(self):
        if self.U.ndim != 2 or self.U.shape[0] < 1 or self.U.shape[1] < 3:
            raise ValueError("Trajectory.U must have shape (n, I+2) with n >= 1 and I >= 1")
        self.U.setflags(write=False)
        for col in (self.X0, self.X1, self.L, self.newton_iters, self.residual_inf):
            if col.shape != self.U.shape[:1]:
                raise ValueError(
                    "Trajectory: X0, X1, L, newton_iters and residual_inf need one entry per row of U"
                )
            col.setflags(write=False)

    @property
    def states(self) -> "StateRows":
        return StateRows(self)

    @property
    def final_state(self) -> State:
        return self.states[-1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.U.shape[0]) * self.time_grid.dt

    @property
    def completed(self) -> bool:
        return self.termination.kind is TerminationKind.COMPLETED


class StateRows(Sequence):
    """The rows of a trajectory as a read-only sequence of `State` views.
    Each view is made when it is read and is not kept, so reading the
    states of a long run adds no memory that outlives the reader."""

    __slots__ = ("_traj",)

    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self) -> int:
        return self._traj.U.shape[0]

    def __getitem__(self, index):
        t = self._traj
        if isinstance(index, slice):
            return tuple(map(State._view, t.U[index], t.X0[index], t.X1[index], t.L[index]))
        return State._view(t.U[index], t.X0[index], t.X1[index], t.L[index])

    def __iter__(self):
        t = self._traj
        return map(State._view, t.U, t.X0, t.X1, t.L)


def check_storable(cells: int, n_steps: int) -> None:
    """Reject with ValueError a run whose stored trajectory would not fit in
    the machine's physical memory: `U` holds n_steps + 1 rows of cells + 2
    doubles.  Callers check this before they build the mesh."""
    rows, row_len = n_steps + 1, cells + 2
    stored = rows * row_len * 8
    memory = _physical_memory()
    if stored > memory:
        raise ValueError(
            f"{rows} rows of {row_len} concentrations would store {stored} bytes, "
            f"more than the {memory} bytes of physical memory"
        )


# Runs hand out their steps, and trajectory diagnostics read consecutive
# rows, in 2-D blocks of at most about this many entries, so that neither
# the blocks nor the diagnostics' temporaries grow with the run length
# (project_reference reads runs of the fine rows of one coarse time step).
# Larger blocks spend less Python overhead per step, but their temporaries
# add to the peak.  Traced peaks of TestDiagnosticsMemory's 641 rows at I =
# 400, whose bound is U.nbytes / 4 = 515 KB, at 2048 / 4096 / 8192:
# build_ledger 234 / 443 / 860 KB (it keeps about 13 block-sized arrays
# alive), verify_trajectory 75 / 139 / 268 KB, project_reference onto 100
# cells and 40 steps 80 / 120 / 193 KB, and onto 50 cells and 10 steps (64
# fine rows a coarse step) 46 / 82 / 154 KB.
_BLOCK_ELEMS = 4096


def _block_steps(row_len: int) -> int:
    """The number of steps in a block of rows of row_len entries."""
    return max(1, _BLOCK_ELEMS // row_len)


def step_blocks(traj: Trajectory):
    """Consecutive steps of a stored trajectory in blocks, as
    (start, U, X0, X1, L): U is the view of rows start .. start + k of
    traj.U (shape (k+1, I+2)), so the block covers the k steps that end in
    its rows 1..k; X0, X1 and L are the matching length-(k+1) views.  A
    block holds at most about _BLOCK_ELEMS entries.  A single stored state
    is yielded as one block with k = 0.  scheme.run_blocks yields the same
    blocks while the run is stepped.
    """
    U = traj.U
    rows = _block_steps(U.shape[1])
    for start in range(0, max(U.shape[0] - 1, 1), rows):
        stop = start + rows + 1
        yield start, U[start:stop], traj.X0[start:stop], traj.X1[start:stop], traj.L[start:stop]


def row_integrals(V, L, mesh: Mesh) -> np.ndarray:
    """L_j * sum_i h_i V[j, i] for each row j of the 2-d V (one entry per
    cell) and its width L_j (a sequence or an array).

    The rows go through one stacked product of each row V[j] (1 x I) with
    the column h (I x 1).  NumPy's matmul computes a 1 x 1 result with the
    same vector dot that np.dot(h, V[j]) calls, so each entry has the bits
    of its per-row np.dot; a matrix-vector product V @ h goes through gemv
    and sums in another order."""
    h = mesh.cell_sizes
    return np.asarray(L, dtype=float) * np.matmul(V[:, None, :], h[:, None])[:, 0, 0]
