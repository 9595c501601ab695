"""Shared domain types: model parameters, reference mesh, time grid,
discrete states and trajectories.

All types are immutable snapshots after construction and safe to share
across threads.  The moving domain [X0(t), X1(t)] is mapped onto the fixed
reference interval [0, 1]; a state therefore carries the cell and boundary
concentrations on the reference mesh plus the interface positions.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from numbers import Integral
from typing import Union

import numpy as np

# 3-point Gauss-Legendre rule on [-1, 1], used to average profiles without
# a closed-form antiderivative.  The weights are halved, which is exact, so
# that they sum to 1: an average of finite samples cannot overflow.
_GAUSS3_NODES = np.array([-0.7745966692414834, 0.0, 0.7745966692414834])
_GAUSS3_HALF_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


@dataclass(frozen=True)
class ExponentialProfile:
    """Initial concentration profile c1 * exp(c2 * x) + c3."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"ExponentialProfile.{name} must be finite, got {value!r}")

    def __call__(self, x):
        return self.c1 * np.exp(self.c2 * np.asarray(x, dtype=float)) + self.c3

    def average(self, x_lo: float, x_hi: float) -> float:
        """Exact mean value over [x_lo, x_hi] via the antiderivative."""
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
            raise ValueError("tabulated profile needs matching x/values, at least 2 samples")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.values))):
            raise ValueError("tabulated profile samples must be finite")
        if np.any(np.diff(self.x) <= 0.0):
            raise ValueError("tabulated profile abscissae must be strictly increasing")

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.x, self.values)

    def average(self, x_lo: float, x_hi: float) -> float:
        width = x_hi - x_lo
        if width <= 0.0:
            raise ValueError("average: interval must have positive width")
        mid = 0.5 * (x_lo + x_hi)
        pts = mid + 0.5 * width * _GAUSS3_NODES
        return float(np.dot(_GAUSS3_HALF_WEIGHTS, self(pts)))

    def bounds(self, x_lo: float, x_hi: float) -> tuple[float, float]:
        xs = np.asarray(self.x)
        if x_lo < xs[0] or x_hi > xs[-1]:
            raise ValueError("tabulated profile does not cover the requested interval")
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
        for name in ("a", "b", "alpha0", "beta0", "alpha1", "beta1", "R", "L0"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"ModelParams.{name} must be strictly positive, got {value!r}")


@dataclass(frozen=True, eq=False)
class Mesh:
    """Partition of the reference interval [0, 1] into cells.

    edges has length I+1 with edges[0] = 0 and edges[-1] = 1.  centers has
    length I+2: the two boundary points 0 and 1 plus the I cell midpoints.
    cell_sizes are the I cell widths; gaps are the I+1 distances between
    consecutive centers (boundary points included), pairing each edge with
    the concentrations it connects.
    """

    edges: np.ndarray
    centers: np.ndarray
    cell_sizes: np.ndarray
    gaps: np.ndarray

    def __post_init__(self):
        for arr in (self.edges, self.centers, self.cell_sizes, self.gaps):
            arr.setflags(write=False)

    @classmethod
    def from_edges(cls, edges) -> "Mesh":
        e = np.array(edges, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise ValueError("mesh needs at least two edges")
        if not np.all(np.isfinite(e)):
            raise ValueError("mesh edges must be finite")
        if e[0] != 0.0 or e[-1] != 1.0:
            raise ValueError("mesh edges must start at 0 and end at 1")
        if np.any(np.diff(e) <= 0.0):
            raise ValueError("mesh edges must be strictly increasing")
        centers = np.concatenate(([0.0], 0.5 * (e[:-1] + e[1:]), [1.0]))
        return cls(
            edges=e,
            centers=centers,
            cell_sizes=np.diff(e),
            gaps=np.diff(centers),
        )

    @property
    def num_cells(self) -> int:
        return self.edges.size - 1


def uniform_mesh(cells: int) -> Mesh:
    """Uniform mesh of [0, 1] with the given number of cells (an integer, at least 1)."""
    if not _positive_int(cells):
        raise ValueError(f"uniform_mesh: cell count must be a positive integer, got {cells!r}")
    return Mesh.from_edges(np.linspace(0.0, 1.0, cells + 1))


def _positive_finite(value) -> bool:
    return not isinstance(value, bool) and 0.0 < value < math.inf


def _check_dt(name: str, dt, *, reciprocal: bool = True) -> None:
    """Reject with ValueError, led by name, a step size dt that is not
    positive and finite (a bool included) or, unless reciprocal is False,
    whose 1/dt overflows: the step matrix carries 1/dt."""
    if not _positive_finite(dt):
        raise ValueError(f"{name}: dt must be positive and finite, got {dt!r}")
    if reciprocal and math.isinf(1.0 / float(dt)):
        raise ValueError(f"{name}: dt {float(dt)!r} is too small: 1/dt overflows")


def _positive_int(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, Integral) and value >= 1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time discretization: n_steps steps of size dt.  The horizon
    t_final is n_steps * dt; `from_step_and_horizon` accepts a given horizon
    only when a whole number of steps meets it within 1e-12 relative."""

    dt: float
    n_steps: int

    def __post_init__(self):
        _check_dt("TimeGrid", self.dt)
        if not _positive_int(self.n_steps):
            raise ValueError(f"TimeGrid: n_steps must be a positive integer, got {self.n_steps!r}")

    @property
    def t_final(self) -> float:
        return self.n_steps * self.dt

    @classmethod
    def from_step(cls, dt: float, n_steps: int) -> "TimeGrid":
        return cls(dt=dt, n_steps=n_steps)

    @classmethod
    def from_horizon(cls, t_final: float, n_steps: int) -> "TimeGrid":
        # for an n_steps the constructor rejects, 1.0 stands in for dt
        return cls(dt=t_final / n_steps if _positive_int(n_steps) else 1.0, n_steps=n_steps)

    @classmethod
    def from_step_and_horizon(cls, dt: float, t_final: float) -> "TimeGrid":
        _check_dt("TimeGrid", dt)
        if not _positive_finite(t_final):
            raise ValueError(f"TimeGrid: t_final must be positive and finite, got {t_final!r}")
        ratio = float(t_final) / float(dt)
        if not np.isfinite(ratio):
            raise ValueError(f"the horizon {t_final!r} takes too many steps of {dt!r} to count")
        n = int(round(ratio))
        if n < 1 or abs(n * dt - t_final) > 1e-12 * max(1.0, abs(t_final)):
            raise ValueError(f"time step {dt!r} does not divide the horizon {t_final!r}")
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
        arr = np.array(self.u, dtype=float)
        if arr.ndim != 1 or arr.size < 3:
            raise ValueError("State.u must be a 1-d vector of length I+2 with I >= 1")
        # a nan propagates into both extremes
        low, high = np.minimum.reduce(arr), np.maximum.reduce(arr)
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError("State.u must be finite")
        if low < 0.0:
            raise ValueError("State.u must be nonnegative")
        if not (math.isfinite(self.L) and self.L > 0.0):
            raise ValueError("State.L must be strictly positive")
        if not (math.isfinite(self.X0) and math.isfinite(self.X1)):
            raise ValueError("State interfaces must be finite")
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


def _frame_velocity(d0, d1, dL, mesh: Mesh, dt: float, R: float):
    """(1 - R) d1/dt - xi_edge * dL/dt - d0/dt per edge, from a step's
    displacements d0 of X0 and d1 of X1 and its change dL of the width.

    Scalars give one row of edge velocities; column arrays of shape (k, 1)
    give k rows, one per step.
    """
    dX0 = d0 / dt
    dX1 = d1 / dt
    dL = dL / dt
    return (1.0 - R) * dX1 - mesh.edges * dL - dX0


def _check_rates(name: str, prev: State, nxt: State, mesh: Mesh, dt, R: float) -> np.ndarray:
    """The edge velocities of the step from prev to nxt over dt.  Raises
    ValueError, led by name, for a dt that is not positive and finite or
    that makes a velocity overflow, as every infinite rate of X0, X1 or L does."""
    _check_dt(name, dt, reciprocal=False)
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
    Raises ValueError, without a floating-point warning, for a profile that
    overflows or turns negative on [0, L0].
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
    if not np.isfinite(u).all():
        raise ValueError("initial profile must be finite on [0, L0]")
    if lo < 0.0:
        raise ValueError("initial profile must be nonnegative on [0, L0]")
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
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if stored > memory:
        raise ValueError(
            f"{rows} rows of {row_len} concentrations would store {stored} bytes, "
            f"more than the {memory} bytes of physical memory"
        )


# Trajectory diagnostics read consecutive rows in 2-D blocks of at most
# about this many entries, so their temporaries do not grow with the run
# length (project_reference reads whole coarse time slabs, at least one per
# block).  Larger blocks spend less Python overhead per step, but their
# temporaries add to the peak.  Traced peaks of TestDiagnosticsMemory's 641
# rows at I = 400, whose bound is U.nbytes / 4 = 515 KB, at 2048 / 4096 /
# 8192: build_ledger 234 / 443 / 860 KB (it keeps about 13 block-sized
# arrays alive), verify_trajectory 75 / 139 / 268 KB, project_reference
# 257 KB at all three (one slab per block).
_BLOCK_ELEMS = 4096


def step_blocks(traj: Trajectory):
    """Consecutive steps of a stored trajectory in blocks, as
    (start, U, X0, X1, L): U is the view of rows start .. start + k of
    traj.U (shape (k+1, I+2)), so the block covers the k steps that end in
    its rows 1..k; X0, X1 and L are the matching length-(k+1) views.  A
    block holds at most about _BLOCK_ELEMS entries.  A single stored state
    is yielded as one block with k = 0.
    """
    U = traj.U
    rows = max(1, _BLOCK_ELEMS // U.shape[1])
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
