"""Fully implicit time stepping of the moving-boundary scheme.

Each step solves a nonlinear system of length I+4 in the unknowns (u_0,
..., u_{I+1}, d0, d1): the concentrations and the displacements of the two
interfaces from the previous state.  The width is L = L_prev + (d1 - d0),
so it closes by construction, and the stored positions are X0_prev + d0
and X1_prev + d1.  The rows are I interior balances with exponential-fitting
two-point fluxes, the two boundary flux conditions and the two interface
motion laws.  No row or Jacobian entry reads an absolute position, so a
step's u, L and work do not depend on where the layer lies.  A _StepSystem
holds the constants of steps on one mesh and the buffers that each
iterate's assembly and block solve overwrite; rebase() poses it from a
previous state and a step size.  The time loop builds one per block of
steps, and that system serves every solve of the block: each step's
Newton solve, the continuation's sub-steps and the collapse bisection's
probes, each rebased on its previous state and its step size.  The
public solvers build one per call.  Its one assembly of the residual and
the bordered-banded Jacobian, and its one block solve, are shared by
Newton, the continuation and jacobian(): all three work on the scheme
itself.  Every solve returns one record, an _Outcome.  The solvers check
dt and the previous state's cell count once, on entry; the time loop
checks them once per run.

Damped Newton iteration with the analytic Jacobian does the work.  Once a
full undamped iteration of the scheme moves the iterate by at most
sqrt(newton_tol), the next iteration is a confirmation: it evaluates the
residual alone and solves with the factors of that iteration (a simplified
Newton step), and usually ends the solve at full Newton's iteration count.
The fallback is a continuation in the step size: it solves the scheme
over growing sub-steps of the step, each Newton solve starting at the
previous sub-step's solution, and halves a sub-step that fails.

One rule decides every solve's outcome, a step's, a sub-step's or a
bisection probe's: _newton accepts its end point only when the scheme's
residual there is at most _STALL_RESIDUAL, the width is above the floor
and the moved positions are finite.  So the continuation walks through
solutions of the scheme only, and the time loop stores the end points
unchecked: the rule implies State's checks.
"""

from __future__ import annotations

import ctypes
import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.linalg import _umath_linalg

# bernoulli and bernoulli_prime are uncalled here; the benchmark's tracer
# wraps them.
from .bernoulli import _bernoulli_pair, bernoulli, bernoulli_prime  # noqa: F401
from .core import (
    InitialMode,
    InputError,
    Mesh,
    ModelParams,
    State,
    Termination,
    TerminationKind,
    TimeGrid,
    Trajectory,
    _block_steps,
    _check_dt,
    _check_rates,
    _frame_velocity,
    _positive_finite,
    _positive_int,
    discretize_initial,
)

# At rest (d0 = d1 = 0, so L = prev.L) w = 0 on every edge: the kernel's
# rows (B(w), B(-w)) and their derivatives there, 1 and -1/2 exactly,
# broadcast over the edges.
_REST_B, _REST_DB = _bernoulli_pair(np.zeros((2, 1)))
_REST_B.flags.writeable = _REST_DB.flags.writeable = False

# The continuation first splits the step into this many sub-steps; each
# failed sub-step doubles the count, up to HOMOTOPY_MAX_STEPS.
HOMOTOPY_FIRST_STEPS = 16
HOMOTOPY_MAX_STEPS = 1024
# A converged Newton point must also satisfy the equations to this residual
# sup-norm; otherwise the iteration merely stalled (e.g. pinned at the
# width floor during a collapse).
_STALL_RESIDUAL = 1e-6
_MAX_HALVINGS = 30
# The collapse time is bracketed to this fraction of the time step.
_COLLAPSE_BRACKET_RTOL = 1e-10


def _lapack_dgtsv():
    """LAPACK's dgtsv, with 64-bit integers, from the OpenBLAS that numpy's
    linalg is linked with: numpy 2 wheels export it as scipy_dgtsv_64_,
    numpy 1.x wheels as dgtsv_64_.  Looked up through _umath_linalg, whose
    dependencies hold it.  Each of its eight arguments is an address, which
    a step system passes as a plain int."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for name in ("scipy_dgtsv_64_", "dgtsv_64_"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = [ctypes.c_void_p] * 8
            fn.restype = None
            return fn
    raise ImportError(
        "oxidefv solves its band with LAPACK's dgtsv from numpy's bundled OpenBLAS, "
        f"but {_umath_linalg.__file__} exports neither scipy_dgtsv_64_ nor dgtsv_64_"
    )


dgtsv = _lapack_dgtsv()


def __getattr__(name):
    # The benchmark's tracer wraps scheme.solve_banded, which nothing here
    # calls, so scipy is imported on that access alone.  ROADMAP item 14,
    # counters inside run() in place of the tracer's wraps, deletes this.
    if name == "solve_banded":
        from scipy.linalg import solve_banded

        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _address(a: np.ndarray) -> int:
    """The address of a C-contiguous, writable array's first element."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


@dataclass(frozen=True)
class SolverOptions:
    """Newton controls and the width floor.

    width_floor None means 1e-8 * L0, resolved per problem.
    """

    newton_tol: float = 1e-10
    max_newton_iters: int = 50
    width_floor: float | None = None

    def __post_init__(self):
        if not _positive_finite(self.newton_tol):
            raise InputError("newton_tol must be positive and finite", "newton_tol")
        if not _positive_int(self.max_newton_iters):
            raise InputError("max_newton_iters must be an integer of at least 1",
                             "max_newton_iters")
        if self.width_floor is not None and not _positive_finite(self.width_floor):
            raise InputError("width_floor must be positive and finite", "width_floor")

    def resolved_floor(self, params: ModelParams) -> float:
        return self.width_floor if self.width_floor is not None else 1e-8 * params.L0


class StepStatus(Enum):
    CONVERGED = "converged"
    NO_CONVERGENCE = "no_convergence"
    WIDTH_COLLAPSED = "width_collapsed"


@dataclass(frozen=True)
class StepResult:
    """Outcome of one nonlinear solve: the new state on success, the
    iteration count, and a residual sup-norm: the end point's when the
    iteration reached one (converged or out of iterations), otherwise the
    last residual evaluated.

    iterations counts every Newton iteration: the full ones and the
    residual-only confirmations (at most one per full iteration).  A
    continuation's iterations count every correction of every sub-step,
    the failed ones included.  A state is given exactly when the status is
    CONVERGED; ValueError otherwise."""

    state: State | None
    status: StepStatus
    iterations: int
    residual_inf: float

    def __post_init__(self):
        if (self.state is not None) != (self.status is StepStatus.CONVERGED):
            raise ValueError(f"StepResult: a {self.status.value} solve with state {self.state!r}")


@dataclass(frozen=True, slots=True)
class _Outcome:
    """Outcome of one solve of a step system, Newton's or the
    continuation's: the accepted end point end = (u, d0, d1), or None, and
    the rest of the solve's StepResult.  The public solvers make it a
    StepResult; the time loop writes its end point to the step's row."""

    end: tuple | None
    status: StepStatus
    iterations: int
    residual_inf: float


# A State's fields without its checks: the time loop's levels, each the
# initial state or an end point _newton accepted (see _newton).
_Level = namedtuple("_Level", "u X0 X1 L")


def velocities(prev: State, nxt: State, mesh: Mesh, dt: float, R: float) -> np.ndarray:
    """Edge velocities of the moving frame mapped onto [0, 1], one per edge:
    (1 - R) d[X1] - xi_edge * d[L] - d[X0], with d[f] = (f_next - f_prev)/dt.

    They are affine in the edge coordinate, so consecutive differences
    telescope to -d[L] * h_i exactly.  Raises ValueError for a dt that is
    not positive and finite or that makes a velocity overflow.
    """
    return _check_rates("velocities", prev, nxt, mesh, dt, R)


# ---------------------------------------------------------------------------
# The step system: residual, bordered-banded Jacobian, block solve
# ---------------------------------------------------------------------------


class _StepSystem:
    """The step system over a step size dt on one mesh, posed from a
    previous state prev and assembled at each iterate (u, d0, d1).

    Built once per (mesh, params): 1 - R and the motion laws'
    coefficients, the buffers that each iterate overwrites and the views
    into them that the iteration reads.  rebase(prev, dt) poses the step
    from prev over dt: it refreshes prev.L, prev.L * prev.u[1:-1] and
    prev's positions, drops the factors kept for resolve(), and refreshes
    the constants of dt (edges/dt, the motion laws' 2x2 block and the edge
    velocities at rest) only when dt changes.  The constructor rebases on
    its prev and dt.  The time loop builds one system per block of steps,
    and it serves every solve of the block: each step's Newton solve, the
    continuation's sub-steps and the collapse bisection's probes.

    The buffers hold the edge fields (L*h, the velocities, the stacked
    Peclet arguments (w, -w), the fluxes and their derivatives in (d0,
    d1)), the increment, and the block solve's column-major buffer with the
    addresses dgtsv takes into it.  The I+2 concentration rows are permuted
    (left flux condition, interior balances, right flux condition).  That
    buffer holds their tridiagonal u-block in the (1, 1) banded layout
    (band: superdiagonal, diagonal, subdiagonal rows, LAPACK's DU, D and DL
    with DU shifted one entry right), three right-hand sides (rhs): the
    residual column, then the border, their (d0, d1) columns, and three
    scratch columns that a copy of the band takes before each dgtsv, which
    overwrites it.  The last two rows are the motion laws: c0 is the X0
    law's coefficient on u_0, c1 the X1 law's on u_{I+1}, and block the 2x2
    block of both in (d0, d1), row by row.
    """

    def __init__(self, prev: State, mesh: Mesh, dt: float, params: ModelParams):
        self.mesh, self.params = mesh, params
        self.cells = cells = mesh.num_cells
        m = cells + 2
        edges = m - 1
        self._one_minus_R = 1.0 - params.R
        self.c0, self.c1 = params.beta0, -params.beta1
        # (-1, 1 - R): dF's columns before the division by dt, times Nw
        self._dF_signs = np.array((-1.0, self._one_minus_R))
        # (h, -h) per cell: the balances' L * u term in the border, both
        # signs.  It and hu_dt are column-major, as the border is, so that
        # each operation on them runs down the columns.
        self._h_pm = h_pm = np.empty((cells, 2), order="F")
        h_pm[:, 0] = mesh.cell_sizes
        np.negative(mesh.cell_sizes, out=h_pm[:, 1])
        self._prev_mass = np.empty(cells)

        # the edges over dt; the edge fields of the last iterate; scratch of
        # a concentration row, and its first I+1 entries for an edge row
        self._edges_dt = np.empty(edges)
        self._Lh, self._v, self._F, self._Nw, self._dF_L = np.empty((5, edges))
        self._tmp_u = np.empty(m)
        self._tmp = self._tmp_u[:edges]
        self._F_right, self._F_left = self._F[1:], self._F[:-1]
        self._Nw_col = self._Nw[:, None]
        self._w = np.empty(2 * edges)
        self._w_pos, self._w_neg = self._w[:edges], self._w[edges:]
        self._dF = dF = np.empty((edges, 2), order="F")
        self._dF0, self._dF1 = dF.T
        self._dF_next, self._dF_prev, self._dF_ends = dF[1:], dF[:-1], dF[::cells]
        self._hu_dt = np.empty((cells, 2), order="F")
        # the increment, and its concentration part
        self._delta = np.empty(m + 2)
        self._du = self._delta[:m]

        self._buf = buf = np.zeros((m, 9), order="F")
        self.band = band = buf[:, :3].T
        self.rhs = rhs = buf[:, 3:6]
        self.border = border = buf[:, 4:6]
        self._band_copy = buf[:, 6:].T
        self._system_cols = buf[:, :6]
        self._diag = band[1, 1 : cells + 1]
        # band rows 0 and 2 as one (2, I+1) view, -B/(L h) on each edge:
        # the superdiagonal's entries 1..I+1 and the subdiagonal's 0..I
        row, step = band.strides
        self._off = off = np.lib.stride_tricks.as_strided(
            band[0, 1:], shape=(2, edges), strides=(2 * row - step, step)
        )
        self._off_inner = (off[1, 1:], off[0, :-1])
        self._inner = border[1 : cells + 1]
        self._border_ends = border[:: cells + 1]
        self._y, self._y_inner = rhs[:, 0], rhs[1 : cells + 1, 0]
        self._Y0, self._Y1 = border.T
        self._Y_ends = border[:: m - 1]
        # dgtsv's integers N (also LDB), NRHS and INFO, and its arguments:
        # DL, D and DU in the scratch copy of the band, B in rhs
        self._ints = ints = np.array((m, 3, 0), dtype=np.int64)
        p, q, col = _address(buf.T), _address(ints), 8 * m
        self._dgtsv_args = (
            q, q + 8, p + 8 * col, p + 7 * col, p + 6 * col + 8, p + 3 * col, q, q + 16
        )
        self.dt = None
        self.rebase(prev, dt)

    def rebase(self, prev: State | _Level, dt: float) -> None:
        """Pose the step from prev over dt: prev's width, masses and
        positions, the constants of dt when dt changes, and no factors for
        resolve() until the next solve()."""
        if dt != self.dt:
            self.dt = dt
            np.divide(self.mesh.edges, dt, out=self._edges_dt)
            self.block = (1.0 / dt, -self._one_minus_R / dt, 0.0, 1.0 / dt)
            self._rest_v = _frame_velocity(0.0, 0.0, 0.0, self.mesh, dt, self.params.R)
        self.prev = prev
        self._L_prev = float(prev.L)
        np.multiply(prev.L, prev.u[1:-1], out=self._prev_mass)
        self._X0_prev, self._X1_prev = float(prev.X0), float(prev.X1)
        # the Schur matrix of the last solve(), for resolve()
        self._kept = None

    def width(self, d0, d1) -> float:
        """The width prev.L + (d1 - d0) at the displacements (d0, d1)."""
        return self._L_prev + (d1 - d0)

    def positions(self, d0, d1) -> tuple:
        """(X0, X1, L) at the displacements (d0, d1): prev's positions moved
        by them, and the width."""
        return self._X0_prev + d0, self._X1_prev + d1, self.width(d0, d1)

    def result(self, outcome: _Outcome) -> StepResult:
        """The StepResult of a solve from prev: the State of its end point
        holds prev's positions moved by the displacements."""
        state = None
        if outcome.end is not None:
            u, d0, d1 = outcome.end
            X0, X1, L = self.positions(d0, d1)
            state = State(u=u, X0=X0, X1=X1, L=L)
        return StepResult(state, outcome.status, outcome.iterations, outcome.residual_inf)

    def _fields(self, u, d0, d1, L, prime: bool):
        """Write L*h, the velocities and the fluxes of the iterate to their
        buffers, with Peclet arguments w = L*h*v, and return the velocities,
        the Bernoulli weights and their derivatives (None unless prime), as
        rows (B(w), B(-w)) and likewise.  One kernel call evaluates the
        stacked (w, -w); none at rest."""
        Lh = self._Lh
        np.multiply(L, self.mesh.gaps, out=Lh)
        if d0 == 0.0 and d1 == 0.0:
            v, B, dB = self._rest_v, _REST_B, _REST_DB
        else:
            v = _frame_velocity(d0, d1, d1 - d0, self.mesh, self.dt, self.params.R, out=self._v)
            np.multiply(Lh, v, out=self._w_pos)
            np.negative(self._w_pos, out=self._w_neg)
            B, dB = _bernoulli_pair(self._w, prime)
            B = B.reshape(2, -1)
            if prime:
                dB = dB.reshape(2, -1)
        F, tmp = self._F, self._tmp
        np.multiply(B[1], u[:-1], out=F)
        np.multiply(B[0], u[1:], out=tmp)
        np.subtract(F, tmp, out=F)
        np.divide(F, Lh, out=F)
        return v, B, dB

    def _residual_rows(self, u, d0, d1, L):
        """The residual at (u, d0, d1) from the fluxes in their buffer."""
        params, dt = self.params, self.dt
        cells = self.cells
        F = self._F
        r = np.empty(cells + 4)
        balance = r[:cells]
        np.multiply(L, u[1:-1], out=balance)
        np.subtract(balance, self._prev_mass, out=balance)
        np.multiply(self.mesh.cell_sizes, balance, out=balance)
        np.divide(balance, dt, out=balance)
        np.add(balance, self._F_right, out=balance)
        np.subtract(balance, self._F_left, out=balance)
        u_first, u_last = u.item(0), u.item(-1)
        r[cells] = F.item(0) - params.a + params.b * u_first
        r[cells + 1] = F.item(-1)
        r[cells + 2] = (
            d0 / dt - params.alpha0 + params.beta0 * u_first - self._one_minus_R * d1 / dt
        )
        r[cells + 3] = d1 / dt + params.alpha1 - params.beta1 * u_last
        return r

    def residual(self, u, d0, d1) -> np.ndarray:
        """Residual of the scheme at (u, d0, d1), without the Jacobian: the
        kernel evaluates B alone."""
        L = self.width(d0, d1)
        self._fields(u, d0, d1, L, prime=False)
        return self._residual_rows(u, d0, d1, L)

    def assemble(self, u, d0, d1) -> np.ndarray:
        """Residual r of the scheme at (u, d0, d1), with its Jacobian
        written to band and border from one evaluation of the edge
        fields.

        Each rewrite of a term holds exactly in IEEE arithmetic, the sign
        of a zero included: a product or quotient with one factor negated
        is the negated product, and x - (-y) is x + y."""
        dt = self.dt
        L = self.width(d0, d1)
        v, B, dB = self._fields(u, d0, d1, L, prime=True)
        r = self._residual_rows(u, d0, d1, L)

        # The u-block.  Each edge flux has dF/du_left = B(-w)/L*h and
        # dF/du_right = -B(w)/L*h; off holds -B/L*h for both rows of B, the
        # superdiagonal's -B(w)/L*h and the subdiagonal's -B(-w)/L*h.
        off, band = self._off, self.band
        np.divide(B, self._Lh, out=off)
        np.negative(off, out=off)
        band[1, 0] = self.params.b - off.item(1, 0)
        diag = self._diag
        np.multiply(self.mesh.cell_sizes, L, out=diag)
        np.divide(diag, dt, out=diag)
        for term in self._off_inner:
            # adds dF/du_left of the cell's right edge, then subtracts
            # dF/du_right of its left edge
            np.subtract(diag, term, out=diag)
        band[1, self.cells + 1] = off.item(0, -1)
        # the right flux condition's entry is dF/du_left itself
        band[2, self.cells] = -off.item(1, -1)

        # The border.  Nw is dF/dw times L*h and dF_L is dF/dL.  L moves
        # with d1 - d0, so dF holds dF/dd0 = -Nw/dt - dF_L and dF/dd1 =
        # (1 - R) Nw/dt + dF_L.
        Nw, dF_L, tmp = self._Nw, self._dF_L, self._tmp
        np.multiply(dB[1], u[:-1], out=Nw)
        np.negative(Nw, out=Nw)
        np.multiply(dB[0], u[1:], out=tmp)
        np.subtract(Nw, tmp, out=Nw)
        np.divide(v, L, out=dF_L)
        np.subtract(dF_L, self._edges_dt, out=dF_L)
        np.multiply(Nw, dF_L, out=dF_L)
        np.divide(self._F, L, out=tmp)
        np.subtract(dF_L, tmp, out=dF_L)
        dF = self._dF
        np.multiply(self._Nw_col, self._dF_signs, out=dF)
        np.divide(dF, dt, out=dF)
        np.subtract(self._dF0, dF_L, out=self._dF0)
        np.add(self._dF1, dF_L, out=self._dF1)
        # the balances' L * u term moves with d1 - d0 as well: hu_dt holds
        # (h u/dt, -h u/dt) per cell
        np.copyto(self._border_ends, self._dF_ends)
        inner, hu_dt = self._inner, self._hu_dt
        np.subtract(self._dF_next, self._dF_prev, out=inner)
        np.multiply(self._h_pm, u[1:-1, None], out=hu_dt)
        np.divide(hu_dt, dt, out=hu_dt)
        np.subtract(inner, hu_dt, out=inner)
        return r

    def solve(self, r) -> np.ndarray:
        """Newton increment -J^{-1} r of the assembled system by block
        elimination: one tridiagonal LAPACK solve (dgtsv) of the
        concentration block for the residual and the border, then the 2x2
        Schur complement in (d0, d1) in closed form.  Raises LinAlgError
        when the system is singular or not finite; an increment that
        overflows is returned as it is, for the caller to check.  The
        increment is the system's buffer, which the next solve() or
        resolve() overwrites."""
        self._kept = None
        self._load(r)
        if not np.isfinite(self._system_cols).all():
            raise np.linalg.LinAlgError("non-finite bordered system")
        self._band_solve(3)
        (y00, y01), (y10, y11) = self._Y_ends.tolist()
        a, b, c, d = self.block
        S = (a - self.c0 * y00, b - self.c0 * y01, c - self.c1 * y10, d - self.c1 * y11)
        delta = self._schur_step(r, self._y, S)
        self._kept = S
        return delta

    def resolve(self, r) -> np.ndarray:
        """Simplified Newton increment -J^{-1} r, with J the Jacobian of the
        last successful solve() since the last rebase(): one dgtsv of its
        band on the residual alone, its solved border and its Schur matrix.
        Raises RuntimeError when there is no such solve()."""
        if self._kept is None:
            raise RuntimeError("resolve() needs a successful solve() of this step first")
        y = self._y
        self._load(r)
        if not np.isfinite(y).all():
            raise np.linalg.LinAlgError("non-finite residual")
        self._band_solve(1)
        return self._schur_step(r, y, self._kept)

    def _load(self, r):
        """-r's concentration rows into rhs' residual column, in the band's
        row order."""
        cells, y = self.cells, self._y
        y[0] = -r[cells]
        np.negative(r[:cells], out=self._y_inner)
        y[cells + 1] = -r[cells + 1]

    def _band_solve(self, nrhs: int):
        """dgtsv on a copy of the band, in place on the first nrhs columns
        of rhs; the band itself stays for resolve()."""
        ints = self._ints
        ints[1] = nrhs
        np.copyto(self._band_copy, self.band)
        dgtsv(*self._dgtsv_args)
        info = ints.item(2)
        if info > 0:
            raise np.linalg.LinAlgError("singular band")
        if info < 0:
            raise ValueError(f"dgtsv: illegal value in argument {-info}")
        # an overflow in the solution reaches the increment, which the
        # caller checks

    def _schur_step(self, r, y, S):
        """The increment, written to the system's buffer, from the band
        solution y of the residual, the solved border and the Schur matrix
        S = (s00, s01, s10, s11), row by row.  Cramer's rule solves it,
        which for two unknowns is forward stable (Higham, Accuracy and
        Stability of Numerical Algorithms, 2002, sec. 1.10.1).  Raises
        LinAlgError when S's determinant is zero or not finite."""
        s00, s01, s10, s11 = S
        det = s00 * s11 - s01 * s10
        if not (det != 0.0 and math.isfinite(det)):
            raise np.linalg.LinAlgError("singular Schur complement")
        b0 = -r.item(-2) - self.c0 * y.item(0)
        b1 = -r.item(-1) - self.c1 * y.item(-1)
        z0 = (b0 * s11 - s01 * b1) / det
        z1 = (s00 * b1 - s10 * b0) / det
        # y - Y0 z0 - Y1 z1 for the concentrations, then (z0, z1)
        delta, du, tmp = self._delta, self._du, self._tmp_u
        np.multiply(self._Y0, z0, out=du)
        np.subtract(y, du, out=du)
        np.multiply(self._Y1, z1, out=tmp)
        np.subtract(du, tmp, out=du)
        delta[-2] = z0
        delta[-1] = z1
        return delta

    def dense_jacobian(self) -> np.ndarray:
        """The assembled matrix solve() inverts, with its rows in residual
        order."""
        band = self.band
        m = band.shape[1]
        J = np.zeros((m + 2, m + 2))
        J[:m, :m] = np.diag(band[1]) + np.diag(band[0, 1:], 1) + np.diag(band[2, :-1], -1)
        J[:m, m:] = self.border
        J[m:, m:] = np.reshape(self.block, (2, 2))
        J[m, 0] = self.c0
        J[m + 1, m - 1] = self.c1
        # undo the row permutation: residual rows 0..I-1 are the interior balances
        return J[np.r_[1 : m - 1, 0, m - 1 : m + 2]]


def _check_step(name: str, prev: State, mesh: Mesh, dt) -> None:
    """Reject with ValueError a step the step system cannot hold: a dt that
    _check_dt rejects, or a prev whose cell count is not the mesh's."""
    _check_dt(name, dt)
    if prev.num_cells != mesh.num_cells:
        raise ValueError(
            f"{name}: prev has {prev.num_cells} cells, the mesh {mesh.num_cells}"
        )


def residual(prev: State, cand: State, mesh: Mesh, dt: float, params: ModelParams) -> np.ndarray:
    """Stacked residual of the implicit step, length I+4: the I interior
    balances, the left and right flux conditions and the two interface
    motion laws, at cand.u and the displacements d0 = cand.X0 - prev.X0 and
    d1 = cand.X1 - prev.X1.  The width is prev.L + (d1 - d0), so cand.L is
    not read.  A root defines the next state."""
    _check_step("residual", prev, mesh, dt)
    system = _StepSystem(prev, mesh, dt, params)
    return system.residual(cand.u, float(cand.X0 - prev.X0), float(cand.X1 - prev.X1))


def jacobian(prev: State, cand: State, mesh: Mesh, dt: float, params: ModelParams) -> np.ndarray:
    """Analytic Jacobian of residual() w.r.t. (u_0..u_{I+1}, d0, d1), a
    tridiagonal concentration core bordered by two dense rows/columns."""
    _check_step("jacobian", prev, mesh, dt)
    system = _StepSystem(prev, mesh, dt, params)
    system.assemble(cand.u, float(cand.X0 - prev.X0), float(cand.X1 - prev.X1))
    return system.dense_jacobian()


# ---------------------------------------------------------------------------
# Damped Newton and the continuation fallback
# ---------------------------------------------------------------------------


def _damped_substep(u, L, du, dL, floor):
    """Step fraction keeping the width above the floor and the
    concentrations nonnegative: fraction-to-the-boundary backoff, never
    closer than 0.5% to a constraint and never smaller than
    2^-_MAX_HALVINGS.  Returns (fraction, width_blocked) or
    (None, width_blocked) when fully stalled.

    A fraction t <= 0.995 u_i / -du_i for every du_i < 0 leaves u_i + t du_i
    >= 0.005 u_i up to the roundings of the quotient and the update, which
    cannot take it below 0.  So from a nonnegative state every corrected
    iterate, Newton's or the continuation's, is nonnegative: no
    concentration needs clipping."""
    t_width = np.inf
    if dL < 0.0:
        t_width = (L - floor) / (-dL)
    neg = du < 0.0
    # min(u / -du) as -max(u / du), negation being exact; inf when no du < 0.
    # A du below u / 1.8e308, as tiny sub-steps give, overflows the quotient
    # to -inf (silently, under _newton's errstate), which leaves that entry
    # unconstrained as it should.  Only the entries with du < 0 are divided
    # and reduced; the others of the new array are left unset.
    quotient = np.divide(u, du, out=None, where=neg)
    t_pos = -float(np.maximum.reduce(quotient, where=neg, initial=-np.inf))
    t = min(1.0, 0.995 * t_width, 0.995 * t_pos)
    width_blocked = t < 1.0 and t_width <= t_pos
    if t <= 2.0**-_MAX_HALVINGS:
        return None, width_blocked
    return t, width_blocked


def _sup_norm(r) -> float:
    """|r|_inf, or inf when r is not finite."""
    norm = float(np.maximum.reduce(np.abs(r)))
    return norm if norm < np.inf else np.inf


def _newton(system: _StepSystem, start, opts, floor) -> _Outcome:
    """Damped Newton on the step system from start = (u, d0, d1), and the
    one acceptance rule of every solve: the solve's _Outcome.

    The end point is accepted only when the iteration converged, the
    scheme's residual there is at most _STALL_RESIDUAL, the width is above
    the floor and the moved positions are finite.  Otherwise the outcome is
    WIDTH_COLLAPSED when damping stalled at the width floor, or when a
    converged end point misses the residual within 10 floors or lies at or
    below the floor; it is NO_CONVERGENCE in every other case.

    An accepted end point passes State's checks, so the time loop stores it
    unchecked.  Damping keeps u nonnegative (_damped_substep).  With L >
    floor > 0, a finite residual makes u finite (each u_i sits in a balance
    or a flux condition), d0 and d1 finite (the motion laws hold d0/dt and
    d1/dt) and L finite (an infinite L makes L u_i, u_i >= 0, inf or nan).
    Only the moved positions can still overflow, so they are checked.

    A full undamped iteration whose increment is at most sqrt(newton_tol)
    is followed by a confirmation: a simplified Newton iteration that
    evaluates the residual alone and reuses that iteration's factors.  Near
    the root its increment is quadratically small, so it usually ends the
    solve; if it does not, the next iteration is a full one.

    Overflow and invalid values are not warned about: a system, increment
    or residual that is not finite fails the solve.
    """
    u, d0, d1 = start
    m = system.cells + 2
    confirm_below = math.sqrt(opts.newton_tol)
    confirm, converged = False, False
    with np.errstate(over="ignore", invalid="ignore"):
        for iters in range(1, opts.max_newton_iters + 1):
            try:
                if confirm:
                    r = system.residual(u, d0, d1)
                    delta = system.resolve(r)
                else:
                    r = system.assemble(u, d0, d1)
                    delta = system.solve(r)
                # one reduction checks the increment and gives its size; it
                # reads the increment solve() or resolve() returned
                norm = _sup_norm(delta)
                if norm == np.inf:
                    raise np.linalg.LinAlgError("Newton increment is not finite")
            except np.linalg.LinAlgError:
                return _Outcome(None, StepStatus.NO_CONVERGENCE, iters - 1, _sup_norm(r))
            du = delta[:m]
            dd0, dd1 = delta[m:].tolist()
            t, width_blocked = _damped_substep(u, system.width(d0, d1), du, dd1 - dd0, floor)
            if t is None:
                status = StepStatus.WIDTH_COLLAPSED if width_blocked else StepStatus.NO_CONVERGENCE
                return _Outcome(None, status, iters, _sup_norm(r))
            u = u + du if t == 1.0 else u + t * du
            d0 += t * dd0
            d1 += t * dd1
            step = t * norm
            if step <= opts.newton_tol:
                converged = True
                break
            confirm = not confirm and t == 1.0 and step <= confirm_below
        resid_inf = _sup_norm(system.residual(u, d0, d1))
    L = system.width(d0, d1)
    if not converged:
        return _Outcome(None, StepStatus.NO_CONVERGENCE, iters, resid_inf)
    if resid_inf > _STALL_RESIDUAL:
        status = StepStatus.WIDTH_COLLAPSED if L <= 10.0 * floor else StepStatus.NO_CONVERGENCE
        return _Outcome(None, status, iters, resid_inf)
    if L <= floor:
        return _Outcome(None, StepStatus.WIDTH_COLLAPSED, iters, resid_inf)
    if not all(map(math.isfinite, system.positions(d0, d1))):
        return _Outcome(None, StepStatus.NO_CONVERGENCE, iters, resid_inf)
    return _Outcome((u, d0, d1), StepStatus.CONVERGED, iters, resid_inf)


def _newton_step(system: _StepSystem, opts: SolverOptions, floor: float) -> _Outcome:
    """Damped Newton over the system's step from its previous state: the
    solve of newton_step_solve, of each step of the time loop and of each
    probe of the collapse bisection."""
    return _newton(system, (system.prev.u, 0.0, 0.0), opts, floor)


def newton_step_solve(
    prev: State,
    mesh: Mesh,
    dt: float,
    params: ModelParams,
    opts: SolverOptions = SolverOptions(),
) -> StepResult:
    """Advance one time step with damped Newton from the previous state.

    Terminates when the applied increment drops below newton_tol in the
    sup norm; the final residual sup-norm is reported.  Steps that would
    push the width to the floor or a concentration negative are cut back
    to a fraction of the distance to the constraint.  Raises ValueError for
    a dt that is not positive and finite or whose 1/dt overflows, and for a
    prev whose cell count is not the mesh's.
    """
    _check_step("newton_step_solve", prev, mesh, dt)
    system = _StepSystem(prev, mesh, dt, params)
    return system.result(_newton_step(system, opts, opts.resolved_floor(params)))


def _continuation(system: _StepSystem, prev: State | _Level, dt: float, opts: SolverOptions,
                  floor: float) -> _Outcome:
    """homotopy_solve's walk on the system, rebased on prev and each
    sub-step in turn; it is left posed from prev over the last sub-step
    tried, which is dt itself when the walk succeeds."""
    iterate = (prev.u, 0.0, 0.0)
    steps, done = HOMOTOPY_FIRST_STEPS, 0
    spent = 0
    width_collapse_seen = False
    resid_inf = np.inf

    while done < steps <= HOMOTOPY_MAX_STEPS:
        # (done + 1) / steps is exact, and 1.0 at the last sub-step
        tau = dt * ((done + 1) / steps)
        if not math.isinf(1.0 / tau):
            system.rebase(prev, tau)
            solved = _newton(system, iterate, opts, floor)
            spent += solved.iterations
            resid_inf = solved.residual_inf
            if solved.status is StepStatus.CONVERGED:
                iterate, done = solved.end, done + 1
                continue
            width_collapse_seen |= solved.status is StepStatus.WIDTH_COLLAPSED
        steps, done = 2 * steps, 2 * done

    if done == steps:
        return _Outcome(iterate, StepStatus.CONVERGED, spent, resid_inf)
    status = (
        StepStatus.WIDTH_COLLAPSED if width_collapse_seen else StepStatus.NO_CONVERGENCE
    )
    return _Outcome(None, status, spent, resid_inf)


def homotopy_solve(
    prev: State,
    mesh: Mesh,
    dt: float,
    params: ModelParams,
    opts: SolverOptions = SolverOptions(),
) -> StepResult:
    """Continuation fallback in the step size: solve the scheme itself from
    prev over the sub-steps tau = dt * k / steps, k = 1, ..., steps, each
    Newton solve starting at the previous sub-step's accepted end point
    (u, d0, d1) (the first at (prev.u, 0, 0), the solution for tau = 0).
    steps starts at HOMOTOPY_FIRST_STEPS.  A sub-step that fails, or whose
    1/tau overflows, doubles steps and the walk resumes from the last
    accepted sub-step, so that the failed one is retried at half its size;
    the walk gives up beyond HOMOTOPY_MAX_STEPS.  The last sub-step's end
    point is the step's, and the only one made a State.  One step system
    serves every sub-step.

    iterations counts every correction.  A failed continuation reports
    WIDTH_COLLAPSED if any sub-step was blocked at the width floor, else
    NO_CONVERGENCE, with the last residual sup-norm seen.  Raises ValueError
    for the inputs that newton_step_solve rejects."""
    _check_step("homotopy_solve", prev, mesh, dt)
    system = _StepSystem(prev, mesh, dt, params)
    return system.result(_continuation(system, prev, dt, opts, opts.resolved_floor(params)))


# ---------------------------------------------------------------------------
# Time loop
# ---------------------------------------------------------------------------


def _bracket_collapse(system: _StepSystem, prev: State | _Level, dt: float, opts: SolverOptions,
                      floor: float):
    """Sub-steps (lo, hi) of a step of size dt that cannot be taken from
    prev: Newton converges over lo (or lo = 0) and fails over hi, with
    hi - lo <= _COLLAPSE_BRACKET_RTOL * dt.  Found by bisecting (0, dt],
    each probe a Newton step on the system rebased on prev and the probe's
    sub-step.

    Where the converged width lands near the floor, the outcome can
    alternate between sub-steps closer than 1e-6 * dt, so (lo, hi) is a
    change of outcome, not necessarily the first one."""
    lo, hi = 0.0, dt
    while hi - lo > _COLLAPSE_BRACKET_RTOL * dt:
        mid = 0.5 * (lo + hi)
        system.rebase(prev, mid)
        if _newton_step(system, opts, floor).status is StepStatus.CONVERGED:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _first_state(params, mesh, opts, initial_mode, initial_state) -> State:
    """The run's initial state, checked against the mesh and the width floor."""
    first = (
        initial_state
        if initial_state is not None
        else discretize_initial(params, mesh, initial_mode)
    )
    if first.num_cells != mesh.num_cells:
        raise ValueError("run: initial state does not match the mesh")
    floor = opts.resolved_floor(params)
    if first.L <= floor:
        raise ValueError(
            f"run: initial width {float(first.L)!r} is at or below the width floor {float(floor)!r}"
        )
    return first


def _columns(rows: int, row_len: int) -> tuple:
    """Empty columns U, X0, X1, L, newton_iters and residual_inf of rows rows."""
    return (np.empty((rows, row_len)), np.empty(rows), np.empty(rows), np.empty(rows),
            np.empty(rows, dtype=int), np.empty(rows))


def run_blocks(
    params: ModelParams,
    mesh: Mesh,
    time_grid: TimeGrid,
    opts: SolverOptions = SolverOptions(),
    initial_mode: InitialMode = InitialMode.CELL_AVERAGE,
    initial_state: State | None = None,
):
    """Iterate the implicit step over the time grid as run() does, and hand
    out the steps in blocks while the run goes on: no block outlives its
    reader.

    Yields the blocks that core.step_blocks yields of run()'s trajectory,
    as (start, U, X0, X1, L, newton_iters, residual_inf): rows start ..
    start + k of those columns, the k steps of the block and the row before
    them, at most about _BLOCK_ELEMS entries.  Each block's arrays are its
    own and read-only.  The run's Termination comes last.  The initial
    state is checked when run_blocks is called, not at the first block:
    ValueError as for run().
    """
    first = _first_state(params, mesh, opts, initial_mode, initial_state)
    return _blocks(params, mesh, time_grid, opts, first)


def _blocks(params, mesh, time_grid, opts, first):
    """run_blocks' generator, from the checked initial state first.

    Each block's steps share one _StepSystem, which serves every solve of
    the block: each step's Newton solve, rebased on the step's previous
    state, and the continuation's sub-steps and the collapse bisection's
    probes.  It is dropped before the block is handed out.  An accepted
    step, Newton's or the continuation's, is written straight to its row
    through system.positions, unchecked: _newton's acceptance rule makes it
    a valid State.  The next step starts from a _Level over the step's own
    u, without a copy.  That u is no block's row, so no block outlives its
    reader through prev."""
    floor = opts.resolved_floor(params)
    dt, n_steps = time_grid.dt, time_grid.n_steps
    steps = _block_steps(first.u.size)
    termination = Termination(TerminationKind.COMPLETED)
    # the row before each block's steps: the level and the work of its solve
    prev, work = _Level(first.u, first.X0, first.X1, first.L), (0, np.nan)
    start = 0
    while True:
        # Row j holds the state after step start + j and the work of the
        # solve that produced it.  Rows a collapse never reaches are cut off.
        rows = min(steps, n_steps - start) + 1
        columns = U, X0, X1, L, iters, resid = _columns(rows, first.u.size)
        U[0], X0[0], X1[0], L[0] = prev
        iters[0], resid[0] = work
        system = _StepSystem(prev, mesh, dt, params)
        kept = 1
        for n in range(start + 1, start + rows):
            system.rebase(prev, dt)
            solved = _newton_step(system, opts, floor)
            # A width collapse ends the run: the continuation has never
            # rescued a step Newton reports as WIDTH_COLLAPSED, on the presets
            # or on random dissolution-regime parameters, meshes and time
            # steps.
            if solved.status is StepStatus.NO_CONVERGENCE:
                solved = _continuation(system, prev, dt, opts, floor)
            if solved.status is not StepStatus.CONVERGED:
                if solved.status is StepStatus.WIDTH_COLLAPSED:
                    lo, hi = _bracket_collapse(system, prev, dt, opts, floor)
                    t_prev = (n - 1) * dt
                    termination = Termination(
                        TerminationKind.WIDTH_COLLAPSED, step=n, bracket=(t_prev + lo, t_prev + hi)
                    )
                else:
                    termination = Termination(TerminationKind.SOLVER_FAILED, step=n)
                break
            u, d0, d1 = solved.end
            prev = _Level(u, *system.positions(d0, d1))
            work = (solved.iterations, solved.residual_inf)
            j = n - start
            U[j], X0[j], X1[j], L[j] = prev
            iters[j], resid[j] = work
            kept = j + 1
            if prev.L <= 2.0 * floor:
                termination = Termination(TerminationKind.WIDTH_COLLAPSED, step=n)
                break
        block = tuple(column[:kept] for column in columns)
        # a suspended generator holds no step system
        del columns, U, X0, X1, L, iters, resid, system
        # a run that ends at a block's first step adds no block, unless the
        # initial state is all it stored
        if kept > 1 or start == 0:
            for column in block:
                column.setflags(write=False)
            yield (start, *block)
        # the block is its reader's alone while the next one is stepped
        del block
        start += kept - 1
        if termination.kind is not TerminationKind.COMPLETED or start == n_steps:
            break
    yield termination


def run(
    params: ModelParams,
    mesh: Mesh,
    time_grid: TimeGrid,
    opts: SolverOptions = SolverOptions(),
    initial_mode: InitialMode = InitialMode.CELL_AVERAGE,
    initial_state: State | None = None,
) -> Trajectory:
    """Iterate the implicit step over the time grid, escalating Newton
    solves that fail to converge to the continuation solver, and stopping
    early when the width collapses.  A collapse at a step that cannot be
    taken is located by _bracket_collapse and reported in the termination.
    Raises ValueError for an initial state off the mesh or whose width is
    at or below the width floor.

    The steps come from run_blocks, whose blocks are collected into columns
    allocated for the whole grid.
    """
    blocks = run_blocks(params, mesh, time_grid, opts, initial_mode, initial_state)
    columns = _columns(time_grid.n_steps + 1, mesh.num_cells + 2)
    kept = 0
    for block in blocks:
        if isinstance(block, Termination):
            break
        start, *parts = block
        kept = start + len(parts[0])
        for column, part in zip(columns, parts):
            column[start:kept] = part
    U, X0, X1, L, iters, resid = (column[:kept] for column in columns)
    # the loop ends at the run's Termination, which comes last
    return Trajectory(U=U, X0=X0, X1=X1, L=L, time_grid=time_grid, termination=block,
                      newton_iters=iters, residual_inf=resid)
