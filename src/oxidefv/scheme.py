"""Fully implicit time stepping of the moving-boundary scheme.

Each step solves a nonlinear system of length I+4 in the unknowns (u_0,
..., u_{I+1}, d0, d1): the concentrations and the displacements of the two
interfaces from the previous state.  The width is L = L_prev + (d1 - d0),
so it closes by construction, and the stored positions are X0_prev + d0
and X1_prev + d1.  The rows are I interior balances with exponential-fitting
two-point fluxes, the two boundary flux conditions and the two interface
motion laws.  No row or Jacobian entry reads an absolute position, so a
step's u, L and work do not depend on where the layer lies.  Each solve
builds one _StepSystem: the step's constants and the buffers that each
iterate's assembly and block solve overwrite.  Its one assembly of the
residual and the bordered-banded Jacobian, and its one block solve, are
shared by Newton, the continuation and jacobian(): all three work on the
scheme itself.  The solvers check dt and the previous state's cell count
once, on entry.

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
residual there is at most _STALL_RESIDUAL and the width is above the
floor.  So the continuation walks through solutions of the scheme only.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np
from numpy.linalg import _umath_linalg

# bernoulli and bernoulli_prime are uncalled here; the benchmark's tracer
# wraps them.
from .bernoulli import _bernoulli_pair, bernoulli, bernoulli_prime  # noqa: F401
from .core import (
    InitialMode,
    Mesh,
    ModelParams,
    State,
    Termination,
    TerminationKind,
    TimeGrid,
    Trajectory,
    discretize_initial,
)

# At rest (d0 = d1 = 0, so L = prev.L) w = 0 on every edge, where the
# kernel's series gives B = 1 and B' = -1/2 exactly: the rows (B(w), B(-w))
# and their derivatives, broadcast over the edges.
_REST_B = np.ones((2, 1))
_REST_DB = np.full((2, 1), -0.5)
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
    # calls, so scipy is imported on that access alone.  ROADMAP item 1's
    # benchmark change deletes this.
    if name == "solve_banded":
        from scipy.linalg import solve_banded

        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _address(a: np.ndarray) -> int:
    """The address of a C-contiguous, writable array's first element."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _positive_finite(value) -> bool:
    return not isinstance(value, bool) and 0.0 < value < np.inf


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
            raise ValueError("newton_tol must be positive and finite")
        if (isinstance(self.max_newton_iters, bool)
                or not isinstance(self.max_newton_iters, Integral)
                or self.max_newton_iters < 1):
            raise ValueError("max_newton_iters must be an integer of at least 1")
        if self.width_floor is not None and not _positive_finite(self.width_floor):
            raise ValueError("width_floor must be positive and finite")

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
    the failed ones included."""

    state: State | None
    status: StepStatus
    iterations: int
    residual_inf: float


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


def _check_rates(name: str, prev: State, nxt: State, dt, R: float) -> None:
    """Reject with ValueError a dt that is not positive and finite, or so
    small that (f_next - f_prev)/dt overflows for f = X0, X1 or L, or that
    the edge velocities of _frame_velocity overflow.  The velocity is affine
    in the edge coordinate and rounding is monotone, so its values at 0 and
    1 bound every edge's.  All is taken in Python floats, which do not warn
    on overflow."""
    if not _positive_finite(dt):
        raise ValueError(f"{name}: dt must be positive and finite, got {dt!r}")
    dt = float(dt)
    dX0, dX1, dL = (
        (float(f_next) - float(f_prev)) / dt
        for f_next, f_prev in ((nxt.X0, prev.X0), (nxt.X1, prev.X1), (nxt.L, prev.L))
    )
    if not all(map(math.isfinite, (dX0, dX1, dL))):
        raise ValueError(f"{name}: dt {dt!r} is too small: (f_next - f_prev)/dt overflows")
    ends = ((1.0 - float(R)) * dX1 - xi * dL - dX0 for xi in (0.0, 1.0))
    if not all(map(math.isfinite, ends)):
        raise ValueError(f"{name}: dt {dt!r} is too small: the edge velocities overflow")


def velocities(prev: State, nxt: State, mesh: Mesh, dt: float, R: float) -> np.ndarray:
    """Edge velocities of the moving frame mapped onto [0, 1], one per edge:
    (1 - R) d[X1] - xi_edge * d[L] - d[X0], with d[f] = (f_next - f_prev)/dt.

    They are affine in the edge coordinate, so consecutive differences
    telescope to -d[L] * h_i exactly.  Raises ValueError for a dt that is
    not positive and finite or that makes a d[f] or a velocity overflow.
    """
    _check_rates("velocities", prev, nxt, dt, R)
    return _frame_velocity(nxt.X0 - prev.X0, nxt.X1 - prev.X1, nxt.L - prev.L, mesh, dt, R)


# ---------------------------------------------------------------------------
# The step system: residual, bordered-banded Jacobian, block solve
# ---------------------------------------------------------------------------


class _StepSystem:
    """The step system of one nonlinear solve from prev over dt, built once
    per solve and assembled at each iterate (u, d0, d1).

    Built per solve: the step's constants (prev.L * prev.u[1:-1], edges/dt,
    1 - R and the motion laws' coefficients), the edge velocities at rest,
    and the buffers that each iterate overwrites: the Peclet arguments, the
    edge fluxes' derivatives in (d0, d1), and the block solve's column-major
    buffer with the addresses dgtsv takes into it.

    The I+2 concentration rows are permuted (left flux condition, interior
    balances, right flux condition).  One column-major buffer holds their
    tridiagonal u-block in the (1, 1) banded layout (band: superdiagonal,
    diagonal, subdiagonal rows, LAPACK's DU, D and DL with DU shifted one
    entry right), three right-hand sides (rhs): the residual column, then
    the border, their (d0, d1) columns, and three scratch columns that a
    copy of the band takes before each dgtsv, which overwrites it.  The
    last two rows are the motion laws: c0 is the X0 law's coefficient on
    u_0, c1 the X1 law's on u_{I+1}, and block the 2x2 block of both in
    (d0, d1), row by row.
    """

    def __init__(self, prev: State, mesh: Mesh, dt: float, params: ModelParams):
        self.prev, self.mesh, self.dt, self.params = prev, mesh, dt, params
        self.cells = cells = mesh.num_cells
        m = cells + 2
        self._L_prev = float(prev.L)
        self._prev_mass = prev.L * prev.u[1:-1]
        self._edges_dt = mesh.edges / dt
        self._one_minus_R = 1.0 - params.R
        self.c0, self.c1 = params.beta0, -params.beta1
        self.block = (1.0 / dt, -self._one_minus_R / dt, 0.0, 1.0 / dt)
        self._rest_v = _frame_velocity(0.0, 0.0, 0.0, mesh, dt, params.R)
        # the stacked Peclet arguments (w, -w) and, per edge, the flux's
        # derivatives in (d0, d1)
        self._w = np.empty(2 * (m - 1))
        self._dF = np.empty((m - 1, 2), order="F")
        self._buf = buf = np.zeros((m, 9), order="F")
        self.band = buf[:, :3].T
        self.rhs = buf[:, 3:6]
        self.border = buf[:, 4:6]
        self._band_copy = buf[:, 6:].T
        # dgtsv's integers N (also LDB), NRHS and INFO, and its arguments:
        # DL, D and DU in the scratch copy of the band, B in rhs
        self._ints = ints = np.array((m, 3, 0), dtype=np.int64)
        p, q, col = _address(buf.T), _address(ints), 8 * m
        self._dgtsv_args = (
            q, q + 8, p + 8 * col, p + 7 * col, p + 6 * col + 8, p + 3 * col, q, q + 16
        )
        # (solved border, Schur matrix) of the last solve(), for resolve()
        self._kept = None

    def width(self, d0, d1) -> float:
        """The width prev.L + (d1 - d0) at the displacements (d0, d1)."""
        return self._L_prev + (d1 - d0)

    def result(self, end, status: StepStatus, iterations: int, residual_inf: float) -> StepResult:
        """The StepResult of a solve that ended at end = (u, d0, d1), or at
        None: its State holds prev's positions moved by the displacements."""
        state = None
        if end is not None:
            u, d0, d1 = end
            prev = self.prev
            state = State(u=u, X0=float(prev.X0) + d0, X1=float(prev.X1) + d1, L=self.width(d0, d1))
        return StepResult(state, status, iterations, residual_inf)

    def _fields(self, u, d0, d1, L, prime: bool):
        """Velocities, L*h, Bernoulli weights, their derivatives (None
        unless prime) and fluxes per edge, with Peclet arguments w = L*h*v.
        The weights come as rows (B(w), B(-w)), the derivatives likewise.
        One kernel call evaluates the stacked (w, -w); none at rest."""
        mesh = self.mesh
        Lh = L * mesh.gaps
        if d0 == 0.0 and d1 == 0.0:
            v, B, dB = self._rest_v, _REST_B, _REST_DB
        else:
            v = _frame_velocity(d0, d1, d1 - d0, mesh, self.dt, self.params.R)
            w = self._w
            edges = Lh.size
            np.multiply(Lh, v, out=w[:edges])
            np.negative(w[:edges], out=w[edges:])
            B, dB = _bernoulli_pair(w, prime)
            B = B.reshape(2, edges)
            if prime:
                dB = dB.reshape(2, edges)
        F = (B[1] * u[:-1] - B[0] * u[1:]) / Lh
        return v, Lh, B, dB, F

    def _residual_rows(self, u, d0, d1, L, F):
        params, dt = self.params, self.dt
        cells = self.cells
        r = np.empty(cells + 4)
        balance = r[:cells]
        np.multiply(L, u[1:-1], out=balance)
        np.subtract(balance, self._prev_mass, out=balance)
        np.multiply(self.mesh.cell_sizes, balance, out=balance)
        np.divide(balance, dt, out=balance)
        np.add(balance, F[1:], out=balance)
        np.subtract(balance, F[:-1], out=balance)
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
        F = self._fields(u, d0, d1, L, prime=False)[-1]
        return self._residual_rows(u, d0, d1, L, F)

    def assemble(self, u, d0, d1) -> np.ndarray:
        """Residual r of the scheme at (u, d0, d1), with its Jacobian
        written to band and border from one evaluation of the edge
        fields."""
        mesh, params, dt = self.mesh, self.params, self.dt
        cells = self.cells
        L = self.width(d0, d1)
        v, Lh, B, dB, F = self._fields(u, d0, d1, L, prime=True)
        r = self._residual_rows(u, d0, d1, L, F)

        # Partial derivatives of each edge flux w.r.t. its neighbors and the
        # interface unknowns.  BL holds (-dF/du_right, dF/du_left); Nw is
        # dF/dw times L*h; dF_L is dF/dL.  L moves with d1 - d0, so dF holds
        # dF/dd0 = -Nw/dt - dF_L and dF/dd1 = (1 - R) Nw/dt + dF_L.
        BL = B / Lh
        Nw = -dB[1] * u[:-1] - dB[0] * u[1:]
        dF_L = Nw * (v / L - self._edges_dt) - F / L
        dF = self._dF
        dF0, dF1 = dF.T
        np.negative(Nw, out=dF0)
        np.multiply(Nw, self._one_minus_R, out=dF1)
        np.divide(dF, dt, out=dF)
        np.subtract(dF0, dF_L, out=dF0)
        np.add(dF1, dF_L, out=dF1)
        h = mesh.cell_sizes

        band = self.band
        band[1, 0] = BL.item(1, 0) + params.b
        np.negative(BL[0], out=band[0, 1:])
        diag = band[1, 1 : cells + 1]
        np.multiply(h, L, out=diag)
        np.divide(diag, dt, out=diag)
        np.add(diag, BL[1, 1:], out=diag)
        # adding B(w)/L*h subtracts dF/du_right exactly
        np.add(diag, BL[0, :-1], out=diag)
        band[1, cells + 1] = -BL.item(0, -1)
        np.negative(BL[1, :cells], out=band[2, :cells])
        band[2, cells] = BL.item(1, -1)

        # the balances' L * u term moves with d1 - d0 as well
        border = self.border
        border[0] = dF[0]
        inner = border[1 : cells + 1]
        np.subtract(dF[1:], dF[:-1], out=inner)
        hu_dt = h * u[1:-1]
        np.divide(hu_dt, dt, out=hu_dt)
        np.subtract(inner[:, 0], hu_dt, out=inner[:, 0])
        np.add(inner[:, 1], hu_dt, out=inner[:, 1])
        border[cells + 1] = dF[-1]
        return r

    def solve(self, r) -> np.ndarray:
        """Newton increment -J^{-1} r of the assembled system by block
        elimination: one tridiagonal LAPACK solve (dgtsv) of the
        concentration block for the residual and the border, then the 2x2
        Schur complement in (d0, d1) in closed form.  Raises LinAlgError
        when the system is singular or not finite; an increment that
        overflows is returned as it is, for the caller to check."""
        sol = self.rhs
        self._load(r, sol[:, 0])
        if not np.isfinite(self._buf[:, :6]).all():
            raise np.linalg.LinAlgError("non-finite bordered system")
        self._band_solve(3)
        Y = sol[:, 1:]
        (y00, y01), (y10, y11) = Y[0].tolist(), Y[-1].tolist()
        a, b, c, d = self.block
        S = (a - self.c0 * y00, b - self.c0 * y01, c - self.c1 * y10, d - self.c1 * y11)
        delta = self._schur_step(r, sol[:, 0], Y, S)
        self._kept = (Y, S)
        return delta

    def resolve(self, r) -> np.ndarray:
        """Simplified Newton increment -J^{-1} r, with J the Jacobian of the
        last successful solve(): one dgtsv of its band on the residual alone,
        its solved border and its Schur matrix."""
        y = self.rhs[:, 0]
        self._load(r, y)
        if not np.isfinite(y).all():
            raise np.linalg.LinAlgError("non-finite residual")
        self._band_solve(1)
        return self._schur_step(r, y, *self._kept)

    def _load(self, r, b_u):
        """-r's concentration rows into b_u, in the band's row order."""
        cells = self.cells
        b_u[0] = -r[cells]
        np.negative(r[:cells], out=b_u[1 : cells + 1])
        b_u[cells + 1] = -r[cells + 1]

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

    def _schur_step(self, r, y, Y, S):
        """The increment from the band solutions y (residual) and Y (border)
        and the Schur matrix S = (s00, s01, s10, s11), row by row.  Cramer's
        rule solves it, which for two unknowns is forward stable (Higham,
        Accuracy and Stability of Numerical Algorithms, 2002, sec. 1.10.1).
        Raises LinAlgError when S's determinant is zero or not finite."""
        s00, s01, s10, s11 = S
        det = s00 * s11 - s01 * s10
        if not (det != 0.0 and math.isfinite(det)):
            raise np.linalg.LinAlgError("singular Schur complement")
        b0 = -r.item(-2) - self.c0 * y.item(0)
        b1 = -r.item(-1) - self.c1 * y.item(-1)
        z0 = (b0 * s11 - s01 * b1) / det
        z1 = (s00 * b1 - s10 * b0) / det
        return np.concatenate((y - Y[:, 0] * z0 - Y[:, 1] * z1, (z0, z1)))

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
    is not positive and finite or whose 1/dt overflows, or a prev whose cell
    count is not the mesh's."""
    if not _positive_finite(dt):
        raise ValueError(f"{name}: dt must be positive and finite, got {dt!r}")
    if math.isinf(1.0 / float(dt)):
        raise ValueError(f"{name}: dt {float(dt)!r} is too small: 1/dt overflows")
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
    # unconstrained as it should.
    t_pos = -float(np.maximum.reduce(u[neg] / du[neg], initial=-np.inf))
    t = min(1.0, 0.995 * t_width, 0.995 * t_pos)
    width_blocked = t < 1.0 and t_width <= t_pos
    if t <= 2.0**-_MAX_HALVINGS:
        return None, width_blocked
    return t, width_blocked


def _sup_norm(r) -> float:
    """|r|_inf, or inf when r is not finite."""
    norm = float(np.maximum.reduce(np.abs(r)))
    return norm if norm < np.inf else np.inf


def _newton(system: _StepSystem, start, opts, floor):
    """Damped Newton on the step system from start = (u, d0, d1), and the
    one acceptance rule of every solve.  Returns (end, status, iterations,
    residual_inf): the accepted end point (u, d0, d1) or None, and the rest
    of the solve's StepResult.

    The end point is accepted only when the iteration converged, the
    scheme's residual there is at most _STALL_RESIDUAL and the width is
    above the floor.  Otherwise the outcome is WIDTH_COLLAPSED when damping
    stalled at the width floor, or when a converged end point misses the
    residual within 10 floors or lies at or below the floor; it is
    NO_CONVERGENCE in every other case.

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
                return None, StepStatus.NO_CONVERGENCE, iters - 1, _sup_norm(r)
            du = delta[:m]
            dd0, dd1 = delta[m:].tolist()
            t, width_blocked = _damped_substep(u, system.width(d0, d1), du, dd1 - dd0, floor)
            if t is None:
                status = StepStatus.WIDTH_COLLAPSED if width_blocked else StepStatus.NO_CONVERGENCE
                return None, status, iters, _sup_norm(r)
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
        return None, StepStatus.NO_CONVERGENCE, iters, resid_inf
    if resid_inf > _STALL_RESIDUAL:
        status = StepStatus.WIDTH_COLLAPSED if L <= 10.0 * floor else StepStatus.NO_CONVERGENCE
        return None, status, iters, resid_inf
    if L <= floor:
        return None, StepStatus.WIDTH_COLLAPSED, iters, resid_inf
    return (u, d0, d1), StepStatus.CONVERGED, iters, resid_inf


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
    return system.result(*_newton(system, (prev.u, 0.0, 0.0), opts, opts.resolved_floor(params)))


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
    point is the step's, and the only one made a State.

    iterations counts every correction.  A failed continuation reports
    WIDTH_COLLAPSED if any sub-step was blocked at the width floor, else
    NO_CONVERGENCE, with the last residual sup-norm seen.  Raises ValueError
    for the inputs that newton_step_solve rejects."""
    _check_step("homotopy_solve", prev, mesh, dt)
    floor = opts.resolved_floor(params)
    iterate = (prev.u, 0.0, 0.0)
    steps, done = HOMOTOPY_FIRST_STEPS, 0
    spent = 0
    width_collapse_seen = False
    resid_inf = np.inf

    while done < steps <= HOMOTOPY_MAX_STEPS:
        # (done + 1) / steps is exact, and 1.0 at the last sub-step
        tau = dt * ((done + 1) / steps)
        if not math.isinf(1.0 / tau):
            system = _StepSystem(prev, mesh, tau, params)
            end, status, iters, resid_inf = _newton(system, iterate, opts, floor)
            spent += iters
            if status is StepStatus.CONVERGED:
                iterate, done = end, done + 1
                continue
            width_collapse_seen |= status is StepStatus.WIDTH_COLLAPSED
        steps, done = 2 * steps, 2 * done

    if done == steps:
        # the last sub-step's system; every sub-step's starts from prev
        return system.result(iterate, StepStatus.CONVERGED, spent, resid_inf)
    status = (
        StepStatus.WIDTH_COLLAPSED if width_collapse_seen else StepStatus.NO_CONVERGENCE
    )
    return StepResult(None, status, spent, resid_inf)


# ---------------------------------------------------------------------------
# Time loop
# ---------------------------------------------------------------------------


def _bracket_collapse(prev: State, mesh: Mesh, dt: float, params: ModelParams, opts: SolverOptions):
    """Sub-steps (lo, hi) of a step of size dt that cannot be taken from
    prev: Newton converges over lo (or lo = 0) and fails over hi, with
    hi - lo <= _COLLAPSE_BRACKET_RTOL * dt.  Found by bisecting (0, dt].

    Where the converged width lands near the floor, the outcome can
    alternate between sub-steps closer than 1e-6 * dt, so (lo, hi) is a
    change of outcome, not necessarily the first one."""
    lo, hi = 0.0, dt
    while hi - lo > _COLLAPSE_BRACKET_RTOL * dt:
        mid = 0.5 * (lo + hi)
        if newton_step_solve(prev, mesh, mid, params, opts).status is StepStatus.CONVERGED:
            lo = mid
        else:
            hi = mid
    return lo, hi


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
    """
    floor = opts.resolved_floor(params)
    first = (
        initial_state
        if initial_state is not None
        else discretize_initial(params, mesh, initial_mode)
    )
    if first.num_cells != mesh.num_cells:
        raise ValueError("run: initial state does not match the mesh")
    if first.L <= floor:
        raise ValueError(
            f"run: initial width {float(first.L)!r} is at or below the width floor {float(floor)!r}"
        )

    # Row n holds the state after step n and the work of the solve that
    # produced it.  Rows a collapse never reaches are never touched.
    rows = time_grid.n_steps + 1
    U = np.empty((rows, first.u.size))
    X0 = np.empty(rows)
    X1 = np.empty(rows)
    L = np.empty(rows)
    iters = np.empty(rows, dtype=int)
    resid = np.empty(rows)
    U[0], X0[0], X1[0], L[0] = first.u, first.X0, first.X1, first.L
    iters[0], resid[0] = 0, np.nan
    kept = 1
    termination = Termination(TerminationKind.COMPLETED)
    prev = first

    dt = time_grid.dt
    for n in range(1, time_grid.n_steps + 1):
        result = newton_step_solve(prev, mesh, dt, params, opts)
        # A width collapse ends the run: the continuation has never rescued
        # a step Newton reports as WIDTH_COLLAPSED, on the presets or on
        # random dissolution-regime parameters, meshes and time steps.
        if result.status is StepStatus.NO_CONVERGENCE:
            result = homotopy_solve(prev, mesh, dt, params, opts)
        if result.status is not StepStatus.CONVERGED:
            if result.status is StepStatus.WIDTH_COLLAPSED:
                lo, hi = _bracket_collapse(prev, mesh, dt, params, opts)
                t_prev = (n - 1) * dt
                termination = Termination(
                    TerminationKind.WIDTH_COLLAPSED, step=n, bracket=(t_prev + lo, t_prev + hi)
                )
            else:
                termination = Termination(TerminationKind.SOLVER_FAILED, step=n)
            break
        prev = state = result.state
        U[n], X0[n], X1[n], L[n] = state.u, state.X0, state.X1, state.L
        iters[n], resid[n] = result.iterations, result.residual_inf
        kept = n + 1
        if state.L <= 2.0 * floor:
            termination = Termination(TerminationKind.WIDTH_COLLAPSED, step=n)
            break

    return Trajectory(
        U=U[:kept],
        X0=X0[:kept],
        X1=X1[:kept],
        L=L[:kept],
        time_grid=time_grid,
        termination=termination,
        newton_iters=iters[:kept],
        residual_inf=resid[:kept],
    )
