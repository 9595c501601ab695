"""Fully implicit time stepping of the moving-boundary scheme.

Each step solves a nonlinear system in the unknowns (u_0, ..., u_{I+1},
X0, X1, L): I interior balances with exponential-fitting two-point fluxes,
the two boundary flux conditions, the two interface motion laws and the
width closure.  Newton iteration with an analytic Jacobian and a
bordered-banded linear solve does the work; the fallback is a
lambda-continuation that blends the same system's rows toward an explicitly
solvable member and corrects with the same Newton iteration and solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.lapack import dgtsv

# solve_banded and bernoulli_prime are uncalled here; the benchmark's tracer wraps them.
from scipy.linalg import solve_banded  # noqa: F401

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

# Continuation schedules double until this many lambda increments.
HOMOTOPY_MAX_STEPS = 1024
# A converged Newton point must also satisfy the equations to this residual
# sup-norm; otherwise the iteration merely stalled (e.g. pinned at the
# width floor during a collapse).
_STALL_RESIDUAL = 1e-6
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class SolverOptions:
    """Newton / continuation controls.

    width_floor None means 1e-8 * L0, resolved per problem.
    """

    newton_tol: float = 1e-10
    max_newton_iters: int = 50
    homotopy_steps: int = 16
    width_floor: float | None = None

    def __post_init__(self):
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be at least 1")
        if self.homotopy_steps < 1:
            raise ValueError("homotopy_steps must be at least 1")
        if self.width_floor is not None and self.width_floor <= 0.0:
            raise ValueError("width_floor must be positive")

    def resolved_floor(self, params: ModelParams) -> float:
        return self.width_floor if self.width_floor is not None else 1e-8 * params.L0


class StepStatus(Enum):
    CONVERGED = "converged"
    NO_CONVERGENCE = "no_convergence"
    WIDTH_COLLAPSED = "width_collapsed"


@dataclass(frozen=True)
class StepResult:
    """Outcome of one nonlinear solve: the new state on success, the
    iteration count, and the final residual sup-norm."""

    state: State | None
    status: StepStatus
    iterations: int
    residual_inf: float


def _frame_velocity(X0, X1, L, X0_prev, X1_prev, L_prev, mesh: Mesh, dt: float, R: float):
    """(1 - R) d[X1] - xi_edge * d[L] - d[X0] per edge, d[f] = (f - f_prev)/dt.

    Scalars give one row of edge velocities; column arrays of shape (k, 1)
    give k rows, one per step.
    """
    dX0 = (X0 - X0_prev) / dt
    dX1 = (X1 - X1_prev) / dt
    dL = (L - L_prev) / dt
    return (1.0 - R) * dX1 - mesh.edges * dL - dX0


def velocities(prev: State, nxt: State, mesh: Mesh, dt: float, R: float) -> np.ndarray:
    """Edge velocities of the moving frame mapped onto [0, 1], one per edge:
    (1 - R) d[X1] - xi_edge * d[L] - d[X0], with d[f] = (f_next - f_prev)/dt.

    They are affine in the edge coordinate, so consecutive differences
    telescope to -d[L] * h_i exactly.
    """
    if dt <= 0.0:
        raise ValueError("velocities: dt must be positive")
    return _frame_velocity(nxt.X0, nxt.X1, nxt.L, prev.X0, prev.X1, prev.L, mesh, dt, R)


def sg_flux(u_left, u_right, v, L, h_edge):
    """Exponential-fitting flux through one edge:
    (B(-L h v) u_left - B(L h v) u_right) / (L h).

    Reduces to central diffusion (u_left - u_right) / (L h) when v = 0 and
    vanishes identically on exponential steady profiles.
    """
    L = np.asarray(L, dtype=float)
    h_edge = np.asarray(h_edge, dtype=float)
    if np.any(L <= 0.0):
        raise ValueError("sg_flux: width L must be positive")
    if np.any(h_edge <= 0.0):
        raise ValueError("sg_flux: edge gap must be positive")
    w = L * h_edge * np.asarray(v, dtype=float)
    value = (bernoulli(-w) * u_left - bernoulli(w) * u_right) / (L * h_edge)
    return float(value) if np.ndim(value) == 0 else value


# ---------------------------------------------------------------------------
# The step system: residual, bordered-banded Jacobian, block solve
# ---------------------------------------------------------------------------


def _edge_fields(
    u, X0, X1, L, prev: State, mesh: Mesh, dt: float, params: ModelParams, prime: bool = True
):
    """Velocities, Bernoulli weights B(w), B(-w), their derivatives (None
    unless prime) and fluxes per edge, with Peclet arguments w.  One kernel
    call evaluates the stacked (w, -w)."""
    v = _frame_velocity(X0, X1, L, prev.X0, prev.X1, prev.L, mesh, dt, params.R)
    w = (L * mesh.gaps) * v
    edges = w.size
    B, dB = _bernoulli_pair(np.concatenate((w, -w)), prime)
    Bp, Bm = B[:edges], B[edges:]
    F = (Bm * u[:-1] - Bp * u[1:]) / (L * mesh.gaps)
    dBp, dBm = (dB[:edges], dB[edges:]) if prime else (None, None)
    return v, Bp, Bm, dBp, dBm, F


def _residual_rows(u, X0, X1, L, F, prev: State, mesh: Mesh, dt: float, params: ModelParams):
    cells = mesh.num_cells
    r = np.empty(cells + 5)
    r[:cells] = (
        mesh.cell_sizes * (L * u[1:-1] - prev.L * prev.u[1:-1]) / dt + F[1:] - F[:-1]
    )
    r[cells] = F[0] - params.a + params.b * u[0]
    r[cells + 1] = F[-1]
    r[cells + 2] = (
        (X0 - prev.X0) / dt
        - params.alpha0
        + params.beta0 * u[0]
        - (1.0 - params.R) * (X1 - prev.X1) / dt
    )
    r[cells + 3] = (X1 - prev.X1) / dt + params.alpha1 - params.beta1 * u[-1]
    r[cells + 4] = L - X1 + X0
    return r


def _residual_raw(u, X0, X1, L, prev: State, mesh: Mesh, dt: float, params: ModelParams):
    F = _edge_fields(u, X0, X1, L, prev, mesh, dt, params, prime=False)[-1]
    return _residual_rows(u, X0, X1, L, F, prev, mesh, dt, params)


def residual(prev: State, cand: State, mesh: Mesh, dt: float, params: ModelParams) -> np.ndarray:
    """Stacked residual of the implicit step, length I+5: the I interior
    balances, the left and right flux conditions, the two interface motion
    laws, and the width closure.  A root defines the next state."""
    if dt <= 0.0:
        raise ValueError("residual: dt must be positive")
    return _residual_raw(cand.u, cand.X0, cand.X1, cand.L, prev, mesh, dt, params)


def _assemble(u, X0, X1, L, prev: State, mesh: Mesh, dt: float, params: ModelParams):
    """Residual r and Jacobian of the step system from one evaluation of
    the edge fields.  The I+2 concentration rows are permuted (left flux
    condition, interior balances, right flux condition): band is their
    tridiagonal u-block in the (1, 1) banded layout (superdiagonal, diagonal,
    subdiagonal rows, as scipy's solve_banded takes it), border their
    (X0, X1, L) columns.  The last three rows are _affine_rows."""
    cells = mesh.num_cells
    v, Bp, Bm, dBp, dBm, F = _edge_fields(u, X0, X1, L, prev, mesh, dt, params)
    r = _residual_rows(u, X0, X1, L, F, prev, mesh, dt, params)

    # Partial derivatives of each edge flux w.r.t. its neighbors and the
    # interface unknowns; Nw is dF/dw times L*h.
    denom = L * mesh.gaps
    dF_ul = Bm / denom
    dF_ur = -Bp / denom
    Nw = -dBm * u[:-1] - dBp * u[1:]
    dF_X0 = -Nw / dt
    dF_X1 = Nw * (1.0 - params.R) / dt
    dF_L = Nw * (v / L - mesh.edges / dt) - F / L
    h = mesh.cell_sizes

    band = np.zeros((3, cells + 2))
    band[1, 0] = dF_ul[0] + params.b
    band[0, 1:] = dF_ur
    band[1, 1 : cells + 1] = h * L / dt + dF_ul[1:] - dF_ur[:-1]
    band[1, cells + 1] = dF_ur[-1]
    band[2, :cells] = -dF_ul[:cells]
    band[2, cells] = dF_ul[-1]

    border = np.empty((cells + 2, 3))
    border[0] = (dF_X0[0], dF_X1[0], dF_L[0])
    border[1 : cells + 1, 0] = dF_X0[1:] - dF_X0[:-1]
    border[1 : cells + 1, 1] = dF_X1[1:] - dF_X1[:-1]
    border[1 : cells + 1, 2] = h * u[1:-1] / dt + dF_L[1:] - dF_L[:-1]
    border[cells + 1] = (dF_X0[-1], dF_X1[-1], dF_L[-1])
    return r, band, border


def _affine_rows(dt: float, params: ModelParams):
    """The motion laws and the closure: the X0 law's coefficient on u_0, the
    X1 law's on u_{I+1}, and the 3x3 block of all three in (X0, X1, L)."""
    D = np.array(
        [
            [1.0 / dt, -(1.0 - params.R) / dt, 0.0],
            [0.0, 1.0 / dt, 0.0],
            [1.0, -1.0, 1.0],
        ]
    )
    return params.beta0, -params.beta1, D


def _bordered_solve(r, band, border, dt: float, params: ModelParams):
    """Newton increment -J^{-1} r by block elimination: one tridiagonal
    LAPACK solve (dgtsv) for the concentration block and its border, then
    the 3x3 Schur complement in (X0, X1, L).  Raises LinAlgError when the
    system is singular or not finite."""
    cells = band.shape[1] - 2
    # Right-hand sides b_u and the border columns, column-major as dgtsv
    # takes them.
    rhs = np.empty((cells + 2, 4), order="F")
    rhs[0, 0] = -r[cells]
    rhs[1 : cells + 1, 0] = -r[:cells]
    rhs[cells + 1, 0] = -r[cells + 1]
    rhs[:, 1:] = border
    if not (np.isfinite(band).all() and np.isfinite(rhs).all()):
        raise np.linalg.LinAlgError("non-finite bordered system")
    *_, sol, info = dgtsv(band[2, :-1], band[1], band[0, 1:], rhs, overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular band")
    if info < 0:
        raise ValueError(f"dgtsv: illegal value in argument {-info}")
    if not np.isfinite(sol).all():
        raise np.linalg.LinAlgError("non-finite band solution")
    y = sol[:, 0]
    Y = sol[:, 1:]
    c0, c1, S = _affine_rows(dt, params)
    S[0] -= c0 * Y[0]
    S[1] -= c1 * Y[-1]
    b_x = -r[cells + 2 :]
    b_x[0] -= c0 * y[0]
    b_x[1] -= c1 * y[-1]
    z = np.linalg.solve(S, b_x)
    delta = np.concatenate((y - Y @ z, z))
    if not np.isfinite(delta).all():
        raise np.linalg.LinAlgError("Newton increment is not finite")
    return delta


def jacobian(prev: State, cand: State, mesh: Mesh, dt: float, params: ModelParams) -> np.ndarray:
    """Analytic Jacobian of residual() w.r.t. (u_0..u_{I+1}, X0, X1, L),
    a tridiagonal concentration core bordered by three dense rows/columns."""
    if dt <= 0.0:
        raise ValueError("jacobian: dt must be positive")
    _, band, border = _assemble(cand.u, cand.X0, cand.X1, cand.L, prev, mesh, dt, params)
    return _dense_jacobian(band, border, dt, params)


def _dense_jacobian(band, border, dt: float, params: ModelParams) -> np.ndarray:
    """The matrix _bordered_solve inverts, with its rows in residual order."""
    m = band.shape[1]
    J = np.zeros((m + 3, m + 3))
    J[:m, :m] = np.diag(band[1]) + np.diag(band[0, 1:], 1) + np.diag(band[2, :-1], -1)
    J[:m, m:] = border
    c0, c1, D = _affine_rows(dt, params)
    J[m:, m:] = D
    J[m, 0] = c0
    J[m + 1, m - 1] = c1
    # undo the row permutation: residual rows 0..I-1 are the interior balances
    return J[np.r_[1 : m - 1, 0, m - 1 : m + 3]]


def _blended_system(lam, u, X0, X1, L, prev: State, mesh: Mesh, dt: float, params: ModelParams):
    """(r, band, border) of the step system blended by lam toward its
    explicitly solvable lambda = 0 member: frozen interior concentrations,
    boundary traces at the kinetic ratios.  The motion laws and the closure
    are not blended; lam = 1 is the scheme itself."""
    r, band, border = _assemble(u, X0, X1, L, prev, mesh, dt, params)
    if lam == 1.0:
        return r, band, border
    cells = mesh.num_cells
    mass = prev.L * mesh.cell_sizes / dt
    r[:cells] = lam * r[:cells] + (1.0 - lam) * mass * (u[1:-1] - prev.u[1:-1])
    r[cells] = lam * r[cells] + (1.0 - lam) * (params.beta0 * u[0] - params.alpha0)
    r[cells + 1] = lam * r[cells + 1] + (1.0 - lam) * (params.beta1 * u[-1] - params.alpha1)
    band *= lam
    border *= lam
    band[1, 0] += (1.0 - lam) * params.beta0
    band[1, 1 : cells + 1] += (1.0 - lam) * mass
    band[1, cells + 1] += (1.0 - lam) * params.beta1
    return r, band, border


# ---------------------------------------------------------------------------
# Damped Newton and the continuation fallback
# ---------------------------------------------------------------------------


def _damped_substep(u, L, du, dL, floor, enforce_positivity=True):
    """Step fraction keeping the width above the floor and (optionally) the
    concentrations nonnegative: fraction-to-the-boundary backoff, never
    closer than 0.5% to a constraint and never smaller than
    2^-_MAX_HALVINGS.  Returns (fraction, width_blocked) or
    (None, width_blocked) when fully stalled."""
    t_width = np.inf
    if dL < 0.0:
        t_width = (L - floor) / (-dL)
    t_pos = np.inf
    if enforce_positivity:
        neg = du < 0.0
        if neg.any():
            t_pos = float(np.min(u[neg] / (-du[neg])))
    t = min(1.0, 0.995 * t_width, 0.995 * t_pos)
    width_blocked = t < 1.0 and t_width <= t_pos
    if t <= 2.0**-_MAX_HALVINGS:
        return None, width_blocked
    return t, width_blocked


def _newton(point, lam, prev, mesh, dt, params, opts, floor, enforce_positivity=True):
    """Damped Newton on the step system blended by lam, from point = (u, X0,
    X1, L).  Returns the last iterate (None on breakdown), the status, the
    iterations and the residual sup-norm of the last assembled system."""
    u, X0, X1, L = point
    cells = mesh.num_cells
    for iters in range(1, opts.max_newton_iters + 1):
        r, band, border = _blended_system(lam, u, X0, X1, L, prev, mesh, dt, params)
        if not np.isfinite(r).all():
            return None, StepStatus.NO_CONVERGENCE, iters - 1, np.inf
        try:
            delta = _bordered_solve(r, band, border, dt, params)
        except np.linalg.LinAlgError:
            return None, StepStatus.NO_CONVERGENCE, iters - 1, float(np.abs(r).max())
        du = delta[: cells + 2]
        dX0, dX1, dL = delta[cells + 2 :]
        t, width_blocked = _damped_substep(u, L, du, dL, floor, enforce_positivity)
        if t is None:
            status = StepStatus.WIDTH_COLLAPSED if width_blocked else StepStatus.NO_CONVERGENCE
            return None, status, iters, float(np.abs(r).max())
        u = u + t * du
        X0 += t * dX0
        X1 += t * dX1
        L += t * dL
        if t * float(np.abs(delta).max()) <= opts.newton_tol:
            return (u, X0, X1, L), StepStatus.CONVERGED, iters, float(np.abs(r).max())
    return (u, X0, X1, L), StepStatus.NO_CONVERGENCE, iters, float(np.abs(r).max())


def _accept(point, status, iters, resid_inf, prev, mesh, dt, params, floor) -> StepResult:
    """StepResult of _newton's outcome, its end point checked against the
    scheme itself."""
    if point is None:
        return StepResult(None, status, iters, resid_inf)
    u, X0, X1, L = point
    resid_inf = float(np.abs(_residual_raw(u, X0, X1, L, prev, mesh, dt, params)).max())
    if status is not StepStatus.CONVERGED:
        return StepResult(None, StepStatus.NO_CONVERGENCE, iters, resid_inf)
    if resid_inf > _STALL_RESIDUAL:
        status = (
            StepStatus.WIDTH_COLLAPSED if L <= 10.0 * floor else StepStatus.NO_CONVERGENCE
        )
        return StepResult(None, status, iters, resid_inf)
    if L <= floor:
        return StepResult(None, StepStatus.WIDTH_COLLAPSED, iters, resid_inf)
    # roundoff may leave a trace infinitesimally negative
    u = np.where((u < 0.0) & (u > -1e-12), 0.0, u)
    if (u < 0.0).any():
        return StepResult(None, StepStatus.NO_CONVERGENCE, iters, resid_inf)
    state = State(u=u, X0=X0, X1=X1, L=L)
    return StepResult(state, StepStatus.CONVERGED, iters, resid_inf)


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
    to a fraction of the distance to the constraint.
    """
    floor = opts.resolved_floor(params)
    start = (prev.u, prev.X0, prev.X1, prev.L)
    outcome = _newton(start, 1.0, prev, mesh, dt, params, opts, floor)
    return _accept(*outcome, prev, mesh, dt, params, floor)


def homotopy_solve(
    prev: State,
    mesh: Mesh,
    dt: float,
    params: ModelParams,
    opts: SolverOptions = SolverOptions(),
) -> StepResult:
    """Continuation fallback: follow the lambda-parameterized family from
    its explicitly solvable member at lambda = 0 (previous interior
    concentrations, boundary traces at the kinetic ratios, frozen
    interfaces) to the full scheme at lambda = 1, Newton-correcting at each
    increment.  The schedule doubles on failure up to a fixed cap.  A failed
    continuation reports the corrections spent over all schedules and the
    last residual sup-norm seen."""
    floor = opts.resolved_floor(params)
    steps = opts.homotopy_steps
    schedule_cap = max(HOMOTOPY_MAX_STEPS, opts.homotopy_steps)
    width_collapse_seen = False
    spent = 0
    resid_inf = np.inf

    while steps <= schedule_cap:
        u = prev.u.copy()
        u[0] = params.alpha0 / params.beta0
        u[-1] = params.alpha1 / params.beta1
        point = (u, prev.X0, prev.X1, prev.L)
        total_iters = 0
        for k in range(1, steps + 1):
            # The intermediate lambda systems are solver scaffolding: their
            # solution branch may leave the positive cone, so only the width
            # stays floored here; the final state is validated at lambda = 1.
            point, status, used, resid_inf = _newton(
                point, k / steps, prev, mesh, dt, params, opts, floor,
                enforce_positivity=False,
            )
            total_iters += used
            if status is not StepStatus.CONVERGED:
                width_collapse_seen |= status is StepStatus.WIDTH_COLLAPSED
                break
        else:
            return _accept(point, status, total_iters, resid_inf, prev, mesh, dt, params, floor)
        spent += total_iters
        steps *= 2

    status = (
        StepStatus.WIDTH_COLLAPSED if width_collapse_seen else StepStatus.NO_CONVERGENCE
    )
    return StepResult(None, status, spent, resid_inf)


# ---------------------------------------------------------------------------
# Time loop
# ---------------------------------------------------------------------------


def run(
    params: ModelParams,
    mesh: Mesh,
    time_grid: TimeGrid,
    opts: SolverOptions = SolverOptions(),
    initial_mode: InitialMode = InitialMode.CELL_AVERAGE,
    initial_state: State | None = None,
    stride: int = 1,
) -> Trajectory:
    """Iterate the implicit step over the time grid, escalating failed
    Newton solves to the continuation solver, and stopping early when the
    width collapses to the floor.

    stride > 1 thins storage (step 0 and the last reached step are always
    kept); per-step diagnostics require the default stride of 1.
    """
    if stride < 1:
        raise ValueError("run: stride must be at least 1")
    floor = opts.resolved_floor(params)
    first = (
        initial_state
        if initial_state is not None
        else discretize_initial(params, mesh, initial_mode)
    )
    if first.num_cells != mesh.num_cells:
        raise ValueError("run: initial state does not match the mesh")

    states = [first]
    stored_steps = [0]
    newton_iters: list[int] = []
    residuals: list[float] = []
    termination = Termination(TerminationKind.COMPLETED)
    prev = first
    last_result: tuple[State, int, int, float] | None = None

    def store(state, n, iters, resid):
        states.append(state)
        stored_steps.append(n)
        newton_iters.append(iters)
        residuals.append(resid)

    for n in range(1, time_grid.n_steps + 1):
        result = newton_step_solve(prev, mesh, time_grid.dt, params, opts)
        if result.status is not StepStatus.CONVERGED:
            fallback = homotopy_solve(prev, mesh, time_grid.dt, params, opts)
            if fallback.status is StepStatus.CONVERGED:
                result = fallback
            else:
                collapse = StepStatus.WIDTH_COLLAPSED in (result.status, fallback.status)
                termination = Termination(
                    TerminationKind.WIDTH_COLLAPSED if collapse else TerminationKind.SOLVER_FAILED,
                    step=n,
                )
                if stored_steps[-1] != n - 1 and last_result is not None:
                    store(*last_result)
                break
        state = result.state
        if state.closure_defect() > 1e-6 * max(1.0, state.L):
            termination = Termination(TerminationKind.SOLVER_FAILED, step=n)
            break
        prev = state
        last_result = (state, n, result.iterations, result.residual_inf)
        if n % stride == 0 or n == time_grid.n_steps:
            store(*last_result)
        if state.L <= 2.0 * floor:
            if stored_steps[-1] != n:
                store(*last_result)
            termination = Termination(TerminationKind.WIDTH_COLLAPSED, step=n)
            break

    return Trajectory(
        states=tuple(states),
        time_grid=time_grid,
        termination=termination,
        step_indices=tuple(stored_steps),
        newton_iters=tuple(newton_iters),
        residual_inf=tuple(residuals),
    )
