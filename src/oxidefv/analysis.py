"""Quantitative diagnostics and experiment harnesses: distance to the
travelling wave, nested-mesh projection, the grid refinement study, and
post-hoc verification of the scheme's a priori bounds."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    _BLOCK_ELEMS,
    InitialMode,
    Mesh,
    ModelParams,
    State,
    TimeGrid,
    Trajectory,
    _frame_velocity,
    _positive_finite,
    check_storable,
    row_integrals,
    step_blocks,
    uniform_mesh,
)
from .formatting import write_csv
from .scheme import SolverOptions, run
from .waves import RegimeKind, TravellingWave, classify, wave_profile_on_mesh

_EDGE_MATCH_TOL = 1e-12
# verify_trajectory's slack on the proved brackets (concentration, width,
# rates, velocities) and its bound on the worst mass-balance defect.
_BRACKET_TOL = 1e-9
_MASS_TOL = 1e-8
# convergence_study's level 0: its cell count and its number of time steps.
_BASE_CELLS = 50
_BASE_STEPS = 10


def wave_distance(state: State, mesh: Mesh, wave: TravellingWave) -> float:
    """Squared weighted distance L * sum h_i (u_i - u_hat_i)^2 between the
    state and the wave, both rescaled onto [0, 1]; interior cells only.

    The wave is rescaled by mapping its own domain [0, L_hat] onto [0, 1],
    so u_hat_i = u_left * exp(-decay * L_hat * xi_i).
    """
    diff = state.u[None, 1:-1] - wave_profile_on_mesh(wave, mesh)[1:-1]
    return float(row_integrals(diff * diff, (state.L,), mesh)[0])


def wave_distances(traj: Trajectory, mesh: Mesh, wave: TravellingWave) -> np.ndarray:
    """wave_distance of every stored row of traj, read in step_blocks'
    blocks; each entry has the bits of its one-row wave_distance."""
    target = wave_profile_on_mesh(wave, mesh)[1:-1]
    d = np.empty(traj.L.shape)
    for start, U, _, _, L in step_blocks(traj):
        diff = U[:, 1:-1] - target
        d[start : start + L.size] = row_integrals(diff * diff, L, mesh)
    return d


def _interior_field(traj: Trajectory) -> np.ndarray:
    """Space-time field of interior cell values, one row per time slab
    (slab n carries the step-n state): a read-only view of traj.U."""
    if not traj.completed:
        raise ValueError("projection requires a completed trajectory")
    return traj.U[1:, 1:-1]


@functools.lru_cache(maxsize=8)
def _space_blocks(fine_mesh: Mesh, coarse_mesh: Mesh) -> np.ndarray:
    """Indices of the fine edges that coincide with the coarse edges, read-
    only; rejects non-nested meshes.  The refinement study projects each of
    its ten reference slabs onto the same meshes, so the last pairs are
    kept."""
    fine = fine_mesh.edges
    coarse = coarse_mesh.edges
    idx = np.clip(np.searchsorted(fine, coarse), 0, fine.size - 1)
    # searchsorted returns the left insertion point; snap to the nearer edge
    below = np.clip(idx - 1, 0, fine.size - 1)
    idx = np.where(np.abs(fine[below] - coarse) < np.abs(fine[idx] - coarse), below, idx)
    if np.any(np.abs(fine[idx] - coarse) > _EDGE_MATCH_TOL):
        raise ValueError("meshes are not nested: coarse edges must be fine edges")
    idx.setflags(write=False)
    return idx


def project_reference(
    fine: Trajectory,
    fine_mesh: Mesh,
    coarse_mesh: Mesh,
    coarse_time: TimeGrid,
) -> np.ndarray:
    """Orthogonal projection of the fine space-time field onto the coarse
    piecewise-constant space: measure-weighted averages of the fine values
    over each coarse space-time cell.  Requires exact nesting in both
    space and time.

    The fine field is read in blocks of whole coarse time slabs of at most
    about _BLOCK_ELEMS entries (one slab when a slab is larger), so the
    temporaries do not grow with the length of the run; each coarse value
    is summed in the same order as over the whole field."""
    fine_time = fine.time_grid
    if abs(fine_time.t_final - coarse_time.t_final) > 1e-12 * max(1.0, coarse_time.t_final):
        raise ValueError("time grids cover different horizons")
    if fine_time.n_steps % coarse_time.n_steps != 0:
        raise ValueError("time grids are not nested")
    m = fine_time.n_steps // coarse_time.n_steps

    starts = _space_blocks(fine_mesh, coarse_mesh)[:-1]
    field = _interior_field(fine)
    n_c = coarse_time.n_steps
    cells = coarse_mesh.num_cells
    slabs = max(1, _BLOCK_ELEMS // (m * field.shape[1]))
    proj = np.empty((n_c, cells))
    for j in range(0, n_c, slabs):
        k = min(slabs, n_c - j)
        weighted = field[j * m : (j + k) * m] * fine_mesh.cell_sizes
        space_avg = np.add.reduceat(weighted, starts, axis=1) / coarse_mesh.cell_sizes
        # sum over the m fine slabs of each coarse slab; divided by m below,
        # as np.mean would
        np.add.reduce(space_avg.reshape(k, m, cells), axis=1, out=proj[j : j + k])
    proj /= m
    return proj


def project_time_series(series, m: int) -> np.ndarray:
    """Average a per-slab time series over blocks of m fine slabs."""
    arr = np.asarray(series, dtype=float)
    if arr.size % m != 0:
        raise ValueError("series length is not a multiple of the block size")
    return arr.reshape(-1, m).mean(axis=1)


def linf_bounds(params: ModelParams) -> tuple[float, float]:
    """Invariant concentration bracket: m combines the infimum of the
    initial profile with alpha1/beta1, M its supremum with alpha0/beta0."""
    lo, hi = params.u_init.bounds(0.0, params.L0)
    return (
        min(lo, params.alpha1 / params.beta1),
        max(hi, params.alpha0 / params.beta0),
    )


def width_rate_bounds(params: ModelParams, m: float, M: float) -> tuple[float, float]:
    """Bracket for the discrete width rate d[L] implied by the bracket
    [m, M] on the concentrations."""
    lo = -params.alpha0 - params.R * params.alpha1 + m * (params.beta0 + params.R * params.beta1)
    hi = -params.alpha0 - params.R * params.alpha1 + M * (params.beta0 + params.R * params.beta1)
    return lo, hi


def velocity_bounds(params: ModelParams, m: float, M: float) -> tuple[float, float]:
    """Uniform bracket [v_flat, v_sharp] for all edge velocities, using the
    identity v = beta0 u_0 - alpha0 - xi * d[L] together with the d[L]
    bracket."""
    if m > M:
        raise ValueError("velocity_bounds: m must not exceed M")
    dL_lo, dL_hi = width_rate_bounds(params, m, M)
    v_flat = params.beta0 * m - params.alpha0 - max(dL_hi, 0.0)
    v_sharp = params.beta0 * M - params.alpha0 - min(dL_lo, 0.0)
    return v_flat, v_sharp


def mass_balance_defects(traj: Trajectory, mesh: Mesh, params: ModelParams) -> np.ndarray:
    """Per accepted step: L^n sum h u^n - L^{n-1} sum h u^{n-1}
    - dt (a - b u_0^n); vanishes for exact scheme solutions by telescoping."""
    dt = traj.time_grid.dt
    masses = row_integrals(traj.U[:, 1:-1], traj.L, mesh)
    inflow = dt * (params.a - params.b * traj.U[1:, 0])
    return np.diff(masses) - inflow


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    worst: float


@dataclass(frozen=True)
class TrajectoryReport:
    """Post-hoc verification of the per-step bounds; wave-dependent checks
    are None when the parameters admit no forward travelling wave."""

    closure: CheckResult
    mass_balance: CheckResult
    max_principle: CheckResult | None
    width_bound: CheckResult | None
    interface_rate: CheckResult | None
    width_rate: CheckResult | None
    velocity_bracket: CheckResult | None

    @property
    def all_passed(self) -> bool:
        checks = (
            self.closure,
            self.mass_balance,
            self.max_principle,
            self.width_bound,
            self.interface_rate,
            self.width_rate,
            self.velocity_bracket,
        )
        return all(c.passed for c in checks if c is not None)


def verify_trajectory(
    traj: Trajectory,
    mesh: Mesh,
    params: ModelParams,
) -> TrajectoryReport:
    """Check every stored step against the invariants the scheme guarantees.

    Closure and mass balance hold unconditionally; the concentration
    bracket, width bound and rate/velocity brackets are proved only in the
    forward wave regime and are skipped otherwise.
    """
    closure_worst = float(np.max(np.abs(traj.L - (traj.X1 - traj.X0))))
    closure = CheckResult(closure_worst <= 1e-8 * max(1.0, params.L0), closure_worst)

    defects = mass_balance_defects(traj, mesh, params)
    mass_worst = float(np.abs(defects).max()) if defects.size else 0.0
    mass = CheckResult(mass_worst <= _MASS_TOL, mass_worst)

    regime = classify(params)
    forward_wave = regime.kind is RegimeKind.UNIQUE_WAVE and regime.wave.c_hat > 0.0
    max_principle = width_bound = interface_rate = width_rate = velocity_bracket = None
    if forward_wave:
        m, M = linf_bounds(params)
        L_hat = regime.wave.L_hat
        dt = traj.time_grid.dt
        x1_lo = -params.alpha1 + params.beta1 * m
        x1_hi = -params.alpha1 + params.beta1 * M
        dL_lo, dL_hi = width_rate_bounds(params, m, M)
        v_flat, v_sharp = velocity_bounds(params, m, M)
        u_lo = np.inf
        u_hi = -np.inf
        worst_width = worst_x1 = worst_dl = worst_v = 0.0
        for _, U, X0, X1, L in step_blocks(traj):
            u_lo = min(u_lo, float(U.min()))
            u_hi = max(u_hi, float(U.max()))

            lower = np.minimum(m / M * L[:-1], L_hat)
            worst_width = max(worst_width, float(np.max(lower - L[1:], initial=0.0)))

            dX1 = np.diff(X1) / dt
            dL = np.diff(L) / dt
            worst_x1 = max(
                worst_x1,
                float(np.max(x1_lo - dX1, initial=0.0)),
                float(np.max(dX1 - x1_hi, initial=0.0)),
            )
            worst_dl = max(
                worst_dl,
                float(np.max(dL_lo - dL, initial=0.0)),
                float(np.max(dL - dL_hi, initial=0.0)),
            )

            v = _frame_velocity(
                np.diff(X0)[:, None], np.diff(X1)[:, None], np.diff(L)[:, None], mesh, dt, params.R
            )
            # Rounding is monotone, so the largest v_flat - v and v - v_sharp
            # are those at the extremes of v.
            worst_v = max(worst_v, v_flat - float(v.min()), float(v.max()) - v_sharp)
        worst = max(m - u_lo, u_hi - M, 0.0)
        max_principle = CheckResult(u_lo >= m - _BRACKET_TOL and u_hi <= M + _BRACKET_TOL, worst)
        width_bound = CheckResult(worst_width < _BRACKET_TOL, worst_width)
        interface_rate = CheckResult(worst_x1 <= _BRACKET_TOL, worst_x1)
        width_rate = CheckResult(worst_dl <= _BRACKET_TOL, worst_dl)
        velocity_bracket = CheckResult(worst_v <= _BRACKET_TOL, worst_v)

    return TrajectoryReport(
        closure=closure,
        mass_balance=mass,
        max_principle=max_principle,
        width_bound=width_bound,
        interface_rate=interface_rate,
        width_rate=width_rate,
        velocity_bracket=velocity_bracket,
    )


# ---------------------------------------------------------------------------
# Grid refinement study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelResult:
    """Errors and rates of one refinement level; rates are None on the
    coarsest level."""

    k: int
    h: float
    dt: float
    err_w: float
    rate_w: float | None
    err_x0: float
    rate_x0: float | None
    err_x1: float
    rate_x1: float | None


@dataclass(frozen=True)
class ConvergenceReport:
    levels: tuple[LevelResult, ...]


def convergence_study(
    params: ModelParams,
    max_level: int = 3,
    ref_level: int = 4,
    t_final: float = 0.2,
    opts: SolverOptions = SolverOptions(),
    initial_mode: InitialMode = InitialMode.CELL_AVERAGE,
) -> ConvergenceReport:
    """Nested-mesh refinement study: level k uses _BASE_CELLS * 2^k cells and
    _BASE_STEPS * 4^k steps up to t_final (50 * 2^k and 10 * 4^k), and level
    ref_level serves as reference.  Profile errors are space-time L2
    distances to the projected reference; interface errors are sup-in-time
    distances to the time-projected reference, with rates taken w.r.t. the
    time step.

    The reference is run one level-0 slab (4^ref_level steps) at a time,
    each slab continuing from the last state of the one before.  Each slab
    is projected onto every level as soon as it is run and then dropped, so
    the study holds one slab of the reference, never its whole trajectory.
    The errors are bitwise those of one reference run projected whole: a
    continued run repeats the same step solves, and project_reference sums
    each coarse value in the same order whatever block it reads.

    A negative max_level, a ref_level not above it, a t_final not positive
    and finite, a reference step that is unusable, or a stored slab or finest
    level that would not fit in memory, is rejected with ValueError first."""
    if max_level < 0:
        raise ValueError(f"convergence_study: max_level must be at least 0, got {max_level!r}")
    if ref_level <= max_level:
        raise ValueError("convergence_study: ref_level must exceed max_level")
    if not _positive_finite(t_final):
        raise ValueError(f"convergence_study: t_final must be positive and finite, got {t_final!r}")

    def level_cells(k: int) -> int:
        return _BASE_CELLS * 2**k

    def level_grid(k: int) -> TimeGrid:
        return TimeGrid.from_horizon(t_final, _BASE_STEPS * 4**k)

    # The reference level has the study's smallest step; the study stores
    # one reference slab and each level's trajectory, of which the finest
    # is the largest.  Check all three before any mesh is built.
    try:
        ref_grid = level_grid(ref_level)
    except (ValueError, OverflowError) as exc:
        raise ValueError(
            f"convergence_study: t_final {t_final!r} at reference level {ref_level} "
            f"gives no usable time step: {exc}"
        ) from exc
    slab_steps = ref_grid.n_steps // _BASE_STEPS
    for name, k, n_steps in (
        ("reference level", ref_level, slab_steps),
        ("level", max_level, _BASE_STEPS * 4**max_level),
    ):
        try:
            check_storable(level_cells(k), n_steps)
        except ValueError as exc:
            raise ValueError(f"convergence_study: {name} {k}: {exc}") from exc

    levels = range(max_level + 1)
    meshes = [uniform_mesh(level_cells(k)) for k in levels]
    grids = [level_grid(k) for k in levels]
    # Each level's projected reference, one row per time slab, and the
    # reference interface positions, filled slab by slab.
    projs = [np.empty((grid.n_steps, mesh.num_cells)) for mesh, grid in zip(meshes, grids)]
    ref_x0 = np.empty(ref_grid.n_steps)
    ref_x1 = np.empty(ref_grid.n_steps)

    ref_mesh = uniform_mesh(level_cells(ref_level))
    slab_grid = TimeGrid.from_step(ref_grid.dt, slab_steps)
    level_slabs = [TimeGrid.from_step(grid.dt, grid.n_steps // _BASE_STEPS) for grid in grids]
    start = None
    for s in range(_BASE_STEPS):
        slab = run(params, ref_mesh, slab_grid, opts, initial_mode, initial_state=start)
        if not slab.completed:
            raise RuntimeError(f"convergence_study: reference level {ref_level} did not complete")
        ref_x0[s * slab_steps : (s + 1) * slab_steps] = slab.X0[1:]
        ref_x1[s * slab_steps : (s + 1) * slab_steps] = slab.X1[1:]
        for proj, mesh, coarse in zip(projs, meshes, level_slabs):
            n = coarse.n_steps
            proj[s * n : (s + 1) * n] = project_reference(slab, ref_mesh, mesh, coarse)
        # Continue from a copy of the last state, so that the slab's rows
        # are freed before the next slab is run.
        start = State(slab.U[-1], slab.X0[-1], slab.X1[-1], slab.L[-1])
        del slab

    rows = []
    prev_err = None
    prev_h = None
    prev_dt = None
    for k, mesh, grid, proj in zip(levels, meshes, grids, projs):
        traj = run(params, mesh, grid, opts, initial_mode)
        if not traj.completed:
            raise RuntimeError(f"convergence_study: level {k} did not complete")

        # The squared error, in place of the projection.
        np.subtract(_interior_field(traj), proj, out=proj)
        np.multiply(proj, proj, out=proj)
        err_w = float(np.sqrt(grid.dt * np.sum(proj @ mesh.cell_sizes)))
        m = ref_grid.n_steps // grid.n_steps
        x0, x1 = traj.X0[1:], traj.X1[1:]
        err_x0 = float(np.abs(x0 - project_time_series(ref_x0, m)).max())
        err_x1 = float(np.abs(x1 - project_time_series(ref_x1, m)).max())

        h = float(mesh.cell_sizes.max())
        if prev_err is None:
            rates = (None, None, None)
        else:
            log_h = np.log(h) - np.log(prev_h)
            log_dt = np.log(grid.dt) - np.log(prev_dt)
            rates = (
                float((np.log(err_w) - np.log(prev_err[0])) / log_h),
                float((np.log(err_x0) - np.log(prev_err[1])) / log_dt),
                float((np.log(err_x1) - np.log(prev_err[2])) / log_dt),
            )
        rows.append(
            LevelResult(
                k=k,
                h=h,
                dt=grid.dt,
                err_w=err_w,
                rate_w=rates[0],
                err_x0=err_x0,
                rate_x0=rates[1],
                err_x1=err_x1,
                rate_x1=rates[2],
            )
        )
        prev_err = (err_w, err_x0, err_x1)
        prev_h = h
        prev_dt = grid.dt

    return ConvergenceReport(levels=tuple(rows))


def write_convergence_csv(report: ConvergenceReport, path) -> None:
    """Deterministic CSV mirroring the refinement table: one row per level
    with errors and rates; rates are blank on the coarsest level."""
    names = ("k", "h", "dt", "err_w", "rate_w", "err_x0", "rate_x0", "err_x1", "rate_x1")
    write_csv(
        path,
        names,
        [
            ["" if getattr(row, name) is None else getattr(row, name) for row in report.levels]
            for name in names
        ],
    )
