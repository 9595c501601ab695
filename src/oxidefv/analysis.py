"""Quantitative diagnostics and experiment harnesses: distance to the
travelling wave, nested-mesh projection, the grid refinement study, and
post-hoc verification of the scheme's a priori bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _BLOCK_ELEMS,
    InitialMode,
    Mesh,
    ModelParams,
    State,
    Termination,
    TerminationKind,
    TimeGrid,
    Trajectory,
    _block_steps,
    _check_args,
    _check_positive,
    _check_values,
    _finite,
    _frame_velocity,
    _integer,
    _positive_int,
    check_storable,
    row_integrals,
    step_blocks,
    uniform_mesh,
)
from .formatting import write_csv
# run is uncalled here; the benchmark's tracer wraps analysis.run.
from .scheme import SolverOptions, run, run_blocks  # noqa: F401
from .waves import RegimeKind, TravellingWave, classify, wave_profile_on_mesh

_EDGE_MATCH_TOL = 1e-12
# verify_trajectory's slack on the proved brackets (concentration, width,
# rates, velocities) and its bound on the worst mass-balance defect.
_BRACKET_TOL = 1e-9
_MASS_TOL = 1e-8
# convergence_study's level 0: its cell count and its number of time steps.
_BASE_CELLS = 50
_BASE_STEPS = 10
# The finest level whose step count a float holds: 10 * 4^510 is 1.1e308,
# 10 * 4^511 above the largest float.
_MAX_LEVEL = 510


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
    # the target tiled to a block's rows: subtracting a broadcast row costs
    # more than the arithmetic on a few rows
    rows = min(_block_steps(traj.U.shape[1]) + 1, traj.U.shape[0])
    target = np.tile(wave_profile_on_mesh(wave, mesh)[1:-1], (rows, 1))
    d = np.empty(traj.L.shape)
    for start, U, _, _, L in step_blocks(traj):
        diff = U[:, 1:-1] - target[: L.size]
        d[start : start + L.size] = row_integrals(diff * diff, L, mesh)
    return d


def _interior_field(traj: Trajectory) -> np.ndarray:
    """Space-time field of interior cell values, one row per time slab
    (slab n carries the step-n state): a read-only view of traj.U."""
    if not traj.completed:
        raise ValueError("projection requires a completed trajectory")
    return traj.U[1:, 1:-1]


def _space_blocks(fine_mesh: Mesh, coarse_mesh: Mesh) -> np.ndarray:
    """Indices of the fine edges that coincide with the coarse edges;
    rejects non-nested meshes."""
    fine = fine_mesh.edges
    coarse = coarse_mesh.edges
    idx = np.clip(np.searchsorted(fine, coarse), 0, fine.size - 1)
    # searchsorted returns the left insertion point; snap to the nearer edge
    below = np.clip(idx - 1, 0, fine.size - 1)
    idx = np.where(np.abs(fine[below] - coarse) < np.abs(fine[idx] - coarse), below, idx)
    if np.any(np.abs(fine[idx] - coarse) > _EDGE_MATCH_TOL):
        raise ValueError("meshes are not nested: coarse edges must be fine edges")
    return idx


class _CoarseSums:
    """The running sums of a projection onto one coarse mesh, over n_c
    coarse time steps of m fine rows each, with their set-up: the fine
    edges of the coarse cells, and the coarse cell sizes tiled to a block
    of up to rows fine rows with the block's averages.  Fine rows are added
    in time order, from the first fine row of the first coarse step;
    mean() ends the sums and starts them over."""

    def __init__(self, fine_mesh: Mesh, coarse_mesh: Mesh, n_c: int, m: int, rows: int):
        self.starts = _space_blocks(fine_mesh, coarse_mesh)[:-1]
        self.m = m
        cells = coarse_mesh.num_cells
        self.sums = np.empty((n_c, cells))
        self.added = 0
        self.h_c = np.tile(coarse_mesh.cell_sizes, (rows, 1))
        self.space_avg = np.empty_like(self.h_c)
        # A one-cell coarse mesh sums each coarse step's m averages at once,
        # with numpy's pairwise summation, which sums of runs of rows would
        # not repeat: it keeps the m averages until the step is full.
        self.step_avg = np.empty((m, 1)) if cells == 1 else None

    def add(self, weighted: np.ndarray) -> None:
        """Add the next fine rows, weighted by the fine cell sizes: each
        coarse value is summed row by row from the first fine row of its
        coarse step, whatever blocks its rows come in."""
        n = weighted.shape[0]
        # the block's rows averaged over each coarse cell
        avg = self.space_avg[:n]
        np.add.reduceat(weighted, self.starts, axis=1, out=avg)
        avg /= self.h_c[:n]
        m, sums = self.m, self.sums
        done = 0
        while done < n:
            # the block's rows done .. done + k - 1 are rows r .. r + k - 1
            # of coarse step j
            j, r = divmod(self.added, m)
            k = min(n - done, m - r)
            run = avg[done : done + k]
            if self.step_avg is not None:
                self.step_avg[r : r + k] = run
                if r + k == m:
                    np.add.reduce(self.step_avg, axis=0, out=sums[j])
            else:
                if r:
                    # the running sum joins the run's first row, so that the
                    # rows are still added one by one in order
                    run[0] += sums[j]
                np.add.reduce(run, axis=0, out=sums[j])
            done += k
            self.added += k

    def mean(self) -> np.ndarray:
        """The sums over each coarse step's m fine rows divided by m, as
        np.mean would, in place; the next row added starts them over."""
        self.sums /= self.m
        self.added = 0
        return self.sums


class _Projection:
    """project_reference's running sums of one fine field of at most
    fine_rows rows onto each coarse target (coarse_mesh, n_c, m), in
    `coarse`, built once.  Each block of at most about _BLOCK_ELEMS fine
    entries is weighted by the fine cell sizes once, for every target, in a
    buffer reused from block to block with the cell sizes tiled to its
    rows: numpy would copy the strided rows and the broadcast cell sizes
    into fresh buffers on every call, which costs more than the arithmetic
    on a few rows."""

    def __init__(self, fine_mesh: Mesh, targets, fine_rows: int):
        self.rows = rows = min(max(1, _BLOCK_ELEMS // fine_mesh.num_cells), fine_rows)
        self.h = np.tile(fine_mesh.cell_sizes, (rows, 1))
        self.weighted = np.empty_like(self.h)
        self.coarse = [_CoarseSums(fine_mesh, mesh, n_c, m, rows) for mesh, n_c, m in targets]

    def add(self, field: np.ndarray) -> None:
        """Add the rows of field, the interior values of the next fine rows."""
        for first in range(0, field.shape[0], self.rows):
            w = self.weighted[: min(self.rows, field.shape[0] - first)]
            np.copyto(w, field[first : first + w.shape[0]])
            w *= self.h[: w.shape[0]]
            for coarse in self.coarse:
                coarse.add(w)


def project_reference(
    fine,
    fine_mesh: Mesh | None = None,
    coarse_mesh: Mesh | None = None,
    coarse_time: TimeGrid | None = None,
    *,
    into: _Projection | None = None,
) -> np.ndarray | None:
    """Orthogonal projection of the fine space-time field onto the coarse
    piecewise-constant space: measure-weighted averages of the fine values
    over each coarse space-time cell.  Requires exact nesting in both
    space and time.

    fine is a completed trajectory on fine_mesh, and the result has one row
    per step of coarse_time.  It is read in blocks of at most about
    _BLOCK_ELEMS entries, each split where a coarse time step ends.  So the
    temporaries do not grow with the length of the run or with m, the fine
    steps per coarse step, and each coarse value is summed in the same
    order as over the whole field: row by row, from the first fine row of
    its step (a one-cell coarse mesh keeps a step's m averages and sums
    them at once, as numpy sums one column of m rows).

    The block form, project_reference(field, into=projection), adds field,
    the interior values of the next fine rows, to the running sums of a
    _Projection, in the same order; convergence_study projects each block
    of the reference onto every level so, as its run hands the block out.
    """
    if into is not None:
        into.add(fine)
        return None
    fine_time = fine.time_grid
    if abs(fine_time.t_final - coarse_time.t_final) > 1e-12 * max(1.0, coarse_time.t_final):
        raise ValueError("time grids cover different horizons")
    if fine_time.n_steps % coarse_time.n_steps != 0:
        raise ValueError("time grids are not nested")
    m = fine_time.n_steps // coarse_time.n_steps
    projection = _Projection(fine_mesh, [(coarse_mesh, coarse_time.n_steps, m)], fine_time.n_steps)
    projection.add(_interior_field(fine))
    return projection.coarse[0].mean()


def project_time_series(series, m: int) -> np.ndarray:
    """Average a per-slab time series over blocks of m fine slabs.  Raises
    ValueError unless each entry of series is a number and m a positive
    integer."""
    arr = _check_values("project_time_series", "series", series)
    _check_args("project_time_series", _positive_int, "a positive integer", m=m)
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
    [m, M] on the concentrations, two numbers (ValueError otherwise)."""
    _check_args("width_rate_bounds", _finite, "finite", m=m, M=M)
    lo = -params.alpha0 - params.R * params.alpha1 + m * (params.beta0 + params.R * params.beta1)
    hi = -params.alpha0 - params.R * params.alpha1 + M * (params.beta0 + params.R * params.beta1)
    return lo, hi


def velocity_bounds(params: ModelParams, m: float, M: float) -> tuple[float, float]:
    """Uniform bracket [v_flat, v_sharp] for all edge velocities, using the
    identity v = beta0 u_0 - alpha0 - xi * d[L] together with the d[L]
    bracket."""
    _check_args("velocity_bounds", _finite, "finite", m=m, M=M)
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


def _excess(x: np.ndarray, lo: float, hi: float) -> float:
    """How far the entries of x reach below lo or above hi: 0 when none
    does or x is empty.  Rounding is monotone, so the extremes of x decide."""
    return max(lo - float(x.min(initial=lo)), float(x.max(initial=hi)) - hi)


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
        worst_u = worst_width = worst_x1 = worst_dl = worst_v = 0.0
        for _, U, X0, X1, L in step_blocks(traj):
            worst_u = max(worst_u, _excess(U, m, M))
            lower = np.minimum(m / M * L[:-1], L_hat)
            worst_width = max(worst_width, float(np.max(lower - L[1:], initial=0.0)))
            worst_x1 = max(worst_x1, _excess(np.diff(X1) / dt, x1_lo, x1_hi))
            worst_dl = max(worst_dl, _excess(np.diff(L) / dt, dL_lo, dL_hi))
            v = _frame_velocity(
                np.diff(X0)[:, None], np.diff(X1)[:, None], np.diff(L)[:, None], mesh, dt, params.R
            )
            worst_v = max(worst_v, _excess(v, v_flat, v_sharp))
        max_principle = CheckResult(worst_u <= _BRACKET_TOL, worst_u)
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


class _SlabSteps:
    """The blocks of one of convergence_study's runs, handed out one
    level-0 slab at a time: it holds the block not yet used up."""

    def __init__(self, blocks, name: str):
        self._blocks, self._name = blocks, name
        self._held = None
        self._done = 0  # the steps handed out

    def _failed(self) -> RuntimeError:
        return RuntimeError(f"convergence_study: {self._name} did not complete")

    def until(self, stop: int):
        """Yield (i, U, X0, X1) of the steps after those handed out, up to
        step stop: views of the rows of each block, whose first is step
        i + 1.  Raises RuntimeError, naming the run, when it ended before
        step stop."""
        while self._done < stop:
            if self._held is None:
                self._held = next(self._blocks)
            if isinstance(self._held, Termination):
                raise self._failed()
            start, U, X0, X1 = self._held[:4]
            last = start + U.shape[0] - 1
            i, lo, hi = self._done, self._done - start + 1, min(last, stop) - start + 1
            self._done = min(last, stop)
            if last <= stop:
                self._held = None
            if lo < hi:
                yield i, U[lo:hi], X0[lo:hi], X1[lo:hi]
            # a used-up block is freed before the next one is stepped
            del U, X0, X1

    def finish(self) -> None:
        """Raise RuntimeError, naming the run, unless it completed; called
        once every step has been handed out."""
        end = self._held if self._held is not None else next(self._blocks)
        if not (isinstance(end, Termination) and end.kind is TerminationKind.COMPLETED):
            raise self._failed()


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

    The reference and every level are each one run_blocks generator, and
    the study advances them one level-0 slab (4^k steps of level k) at a
    time.  In each slab the reference goes first: each of its blocks is
    projected onto every level's slab as it arrives, into running sums.
    Then each level goes through its slab, and of its squared error only
    the h-weighted sum of each step is kept.  So the study holds each
    level's projected slab, the reference's interface positions in the
    slab, one block of each run and 10 * 4^k floats per level; no slab of
    any run is stored.  The errors are bitwise those of whole runs: the
    runs step as run() does, project_reference sums each coarse value in
    the same order whatever blocks its rows come in, and each step's sum is
    one per-row dot whatever block it lies in.

    A max_level that is not an integer of at least 0, a ref_level that is
    not an integer above it, a t_final not positive and finite, a reference
    step that is unusable (every level above _MAX_LEVEL), or a reference
    level whose slab of rows would not fit in memory, is rejected with
    ValueError first.  The study no longer stores that slab, but a level
    so fine could not be run in any useful time: the check makes it an
    error at once.
    A run that does not complete raises RuntimeError, naming the first run
    found to fail: in each slab the reference is advanced first, then each
    level in turn, and once every slab is done each run's end is checked in
    the same order."""
    for name, level in (("max_level", max_level), ("ref_level", ref_level)):
        if not _integer(level):
            raise ValueError(f"convergence_study: {name} must be an integer, got {level!r}")
    if max_level < 0:
        raise ValueError(f"convergence_study: max_level must be at least 0, got {max_level!r}")
    if ref_level <= max_level:
        raise ValueError("convergence_study: ref_level must exceed max_level")
    _check_positive("convergence_study", "t_final", t_final)

    def level_cells(k: int) -> int:
        return _BASE_CELLS * 2**k

    def level_grid(k: int) -> TimeGrid:
        return TimeGrid.from_horizon(t_final, _BASE_STEPS * 4**k)

    # The reference level has the study's smallest step and its largest
    # slab.  Check both before any mesh is built.
    try:
        if ref_level > _MAX_LEVEL:
            # bounded before 4**ref_level, which grows with ref_level's digits
            raise ValueError(f"ref_level above {_MAX_LEVEL} takes more steps than a float holds")
        ref_grid = level_grid(ref_level)
    except ValueError as exc:
        raise ValueError(
            f"convergence_study: t_final {t_final!r} at reference level {ref_level} "
            f"gives no usable time step: {exc}"
        ) from exc
    slab_steps = ref_grid.n_steps // _BASE_STEPS
    try:
        check_storable(level_cells(ref_level), slab_steps)
    except ValueError as exc:
        raise ValueError(f"convergence_study: reference level {ref_level}: {exc}") from exc

    levels = range(max_level + 1)
    meshes = [uniform_mesh(level_cells(k)) for k in levels]
    grids = [level_grid(k) for k in levels]
    ref_mesh = uniform_mesh(level_cells(ref_level))
    ref = _SlabSteps(
        run_blocks(params, ref_mesh, ref_grid, opts, initial_mode), f"reference level {ref_level}"
    )
    runs = [
        _SlabSteps(run_blocks(params, mesh, grid, opts, initial_mode), f"level {k}")
        for k, mesh, grid in zip(levels, meshes, grids)
    ]
    # Each level's slab of the projected reference, summed block by block.
    projection = _Projection(
        ref_mesh,
        [(mesh, grid.n_steps // _BASE_STEPS, ref_grid.n_steps // grid.n_steps)
         for mesh, grid in zip(meshes, grids)],
        ref_grid.n_steps,
    )
    # The reference's X0 and X1 in the slab.
    ref_x = np.empty((2, slab_steps))
    # Each level's squared error summed over the cells of each step,
    # h-weighted, and its largest interface errors in each level-0 slab,
    # filled slab by slab.
    row_errs = [np.empty(grid.n_steps) for grid in grids]
    x_errs = np.zeros((len(levels), _BASE_STEPS, 2))

    for s in range(_BASE_STEPS):
        for i, U, X0, X1 in ref.until((s + 1) * slab_steps):
            project_reference(U[:, 1:-1], into=projection)
            i -= s * slab_steps
            ref_x[:, i : i + len(X0)] = X0, X1
            # the block is freed before the next one is stepped
            del U, X0, X1
        for k, steps, mesh, sums, row_err in zip(levels, runs, meshes, projection.coarse, row_errs):
            proj = sums.mean()
            n = len(proj)
            x_ref = np.array([project_time_series(x, slab_steps // n) for x in ref_x])
            for i, U, X0, X1 in steps.until((s + 1) * n):
                rows = slice(i - s * n, i - s * n + len(X0))
                sq = U[:, 1:-1] - proj[rows]
                np.multiply(sq, sq, out=sq)
                # row_integrals' per-row dot: its bits do not depend on how
                # the rows are grouped, where a matrix-vector product's do
                row_err[i : i + len(X0)] = row_integrals(sq, 1.0, mesh)
                x_err = np.abs(np.array((X0, X1)) - x_ref[:, rows]).max(axis=1)
                np.maximum(x_errs[k, s], x_err, out=x_errs[k, s])
                del U, X0, X1, sq
    for steps in (ref, *runs):
        steps.finish()

    h = [float(mesh.cell_sizes.max()) for mesh in meshes]
    dt = [grid.dt for grid in grids]
    err_w = [np.sqrt(grid.dt * np.sum(row_err)) for grid, row_err in zip(grids, row_errs)]
    # One row per error (w, x0, x1), one column per level; each rate is
    # taken between a level and the one before, w.r.t. h or dt.
    errs = np.array([err_w, *x_errs.max(axis=1).T])
    rates = np.diff(np.log(errs)) / np.diff(np.log([h, dt, dt]))
    rows = []
    for k in levels:
        err = errs[:, k].tolist()
        rate = rates[:, k - 1].tolist() if k else [None] * 3
        rows.append(
            LevelResult(
                k=k,
                h=h[k],
                dt=dt[k],
                err_w=err[0],
                rate_w=rate[0],
                err_x0=err[1],
                rate_x0=rate[1],
                err_x1=err[2],
                rate_x1=rate[2],
            )
        )
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
