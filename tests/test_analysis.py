import dataclasses
import os
import tracemalloc
from collections import deque

import numpy as np
import pytest

from oxidefv import (
    ExponentialProfile,
    InitialMode,
    Mesh,
    ModelParams,
    SolverOptions,
    State,
    Termination,
    TerminationKind,
    TimeGrid,
    Trajectory,
    build_ledger,
    builtin_densities,
    classify,
    convergence_study,
    discretize_initial,
    linf_bounds,
    mass_balance_defects,
    project_reference,
    run,
    run_blocks,
    uniform_mesh,
    velocities,
    velocity_bounds,
    verify_trajectory,
    wave_distance,
    wave_distances,
    wave_profile_on_mesh,
    width_rate_bounds,
    write_convergence_csv,
)
from oxidefv import analysis, core
from oxidefv.analysis import project_time_series
from conftest import make_tc1, make_tc3, trajectory_of


def synthetic_trajectory(mesh, fields, dt):
    states = tuple(
        State(u=np.concatenate([[f[0]], f, [f[-1]]]), X0=0.0, X1=1.0, L=1.0)
        for f in fields
    )
    return trajectory_of(states, TimeGrid.from_step(dt, len(fields) - 1))


class TestWaveDistance:
    def test_exact_wave_state_is_zero(self, tc1):
        mesh = uniform_mesh(64)
        wave = classify(tc1).wave
        s = State(u=wave_profile_on_mesh(wave, mesh), X0=0.0, X1=wave.L_hat,
                  L=wave.L_hat)
        assert wave_distance(s, mesh, wave) == 0.0

    def test_constant_offset(self, tc1):
        mesh = uniform_mesh(32)
        wave = classify(tc1).wave
        eps = 0.23
        s = State(u=wave_profile_on_mesh(wave, mesh) + eps, X0=0.0, X1=wave.L_hat,
                  L=wave.L_hat)
        expected = wave.L_hat * eps**2
        assert abs(wave_distance(s, mesh, wave) - expected) <= 1e-12 * expected

    def test_target_follows_the_wave_and_the_mesh(self, tc1):
        # alternating pairs of equal cell count: each distance is measured
        # against its own wave and mesh, with the bits of the direct formula
        rng = np.random.default_rng(47)
        wave = classify(tc1).wave
        waves = (wave, dataclasses.replace(wave, L_hat=1.1 * wave.L_hat))
        edges = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 31)), [1.0]))
        meshes = (uniform_mesh(32), Mesh(edges))
        s = State(u=rng.uniform(0.5, 1.5, 34), X0=0.0, X1=1.3, L=1.3)
        for _ in range(2):
            for w in waves:
                for mesh in meshes:
                    diff = s.u[1:-1] - w.profile_rescaled(mesh.centers[1:-1])
                    want = float(s.L * np.dot(mesh.cell_sizes, diff * diff))
                    assert wave_distance(s, mesh, w) == want


def per_row_distances(traj, mesh, wave) -> list[float]:
    return [wave_distance(s, mesh, wave) for s in traj.states]


class TestWaveDistances:
    """wave_distances reads the stored rows in blocks; each entry has the
    bits of the one-row wave_distance."""

    def test_run_over_many_blocks(self, tc1, monkeypatch):
        mesh = uniform_mesh(100)
        wave = classify(tc1).wave
        traj = run(tc1, mesh, TimeGrid.from_step(1e-2, 300))
        want = per_row_distances(traj, mesh, wave)
        assert want[0] > want[-1] > 0.0
        # eight blocks of 40 steps
        assert wave_distances(traj, mesh, wave).tolist() == want
        # one step a block: each block's last row is the next block's first
        monkeypatch.setattr(core, "_BLOCK_ELEMS", 1)
        assert wave_distances(traj, mesh, wave).tolist() == want

    def test_non_uniform_mesh_and_partial_last_block(self, tc1):
        rng = np.random.default_rng(48)
        edges = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 299)), [1.0]))
        mesh = Mesh(edges)
        rows = 3 * (core._BLOCK_ELEMS // 302) + 2
        fields = list(rng.uniform(0.1, 2.0, (rows, 300)))
        traj = synthetic_trajectory(mesh, fields, 1e-3)
        wave = classify(tc1).wave
        assert wave_distances(traj, mesh, wave).tolist() == per_row_distances(traj, mesh, wave)

    def test_one_row_trajectory(self, tc1):
        mesh = uniform_mesh(16)
        wave = classify(tc1).wave
        s = State(u=wave_profile_on_mesh(wave, mesh) + 0.1, X0=0.0, X1=1.5, L=1.5)
        traj = trajectory_of([s], TimeGrid.from_step(0.1, 1),
                             Termination(TerminationKind.SOLVER_FAILED, step=1))
        got = wave_distances(traj, mesh, wave)
        assert got.shape == (1,)
        assert got.tolist() == [wave_distance(s, mesh, wave)]


class TestProjection:
    def test_constant_field(self):
        fine_mesh = uniform_mesh(8)
        coarse_mesh = uniform_mesh(2)
        fields = [np.full(8, 3.3) for _ in range(5)]
        traj = synthetic_trajectory(fine_mesh, fields, 0.1)
        proj = project_reference(traj, fine_mesh, coarse_mesh,
                                 TimeGrid.from_step(0.2, 2))
        assert proj.shape == (2, 2)
        assert np.allclose(proj, 3.3, rtol=0, atol=1e-15)

    def test_two_cell_average(self):
        fine_mesh = uniform_mesh(2)
        coarse_mesh = uniform_mesh(1)
        traj = synthetic_trajectory(fine_mesh, [np.array([1.0, 3.0])] * 2, 0.1)
        proj = project_reference(traj, fine_mesh, coarse_mesh,
                                 TimeGrid.from_step(0.1, 1))
        assert proj.shape == (1, 1)
        assert proj[0, 0] == 2.0

    def test_idempotent_on_coarse_data(self):
        mesh = uniform_mesh(4)
        rng = np.random.default_rng(42)
        fields = [rng.uniform(0.0, 2.0, 4) for _ in range(3)]
        traj = synthetic_trajectory(mesh, fields, 0.1)
        proj = project_reference(traj, mesh, mesh, TimeGrid.from_step(0.1, 2))
        assert np.allclose(proj, np.stack(fields[1:]), rtol=0, atol=0)

    def test_preserves_space_time_mass(self):
        fine_mesh = uniform_mesh(12)
        coarse_mesh = uniform_mesh(3)
        rng = np.random.default_rng(43)
        fields = [rng.uniform(0.0, 2.0, 12) for _ in range(9)]
        traj = synthetic_trajectory(fine_mesh, fields, 0.05)
        coarse_time = TimeGrid.from_step(0.2, 2)
        proj = project_reference(traj, fine_mesh, coarse_mesh, coarse_time)
        fine_mass = 0.05 * sum(np.dot(fine_mesh.cell_sizes, f) for f in fields[1:])
        coarse_mass = coarse_time.dt * np.sum(proj @ coarse_mesh.cell_sizes)
        assert abs(fine_mass - coarse_mass) <= 1e-13

    def test_rejects_non_nested(self):
        fine_mesh = uniform_mesh(4)
        traj = synthetic_trajectory(fine_mesh, [np.ones(4)] * 3, 0.1)
        with pytest.raises(ValueError):
            project_reference(traj, fine_mesh, uniform_mesh(3),
                              TimeGrid.from_step(0.1, 2))
        with pytest.raises(ValueError):
            project_reference(traj, fine_mesh, uniform_mesh(2),
                              TimeGrid.from_horizon(0.2, 3))

    def test_horizons_must_agree_to_rounding(self):
        # A grid's horizon is n_steps * dt, and from_horizon(0.1, n) takes
        # dt = 0.1 / n: 33 steps reach 0.1, 11 steps 0.10000000000000002.
        mesh = uniform_mesh(2)
        fine_time, coarse_time = TimeGrid.from_horizon(0.1, 33), TimeGrid.from_horizon(0.1, 11)
        assert fine_time.t_final != coarse_time.t_final
        traj = trajectory_of([State(u=np.ones(4), X0=0.0, X1=1.0, L=1.0)] * 34, fine_time)
        assert np.array_equal(project_reference(traj, mesh, mesh, coarse_time), np.ones((11, 2)))
        with pytest.raises(ValueError, match="time grids cover different horizons"):
            project_reference(traj, mesh, mesh, TimeGrid.from_horizon(0.1 + 1e-9, 11))

    def test_rejects_an_incomplete_trajectory(self, tc2):
        # testcase2's width collapses near t = 1.48, before the horizon 2
        mesh = uniform_mesh(8)
        traj = run(tc2, mesh, TimeGrid.from_horizon(2.0, 40))
        assert not traj.completed
        with pytest.raises(ValueError, match="projection requires a completed trajectory"):
            project_reference(traj, mesh, mesh, TimeGrid.from_horizon(2.0, 40))

    def test_time_series_blocks(self):
        assert np.allclose(project_time_series([1.0, 3.0, 5.0, 7.0], 2), [2.0, 6.0])
        with pytest.raises(ValueError):
            project_time_series([1.0, 2.0, 3.0], 2)


def full_stack_projection(fine, fine_mesh, coarse_mesh, coarse_time):
    """project_reference over the whole stacked fine field at once."""
    m = fine.time_grid.n_steps // coarse_time.n_steps
    field = np.stack([s.u[1:-1] for s in fine.states[1:]])
    weighted = field * fine_mesh.cell_sizes
    sums = np.add.reduceat(weighted, analysis._space_blocks(fine_mesh, coarse_mesh)[:-1], axis=1)
    space_avg = sums / coarse_mesh.cell_sizes
    return space_avg.reshape(coarse_time.n_steps, m, coarse_mesh.num_cells).mean(axis=1)


class TestBlockedProjection:
    """project_reference reads runs of one coarse time slab's fine rows, a
    block at a time; the result is that of the full-field formula, byte for
    byte."""

    @pytest.mark.parametrize(
        "budget",
        # one fine row per block; 2 and 3 of each slab's 4 rows per block,
        # the last block of a slab holding 1 of its rows for 3; one slab per
        # block, for a budget of one slab, of 3 slabs and of all 40
        [1, 2 * 96, 3 * 96, 4 * 96, 3 * 4 * 96, 1 << 30],
    )
    def test_uniform_nested_pair(self, budget, monkeypatch):
        fine_mesh, coarse_mesh = uniform_mesh(96), uniform_mesh(24)
        coarse_time = TimeGrid.from_step(0.04, 40)
        rng = np.random.default_rng(44)
        fields = list(rng.uniform(0.1, 2.0, (4 * 40 + 1, 96)))
        traj = synthetic_trajectory(fine_mesh, fields, 0.01)
        monkeypatch.setattr(core, "_BLOCK_ELEMS", budget)
        got = project_reference(traj, fine_mesh, coarse_mesh, coarse_time)
        want = full_stack_projection(traj, fine_mesh, coarse_mesh, coarse_time)
        assert got.tobytes() == want.tobytes()

    def test_one_cell_coarse_mesh(self):
        # a coarse slab of 64 rows of 100 cells does not fit in a block, but
        # numpy sums one column's 64 values pairwise: it is read whole
        fine_mesh, coarse_mesh = uniform_mesh(100), uniform_mesh(1)
        coarse_time = TimeGrid.from_step(0.64, 2)
        assert 64 * 100 > core._BLOCK_ELEMS
        fields = list(np.random.default_rng(47).uniform(0.1, 2.0, (2 * 64 + 1, 100)))
        traj = synthetic_trajectory(fine_mesh, fields, 0.01)
        got = project_reference(traj, fine_mesh, coarse_mesh, coarse_time)
        want = full_stack_projection(traj, fine_mesh, coarse_mesh, coarse_time)
        assert got.tobytes() == want.tobytes()

    def test_non_uniform_nested_pair_with_partial_last_block(self):
        rng = np.random.default_rng(45)
        edges = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 119)), [1.0]))
        fine_mesh = Mesh(edges)
        kept = np.sort(rng.choice(np.arange(1, 120), 29, replace=False))
        coarse_mesh = Mesh(edges[np.r_[0, kept, 120]])
        # each slab's 40 rows are read as a block of 34 and one of 6
        m, n_c = 40, 3
        assert m % (core._BLOCK_ELEMS // 120) == 6
        coarse_time = TimeGrid.from_step(m * 1e-3, n_c)
        fields = list(rng.uniform(0.1, 2.0, (m * n_c + 1, 120)))
        traj = synthetic_trajectory(fine_mesh, fields, 1e-3)
        got = project_reference(traj, fine_mesh, coarse_mesh, coarse_time)
        want = full_stack_projection(traj, fine_mesh, coarse_mesh, coarse_time)
        assert got.tobytes() == want.tobytes()

    def test_reference_study_levels(self, tc1):
        # the meshes and grids of a refinement study, on a solved trajectory
        fine_mesh = uniform_mesh(200)
        fine = run(tc1, fine_mesh, TimeGrid.from_horizon(0.05, 160))
        for cells, steps in ((25, 10), (50, 40), (100, 160)):
            coarse_mesh, coarse_time = uniform_mesh(cells), TimeGrid.from_horizon(0.05, steps)
            got = project_reference(fine, fine_mesh, coarse_mesh, coarse_time)
            want = full_stack_projection(fine, fine_mesh, coarse_mesh, coarse_time)
            assert got.tobytes() == want.tobytes()


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc (numpy's buffers included) during
    fn(), above what was live before; fn runs once untraced first."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestDiagnosticsMemory:
    """Diagnostics read bounded slices of the stored columns: none of them
    may stack the whole field again."""

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(46)
        rows, cells = 641, 400
        L = 1.0 + 0.01 * np.cumsum(rng.uniform(-1.0, 1.0, rows))
        X0 = 0.25 * np.arange(rows) * 1e-2
        traj = Trajectory(
            U=rng.uniform(0.5, 1.5, (rows, cells + 2)),
            X0=X0,
            X1=X0 + L,
            L=L,
            time_grid=TimeGrid.from_step(1e-2, rows - 1),
            termination=Termination(TerminationKind.COMPLETED),
            newton_iters=np.zeros(rows, dtype=int),
            residual_inf=np.full(rows, np.nan),
        )
        return traj, uniform_mesh(cells), make_tc1()

    def test_project_reference(self, case):
        traj, mesh, _ = case
        coarse = uniform_mesh(100)
        grid = TimeGrid.from_step(16e-2, 40)
        peak = traced_peak(lambda: project_reference(traj, mesh, coarse, grid))
        assert peak < traj.U.nbytes / 4

    def test_project_reference_within_a_coarse_slab(self, case):
        # one coarse slab holds 64 of the 640 fine rows, as large as U / 10
        traj, mesh, _ = case
        coarse = uniform_mesh(50)
        grid = TimeGrid.from_step(64e-2, 10)
        peak = traced_peak(lambda: project_reference(traj, mesh, coarse, grid))
        assert peak < traj.U.nbytes / 4

    def test_build_ledger(self, case):
        traj, mesh, params = case
        for density in builtin_densities():
            peak = traced_peak(lambda: build_ledger(traj, mesh, params, density))
            assert peak < traj.U.nbytes / 4

    def test_verify_trajectory(self, case):
        traj, mesh, params = case
        peak = traced_peak(lambda: verify_trajectory(traj, mesh, params))
        assert peak < traj.U.nbytes / 4

    def test_wave_distances(self, case):
        traj, mesh, params = case
        wave = classify(params).wave
        peak = traced_peak(lambda: wave_distances(traj, mesh, wave))
        assert peak < traj.U.nbytes / 4


class TestBounds:
    def test_reference_case_bracket(self):
        m, M = linf_bounds(make_tc1(offset=2.0))
        assert m == 0.125
        assert M == 3.0

    def test_degenerate_bracket(self):
        params = ModelParams(a=1, b=1, alpha0=2, beta0=1, alpha1=4, beta1=2, R=1,
                             L0=1.0, u_init=ExponentialProfile(0.0, 0.0, 2.0))
        assert linf_bounds(params) == (2.0, 2.0)

    def test_constant_profile_bracket(self):
        params = ModelParams(a=1, b=1, alpha0=2, beta0=1, alpha1=1, beta1=1, R=1,
                             L0=1.0, u_init=ExponentialProfile(0.0, 0.0, 5.0))
        assert linf_bounds(params) == (1.0, 5.0)

    def test_velocity_bounds_order(self, tc1):
        m, M = linf_bounds(tc1)
        v_flat, v_sharp = velocity_bounds(tc1, m, M)
        assert v_flat <= v_sharp
        with pytest.raises(ValueError):
            velocity_bounds(tc1, 2.0, 1.0)

    def test_degenerate_velocity_interval(self):
        params = ModelParams(a=1, b=1, alpha0=2, beta0=1, alpha1=4, beta1=2, R=1,
                             L0=1.0, u_init=ExponentialProfile(0.0, 0.0, 2.0))
        c = 2.0
        v_flat, v_sharp = velocity_bounds(params, c, c)
        dl_lo, dl_hi = width_rate_bounds(params, c, c)
        assert dl_lo == dl_hi
        assert v_flat == params.beta0 * c - params.alpha0 - max(dl_hi, 0.0)
        assert v_sharp == params.beta0 * c - params.alpha0 - min(dl_lo, 0.0)

    def test_observed_velocities_inside_bracket(self, tc1):
        mesh = uniform_mesh(50)
        traj = run(tc1, mesh, TimeGrid.from_step_and_horizon(1e-2, 1.0))
        m, M = linf_bounds(tc1)
        v_flat, v_sharp = velocity_bounds(tc1, m, M)
        for a, b in zip(traj.states[:-1], traj.states[1:]):
            v = velocities(a, b, mesh, 1e-2, tc1.R)
            assert np.all(v >= v_flat - 1e-9)
            assert np.all(v <= v_sharp + 1e-9)

class TestVerification:
    def test_reference_run_passes_all_checks(self, tc1):
        mesh = uniform_mesh(50)
        traj = run(tc1, mesh, TimeGrid.from_step_and_horizon(1e-2, 1.0))
        report = verify_trajectory(traj, mesh, tc1)
        assert report.all_passed
        assert report.max_principle is not None
        assert report.width_bound is not None

    def test_one_row_trajectory(self, tc1):
        # what run() returns when step 1 fails: the initial state alone, one
        # block with no step, so every bracket meets no step to exceed it
        traj = trajectory_of([discretize_initial(tc1, uniform_mesh(10))],
                             TimeGrid.from_step(0.01, 5))
        report = verify_trajectory(traj, uniform_mesh(10), tc1)
        checks = [getattr(report, f.name) for f in dataclasses.fields(report)]
        assert None not in checks
        assert [(c.passed, c.worst) for c in checks] == [(True, 0.0)] * len(checks)

    def test_wave_checks_skipped_without_wave(self, tc2):
        mesh = uniform_mesh(50)
        traj = run(tc2, mesh, TimeGrid.from_step_and_horizon(1e-2, 0.5))
        report = verify_trajectory(traj, mesh, tc2)
        assert report.max_principle is None
        assert report.mass_balance.passed

    @pytest.mark.parametrize("spikes", [{30: 0.05, 77: 0.05}, {30: 0.05, 100: 20.0}])
    def test_blocked_checks_match_per_step_reference(self, tc1, spikes):
        # perturbed states violate every wave-regime bound at scattered
        # steps, so each worst case is nonzero; 100 steps of 50 cells span
        # several blocks of steps.  With narrowing spikes alone the largest
        # velocity excess lies above the bracket; a final widening puts it
        # below.
        mesh = uniform_mesh(50)
        dt = 1e-2
        traj = run(tc1, mesh, TimeGrid.from_step(dt, 100))
        rng = np.random.default_rng(41)
        width_scale = rng.uniform(0.98, 1.02, len(traj.states))
        for step, factor in spikes.items():
            width_scale[step] = factor
        states = tuple(
            State(u=s.u * rng.uniform(0.5, 1.6, s.u.size), X0=s.X0,
                  X1=s.X1 + rng.normal(0.0, 2e-2), L=s.L * scale)
            for s, scale in zip(traj.states, width_scale)
        )
        noisy = trajectory_of(states, traj.time_grid)
        report = verify_trajectory(noisy, mesh, tc1)

        # the per-step definition of the same worst cases
        m, M = linf_bounds(tc1)
        L_hat = classify(tc1).wave.L_hat
        pairs = list(zip(states[:-1], states[1:]))
        u_lo = min(float(s.u.min()) for s in states)
        u_hi = max(float(s.u.max()) for s in states)
        worst_u = max(m - u_lo, u_hi - M, 0.0)
        worst_width = max([0.0] + [min(m / M * a.L, L_hat) - b.L for a, b in pairs])
        dX1 = np.array([(b.X1 - a.X1) / dt for a, b in pairs])
        dL = np.array([(b.L - a.L) / dt for a, b in pairs])
        x1_lo = -tc1.alpha1 + tc1.beta1 * m
        x1_hi = -tc1.alpha1 + tc1.beta1 * M
        worst_x1 = max(float(np.max(x1_lo - dX1, initial=0.0)),
                       float(np.max(dX1 - x1_hi, initial=0.0)))
        dL_lo, dL_hi = width_rate_bounds(tc1, m, M)
        worst_dl = max(float(np.max(dL_lo - dL, initial=0.0)),
                       float(np.max(dL - dL_hi, initial=0.0)))
        v_flat, v_sharp = velocity_bounds(tc1, m, M)
        worst_v = 0.0
        for a, b in pairs:
            v = velocities(a, b, mesh, dt, tc1.R)
            worst_v = max(worst_v, float(np.max(v_flat - v)), float(np.max(v - v_sharp)))

        expected = (worst_u, worst_width, worst_x1, worst_dl, worst_v)
        assert all(w > 0.0 for w in expected)
        got = (report.max_principle.worst, report.width_bound.worst,
               report.interface_rate.worst, report.width_rate.worst,
               report.velocity_bracket.worst)
        assert got == expected
        assert not report.velocity_bracket.passed

    def test_mass_balance_defects(self, tc1):
        mesh = uniform_mesh(40)
        traj = run(tc1, mesh, TimeGrid.from_step_and_horizon(1e-2, 0.5))
        defects = mass_balance_defects(traj, mesh, tc1)
        assert defects.shape == (50,)
        assert np.abs(defects).max() <= 1e-10


def whole_reference_study(params, max_level, ref_level, t_final, initial_mode):
    """The refinement study with the reference run in one piece: each
    level's errors against the projection of the whole reference trajectory,
    by the same formulas as convergence_study."""
    ref_mesh = uniform_mesh(50 * 2**ref_level)
    ref_grid = TimeGrid.from_horizon(t_final, 10 * 4**ref_level)
    ref = run(params, ref_mesh, ref_grid, initial_mode=initial_mode)
    assert ref.completed
    rows, prev = [], None
    for k in range(max_level + 1):
        mesh, grid = uniform_mesh(50 * 2**k), TimeGrid.from_horizon(t_final, 10 * 4**k)
        traj = run(params, mesh, grid, initial_mode=initial_mode)
        diff = traj.U[1:, 1:-1] - project_reference(ref, ref_mesh, mesh, grid)
        # one dot per step, as convergence_study sums each step
        sq = diff * diff
        err_w = float(np.sqrt(grid.dt * np.sum([np.dot(mesh.cell_sizes, row) for row in sq])))
        m = ref_grid.n_steps // grid.n_steps
        err_x0 = float(np.abs(traj.X0[1:] - project_time_series(ref.X0[1:], m)).max())
        err_x1 = float(np.abs(traj.X1[1:] - project_time_series(ref.X1[1:], m)).max())
        h = float(mesh.cell_sizes.max())
        rates = (None, None, None)
        if prev is not None:
            log_h = np.log(h) - np.log(prev.h)
            log_dt = np.log(grid.dt) - np.log(prev.dt)
            rates = (
                float((np.log(err_w) - np.log(prev.err_w)) / log_h),
                float((np.log(err_x0) - np.log(prev.err_x0)) / log_dt),
                float((np.log(err_x1) - np.log(prev.err_x1)) / log_dt),
            )
        prev = analysis.LevelResult(
            k=k, h=h, dt=grid.dt, err_w=err_w, rate_w=rates[0],
            err_x0=err_x0, rate_x0=rates[1], err_x1=err_x1, rate_x1=rates[2],
        )
        rows.append(prev)
    return tuple(rows)


class TestConvergenceStudy:
    def test_small_study_shapes_and_rates(self, tc1):
        report = convergence_study(tc1, max_level=1, ref_level=2, t_final=0.1)
        assert len(report.levels) == 2
        first, second = report.levels
        assert first.rate_w is None and second.rate_w is not None
        assert second.err_w < first.err_w
        assert second.err_x0 < first.err_x0

    def test_wave_seeded_levels_stay_exact(self, tc1):
        # seeding every level with the sampled wave keeps each level exact;
        # the reported cross-grid errors then sit far below the transient case
        wave = classify(tc1).wave
        params = ModelParams(a=tc1.a, b=tc1.b, alpha0=tc1.alpha0, beta0=tc1.beta0,
                             alpha1=tc1.alpha1, beta1=tc1.beta1, R=tc1.R,
                             L0=wave.L_hat,
                             u_init=ExponentialProfile(1.0, -tc1.R * wave.c_hat, 0.0))
        for cells, steps in ((50, 10), (100, 40)):
            mesh = uniform_mesh(cells)
            traj = run(params, mesh, TimeGrid.from_horizon(0.1, steps),
                       initial_mode=InitialMode.CENTER_SAMPLE)
            target = wave_profile_on_mesh(wave, mesh)
            worst = max(float(np.abs(s.u - target).max()) for s in traj.states)
            assert worst <= 1e-9
        report = convergence_study(params, max_level=1, ref_level=2, t_final=0.1,
                                   initial_mode=InitialMode.CENTER_SAMPLE)
        # cross-grid projection artifacts only: O(h^2), far below the
        # transient-case errors at this resolution
        assert report.levels[0].err_w <= 1e-3

    def test_ref_level_must_exceed_levels(self, tc1):
        with pytest.raises(ValueError):
            convergence_study(tc1, max_level=2, ref_level=2)

    def test_negative_max_level_rejected_before_any_mesh(self, tc1, monkeypatch):
        # not an empty report: the study checks its own levels, whatever
        # its caller checked
        def no_mesh(cells):
            raise AssertionError("a mesh was built for a negative max_level")

        monkeypatch.setattr(analysis, "uniform_mesh", no_mesh)
        with pytest.raises(ValueError, match="max_level must be at least 0"):
            convergence_study(tc1, max_level=-1, ref_level=0)

    @pytest.mark.parametrize(
        "ref_level,message",
        [(20, "physical memory"), (600, "gives no usable time step")],
    )
    def test_unusable_reference_level_rejected_before_any_mesh(
        self, tc1, ref_level, message, monkeypatch
    ):
        def no_mesh(cells):
            raise AssertionError("a mesh was built for a rejected reference level")

        monkeypatch.setattr(analysis, "uniform_mesh", no_mesh)
        with pytest.raises(ValueError, match=message):
            convergence_study(tc1, max_level=0, ref_level=ref_level)

    @staticmethod
    def check_memory_boundary(params, monkeypatch, ref_level, need):
        # rejected with one byte less than `need`, run with `need`
        memory = {"SC_PHYS_PAGES": need - 1, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(os, "sysconf", memory.__getitem__)
        study = dict(max_level=0, ref_level=ref_level, t_final=0.1)
        with pytest.raises(ValueError, match=f"would store {need} bytes"):
            convergence_study(params, **study)
        memory["SC_PHYS_PAGES"] = need
        assert len(convergence_study(params, **study).levels) == 1

    def test_reference_level_must_fit_in_physical_memory(self, tc1, monkeypatch):
        # one level-0 slab of reference level 2 holds 4^2 + 1 rows of
        # 50 * 4 + 2 doubles, more than the 10 + 1 rows of 50 + 2 of level 0
        need = (4**2 + 1) * (50 * 4 + 2) * 8
        self.check_memory_boundary(tc1, monkeypatch, 2, need)

    def test_no_level_is_held_whole(self, tc1, monkeypatch):
        # one byte less than level 0's whole run, 10 + 1 rows of 50 + 2
        # doubles; one level-0 slab of reference level 1, 4 + 1 rows of
        # 50 * 2 + 2, still fits
        memory = {"SC_PHYS_PAGES": (10 + 1) * (50 + 2) * 8 - 1, "SC_PAGE_SIZE": 1}
        assert (4 + 1) * (50 * 2 + 2) * 8 < memory["SC_PHYS_PAGES"]
        monkeypatch.setattr(os, "sysconf", memory.__getitem__)
        report = convergence_study(tc1, max_level=0, ref_level=1, t_final=0.1)
        assert len(report.levels) == 1

    @pytest.mark.parametrize(
        "max_level,ref_level,initial_mode",
        [
            (1, 2, InitialMode.CELL_AVERAGE),
            (0, 3, InitialMode.CELL_AVERAGE),
            (1, 2, InitialMode.CENTER_SAMPLE),
        ],
    )
    def test_slab_by_slab_reference_matches_the_whole_run(
        self, tc1, max_level, ref_level, initial_mode
    ):
        # the reference runs one level-0 slab at a time; every error and
        # rate is that of one reference run projected whole
        want = whole_reference_study(tc1, max_level, ref_level, 0.1, initial_mode)
        got = convergence_study(tc1, max_level=max_level, ref_level=ref_level, t_final=0.1,
                                initial_mode=initial_mode)
        assert got.levels == want

    @pytest.mark.parametrize(
        "params,t_final,level_step,ref_step,named",
        [
            # level 0 fails its first step, and the reference completes
            (make_tc3(), 0.1, 1, None, "level 0"),
            # level 0 fails in level-0 slab 1, the reference's width
            # collapses in slab 4 (step 14, at 4 steps a slab): the first
            # slab that fails names its run
            (make_tc3(), 1.0, 1, 14, "level 0"),
            # both fail their first step, in slab 1, where the reference
            # runs first
            (make_tc1(), 0.1, 1, 1, "reference level 1"),
        ],
        ids=["level-only", "level-in-an-earlier-slab", "both-in-one-slab"],
    )
    def test_run_that_does_not_complete_is_named(
        self, params, t_final, level_step, ref_step, named
    ):
        # three Newton iterations are too few for level 0's steps, and for
        # testcase1's level-1 steps too
        opts = SolverOptions(max_newton_iters=3)
        for cells, steps, step in ((50, 10, level_step), (100, 40, ref_step)):
            whole = run(params, uniform_mesh(cells), TimeGrid.from_horizon(t_final, steps), opts)
            assert whole.termination.step == step
        with pytest.raises(RuntimeError) as failure:
            convergence_study(params, max_level=0, ref_level=1, t_final=t_final, opts=opts)
        assert str(failure.value) == f"convergence_study: {named} did not complete"

    def test_reference_slab_goes_first_then_each_level(self, tc1, monkeypatch):
        # In each of the ten level-0 slabs the reference's generator advances
        # through its 16 steps first, then level 0's through 1 step and level
        # 1's through 4; once every slab is done each run's end is read, in
        # the same order.  One step a block, so each block pulled is a step.
        monkeypatch.setattr(core, "_BLOCK_ELEMS", 1)
        pulled = []

        def recorded(params, mesh, grid, *args):
            for block in run_blocks(params, mesh, grid, *args):
                end = "end" if isinstance(block, Termination) else block[0] + len(block[4]) - 1
                pulled.append((mesh.num_cells, end))
                yield block

        monkeypatch.setattr(analysis, "run_blocks", recorded)
        convergence_study(tc1, max_level=1, ref_level=2, t_final=0.1)
        want = []
        for s in range(10):
            for cells, steps in ((200, 16), (50, 1), (100, 4)):
                want += [(cells, s * steps + i) for i in range(1, steps + 1)]
        want += [(200, "end"), (50, "end"), (100, "end")]
        assert pulled == want

    def test_reference_is_held_one_slab_at_a_time(self, tc1, monkeypatch):
        # At a quarter of the block budget, the study holds less than a
        # quarter of one level-0 slab of reference level 3, 64 + 1 rows of
        # 400 + 2 doubles, beyond what stepping that reference alone takes
        # (its blocks dropped as they come): no slab of it is stored.  The
        # stepping alone peaks near a whole slab (175 of 209 KB at the full
        # budget), so the study's own peak is not compared with the slab.
        monkeypatch.setattr(core, "_BLOCK_ELEMS", 1024)
        slab = (4**3 + 1) * (50 * 2**3 + 2) * 8
        mesh, grid = uniform_mesh(400), TimeGrid.from_horizon(0.1, 640)
        alone = traced_peak(lambda: deque(run_blocks(tc1, mesh, grid), maxlen=0))
        peak = traced_peak(
            lambda: convergence_study(tc1, max_level=0, ref_level=3, t_final=0.1)
        )
        assert peak - alone < slab / 4

    @pytest.mark.parametrize(
        "budget",
        # one step a block; 3 reference steps a block, so blocks straddle
        # the ends of its 16-step slabs; each run in one block
        [1, 3 * 202, 1 << 30],
    )
    def test_study_at_any_block_budget_matches_the_whole_run(self, tc1, budget, monkeypatch):
        want = whole_reference_study(tc1, 1, 2, 0.1, InitialMode.CELL_AVERAGE)
        monkeypatch.setattr(core, "_BLOCK_ELEMS", budget)
        got = convergence_study(tc1, max_level=1, ref_level=2, t_final=0.1)
        assert got.levels == want

    def test_levels_keep_per_step_sums(self, tc1):
        # level 2's squared error, 160 steps of 200 cells, is not kept
        level_2_sq = 160 * 200 * 8
        peaks = [
            traced_peak(
                lambda: convergence_study(tc1, max_level=k, ref_level=3, t_final=0.1)
            )
            for k in (1, 2)
        ]
        assert peaks[1] - peaks[0] < level_2_sq / 2

    def test_csv_output(self, tc1, tmp_path):
        report = convergence_study(tc1, max_level=1, ref_level=2, t_final=0.1)
        path = tmp_path / "conv.csv"
        write_convergence_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,h,dt,err_w,rate_w,err_x0,rate_x0,err_x1,rate_x1"
        assert len(lines) == 3
        assert lines[1].split(",")[4] == ""  # no rate on the coarsest level
