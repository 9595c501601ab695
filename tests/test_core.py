import math

import numpy as np
import pytest
from scipy.integrate import quad

from oxidefv import (
    ExponentialProfile,
    InitialMode,
    Mesh,
    ModelParams,
    SolverOptions,
    State,
    TabulatedProfile,
    TerminationKind,
    TimeGrid,
    Trajectory,
    discretize_initial,
    run,
    uniform_mesh,
)
from oxidefv.core import row_integrals
from conftest import make_tc1, make_tc2


class TestMesh:
    def test_two_cells(self):
        m = uniform_mesh(2)
        assert np.array_equal(m.edges, [0.0, 0.5, 1.0])
        assert np.array_equal(m.centers, [0.0, 0.25, 0.75, 1.0])
        assert np.array_equal(m.gaps, [0.25, 0.5, 0.25])
        assert np.array_equal(m.cell_sizes, [0.5, 0.5])

    def test_single_cell(self):
        m = uniform_mesh(1)
        assert np.array_equal(m.edges, [0.0, 1.0])
        assert np.array_equal(m.centers, [0.0, 0.5, 1.0])

    def test_hundred_cells(self):
        m = uniform_mesh(100)
        assert m.num_cells == 100
        assert np.allclose(m.cell_sizes, 0.01, rtol=0, atol=1e-15)
        assert abs(m.cell_sizes.sum() - 1.0) <= 10 * np.finfo(float).eps

    def test_zero_cells_rejected(self):
        with pytest.raises(ValueError):
            uniform_mesh(0)

    @pytest.mark.parametrize("cells", [0, -1, True, 2.0, 2.5])
    def test_cell_count_not_a_positive_integer_rejected(self, cells):
        # the rule of TimeGrid.n_steps: a bool or a float is no cell count
        with pytest.raises(ValueError, match="cell count must be a positive integer"):
            uniform_mesh(cells)

    def test_numpy_integer_cell_count_accepted(self):
        assert uniform_mesh(np.int64(3)).num_cells == 3

    def test_cell_sizes_sum_to_one_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            interior = np.unique(rng.uniform(0.01, 0.99, rng.integers(1, 40)))
            m = Mesh.from_edges(np.concatenate([[0.0], interior, [1.0]]))
            assert abs(m.cell_sizes.sum() - 1.0) <= 10 * np.finfo(float).eps
            assert np.all(m.gaps > 0.0)

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            Mesh.from_edges([0.0, 0.5, 0.5, 1.0])
        with pytest.raises(ValueError):
            Mesh.from_edges([0.1, 0.5, 1.0])
        with pytest.raises(ValueError):
            Mesh.from_edges([0.0, 0.5, 0.9])
        for few in ([], [0.0], [[0.0, 1.0]]):
            with pytest.raises(ValueError, match="mesh needs at least two edges"):
                Mesh.from_edges(few)
        # np.diff(e) <= 0 is false for nan, so the order check lets nan through
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="mesh edges must be finite"):
                Mesh.from_edges([0.0, bad, 1.0])

    def test_arrays_read_only(self):
        m = uniform_mesh(4)
        with pytest.raises(ValueError):
            m.edges[0] = 5.0


class TestTimeGrid:
    def test_from_step(self):
        g = TimeGrid.from_step(0.01, 2000)
        assert g.n_steps == 2000
        assert abs(g.t_final - 20.0) <= 1e-12 * 20.0

    def test_from_step_and_horizon(self):
        g = TimeGrid.from_step_and_horizon(1e-2, 20.0)
        assert g.n_steps == 2000

    def test_nondivisible_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid.from_step_and_horizon(0.3, 1.0)
        # one tolerance, 1e-12 relative: 3 steps of 0.1 miss this horizon by
        # 1e-10, and 3 * 0.1 = 0.30000000000000004 meets 0.3
        with pytest.raises(ValueError, match="does not divide the horizon"):
            TimeGrid.from_step_and_horizon(0.1, 0.3000000001)
        assert TimeGrid.from_step_and_horizon(0.1, 0.3).n_steps == 3

    def test_uncountable_horizon_rejected(self):
        # t_final / dt overflows: a ValueError, not int(inf)'s OverflowError
        for dt, t_final in ((1e-300, 1e308), (np.float64(1e-300), np.float64(1e308))):
            with pytest.raises(ValueError, match="too many steps"):
                TimeGrid.from_step_and_horizon(dt, t_final)

    @pytest.mark.parametrize("t_final", [np.nan, np.inf, 0.0, -1.0, True])
    def test_horizon_not_positive_and_finite_rejected(self, t_final):
        # checked before the horizon is divided by the step
        with pytest.raises(ValueError, match="TimeGrid: t_final must be positive and finite"):
            TimeGrid.from_step_and_horizon(0.1, t_final)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(dt=-0.1, n_steps=10)
        with pytest.raises(ValueError):
            TimeGrid(dt=0.1, n_steps=0)
        # the horizon is derived from dt and n_steps, never given
        with pytest.raises(TypeError):
            TimeGrid(dt=0.1, n_steps=3, t_final=0.3)

    @pytest.mark.parametrize("n_steps", [2.5, True, 1e3, 0, -1])
    def test_step_count_not_a_positive_integer_rejected(self, n_steps):
        # rejected when the grid is built, not when a run reads it
        with pytest.raises(ValueError, match="n_steps must be a positive integer"):
            TimeGrid(0.1, n_steps)
        with pytest.raises(ValueError, match="n_steps must be a positive integer"):
            TimeGrid.from_horizon(1.0, n_steps)

    def test_numpy_integer_step_count_accepted(self):
        g = TimeGrid(0.1, np.int64(3))
        assert g.n_steps == 3 and g.t_final == 3 * 0.1
        assert TimeGrid.from_horizon(0.3, np.int64(3)).dt == 0.3 / 3

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -0.1, True])
    def test_step_not_positive_and_finite_rejected_as_dt(self, dt):
        # the step is checked before the horizon is divided by it
        with pytest.raises(ValueError, match="TimeGrid: dt must be positive and finite"):
            TimeGrid.from_step_and_horizon(dt, 1.0)
        with pytest.raises(ValueError, match="TimeGrid: dt must be positive and finite"):
            TimeGrid(dt, 10)

    def test_overflowing_reciprocal_rejected(self):
        # 1/dt enters the step matrix; no floating-point warning on the way
        for dt in (1e-320, np.float64(1e-320), 5e-324):
            with pytest.raises(ValueError, match="1/dt overflows"):
                TimeGrid.from_step(dt, 100)
        with pytest.raises(ValueError, match="1/dt overflows"):
            TimeGrid.from_step_and_horizon(1e-320, 1e-318)
        assert TimeGrid.from_step(1e-300, 100).dt == 1e-300

    def test_t_final_is_n_steps_times_dt(self):
        assert TimeGrid.from_step(0.5, 4).t_final == 2.0
        g = TimeGrid.from_horizon(0.1, 3)
        assert (g.dt, g.t_final) == (0.1 / 3, 3 * (0.1 / 3))


class TestProfiles:
    def test_exponential_values(self):
        f = ExponentialProfile(2.0, -1.0, 3.0)
        assert f(0.0) == 5.0
        assert abs(f(1.0) - (2.0 * math.exp(-1.0) + 3.0)) < 1e-15

    def test_exponential_average_exact(self):
        f = ExponentialProfile(1.3, 0.7, 0.4)
        oracle, _ = quad(f, 0.2, 0.9)
        assert abs(f.average(0.2, 0.9) * (0.9 - 0.2) - oracle) <= 1e-12 * abs(oracle)

    def test_exponential_bounds_monotone(self):
        f = ExponentialProfile(1.0, -0.5, 2.0)
        lo, hi = f.bounds(0.0, 1.0)
        assert lo == pytest.approx(math.exp(-0.5) + 2.0, rel=1e-15)
        assert hi == 3.0

    def test_constant_profile(self):
        f = ExponentialProfile(0.0, 1.0, 4.0)
        assert f.average(0.0, 1.0) == 4.0
        assert f.bounds(0.0, 2.0) == (4.0, 4.0)

    def test_tabulated_interpolation(self):
        f = TabulatedProfile(x=(0.0, 1.0, 2.0), values=(1.0, 3.0, 0.0))
        assert f(0.5) == 2.0
        lo, hi = f.bounds(0.0, 2.0)
        assert (lo, hi) == (0.0, 3.0)

    def test_tabulated_average_gauss(self):
        f = TabulatedProfile(x=(0.0, 2.0), values=(1.0, 3.0))
        # linear data: 3-point Gauss is exact
        assert abs(f.average(0.0, 2.0) - 2.0) < 1e-14

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TabulatedProfile(x=(0.0, 0.0, 1.0), values=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            TabulatedProfile(x=(0.0, 1.0), values=(1.0,))
        for bad in (np.nan, np.inf, -np.inf):
            for x, values in (((0.0, bad, 1.0), (1.0, 2.0, 3.0)),
                              ((0.0, 0.5, 1.0), (1.0, bad, 3.0))):
                with pytest.raises(ValueError, match="tabulated profile samples must be finite"):
                    TabulatedProfile(x=x, values=values)

    def test_exponential_non_finite_coefficient_rejected(self):
        for name in ("c1", "c2", "c3"):
            for bad in (np.nan, np.inf, -np.inf):
                coeffs = {"c1": 1.0, "c2": -0.5, "c3": 0.0, name: bad}
                with pytest.raises(ValueError, match=f"ExponentialProfile.{name} must be finite"):
                    ExponentialProfile(**coeffs)


class TestModelParams:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            ModelParams(a=-1.0, b=1.0, alpha0=1.0, beta0=1.0, alpha1=1.0, beta1=1.0,
                        R=1.0, L0=1.0, u_init=ExponentialProfile(0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            ModelParams(a=1.0, b=1.0, alpha0=1.0, beta0=0.0, alpha1=1.0, beta1=1.0,
                        R=1.0, L0=1.0, u_init=ExponentialProfile(0.0, 0.0, 1.0))


class TestDiscretizeInitial:
    def test_constant_profile_both_modes(self):
        params = ModelParams(a=1.0, b=1.0, alpha0=1.0, beta0=1.0, alpha1=1.0, beta1=1.0,
                             R=2.0, L0=1.5, u_init=ExponentialProfile(0.0, 0.0, 2.5))
        mesh = uniform_mesh(7)
        for mode in InitialMode:
            s = discretize_initial(params, mesh, mode)
            assert np.allclose(s.u, 2.5, rtol=0, atol=1e-15)
            assert s.X0 == 0.0 and s.X1 == 1.5 and s.L == 1.5

    def test_center_sample_reference_profile(self):
        # offset reference profile exp(-x/2) + 2 sampled at centers {0, .25, .75, 1}
        params = make_tc1(offset=2.0)
        s = discretize_initial(params, uniform_mesh(2), InitialMode.CENTER_SAMPLE)
        expected = [3.0, math.exp(-0.125) + 2.0, math.exp(-0.375) + 2.0, math.exp(-0.5) + 2.0]
        assert np.allclose(s.u, expected, rtol=1e-15, atol=0)

    def test_cell_average_first_cell(self):
        params = make_tc1(offset=2.0)
        s = discretize_initial(params, uniform_mesh(2), InitialMode.CELL_AVERAGE)
        # exact antiderivative over [0, 0.5]: 2 + 4 (1 - e^{-1/4})
        expected = 2.0 + 4.0 * (1.0 - math.exp(-0.25))
        assert abs(s.u[1] - expected) <= 1e-14
        oracle, _ = quad(params.u_init, 0.0, 0.5)
        assert abs(s.u[1] - oracle / 0.5) <= 1e-12

    def test_boundary_traces(self):
        params = make_tc1(offset=2.0)
        s = discretize_initial(params, uniform_mesh(5), InitialMode.CELL_AVERAGE)
        assert s.u[0] == 3.0
        assert abs(s.u[-1] - (math.exp(-0.5) + 2.0)) < 1e-15

    def test_mass_preserved_exactly_for_exponential_family(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c1, c2, c3 = rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.0, 3.0)
            L0 = rng.uniform(0.5, 3.0)
            params = ModelParams(a=1, b=1, alpha0=1, beta0=1, alpha1=1, beta1=1, R=1,
                                 L0=L0, u_init=ExponentialProfile(c1, c2, c3))
            interior = np.unique(rng.uniform(0.05, 0.95, 12))
            mesh = Mesh.from_edges(np.concatenate([[0.0], interior, [1.0]]))
            s = discretize_initial(params, mesh, InitialMode.CELL_AVERAGE)
            mass = L0 * np.dot(mesh.cell_sizes, s.u[1:-1])
            exact = params.u_init.average(0.0, L0) * L0
            assert abs(mass - exact) <= 1e-13 * max(1.0, abs(exact))

    def test_negative_initial_data_rejected(self):
        params = ModelParams(a=1, b=1, alpha0=1, beta0=1, alpha1=1, beta1=1, R=1,
                             L0=1.0, u_init=ExponentialProfile(1.0, 1.0, -5.0))
        with pytest.raises(ValueError):
            discretize_initial(params, uniform_mesh(4))

    @pytest.mark.parametrize("c1,c2", [(1.0, 800.0), (0.0, 800.0), (1e308, 1.0)])
    def test_overflowing_profile_rejected(self, c1, c2):
        # exp(800) overflows; 0 * exp(800) is nan; 1e308 * e overflows.  The
        # error is discretize_initial's own, with no floating-point warning
        # (tier-1 turns warnings into errors).
        params = ModelParams(a=1, b=1, alpha0=1, beta0=1, alpha1=1, beta1=1, R=1,
                             L0=1.0, u_init=ExponentialProfile(c1, c2, 0.0))
        for mode in InitialMode:
            with pytest.raises(ValueError, match=r"initial profile must be finite on \[0, L0\]"):
                discretize_initial(params, uniform_mesh(4), mode)

    def test_averages_of_samples_near_the_largest_float_are_finite(self):
        # the Gauss sum of samples above 9e307 would overflow before halving
        params = ModelParams(a=1, b=1, alpha0=1, beta0=1, alpha1=1, beta1=1, R=1, L0=1.0,
                             u_init=TabulatedProfile(x=(0.0, 1.0), values=(0.0, 1.7e308)))
        u = discretize_initial(params, uniform_mesh(100)).u
        assert np.isfinite(u).all() and u[-2] > 9e307


class TestState:
    def test_validation(self):
        with pytest.raises(ValueError):
            State(u=np.array([1.0, -0.1, 1.0]), X0=0.0, X1=1.0, L=1.0)
        with pytest.raises(ValueError):
            State(u=np.array([1.0, 1.0, 1.0]), X0=0.0, X1=1.0, L=-1.0)
        with pytest.raises(ValueError):
            State(u=np.array([1.0, np.nan, 1.0]), X0=0.0, X1=1.0, L=1.0)

    @pytest.mark.parametrize(
        "u, X0, X1, L, message",
        [
            (np.ones((2, 3)), 0.0, 1.0, 1.0, "1-d vector of length I\\+2"),
            (np.ones(2), 0.0, 1.0, 1.0, "1-d vector of length I\\+2"),
            (1.0, 0.0, 1.0, 1.0, "1-d vector of length I\\+2"),
            ([1.0, np.nan, 1.0], 0.0, 1.0, 1.0, "State.u must be finite"),
            ([1.0, np.inf, 1.0], 0.0, 1.0, 1.0, "State.u must be finite"),
            ([1.0, -np.inf, 1.0], 0.0, 1.0, 1.0, "State.u must be finite"),
            ([-1.0, np.nan, 1.0], 0.0, 1.0, 1.0, "State.u must be finite"),
            ([1.0, -1e-300, 1.0], 0.0, 1.0, 1.0, "State.u must be nonnegative"),
            ([1.0, 1.0, 1.0], 0.0, 1.0, 0.0, "State.L must be strictly positive"),
            ([1.0, 1.0, 1.0], 0.0, 1.0, -1.0, "State.L must be strictly positive"),
            ([1.0, 1.0, 1.0], 0.0, 1.0, np.nan, "State.L must be strictly positive"),
            ([1.0, 1.0, 1.0], 0.0, 1.0, np.inf, "State.L must be strictly positive"),
            ([1.0, 1.0, 1.0], np.nan, 1.0, 1.0, "State interfaces must be finite"),
            ([1.0, 1.0, 1.0], 0.0, -np.inf, 1.0, "State interfaces must be finite"),
            ([1.0, 1.0, 1.0], np.float64(np.inf), 1.0, 1.0, "State interfaces must be finite"),
        ],
    )
    def test_each_check_keeps_its_message(self, u, X0, X1, L, message):
        with pytest.raises(ValueError, match=message):
            State(u=u, X0=X0, X1=X1, L=L)

    def test_copies_u_read_only(self):
        u = np.array([1.0, 0.0, 2.0])
        s = State(u=u, X0=np.float64(0.0), X1=1.0, L=1.0)
        assert not np.shares_memory(s.u, u) and not s.u.flags.writeable
        assert s.u.dtype == np.float64 and s.u.tobytes() == u.tobytes()
        u[0] = 5.0
        assert s.u[0] == 1.0
        # a list is taken as floats
        assert State(u=[1, 0, 2], X0=0, X1=1, L=1).u.tobytes() == np.array([1.0, 0.0, 2.0]).tobytes()

    def test_immutable(self):
        s = State(u=np.ones(4), X0=0.0, X1=1.0, L=1.0)
        with pytest.raises(ValueError):
            s.u[0] = 2.0


class TestTrajectoryStorage:
    """A trajectory stores its states in read-only columns; `states` are
    views over the rows."""

    @pytest.fixture(scope="class")
    def traj(self):
        return run(make_tc1(), uniform_mesh(12), TimeGrid.from_step(1e-2, 5))

    def test_columns(self, traj):
        assert traj.U.shape == (6, 14)
        assert traj.X0.shape == traj.X1.shape == traj.L.shape == (6,)
        for arr in (traj.U, traj.X0, traj.X1, traj.L):
            assert not arr.flags.writeable

    @pytest.mark.parametrize(
        "make, cells, dt, t_final, kind, rows, opts",
        [
            (make_tc1, 12, 1e-2, 5e-2, TerminationKind.COMPLETED, 6, SolverOptions()),
            (make_tc2, 20, 1e-2, 3.5, TerminationKind.WIDTH_COLLAPSED, 149, SolverOptions()),
            # the first step already fails: the initial state is the only row.
            # The continuation walks the step into the collapse.
            (make_tc2, 50, 3.5, 3.5, TerminationKind.WIDTH_COLLAPSED, 1, SolverOptions()),
            # one iteration converges no solve, Newton's or a sub-step's
            (make_tc1, 12, 1e-2, 5e-2, TerminationKind.SOLVER_FAILED, 1,
             SolverOptions(max_newton_iters=1)),
        ],
    )
    def test_solver_columns_share_the_rows(self, make, cells, dt, t_final, kind, rows, opts):
        grid = TimeGrid.from_step_and_horizon(dt, t_final)
        traj = run(make(), uniform_mesh(cells), grid, opts)
        assert traj.termination.kind is kind and traj.U.shape == (rows, cells + 2)
        for name in ("X0", "X1", "L", "newton_iters", "residual_inf"):
            col = getattr(traj, name)
            assert col.shape == (rows,)
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 1
        assert traj.newton_iters.dtype.kind == "i"
        assert traj.residual_inf.dtype == np.float64
        # no solve produced row 0
        assert traj.newton_iters[0] == 0 and np.isnan(traj.residual_inf[0])
        assert np.all(traj.newton_iters[1:] >= 1)
        assert np.all(traj.residual_inf[1:] <= 1e-9)

    def test_states_are_views_over_rows(self, traj):
        assert len(traj.states) == 6
        assert [s.L for s in traj.states[1:3]] == list(traj.L[1:3])
        for i, s in enumerate(traj.states):
            assert np.shares_memory(s.u, traj.U)
            assert not s.u.flags.writeable
            assert s.u.tobytes() == traj.U[i].tobytes()
            assert (s.X0, s.X1, s.L) == (traj.X0[i], traj.X1[i], traj.L[i])
        with pytest.raises(ValueError):
            traj.states[2].u[0] = 1.0
        final = traj.final_state
        assert np.shares_memory(final.u, traj.U[-1]) and final.L == traj.L[-1]

    def test_mismatched_columns_rejected(self, traj):
        fields = dict(U=traj.U, X0=traj.X0, X1=traj.X1, L=traj.L, time_grid=traj.time_grid,
                      termination=traj.termination, newton_iters=traj.newton_iters,
                      residual_inf=traj.residual_inf)
        for name, value in (("L", traj.L[:-1]), ("newton_iters", np.append(traj.newton_iters, 1)),
                            ("residual_inf", traj.residual_inf[1:]), ("U", traj.U[0])):
            with pytest.raises(ValueError):
                Trajectory(**{**fields, name: value})

    def test_collapse_keeps_only_reached_rows(self, traj):
        collapsed = run(make_tc2(), uniform_mesh(20), TimeGrid.from_step_and_horizon(1e-2, 3.5))
        assert collapsed.termination.kind is TerminationKind.WIDTH_COLLAPSED
        # the failed step is not stored: rows 0 .. step - 1
        assert collapsed.termination.bracket is not None
        rows = collapsed.termination.step
        assert collapsed.U.shape == (rows, 22)
        assert rows < collapsed.time_grid.n_steps + 1
        # row n is step n: a completed run has a row for every step
        assert traj.completed and traj.U.shape[0] == traj.time_grid.n_steps + 1
        for t in (collapsed, traj):
            assert t.times.tobytes() == (np.arange(t.U.shape[0]) * t.time_grid.dt).tobytes()
        assert traj.times[-1] == traj.time_grid.t_final


class TestRowIntegrals:
    """row_integrals takes all rows in one stacked product; each entry keeps
    the bits of its per-row np.dot, so a NumPy whose stacked product sums in
    another order fails here before it moves a golden file."""

    @pytest.mark.parametrize("cells", [1, 7, 8, 9, 100, 802, 1601])
    def test_bitwise_per_row_dot(self, cells):
        rng = np.random.default_rng(cells)
        edges = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, cells - 1)), [1.0]))
        mesh = Mesh.from_edges(edges)
        for rows in (1, 37):
            U = rng.uniform(0.0, 2.0, (rows, cells + 2))
            widths = rng.uniform(0.5, 2.0, rows)
            for V in (U[:, 1:-1], np.ascontiguousarray(U[:, 1:-1])):
                want = np.array([Lj * np.dot(mesh.cell_sizes, vj) for Lj, vj in zip(widths, V)])
                for L in (widths, tuple(widths)):
                    got = row_integrals(V, L, mesh)
                    assert got.shape == (rows,)
                    assert got.tobytes() == want.tobytes()
