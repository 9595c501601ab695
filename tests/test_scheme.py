import numpy as np
import pytest
from scipy.linalg import solve_banded

from oxidefv import (
    ExponentialProfile,
    bernoulli,
    bernoulli_prime,
    ModelParams,
    SolverOptions,
    State,
    StepStatus,
    TerminationKind,
    TimeGrid,
    classify,
    discretize_initial,
    homotopy_solve,
    jacobian,
    newton_step_solve,
    residual,
    run,
    sg_flux,
    uniform_mesh,
    velocities,
    wave_profile_on_mesh,
)
from oxidefv import scheme
from oxidefv.scheme import (
    _affine_rows,
    _assemble,
    _blended_system,
    _bordered_solve,
    _dense_jacobian,
    _residual_raw,
    _residual_rows,
)
from conftest import make_tc1, make_tc2


def wave_state(params, mesh, shift=0.0):
    wave = classify(params).wave
    u = wave_profile_on_mesh(wave, mesh)
    return wave, State(u=u, X0=shift, X1=wave.L_hat + shift, L=wave.L_hat)


def equilibrium_setup():
    params = ModelParams(a=1, b=1, alpha0=1, beta0=1, alpha1=1, beta1=1, R=2.0,
                         L0=0.7, u_init=ExponentialProfile(0.0, 0.0, 1.0))
    mesh = uniform_mesh(12)
    state = discretize_initial(params, mesh)
    return params, mesh, state


def random_state_pair(rng, cells):
    up = rng.uniform(0.1, 3.0, cells + 2)
    X0p = rng.uniform(-1.0, 1.0)
    Lp = rng.uniform(0.5, 3.0)
    prev = State(u=up, X0=X0p, X1=X0p + Lp, L=Lp)
    u = rng.uniform(0.1, 3.0, cells + 2)
    X0 = X0p + rng.normal(0.0, 0.05)
    X1 = X0p + Lp + rng.normal(0.0, 0.05)
    L = max(0.1, Lp + rng.normal(0.0, 0.05))
    cand = State(u=u, X0=X0, X1=X1, L=L)
    return prev, cand


class TestVelocities:
    def test_travelling_wave_step_is_uniform(self, tc1):
        mesh = uniform_mesh(20)
        dt = 1e-2
        wave, prev = wave_state(tc1, mesh)
        nxt = State(u=prev.u, X0=wave.c_hat * dt, X1=wave.L_hat + wave.c_hat * dt,
                    L=wave.L_hat)
        v = velocities(prev, nxt, mesh, dt, tc1.R)
        assert np.allclose(v, -tc1.R * wave.c_hat, rtol=0, atol=1e-13)

    def test_static_interfaces_zero(self, tc1):
        mesh = uniform_mesh(5)
        s = discretize_initial(tc1, mesh)
        assert np.all(velocities(s, s, mesh, 0.1, tc1.R) == 0.0)

    def test_affine_profile(self):
        # d[X0]=0, d[X1]=d[L]=1, R=2 gives v = -1 - xi at every edge
        mesh = uniform_mesh(4)
        dt = 0.5
        prev = State(u=np.ones(6), X0=0.0, X1=1.0, L=1.0)
        nxt = State(u=np.ones(6), X0=0.0, X1=1.0 + dt, L=1.0 + dt)
        v = velocities(prev, nxt, mesh, dt, 2.0)
        assert np.allclose(v, -1.0 - mesh.edges, rtol=0, atol=1e-15)

    def test_telescoping_identity(self):
        rng = np.random.default_rng(21)
        mesh = uniform_mesh(9)
        for _ in range(20):
            prev, nxt = random_state_pair(rng, 9)
            dt = rng.uniform(0.01, 0.5)
            R = rng.uniform(0.5, 3.0)
            v = velocities(prev, nxt, mesh, dt, R)
            dL = (nxt.L - prev.L) / dt
            assert np.allclose(np.diff(v), -dL * mesh.cell_sizes,
                               rtol=0, atol=1e-11 * max(1.0, abs(dL)))


class TestSgFlux:
    def test_equal_states_zero_velocity(self):
        assert sg_flux(1.7, 1.7, 0.0, 2.0, 0.25) == 0.0

    def test_pure_diffusion(self):
        assert sg_flux(1.0, 0.0, 0.0, 2.0, 0.5) == 1.0

    def test_wave_neighbors_cancel(self, tc1):
        mesh = uniform_mesh(40)
        wave, s = wave_state(tc1, mesh)
        v = -tc1.R * wave.c_hat
        f = sg_flux(s.u[:-1], s.u[1:], v, wave.L_hat, mesh.gaps)
        assert np.all(np.abs(f) <= 1e-12)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            sg_flux(1.0, 1.0, 0.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            sg_flux(1.0, 1.0, 0.0, 1.0, 0.0)


class TestResidual:
    def test_equilibrium_is_exact_root(self):
        params, mesh, state = equilibrium_setup()
        r = residual(state, state, mesh, 0.05, params)
        assert np.all(r == 0.0)

    def test_travelling_wave_pair(self, tc1):
        mesh = uniform_mesh(100)
        dt = 1e-2
        wave, prev = wave_state(tc1, mesh)
        cand = State(u=prev.u, X0=wave.c_hat * dt, X1=wave.L_hat + wave.c_hat * dt,
                     L=wave.L_hat)
        r = residual(prev, cand, mesh, dt, tc1)
        assert np.abs(r).max() <= 1e-13

    def test_width_closure_row_is_affine(self, tc1):
        mesh = uniform_mesh(6)
        s = discretize_initial(tc1, mesh)
        eps = 0.037
        cand = State(u=s.u, X0=s.X0, X1=s.X1, L=s.L + eps)
        r = residual(s, cand, mesh, 0.01, tc1)
        assert abs(r[-1] - eps) <= 1e-15

    def test_length(self, tc1):
        mesh = uniform_mesh(8)
        s = discretize_initial(tc1, mesh)
        assert residual(s, s, mesh, 0.01, tc1).shape == (13,)


class TestJacobian:
    def test_affine_rows(self, tc1):
        mesh = uniform_mesh(8)
        rng = np.random.default_rng(22)
        prev, cand = random_state_pair(rng, 8)
        J = jacobian(prev, cand, mesh, 0.01, tc1)
        n = 8 + 5
        # width closure row
        expected = np.zeros(n)
        expected[-3:] = (1.0, -1.0, 1.0)
        assert np.array_equal(J[-1], expected)
        # right interface motion: derivative w.r.t. u_{I+1} is -beta1
        assert J[-2, 9] == -tc1.beta1
        assert J[-2, -2] == 1.0 / 0.01

    def test_matches_finite_differences(self, tc1):
        rng = np.random.default_rng(23)
        mesh = uniform_mesh(8)
        dt = 0.01
        for _ in range(5):
            prev, cand = random_state_pair(rng, 8)
            x = np.concatenate([cand.u, [cand.X0, cand.X1, cand.L]])
            J = jacobian(prev, cand, mesh, dt, tc1)
            Jfd = np.zeros_like(J)
            for j in range(x.size):
                step = 1e-7 * max(1.0, abs(x[j]))
                xp = x.copy(); xp[j] += step
                xm = x.copy(); xm[j] -= step
                rp = _residual_raw(xp[:10], xp[10], xp[11], xp[12], prev, mesh, dt, tc1)
                rm = _residual_raw(xm[:10], xm[10], xm[11], xm[12], prev, mesh, dt, tc1)
                Jfd[:, j] = (rp - rm) / (2.0 * step)
            rel = np.abs(J - Jfd) / np.maximum(1.0, np.maximum(np.abs(J), np.abs(Jfd)))
            assert rel.max() <= 1e-5


class TestLinearSolve:
    def test_bordered_banded_matches_dense(self, tc1):
        # the block-elimination path must reproduce the dense solve
        rng = np.random.default_rng(25)
        mesh = uniform_mesh(12)
        dt = 0.02
        for _ in range(10):
            prev, cand = random_state_pair(rng, 12)
            r, band, border = _assemble(cand.u, cand.X0, cand.X1, cand.L, prev, mesh, dt, tc1)
            delta = _bordered_solve(r, band, border, dt, tc1)
            dense = np.linalg.solve(jacobian(prev, cand, mesh, dt, tc1), -r)
            scale = max(1.0, float(np.abs(dense).max()))
            assert np.abs(delta - dense).max() <= 1e-9 * scale


def reference_assemble(u, X0, X1, L, prev, mesh, dt, params):
    """(r, band, border) from the public Bernoulli functions, one call per
    weight and derivative, as _assemble must reproduce bit for bit."""
    cells = mesh.num_cells
    v = velocities(prev, State(u=u, X0=X0, X1=X1, L=L), mesh, dt, params.R)
    w = (L * mesh.gaps) * v
    Bp, Bm = bernoulli(w), bernoulli(-w)
    F = (Bm * u[:-1] - Bp * u[1:]) / (L * mesh.gaps)
    r = _residual_rows(u, X0, X1, L, F, prev, mesh, dt, params)
    denom = L * mesh.gaps
    dF_ul = Bm / denom
    dF_ur = -Bp / denom
    Nw = -bernoulli_prime(-w) * u[:-1] - bernoulli_prime(w) * u[1:]
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


def reference_bordered_solve(r, band, border, dt, params):
    """The block elimination through scipy's solve_banded and a 3x3
    np.linalg.solve, as _bordered_solve must reproduce bit for bit."""
    cells = band.shape[1] - 2
    b_u = np.concatenate(([-r[cells]], -r[:cells], [-r[cells + 1]]))
    sol = solve_banded((1, 1), band, np.column_stack((b_u, border)))
    y, Y = sol[:, 0], sol[:, 1:]
    c0, c1, D = _affine_rows(dt, params)
    Cy = np.array([c0 * y[0], c1 * y[-1], 0.0])
    CY = np.vstack((c0 * Y[0], c1 * Y[-1], np.zeros(3)))
    z = np.linalg.solve(D - CY, -r[cells + 2 :] - Cy)
    return np.concatenate((y - Y @ z, z))


def first_newton_iterate(params, mesh, dt):
    prev = discretize_initial(params, mesh)
    r, band, border = _assemble(prev.u, prev.X0, prev.X1, prev.L, prev, mesh, dt, params)
    d = _bordered_solve(r, band, border, dt, params)
    m = mesh.num_cells + 2
    cand = State(u=prev.u + d[:m], X0=prev.X0 + d[m], X1=prev.X1 + d[m + 1], L=prev.L + d[m + 2])
    return prev, cand


class TestLeanIteration:
    """The Newton iteration evaluates its Bernoulli weights with one
    unchecked kernel call and solves the band with LAPACK's dgtsv directly;
    both must agree exactly with the public-function path."""

    def assert_assembly_matches_reference(self, prev, cand, mesh, dt, params):
        got = _assemble(cand.u, cand.X0, cand.X1, cand.L, prev, mesh, dt, params)
        want = reference_assemble(cand.u, cand.X0, cand.X1, cand.L, prev, mesh, dt, params)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_assembly_at_zero_peclet(self, tc1):
        # a step's first iterate: the frame is at rest, so w == 0 on every edge
        mesh = uniform_mesh(100)
        prev = discretize_initial(tc1, mesh)
        self.assert_assembly_matches_reference(prev, prev, mesh, 1e-2, tc1)

    def test_assembly_at_mid_newton_iterate(self, tc1):
        mesh = uniform_mesh(100)
        prev, cand = first_newton_iterate(tc1, mesh, 1e-2)
        w = np.abs(cand.L * mesh.gaps * velocities(prev, cand, mesh, 1e-2, tc1.R))
        # B' takes its series on some edges and its closed form on others
        assert w.min() < 1e-2 <= w.max()
        self.assert_assembly_matches_reference(prev, cand, mesh, 1e-2, tc1)

    def test_assembly_at_random_states(self, tc1):
        rng = np.random.default_rng(3)
        mesh = uniform_mesh(12)
        for _ in range(5):
            prev, cand = random_state_pair(rng, 12)
            self.assert_assembly_matches_reference(prev, cand, mesh, 0.02, tc1)

    @pytest.mark.parametrize("cells", [1, 2, 100])
    def test_bordered_solve_matches_reference(self, tc1, cells):
        rng = np.random.default_rng(cells)
        mesh = uniform_mesh(cells)
        for _ in range(3):
            prev, cand = random_state_pair(rng, cells)
            r, band, border = _assemble(cand.u, cand.X0, cand.X1, cand.L, prev, mesh, 0.02, tc1)
            got = _bordered_solve(r, band, border, 0.02, tc1)
            assert np.array_equal(got, reference_bordered_solve(r, band, border, 0.02, tc1))

    def test_singular_band_raises(self, tc1):
        rng = np.random.default_rng(5)
        r = rng.normal(size=15)
        border = rng.normal(size=(12, 3))
        with pytest.raises(np.linalg.LinAlgError):
            _bordered_solve(r, np.zeros((3, 12)), border, 0.02, tc1)

    def test_non_finite_system_raises(self, tc1):
        mesh = uniform_mesh(10)
        prev = discretize_initial(tc1, mesh)
        r, band, border = _assemble(prev.u, prev.X0, prev.X1, prev.L, prev, mesh, 0.02, tc1)
        bad_band = band.copy()
        bad_band[1, 1] = np.inf
        bad_border = border.copy()
        bad_border[1, 1] = np.nan
        for args in ((bad_band, border), (band, bad_border)):
            with pytest.raises(np.linalg.LinAlgError):
                _bordered_solve(r, *args, 0.02, tc1)

    def test_overflowing_step_fails_without_exception(self, tc1):
        # h * L / dt overflows in the band: both solvers report a failed step
        mesh = uniform_mesh(20)
        prev = discretize_initial(tc1, mesh)
        with np.errstate(all="ignore"):
            newton = newton_step_solve(prev, mesh, 1e-320, tc1)
            fallback = homotopy_solve(prev, mesh, 1e-320, tc1)
        assert newton.status is StepStatus.NO_CONVERGENCE and newton.state is None
        assert fallback.status is not StepStatus.CONVERGED and fallback.state is None

    def test_one_kernel_call_per_edge_field_evaluation(self, tc1, monkeypatch):
        calls = []
        kernel = scheme._bernoulli_pair

        def counted(r, prime=True):
            calls.append(r.shape)
            return kernel(r, prime)

        def forbidden(*args, **kwargs):
            raise AssertionError("the Newton iteration called a public checked function")

        monkeypatch.setattr(scheme, "_bernoulli_pair", counted)
        for name in ("bernoulli", "bernoulli_prime", "solve_banded"):
            monkeypatch.setattr(scheme, name, forbidden)
        mesh = uniform_mesh(30)
        prev = discretize_initial(tc1, mesh)
        result = newton_step_solve(prev, mesh, 1e-2, tc1)
        assert result.status is StepStatus.CONVERGED
        # one assembly per iteration, then the residual check of the end point
        assert calls == [(2 * 31,)] * (result.iterations + 1)


class TestNewton:
    def test_preserves_travelling_wave(self, tc1):
        mesh = uniform_mesh(100)
        dt = 1e-2
        wave, prev = wave_state(tc1, mesh)
        result = newton_step_solve(prev, mesh, dt, tc1)
        assert result.status is StepStatus.CONVERGED
        assert result.iterations <= 3
        s = result.state
        assert np.abs(s.u - prev.u).max() <= 1e-12
        assert abs(s.X0 - wave.c_hat * dt) <= 1e-12
        assert abs(s.X1 - (wave.L_hat + wave.c_hat * dt)) <= 1e-12

    def test_equilibrium_fixed_point(self):
        params, mesh, state = equilibrium_setup()
        result = newton_step_solve(state, mesh, 0.05, params)
        assert result.status is StepStatus.CONVERGED
        assert result.iterations == 1
        assert np.array_equal(result.state.u, state.u)
        assert result.state.L == state.L

    def test_first_step_respects_bracket(self):
        # offset reference data: invariant bracket [0.125, 3]
        params = make_tc1(offset=2.0)
        mesh = uniform_mesh(100)
        s0 = discretize_initial(params, mesh)
        result = newton_step_solve(s0, mesh, 1e-2, params)
        assert result.status is StepStatus.CONVERGED
        assert result.state.u.min() >= 0.125 - 1e-9
        assert result.state.u.max() <= 3.0 + 1e-9

    def test_reports_residual(self, tc1):
        mesh = uniform_mesh(30)
        s0 = discretize_initial(tc1, mesh)
        result = newton_step_solve(s0, mesh, 1e-2, tc1)
        assert result.status is StepStatus.CONVERGED
        assert result.residual_inf <= 1e-9
        assert result.state.closure_defect() <= 1e-10


class TestHomotopy:
    def test_lambda_zero_closed_form_is_root(self, tc1):
        mesh = uniform_mesh(25)
        s0 = discretize_initial(tc1, mesh)
        u = s0.u.copy()
        u[0] = tc1.alpha0 / tc1.beta0
        u[-1] = tc1.alpha1 / tc1.beta1
        r = _blended_system(0.0, u, s0.X0, s0.X1, s0.L, s0, mesh, 1e-2, tc1)[0]
        assert np.all(r == 0.0)

    def test_lambda_one_matches_direct_scheme(self, tc1):
        mesh = uniform_mesh(25)
        s0 = discretize_initial(tc1, mesh)
        nxt = newton_step_solve(s0, mesh, 1e-2, tc1).state
        r = _blended_system(1.0, nxt.u, nxt.X0, nxt.X1, nxt.L, s0, mesh, 1e-2, tc1)[0]
        assert np.abs(r).max() <= 1e-9
        assert np.array_equal(r, residual(s0, nxt, mesh, 1e-2, tc1))

    def test_jacobian_matches_finite_differences(self, tc1):
        rng = np.random.default_rng(24)
        mesh = uniform_mesh(8)
        dt = 0.01
        s0 = discretize_initial(tc1, mesh)
        for lam in (0.0, 0.37, 1.0):
            u = rng.uniform(0.2, 2.0, 10)
            X0, X1, L = 0.2, 1.1, 0.9
            x = np.concatenate([u, [X0, X1, L]])
            _, band, border = _blended_system(lam, u, X0, X1, L, s0, mesh, dt, tc1)
            J = _dense_jacobian(band, border, dt, tc1)
            Jfd = np.zeros_like(J)
            for j in range(x.size):
                step = 1e-7 * max(1.0, abs(x[j]))
                xp = x.copy(); xp[j] += step
                xm = x.copy(); xm[j] -= step
                rp = _blended_system(lam, xp[:10], *xp[10:], s0, mesh, dt, tc1)[0]
                rm = _blended_system(lam, xm[:10], *xm[10:], s0, mesh, dt, tc1)[0]
                Jfd[:, j] = (rp - rm) / (2.0 * step)
            rel = np.abs(J - Jfd) / np.maximum(1.0, np.maximum(np.abs(J), np.abs(Jfd)))
            assert rel.max() <= 1e-5

    def test_agrees_with_newton_on_regular_step(self, tc1):
        for cells in (30, 100):
            mesh = uniform_mesh(cells)
            s0 = discretize_initial(tc1, mesh)
            direct = newton_step_solve(s0, mesh, 1e-2, tc1)
            cont = homotopy_solve(s0, mesh, 1e-2, tc1)
            assert cont.status is StepStatus.CONVERGED
            gap = max(
                float(np.abs(direct.state.u - cont.state.u).max()),
                abs(direct.state.X0 - cont.state.X0),
                abs(direct.state.X1 - cont.state.X1),
                abs(direct.state.L - cont.state.L),
            )
            assert gap <= 1e-9


    def test_failed_continuation_reports_its_work(self):
        # from the last state before testcase2 collapses, the continuation
        # must not rescue the step, and must say how many corrections it spent
        params = make_tc2()
        mesh = uniform_mesh(100)
        traj = run(params, mesh, TimeGrid.from_step_and_horizon(1e-2, 3.5))
        assert traj.termination.kind is TerminationKind.WIDTH_COLLAPSED
        result = homotopy_solve(traj.final_state, mesh, 1e-2, params)
        assert result.status is not StepStatus.CONVERGED
        assert result.state is None
        assert result.iterations > 0
        assert np.isfinite(result.residual_inf)


class TestRun:
    def test_short_run_completes(self, tc1):
        mesh = uniform_mesh(50)
        traj = run(tc1, mesh, TimeGrid.from_step_and_horizon(1e-2, 0.5))
        assert traj.completed
        assert len(traj.states) == 51
        assert traj.is_contiguous()
        assert all(s.closure_defect() <= 1e-9 for s in traj.states)
        assert max(traj.residual_inf) <= 1e-9

    def test_initial_state_override(self, tc1):
        mesh = uniform_mesh(40)
        wave, s0 = wave_state(tc1, mesh)
        traj = run(tc1, mesh, TimeGrid.from_step(1e-2, 10), initial_state=s0)
        assert traj.completed
        assert np.abs(traj.final_state.u - s0.u).max() <= 1e-10

    def test_stride_storage(self, tc1):
        mesh = uniform_mesh(30)
        traj = run(tc1, mesh, TimeGrid.from_step(1e-2, 20), stride=7)
        assert traj.step_indices == (0, 7, 14, 20)
        assert not traj.is_contiguous()

    def test_offset_profile_respects_active_bracket(self):
        # offset initial data touches both bracket ends: sup u^init = M = 3
        # and the right trace relaxes toward alpha1/beta1 = m = 0.125
        params = make_tc1(offset=2.0)
        mesh = uniform_mesh(50)
        traj = run(params, mesh, TimeGrid.from_step_and_horizon(1e-2, 2.0))
        assert traj.completed
        lo = min(float(s.u.min()) for s in traj.states)
        hi = max(float(s.u.max()) for s in traj.states)
        assert lo >= 0.125 - 1e-9
        assert hi <= 3.0 + 1e-9
        assert lo < 0.25  # the right trace drops deep toward the lower bound

    def test_dissolution_collapse(self, tc2):
        mesh = uniform_mesh(100)
        traj = run(tc2, mesh, TimeGrid.from_step_and_horizon(1e-2, 3.5))
        assert traj.termination.kind is TerminationKind.WIDTH_COLLAPSED
        assert traj.termination.step * 1e-2 < 3.5
        assert traj.final_state.L < 0.05

    def test_indefinite_growth_regime(self, tc3):
        # exchange ratio above the dissolution ratio sustains growth
        params = ModelParams(a=5.0, b=1.0, alpha0=tc3.alpha0, beta0=tc3.beta0,
                             alpha1=tc3.alpha1, beta1=tc3.beta1, R=tc3.R, L0=1.0,
                             u_init=ExponentialProfile(1.0, -1.0, 2.0))
        mesh = uniform_mesh(50)
        traj = run(params, mesh, TimeGrid.from_step_and_horizon(1e-2, 5.0))
        assert traj.completed
        L = np.array([s.L for s in traj.states])
        assert L[-1] > 2.0
        assert np.all(np.diff(L[len(L) * 3 // 4:]) > 0.0)


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(newton_tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(max_newton_iters=0)
        with pytest.raises(ValueError):
            SolverOptions(width_floor=-1.0)

    def test_floor_resolution(self, tc1):
        assert SolverOptions().resolved_floor(tc1) == 1e-8 * tc1.L0
        assert SolverOptions(width_floor=0.5).resolved_floor(tc1) == 0.5
