import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from oxidefv import (
    ExponentialProfile,
    Mesh,
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
from oxidefv.scheme import _StepSystem, _affine_block
from conftest import make_tc1, make_tc2, make_tc3


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
            system = _StepSystem(prev, mesh, dt, tc1)
            Jfd = np.zeros_like(J)
            for j in range(x.size):
                step = 1e-7 * max(1.0, abs(x[j]))
                xp = x.copy(); xp[j] += step
                xm = x.copy(); xm[j] -= step
                rp = system.residual(xp[:10], xp[10], xp[11], xp[12])
                rm = system.residual(xm[:10], xm[10], xm[11], xm[12])
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
            system = _StepSystem(prev, mesh, dt, tc1)
            r = system.assemble(cand.u, cand.X0, cand.X1, cand.L)
            dense = np.linalg.solve(jacobian(prev, cand, mesh, dt, tc1), -r)
            delta = system.solve(r)
            scale = max(1.0, float(np.abs(dense).max()))
            assert np.abs(delta - dense).max() <= 1e-9 * scale


def reference_residual_rows(u, X0, X1, L, F, prev, mesh, dt, params):
    """The residual of the step from the edge fluxes F."""
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


def reference_assemble(u, X0, X1, L, prev, mesh, dt, params):
    """(r, band, border) from the public Bernoulli functions, one call per
    weight and derivative, as _StepSystem.assemble must reproduce bit for
    bit."""
    cells = mesh.num_cells
    v = velocities(prev, State(u=u, X0=X0, X1=X1, L=L), mesh, dt, params.R)
    w = (L * mesh.gaps) * v
    Bp, Bm = bernoulli(w), bernoulli(-w)
    F = (Bm * u[:-1] - Bp * u[1:]) / (L * mesh.gaps)
    r = reference_residual_rows(u, X0, X1, L, F, prev, mesh, dt, params)
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
    np.linalg.solve, as _StepSystem.solve must reproduce bit for bit."""
    cells = band.shape[1] - 2
    b_u = np.concatenate(([-r[cells]], -r[:cells], [-r[cells + 1]]))
    sol = solve_banded((1, 1), band, np.column_stack((b_u, border)))
    y, Y = sol[:, 0], sol[:, 1:]
    c0, c1, D = params.beta0, -params.beta1, _affine_block(dt, params.R)
    Cy = np.array([c0 * y[0], c1 * y[-1], 0.0])
    CY = np.vstack((c0 * Y[0], c1 * Y[-1], np.zeros(3)))
    z = np.linalg.solve(D - CY, -r[cells + 2 :] - Cy)
    return np.concatenate((y - Y @ z, z))


def first_newton_iterate(params, mesh, dt):
    prev = discretize_initial(params, mesh)
    system = _StepSystem(prev, mesh, dt, params)
    d = system.solve(system.assemble(prev.u, prev.X0, prev.X1, prev.L))
    m = mesh.num_cells + 2
    cand = State(u=prev.u + d[:m], X0=prev.X0 + d[m], X1=prev.X1 + d[m + 1], L=prev.L + d[m + 2])
    return prev, cand


class TestLeanIteration:
    """The Newton iteration evaluates its Bernoulli weights with one
    unchecked kernel call and solves the band with LAPACK's dgtsv directly;
    both must agree exactly with the public-function path."""

    def assert_assembly_matches_reference(self, prev, cand, mesh, dt, params):
        system = _StepSystem(prev, mesh, dt, params)
        r = system.assemble(cand.u, cand.X0, cand.X1, cand.L)
        got = (r, system.band, system.border)
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
            system = _StepSystem(prev, mesh, 0.02, tc1)
            r = system.assemble(cand.u, cand.X0, cand.X1, cand.L)
            band, border = system.band.copy(), system.border.copy()
            got = system.solve(r)
            assert np.array_equal(got, reference_bordered_solve(r, band, border, 0.02, tc1))

    def test_singular_band_raises(self, tc1):
        rng = np.random.default_rng(5)
        mesh = uniform_mesh(10)
        system = _StepSystem(discretize_initial(tc1, mesh), mesh, 0.02, tc1)
        system.band[:] = 0.0
        system.border[:] = rng.normal(size=(12, 3))
        with pytest.raises(np.linalg.LinAlgError):
            system.solve(rng.normal(size=15))

    def test_non_finite_system_raises(self, tc1):
        mesh = uniform_mesh(10)
        prev = discretize_initial(tc1, mesh)
        system = _StepSystem(prev, mesh, 0.02, tc1)
        for part, value in ((system.band, np.inf), (system.border, np.nan), (None, np.inf)):
            r = system.assemble(prev.u, prev.X0, prev.X1, prev.L)
            if part is None:
                r[0] = value
            else:
                part[1, 1] = value
            with pytest.raises(np.linalg.LinAlgError):
                system.solve(r)

    def test_overflowing_step_fails_without_exception(self, tc1):
        # 1/dt is finite, but h * L / dt overflows in the band: both solvers
        # report a failed step
        params = replace(tc1, L0=50.0)
        mesh = uniform_mesh(20)
        prev = discretize_initial(params, mesh)
        with np.errstate(all="ignore"):
            system = _StepSystem(prev, mesh, 1e-308, params)
            system.assemble(prev.u, prev.X0, prev.X1, prev.L)
            assert np.isinf(system.band).any()
            newton = newton_step_solve(prev, mesh, 1e-308, params)
            fallback = homotopy_solve(prev, mesh, 1e-308, params)
        assert newton.status is StepStatus.NO_CONVERGENCE and newton.state is None
        assert fallback.status is not StepStatus.CONVERGED and fallback.state is None

    def test_schur_step_matches_numpy_solve(self, tc1, monkeypatch):
        # LAPACK dgesv on the 3x3 Schur complement reproduces np.linalg.solve
        # bit for bit, on the systems of a Newton solve and on random ones
        systems = []
        dgesv = scheme.dgesv

        def recorded(a, b, **kwargs):
            systems.append((np.array(a), np.array(b)))
            out = dgesv(a, b, **kwargs)
            systems[-1] += (out[2].copy(),)
            return out

        monkeypatch.setattr(scheme, "dgesv", recorded)
        mesh = uniform_mesh(30)
        result = newton_step_solve(discretize_initial(make_tc2(), mesh), mesh, 1e-2, make_tc2())
        assert result.status is StepStatus.CONVERGED
        assert len(systems) == result.iterations
        rng = np.random.default_rng(36)
        for _ in range(200):
            S = rng.normal(size=(3, 3)) + np.diag(rng.uniform(-50.0, 50.0, 3))
            b = rng.normal(size=3)
            systems.append((S, b, dgesv(S, b)[2]))
        for S, b, z in systems:
            assert np.array_equal(z, np.linalg.solve(S, b))

    def test_singular_schur_complement_raises(self, tc1):
        # with an identity band the border passes through unchanged, and this
        # border cancels the X0 law's row of the 3x3 block exactly
        cells, dt = 6, 0.02
        mesh = uniform_mesh(cells)
        system = _StepSystem(discretize_initial(tc1, mesh), mesh, dt, tc1)
        system.band[:] = 0.0
        system.band[1] = 1.0
        system.border[:] = 0.0
        system.border[0] = system.block[0] / system.c0
        with pytest.raises(np.linalg.LinAlgError):
            system.solve(np.ones(cells + 5))

    def test_affine_block_is_cached_read_only(self, tc1):
        mesh = uniform_mesh(10)
        prev = discretize_initial(tc1, mesh)
        system = _StepSystem(prev, mesh, 0.02, tc1)
        system.solve(system.assemble(prev.u, prev.X0, prev.X1, prev.L))
        # the Schur step works on a copy: the shared cached block is untouched
        assert _StepSystem(prev, mesh, 0.02, tc1).block is system.block
        assert not system.block.flags.writeable
        assert np.array_equal(
            system.block,
            [[50.0, -(1.0 - tc1.R) / 0.02, 0.0], [0.0, 50.0, 0.0], [1.0, -1.0, 1.0]],
        )

    def test_one_kernel_call_per_edge_field_evaluation(self, tc1, monkeypatch):
        calls = []
        kernel = scheme._bernoulli_pair

        def counted(r, prime=True):
            calls.append((r.shape, prime))
            return kernel(r, prime)

        def forbidden(*args, **kwargs):
            raise AssertionError("the Newton iteration called a public checked function")

        monkeypatch.setattr(scheme, "_bernoulli_pair", counted)
        for name in ("bernoulli", "bernoulli_prime", "solve_banded"):
            monkeypatch.setattr(scheme, name, forbidden)
        mesh = uniform_mesh(30)
        prev = discretize_initial(tc1, mesh)
        edges = (2 * 31,)
        # The first iteration runs at rest and needs no kernel; each further
        # full iteration takes B and B' in one call, and the residual check of
        # the end point B alone.  The first step ends on a full iteration,
        # the second on a confirmation, which takes B alone too.
        first = newton_step_solve(prev, mesh, 1e-2, tc1)
        assert first.status is StepStatus.CONVERGED
        assert calls == [(edges, True)] * (first.iterations - 1) + [(edges, False)]
        calls.clear()
        second = newton_step_solve(first.state, mesh, 1e-2, tc1)
        assert second.status is StepStatus.CONVERGED
        assert calls == [(edges, True)] * (second.iterations - 2) + [(edges, False)] * 2


def full_newton(prev, mesh, dt, params, opts=SolverOptions()):
    """Damped Newton that reassembles on every iteration, through
    reference_assemble and reference_bordered_solve: the end point (u, X0,
    X1, L) and the iterations, or (None, iterations) when it does not
    converge."""
    floor = opts.resolved_floor(params)
    m = mesh.num_cells + 2
    u, X0, X1, L = prev.u, prev.X0, prev.X1, prev.L
    for iters in range(1, opts.max_newton_iters + 1):
        r, band, border = reference_assemble(u, X0, X1, L, prev, mesh, dt, params)
        delta = reference_bordered_solve(r, band, border, dt, params)
        t, _ = scheme._damped_substep(u, L, delta[:m], delta[m + 2], floor)
        if t is None:
            return None, iters
        u = u + t * delta[:m]
        X0, X1, L = X0 + t * delta[m], X1 + t * delta[m + 1], L + t * delta[m + 2]
        if t * np.abs(delta).max() <= opts.newton_tol:
            return (np.where((u < 0.0) & (u > -1e-12), 0.0, u), X0, X1, L), iters
    return None, iters


def state_gap(state, point):
    u, X0, X1, L = point
    return max(float(np.abs(state.u - u).max()),
               abs(state.X0 - X0), abs(state.X1 - X1), abs(state.L - L))


def record_iterations(monkeypatch):
    """Record each Newton iteration of the step systems: the lam of a full
    one, "confirm" for a residual-only confirmation."""
    events = []
    assemble, resolve = _StepSystem.assemble, _StepSystem.resolve

    def recorded_assemble(self, u, X0, X1, L, lam=1.0):
        events.append(lam)
        return assemble(self, u, X0, X1, L, lam)

    def recorded_resolve(self, r):
        events.append("confirm")
        return resolve(self, r)

    monkeypatch.setattr(_StepSystem, "assemble", recorded_assemble)
    monkeypatch.setattr(_StepSystem, "resolve", recorded_resolve)
    return events


class TestConfirmation:
    """A full undamped iteration at lam = 1 with an increment at most
    sqrt(newton_tol) is followed by a residual-only confirmation that
    reuses its factors; the solve must end where full Newton ends."""

    def test_matches_full_newton_over_a_run(self, tc1, monkeypatch):
        events = record_iterations(monkeypatch)
        mesh = uniform_mesh(100)
        prev = discretize_initial(tc1, mesh)
        for _ in range(200):
            result = newton_step_solve(prev, mesh, 1e-2, tc1)
            point, iters = full_newton(prev, mesh, 1e-2, tc1)
            assert result.status is StepStatus.CONVERGED and point is not None
            assert result.iterations == iters
            assert state_gap(result.state, point) <= 1e-13
            prev = result.state
        assert events.count("confirm") >= 150

    def test_continuation_confirms_only_at_lambda_one(self, tc1, monkeypatch):
        events = record_iterations(monkeypatch)
        mesh = uniform_mesh(30)
        s0 = discretize_initial(tc1, mesh)
        result = homotopy_solve(s0, mesh, 2e-2, tc1)
        assert result.status is StepStatus.CONVERGED
        assert result.iterations == len(events)
        confirms = [i for i, event in enumerate(events) if event == "confirm"]
        assert confirms
        assert all(events[i - 1] == 1.0 for i in confirms)
        # the corrections below lam = 1 take several iterations each
        assert sum(event != "confirm" and event < 1.0 for event in events) > 2 * 16

    def test_unconverged_confirmation_falls_through_to_full_iteration(
        self, tc1, monkeypatch
    ):
        events = record_iterations(monkeypatch)
        resolve = _StepSystem.resolve  # the recording wrapper
        inflated = []

        def first_inflated(self, r):
            delta = resolve(self, r)
            if not inflated:
                delta = 1e4 * delta
                inflated.append(float(np.abs(delta).max()))
            return delta

        monkeypatch.setattr(_StepSystem, "resolve", first_inflated)
        mesh = uniform_mesh(30)
        first = newton_step_solve(discretize_initial(tc1, mesh), mesh, 1e-2, tc1)
        events.clear()
        result = newton_step_solve(first.state, mesh, 1e-2, tc1)
        assert result.status is StepStatus.CONVERGED
        assert inflated[0] > SolverOptions().newton_tol
        i = events.index("confirm")
        assert events[i + 1] == 1.0
        assert result.iterations == len(events)
        point, _ = full_newton(first.state, mesh, 1e-2, tc1)
        assert state_gap(result.state, point) <= 1e-12


def reference_residual(u, X0, X1, L, prev, mesh, dt, params):
    """The residual from the public bernoulli, as _StepSystem.residual must
    reproduce bit for bit."""
    v = velocities(prev, State(u=u, X0=X0, X1=X1, L=L), mesh, dt, params.R)
    w = (L * mesh.gaps) * v
    F = (bernoulli(-w) * u[:-1] - bernoulli(w) * u[1:]) / (L * mesh.gaps)
    return reference_residual_rows(u, X0, X1, L, F, prev, mesh, dt, params)


def reference_step(prev, mesh, dt, params, opts=SolverOptions()):
    """One step of damped Newton with the scheme's confirmations and end
    point check, built from reference_assemble, reference_bordered_solve and
    reference_residual: (u, X0, X1, L, iterations, residual sup-norm) of the
    accepted state, or None when the step is not accepted.

    A full undamped iteration whose increment is at most sqrt(newton_tol)
    is followed by a confirmation, which solves with that iteration's band
    and border on the residual alone."""
    floor = opts.resolved_floor(params)
    m = mesh.num_cells + 2
    u, X0, X1, L = prev.u, prev.X0, prev.X1, prev.L
    confirm, kept = False, None
    for iters in range(1, opts.max_newton_iters + 1):
        if confirm:
            r = reference_residual(u, X0, X1, L, prev, mesh, dt, params)
        else:
            r, *kept = reference_assemble(u, X0, X1, L, prev, mesh, dt, params)
        delta = reference_bordered_solve(r, *kept, dt, params)
        if not np.isfinite(delta).all():
            return None
        du, dL = delta[:m], delta[m + 2]
        t_width = (L - floor) / -dL if dL < 0.0 else np.inf
        neg = du < 0.0
        t_pos = (u[neg] / -du[neg]).min() if neg.any() else np.inf
        t = min(1.0, 0.995 * t_width, 0.995 * t_pos)
        if t <= 2.0**-30:
            return None
        u = u + t * du
        X0, X1, L = X0 + t * delta[m], X1 + t * delta[m + 1], L + t * dL
        step = t * np.abs(delta).max()
        if step <= opts.newton_tol:
            break
        confirm = not confirm and t == 1.0 and step <= np.sqrt(opts.newton_tol)
    else:
        return None
    resid = np.abs(reference_residual(u, X0, X1, L, prev, mesh, dt, params)).max()
    u = np.where((u < 0.0) & (u > -1e-12), 0.0, u)
    if resid > 1e-6 or L <= floor or u.min() < 0.0:
        return None
    return u, X0, X1, L, iters, float(resid)


class TestReferenceRun:
    """run() reproduces, bit for bit, a Newton loop built from the reference
    assembly, solve and residual: the stored states, the iteration counts
    and the residual sup-norms."""

    @pytest.mark.parametrize(
        "make, cells, steps",
        [(make_tc1, 100, 300), (make_tc2, 50, 1000), (make_tc3, 100, 5)],
    )
    def test_run_matches_reference_loop(self, make, cells, steps):
        params, mesh, dt = make(), uniform_mesh(cells), 1e-2
        traj = run(params, mesh, TimeGrid.from_step(dt, steps))
        prev = discretize_initial(params, mesh)
        states, iters, resids = [prev], [], []
        for _ in range(steps):
            step = reference_step(prev, mesh, dt, params)
            if step is None:
                break
            u, X0, X1, L, used, resid = step
            prev = State(u=u, X0=X0, X1=X1, L=L)
            states.append(prev)
            iters.append(used)
            resids.append(resid)
        if make is make_tc2:
            # the reference stops where run() ends on the collapse
            assert traj.termination.kind is TerminationKind.WIDTH_COLLAPSED
            assert traj.termination.step == len(states)
        else:
            assert traj.completed and len(states) == steps + 1
        assert traj.U.tobytes() == np.stack([s.u for s in states]).tobytes()
        for name in ("X0", "X1", "L"):
            want = np.array([getattr(s, name) for s in states])
            assert getattr(traj, name).tobytes() == want.tobytes()
        assert traj.newton_iters == tuple(iters)
        assert traj.residual_inf == tuple(resids)


@st.composite
def step_problems(draw):
    """A preset, a random non-uniform mesh with 2 to 40 cells and dt
    log-uniform in [1e-4, 1]."""
    make = draw(st.sampled_from([make_tc1, make_tc2, make_tc3]))
    cells = draw(st.integers(2, 40))
    sizes = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=cells, max_size=cells)))
    edges = np.concatenate(([0.0], np.cumsum(sizes[:-1]) / sizes.sum(), [1.0]))
    dt = 10.0 ** draw(st.floats(-4.0, 0.0))
    return make(), Mesh.from_edges(edges), dt


@settings(max_examples=200)
@given(step_problems())
def test_converged_steps_match_full_newton(problem):
    params, mesh, dt = problem
    prev = discretize_initial(params, mesh)
    result = newton_step_solve(prev, mesh, dt, params)
    if result.status is not StepStatus.CONVERGED:
        return
    point, _ = full_newton(prev, mesh, dt, params)
    assert point is not None
    scale = max(1.0, float(np.abs(result.state.u).max()), abs(result.state.X1))
    assert state_gap(result.state, point) <= 1e-12 * scale
    assert np.abs(residual(prev, result.state, mesh, dt, params)).max() <= 1e-6
    assert result.state.u.min() >= 0.0


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
        r = _StepSystem(s0, mesh, 1e-2, tc1).assemble(u, s0.X0, s0.X1, s0.L, 0.0)
        assert np.all(r == 0.0)

    def test_lambda_one_matches_direct_scheme(self, tc1):
        mesh = uniform_mesh(25)
        s0 = discretize_initial(tc1, mesh)
        nxt = newton_step_solve(s0, mesh, 1e-2, tc1).state
        r = _StepSystem(s0, mesh, 1e-2, tc1).assemble(nxt.u, nxt.X0, nxt.X1, nxt.L, 1.0)
        assert np.abs(r).max() <= 1e-9
        assert np.array_equal(r, residual(s0, nxt, mesh, 1e-2, tc1))

    def test_jacobian_matches_finite_differences(self, tc1):
        rng = np.random.default_rng(24)
        mesh = uniform_mesh(8)
        dt = 0.01
        s0 = discretize_initial(tc1, mesh)
        system = _StepSystem(s0, mesh, dt, tc1)
        for lam in (0.0, 0.37, 1.0):
            u = rng.uniform(0.2, 2.0, 10)
            X0, X1, L = 0.2, 1.1, 0.9
            x = np.concatenate([u, [X0, X1, L]])
            system.assemble(u, X0, X1, L, lam)
            J = system.dense_jacobian()
            Jfd = np.zeros_like(J)
            for j in range(x.size):
                step = 1e-7 * max(1.0, abs(x[j]))
                xp = x.copy(); xp[j] += step
                xm = x.copy(); xm[j] -= step
                rp = system.assemble(xp[:10], *xp[10:], lam)
                rm = system.assemble(xm[:10], *xm[10:], lam)
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
        assert all(s.closure_defect() <= 1e-9 for s in traj.states)
        assert max(traj.residual_inf) <= 1e-9

    def test_run_calls_traced_names_through_the_module(self, tc1, monkeypatch):
        # The benchmark's tracer counts scheme.newton and core.state_new by
        # wrapping these module attributes; run() must look them up there.
        counts = Counter()

        def count(name, wrapped=None):
            original = wrapped or getattr(scheme, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(scheme, name, counted)

        solve = scheme.newton_step_solve

        def first_fails(prev, *args, **kwargs):
            result = solve(prev, *args, **kwargs)
            if prev.X0 == 0.0:
                result = replace(result, state=None, status=StepStatus.NO_CONVERGENCE)
            return result

        count("newton_step_solve", first_fails)
        count("homotopy_solve")
        count("State")
        traj = run(tc1, uniform_mesh(20), TimeGrid.from_step(1e-2, 3))
        assert traj.completed
        # three Newton solves, the first handed to the continuation; each
        # converged solve builds its state
        assert counts == {"newton_step_solve": 3, "homotopy_solve": 1, "State": 4}
        for name in ("solve_banded", "bernoulli", "bernoulli_prime"):
            assert callable(getattr(scheme, name))

    def test_initial_state_override(self, tc1):
        mesh = uniform_mesh(40)
        wave, s0 = wave_state(tc1, mesh)
        traj = run(tc1, mesh, TimeGrid.from_step(1e-2, 10), initial_state=s0)
        assert traj.completed
        assert np.abs(traj.final_state.u - s0.u).max() <= 1e-10

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


def dissolution_draw(rng):
    """Random kinetics with a/b below both alpha0/beta0 and the mixed ratio
    (no travelling wave: the layer dissolves), started from the presets'
    exponential reference profile, on a uniform or random mesh with 10, 20
    or 40 cells.  dt is L0 over the width's initial rate of change, divided
    by 20, 50 or 100."""
    alpha0, beta0, alpha1, beta1 = (rng.uniform(0.5, 5.0) for _ in range(4))
    R = rng.uniform(1.2, 3.0)
    r_mid = (alpha0 + R * alpha1) / (beta0 + R * beta1)
    q = rng.uniform(0.2, 0.9) * min(alpha0 / beta0, r_mid)
    b = rng.uniform(0.5, 2.0)
    c = (alpha0 - beta0 * q) / R
    params = ModelParams(a=q * b, b=b, alpha0=alpha0, beta0=beta0, alpha1=alpha1,
                         beta1=beta1, R=R, L0=1.0, u_init=ExponentialProfile(q, -R * c, 0.0))
    cells = rng.choice((10, 20, 40))
    if rng.random() < 0.5:
        mesh = uniform_mesh(cells)
    else:
        inner = sorted(rng.random() for _ in range(cells - 1))
        mesh = Mesh.from_edges([0.0, *inner, 1.0])
    # dL/dt = R dX1/dt - (alpha0 - beta0 u_0) at the initial traces
    u_right = float(params.u_init(params.L0))
    rate = abs(R * (beta1 * u_right - alpha1) - (alpha0 - beta0 * q))
    dt = params.L0 / rate / rng.choice((20, 50, 100))
    return params, mesh, dt


class TestCollapseEvent:
    """A step that Newton reports as a width collapse ends the run without
    the continuation; the collapse time is bracketed by bisecting the step."""

    def test_continuation_never_rescues_a_newton_collapse(self, monkeypatch):
        brackets = []
        bracket_collapse = scheme._bracket_collapse

        def recorded(*args):
            brackets.append(bracket_collapse(*args))
            return brackets[-1]

        monkeypatch.setattr(scheme, "_bracket_collapse", recorded)
        rng = random.Random(2026)
        for _ in range(15):
            params, mesh, dt = dissolution_draw(rng)
            traj = run(params, mesh, TimeGrid.from_step(dt, 5000))
            term = traj.termination
            assert term.kind is TerminationKind.WIDTH_COLLAPSED
            n = term.step
            prev = traj.final_state
            assert len(traj.states) - 1 == n - 1
            # the terminal step: Newton flags the collapse, and the
            # continuation from the same state does not converge either
            assert newton_step_solve(prev, mesh, dt, params).status is StepStatus.WIDTH_COLLAPSED
            assert homotopy_solve(prev, mesh, dt, params).status is not StepStatus.CONVERGED
            lo, hi = brackets[-1]
            assert 0.0 < lo < hi <= dt and hi - lo <= 1e-10 * dt
            assert newton_step_solve(prev, mesh, lo, params).status is StepStatus.CONVERGED
            assert newton_step_solve(prev, mesh, hi, params).status is not StepStatus.CONVERGED
            assert term.bracket == ((n - 1) * dt + lo, (n - 1) * dt + hi)
        assert len(brackets) == 15

    def test_no_continuation_after_newton_collapse(self, tc2, monkeypatch):
        calls = []
        continuation = scheme.homotopy_solve

        def counted(*args, **kwargs):
            calls.append(args)
            return continuation(*args, **kwargs)

        monkeypatch.setattr(scheme, "homotopy_solve", counted)
        traj = run(tc2, uniform_mesh(100), TimeGrid.from_step_and_horizon(1e-2, 3.5))
        assert traj.termination.kind is TerminationKind.WIDTH_COLLAPSED
        assert calls == []

    def test_continuation_still_follows_no_convergence(self, tc1, monkeypatch):
        # a Newton solve that does not converge is handed to the continuation
        calls = []
        solve, continuation = scheme.newton_step_solve, scheme.homotopy_solve

        def first_fails(prev, *args, **kwargs):
            result = solve(prev, *args, **kwargs)
            if prev.X0 == 0.0:
                result = replace(result, state=None, status=StepStatus.NO_CONVERGENCE)
            return result

        def counted(*args, **kwargs):
            calls.append(args)
            return continuation(*args, **kwargs)

        monkeypatch.setattr(scheme, "newton_step_solve", first_fails)
        monkeypatch.setattr(scheme, "homotopy_solve", counted)
        traj = run(tc1, uniform_mesh(20), TimeGrid.from_step(1e-2, 3))
        assert traj.completed and len(calls) == 1

    @pytest.mark.parametrize(
        "make, cells, step, iters, final_L, bracket",
        [
            (make_tc2, 400, 149, 482, 0.0013437304235845258,
             (1.4846908462042, 1.4846908462048)),
            (make_tc3, 100, 35, 151, 0.0011203495503272626,
             (0.3419468800817, 0.3419468800823)),
        ],
    )
    def test_pinned_collapse(self, make, cells, step, iters, final_L, bracket):
        params = make()
        traj = run(params, uniform_mesh(cells), TimeGrid.from_step(1e-2, 1000))
        term = traj.termination
        assert term.kind is TerminationKind.WIDTH_COLLAPSED and term.step == step
        assert sum(traj.newton_iters) == iters
        assert traj.final_state.L == pytest.approx(final_L, rel=1e-12, abs=0.0)
        lo, hi = term.bracket
        assert lo == pytest.approx(bracket[0], rel=0.0, abs=1e-12)
        assert hi == pytest.approx(bracket[1], rel=0.0, abs=1e-12)
        assert (step - 1) * 1e-2 < lo < hi <= step * 1e-2
        assert hi - lo <= 1e-12

    @pytest.mark.parametrize("make", [make_tc2, make_tc3])
    def test_stored_run_is_the_newton_sequence(self, make):
        # the stored trajectory is exactly the accepted Newton steps up to
        # the collapse, as it was when the continuation was tried as well
        params = make()
        mesh = uniform_mesh(100)
        traj = run(params, mesh, TimeGrid.from_step(1e-2, 1000))
        states, iters, resids = [discretize_initial(params, mesh)], [], []
        while True:
            result = newton_step_solve(states[-1], mesh, 1e-2, params)
            if result.status is not StepStatus.CONVERGED:
                break
            states.append(result.state)
            iters.append(result.iterations)
            resids.append(result.residual_inf)
        assert traj.termination.step == len(states)
        assert len(traj.states) == len(states)
        for got, want in zip(traj.states, states):
            assert got.u.tobytes() == want.u.tobytes()
            assert (got.X0, got.X1, got.L) == (want.X0, want.X1, want.L)
        assert traj.newton_iters == tuple(iters)
        assert traj.residual_inf == tuple(resids)

    def test_floor_reached_by_an_accepted_state_has_no_bracket(self, tc2):
        # a floor this high is crossed by an accepted step
        traj = run(tc2, uniform_mesh(30), TimeGrid.from_step_and_horizon(1e-2, 3.5),
                   SolverOptions(width_floor=0.05))
        assert traj.termination.kind is TerminationKind.WIDTH_COLLAPSED
        assert traj.termination.step == len(traj.states) - 1
        assert traj.final_state.L <= 2.0 * 0.05
        assert traj.termination.bracket is None


class TestStepValidation:
    """The solvers and the residual reject a step the step system cannot
    hold before any assembly."""

    @pytest.mark.parametrize("dt", [-0.01, 0.0, float("nan"), float("inf"), True])
    @pytest.mark.parametrize("solve", [newton_step_solve, homotopy_solve])
    def test_dt_not_positive_and_finite(self, tc1, solve, dt):
        mesh = uniform_mesh(12)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            solve(discretize_initial(tc1, mesh), mesh, dt, tc1)

    @pytest.mark.parametrize("solve", [newton_step_solve, homotopy_solve])
    def test_dt_with_overflowing_reciprocal(self, tc1, solve):
        mesh = uniform_mesh(12)
        with pytest.raises(ValueError, match="1/dt overflows"):
            solve(discretize_initial(tc1, mesh), mesh, 1e-320, tc1)

    @pytest.mark.parametrize("solve", [newton_step_solve, homotopy_solve])
    def test_prev_off_the_mesh(self, tc1, solve):
        prev = discretize_initial(tc1, uniform_mesh(10))
        with pytest.raises(ValueError, match="prev has 10 cells, the mesh 12"):
            solve(prev, uniform_mesh(12), 1e-2, tc1)

    def test_residual_and_jacobian_check_the_same(self, tc1):
        mesh = uniform_mesh(12)
        prev = discretize_initial(tc1, mesh)
        for function in (residual, jacobian):
            for dt in (0.0, 1e-320):
                with pytest.raises(ValueError, match=function.__name__):
                    function(prev, prev, mesh, dt, tc1)
            with pytest.raises(ValueError, match="prev has 10 cells"):
                function(discretize_initial(tc1, uniform_mesh(10)), prev, mesh, 1e-2, tc1)


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(newton_tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(max_newton_iters=0)
        with pytest.raises(ValueError):
            SolverOptions(width_floor=-1.0)
        for bad in (float("nan"), float("inf"), True):
            with pytest.raises(ValueError):
                SolverOptions(newton_tol=bad)
            with pytest.raises(ValueError):
                SolverOptions(width_floor=bad)
        for bad in (True, 2.5):
            with pytest.raises(ValueError):
                SolverOptions(max_newton_iters=bad)

    def test_floor_resolution(self, tc1):
        assert SolverOptions().resolved_floor(tc1) == 1e-8 * tc1.L0
        assert SolverOptions(width_floor=0.5).resolved_floor(tc1) == 0.5
