import random
import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv as scipy_dgtsv

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
    uniform_mesh,
    velocities,
    wave_profile_on_mesh,
)
from oxidefv import scheme
from oxidefv.scheme import _StepSystem
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


def random_step(rng, cells):
    """A random previous state and a random iterate (u, d0, d1) near it."""
    up = rng.uniform(0.1, 3.0, cells + 2)
    X0p = rng.uniform(-1.0, 1.0)
    Lp = rng.uniform(0.5, 3.0)
    prev = State(u=up, X0=X0p, X1=X0p + Lp, L=Lp)
    d0, d1 = rng.normal(0.0, 0.05, 2).tolist()
    return prev, (rng.uniform(0.1, 3.0, cells + 2), d0, d1)


def moved(prev, point):
    """The State at the iterate point = (u, d0, d1) of a step from prev."""
    u, d0, d1 = point
    return State(u=u, X0=float(prev.X0) + d0, X1=float(prev.X1) + d1,
                 L=float(prev.L) + (d1 - d0))


def state_gap(a, b):
    return max(float(np.abs(a.u - b.u).max()),
               abs(a.X0 - b.X0), abs(a.X1 - b.X1), abs(a.L - b.L))


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

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf, -np.inf, True])
    def test_dt_not_positive_and_finite_rejected(self, tc1, dt):
        mesh = uniform_mesh(5)
        s = discretize_initial(tc1, mesh)
        with pytest.raises(ValueError, match="velocities: dt must be positive and finite"):
            velocities(s, s, mesh, dt, tc1.R)

    @pytest.mark.parametrize("dt", [1e-320, np.float64(1e-320), 5e-324, 1e-318])
    def test_overflowing_rates_rejected(self, tc1, dt):
        # testcase1's first step moves X0, X1 and L by about 1e-3: over a dt
        # this small the rates overflow, with no floating-point warning first
        mesh = uniform_mesh(10)
        prev, nxt = run(tc1, mesh, TimeGrid.from_step(1e-2, 1)).states
        # the stored rows hold numpy floats; plain floats must fail the same way
        plain = [State(s.u, float(s.X0), float(s.X1), float(s.L)) for s in (prev, nxt)]
        # X1 = L grows by 1e-10: over dt = 1e-318 each rate is finite, about
        # 1e308, but the velocity -d[X1] - d[L] at the right edge (R = 2) is not
        assert tc1.R == 2.0 and np.isfinite(1e-10 / 1e-318)
        grow = [State(prev.u, 0.0, x, x) for x in (1.0, 1.0 + 1e-10)]
        for a, b in ((prev, nxt), plain, grow):
            with pytest.raises(ValueError, match=r"velocities: dt .* too small"):
                velocities(a, b, mesh, dt, tc1.R)
        # no motion has finite rates at any dt
        assert np.all(velocities(prev, prev, mesh, dt, tc1.R) == 0.0)
        assert np.all(np.isfinite(velocities(prev, nxt, mesh, 1e-300, tc1.R)))


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

    def test_width_follows_the_displacements(self, tc1):
        # the width is prev.L + (d1 - d0): cand.L is not read, and the same
        # displacements from a prev far from the origin give the same rows
        mesh = uniform_mesh(6)
        s = discretize_initial(tc1, mesh)
        cand = State(u=s.u, X0=s.X0 + 0.25, X1=s.X1 + 0.5, L=s.L)
        r = residual(s, cand, mesh, 0.01, tc1)
        assert r.tobytes() == residual(s, replace(cand, L=7.0), mesh, 0.01, tc1).tobytes()
        far = replace(s, X0=s.X0 - 1024.0, X1=s.X1 - 1024.0)
        shifted = replace(cand, X0=cand.X0 - 1024.0, X1=cand.X1 - 1024.0)
        assert residual(far, shifted, mesh, 0.01, tc1).tobytes() == r.tobytes()
        system = _StepSystem(s, mesh, 0.01, tc1)
        assert r.tobytes() == system.residual(s.u, 0.25, 0.5).tobytes()
        assert system.width(0.25, 0.5) == s.L + 0.25

    def test_length(self, tc1):
        mesh = uniform_mesh(8)
        s = discretize_initial(tc1, mesh)
        assert residual(s, s, mesh, 0.01, tc1).shape == (12,)


class TestJacobian:
    def test_affine_rows(self, tc1):
        mesh = uniform_mesh(8)
        rng = np.random.default_rng(22)
        prev, point = random_step(rng, 8)
        J = jacobian(prev, moved(prev, point), mesh, 0.01, tc1)
        assert J.shape == (12, 12)
        # the interface motion laws in (d0, d1), on u_0 and u_{I+1}
        assert J[-2, 0] == tc1.beta0 and J[-1, 9] == -tc1.beta1
        assert J[-2, -2:].tolist() == [1.0 / 0.01, -(1.0 - tc1.R) / 0.01]
        assert J[-1, -2:].tolist() == [0.0, 1.0 / 0.01]
        assert not J[-2:, 1:9].any()

    def test_matches_finite_differences(self, tc1):
        rng = np.random.default_rng(23)
        mesh = uniform_mesh(8)
        dt = 0.01
        for _ in range(5):
            prev, (u, d0, d1) = random_step(rng, 8)
            x = np.concatenate([u, [d0, d1]])
            J = jacobian(prev, moved(prev, (u, d0, d1)), mesh, dt, tc1)
            system = _StepSystem(prev, mesh, dt, tc1)
            Jfd = np.zeros_like(J)
            for j in range(x.size):
                step = 1e-7 * max(1.0, abs(x[j]))
                xp = x.copy(); xp[j] += step
                xm = x.copy(); xm[j] -= step
                rp = system.residual(xp[:10], xp[10], xp[11])
                rm = system.residual(xm[:10], xm[10], xm[11])
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
            prev, point = random_step(rng, 12)
            system = _StepSystem(prev, mesh, dt, tc1)
            r = system.assemble(*point)
            dense = np.linalg.solve(system.dense_jacobian(), -r)
            delta = system.solve(r)
            scale = max(1.0, float(np.abs(dense).max()))
            assert np.abs(delta - dense).max() <= 1e-9 * scale


def reference_velocity(d0, d1, mesh, dt, R):
    """The frame's edge velocities over a step with displacements d0, d1."""
    return (1.0 - R) * (d1 / dt) - mesh.edges * ((d1 - d0) / dt) - d0 / dt


def reference_residual_rows(u, d0, d1, L, F, prev, mesh, dt, params):
    """The residual of the step from the edge fluxes F."""
    cells = mesh.num_cells
    r = np.empty(cells + 4)
    r[:cells] = (
        mesh.cell_sizes * (L * u[1:-1] - prev.L * prev.u[1:-1]) / dt + F[1:] - F[:-1]
    )
    r[cells] = F[0] - params.a + params.b * u[0]
    r[cells + 1] = F[-1]
    r[cells + 2] = (
        d0 / dt
        - params.alpha0
        + params.beta0 * u[0]
        - (1.0 - params.R) * d1 / dt
    )
    r[cells + 3] = d1 / dt + params.alpha1 - params.beta1 * u[-1]
    return r


def reference_assemble(u, d0, d1, prev, mesh, dt, params):
    """(r, band, border) at the iterate (u, d0, d1) from the public
    Bernoulli functions, one call per weight and derivative, as
    _StepSystem.assemble must reproduce bit for bit."""
    cells = mesh.num_cells
    L = prev.L + (d1 - d0)
    v = reference_velocity(d0, d1, mesh, dt, params.R)
    w = (L * mesh.gaps) * v
    Bp, Bm = bernoulli(w), bernoulli(-w)
    F = (Bm * u[:-1] - Bp * u[1:]) / (L * mesh.gaps)
    r = reference_residual_rows(u, d0, d1, L, F, prev, mesh, dt, params)
    denom = L * mesh.gaps
    dF_ul = Bm / denom
    dF_ur = -Bp / denom
    Nw = -bernoulli_prime(-w) * u[:-1] - bernoulli_prime(w) * u[1:]
    # L = prev.L + (d1 - d0): the chain rule through dF/dL
    dF_L = Nw * (v / L - mesh.edges / dt) - F / L
    dF_d0 = -Nw / dt - dF_L
    dF_d1 = Nw * (1.0 - params.R) / dt + dF_L
    h = mesh.cell_sizes
    band = np.zeros((3, cells + 2))
    band[1, 0] = dF_ul[0] + params.b
    band[0, 1:] = dF_ur
    band[1, 1 : cells + 1] = h * L / dt + dF_ul[1:] - dF_ur[:-1]
    band[1, cells + 1] = dF_ur[-1]
    band[2, :cells] = -dF_ul[:cells]
    band[2, cells] = dF_ul[-1]
    border = np.empty((cells + 2, 2))
    border[0] = (dF_d0[0], dF_d1[0])
    border[1 : cells + 1, 0] = dF_d0[1:] - dF_d0[:-1] - h * u[1:-1] / dt
    border[1 : cells + 1, 1] = dF_d1[1:] - dF_d1[:-1] + h * u[1:-1] / dt
    border[cells + 1] = (dF_d0[-1], dF_d1[-1])
    return r, band, border


def reference_bordered_solve(r, band, border, dt, params):
    """The block elimination through scipy's solve_banded and Cramer's rule
    on the 2x2 Schur complement in (d0, d1), as _StepSystem.solve must
    reproduce bit for bit."""
    cells = band.shape[1] - 2
    b_u = np.concatenate(([-r[cells]], -r[:cells], [-r[cells + 1]]))
    sol = solve_banded((1, 1), band, np.column_stack((b_u, border)))
    y, Y = sol[:, 0], sol[:, 1:]
    c0, c1 = params.beta0, -params.beta1
    S = np.array([
        [1.0 / dt - c0 * Y[0, 0], -(1.0 - params.R) / dt - c0 * Y[0, 1]],
        [0.0 - c1 * Y[-1, 0], 1.0 / dt - c1 * Y[-1, 1]],
    ])
    b = -r[cells + 2 :] - np.array([c0 * y[0], c1 * y[-1]])
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    z = np.array([b[0] * S[1, 1] - S[0, 1] * b[1], S[0, 0] * b[1] - S[1, 0] * b[0]]) / det
    return np.concatenate((y - Y[:, 0] * z[0] - Y[:, 1] * z[1], z))


def first_newton_iterate(params, mesh, dt):
    prev = discretize_initial(params, mesh)
    system = _StepSystem(prev, mesh, dt, params)
    d = system.solve(system.assemble(prev.u, 0.0, 0.0))
    m = mesh.num_cells + 2
    return prev, (prev.u + d[:m], d[m], d[m + 1])


class TestLeanIteration:
    """The Newton iteration evaluates its Bernoulli weights with one
    unchecked kernel call and solves the band with LAPACK's dgtsv directly;
    both must agree exactly with the public-function path.  The residual
    that assemble() returns is residual()'s, bit for bit."""

    def assert_assembly_matches_reference(self, prev, point, mesh, dt, params):
        system = _StepSystem(prev, mesh, dt, params)
        r = system.assemble(*point)
        got = (r, system.band, system.border)
        want = reference_assemble(*point, prev, mesh, dt, params)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert system.residual(*point).tobytes() == r.tobytes()

    def test_assembly_at_zero_peclet(self, tc1):
        # a step's first iterate: the frame is at rest, so w == 0 on every edge
        mesh = uniform_mesh(100)
        prev = discretize_initial(tc1, mesh)
        self.assert_assembly_matches_reference(prev, (prev.u, 0.0, 0.0), mesh, 1e-2, tc1)

    def test_assembly_at_mid_newton_iterate(self, tc1):
        mesh = uniform_mesh(100)
        prev, point = first_newton_iterate(tc1, mesh, 1e-2)
        u, d0, d1 = point
        L = prev.L + (d1 - d0)
        w = np.abs(L * mesh.gaps * reference_velocity(d0, d1, mesh, 1e-2, tc1.R))
        # B' takes its series on some edges and its closed form on others
        assert w.min() < 1e-2 <= w.max()
        self.assert_assembly_matches_reference(prev, point, mesh, 1e-2, tc1)

    def test_assembly_at_random_states(self, tc1):
        rng = np.random.default_rng(3)
        mesh = uniform_mesh(12)
        for _ in range(5):
            prev, point = random_step(rng, 12)
            self.assert_assembly_matches_reference(prev, point, mesh, 0.02, tc1)

    @pytest.mark.parametrize("cells", [1, 2, 100])
    def test_bordered_solve_matches_reference(self, tc1, cells):
        rng = np.random.default_rng(cells)
        mesh = uniform_mesh(cells)
        for _ in range(3):
            prev, point = random_step(rng, cells)
            system = _StepSystem(prev, mesh, 0.02, tc1)
            r = system.assemble(*point)
            band, border = system.band.copy(), system.border.copy()
            got = system.solve(r)
            assert np.array_equal(got, reference_bordered_solve(r, band, border, 0.02, tc1))

    def test_singular_band_raises(self, tc1):
        rng = np.random.default_rng(5)
        mesh = uniform_mesh(10)
        system = _StepSystem(discretize_initial(tc1, mesh), mesh, 0.02, tc1)
        system.band[:] = 0.0
        system.border[:] = rng.normal(size=(12, 2))
        with pytest.raises(np.linalg.LinAlgError):
            system.solve(rng.normal(size=14))

    def test_non_finite_system_raises(self, tc1):
        mesh = uniform_mesh(10)
        prev = discretize_initial(tc1, mesh)
        system = _StepSystem(prev, mesh, 0.02, tc1)
        for part, value in ((system.band, np.inf), (system.border, np.nan), (None, np.inf)):
            r = system.assemble(prev.u, 0.0, 0.0)
            if part is None:
                r[0] = value
            else:
                part[1, 1] = value
            with pytest.raises(np.linalg.LinAlgError):
                system.solve(r)

    def test_non_finite_residual_in_resolve_raises(self, tc1):
        mesh = uniform_mesh(10)
        prev = discretize_initial(tc1, mesh)
        system = _StepSystem(prev, mesh, 0.02, tc1)
        r = system.assemble(prev.u, 0.0, 0.0)
        system.solve(r)
        for value in (np.inf, np.nan):
            bad = r.copy()
            bad[3] = value
            with pytest.raises(np.linalg.LinAlgError, match="non-finite residual"):
                system.resolve(bad)

    def test_overflowing_step_fails_without_exception(self, tc1):
        # 1/dt is finite, but h * L / dt overflows in the band: both solvers
        # report a failed step
        params = replace(tc1, L0=50.0)
        mesh = uniform_mesh(20)
        prev = discretize_initial(params, mesh)
        with np.errstate(all="ignore"):
            system = _StepSystem(prev, mesh, 1e-308, params)
            system.assemble(prev.u, 0.0, 0.0)
            assert np.isinf(system.band).any()
            newton = newton_step_solve(prev, mesh, 1e-308, params)
            fallback = homotopy_solve(prev, mesh, 1e-308, params)
        assert newton.status is StepStatus.NO_CONVERGENCE and newton.state is None
        assert fallback.status is not StepStatus.CONVERGED and fallback.state is None

    def test_schur_step_matches_numpy_solve(self, tc1, monkeypatch):
        # Cramer's rule on the 2x2 Schur complement agrees with
        # np.linalg.solve to within the forward error bound of either, on
        # the systems of a Newton solve and on random ones
        systems = []
        schur_step = _StepSystem._schur_step

        def recorded(self, r, y, S):
            delta = schur_step(self, r, y, S)
            b = (-r[self.cells + 2] - self.c0 * y[0], -r[self.cells + 3] - self.c1 * y[-1])
            # the increment is the system's buffer: keep a copy
            systems.append((np.reshape(S, (2, 2)), np.array(b), delta[-2:].copy()))
            return delta

        monkeypatch.setattr(_StepSystem, "_schur_step", recorded)
        mesh = uniform_mesh(30)
        result = newton_step_solve(discretize_initial(make_tc2(), mesh), mesh, 1e-2, make_tc2())
        assert result.status is StepStatus.CONVERGED
        assert len(systems) == result.iterations
        # a one-cell system whose band solutions vanish solves S z = b alone
        system = _StepSystem(discretize_initial(tc1, uniform_mesh(1)), uniform_mesh(1), 0.02, tc1)
        system.border[:] = 0.0
        rng = np.random.default_rng(36)
        for _ in range(200):
            S = rng.normal(size=(2, 2)) + np.diag(rng.uniform(-50.0, 50.0, 2))
            b = rng.normal(size=2)
            r = np.concatenate((np.zeros(3), -b))
            system._schur_step(r, np.zeros(3), tuple(S.ravel().tolist()))
        assert len(systems) == result.iterations + 200
        eps = np.finfo(float).eps
        for S, b, z in systems:
            want = np.linalg.solve(S, b)
            bound = 8.0 * eps * np.linalg.cond(S, np.inf) * np.abs(want).max()
            assert np.abs(z - want).max() <= bound

    def test_singular_schur_complement_raises(self, tc1):
        # with an identity band the border passes through unchanged, and this
        # border cancels the X0 law's row of the 2x2 block exactly
        cells, dt = 6, 0.02
        mesh = uniform_mesh(cells)
        system = _StepSystem(discretize_initial(tc1, mesh), mesh, dt, tc1)
        system.band[:] = 0.0
        system.band[1] = 1.0
        system.border[:] = 0.0
        system.border[0] = np.divide(system.block[:2], system.c0)
        with pytest.raises(np.linalg.LinAlgError):
            system.solve(np.ones(cells + 4))

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


class TestBandBinding:
    """The step system calls LAPACK's dgtsv from numpy's own OpenBLAS
    through ctypes, on a copy of its band, with its integer arguments held
    per system."""

    def test_matches_scipy_dgtsv_bit_for_bit(self, tc1):
        rng = np.random.default_rng(2300)
        singular = 0
        for trial in range(120):
            m = int(rng.integers(3, 901))
            nrhs = (1, 3)[trial % 2]
            mesh = uniform_mesh(m - 2)
            system = _StepSystem(discretize_initial(tc1, mesh), mesh, 0.02, tc1)
            band, rhs = system.band, system.rhs
            band[:, :] = rng.normal(size=(3, m))
            if trial % 5 == 4:
                # an all-zero column of the matrix stays zero through the
                # elimination, so dgtsv meets a zero pivot there
                band[:, int(rng.integers(0, m))] = 0.0
            band[0, 0] = band[2, -1] = 0.0
            rhs[:, :] = rng.normal(size=(m, 3))
            before = rhs.copy()
            *_, want, info = scipy_dgtsv(band[2, :-1], band[1], band[0, 1:], rhs[:, :nrhs])
            if info > 0:
                singular += 1
                with pytest.raises(np.linalg.LinAlgError, match="singular band"):
                    system._band_solve(nrhs)
                continue
            assert info == 0
            system._band_solve(nrhs)
            assert rhs[:, :nrhs].tobytes() == want.tobytes()
            assert rhs[:, nrhs:].tobytes() == before[:, nrhs:].tobytes()
        assert singular >= 20

    def test_band_is_kept_and_resolve_repeats_a_fresh_solve(self, tc1):
        rng = np.random.default_rng(2301)
        mesh = uniform_mesh(40)
        for _ in range(5):
            prev, point = random_step(rng, 40)
            system = _StepSystem(prev, mesh, 0.02, tc1)
            r = system.assemble(*point)
            band = system.band.tobytes()
            system.solve(r)
            assert system.band.tobytes() == band
            r_next = rng.normal(size=r.size)
            got = system.resolve(r_next)
            assert system.band.tobytes() == band
            fresh = _StepSystem(prev, mesh, 0.02, tc1)
            fresh.assemble(*point)
            assert got.tobytes() == fresh.solve(r_next).tobytes()

    def test_runs_in_threads_repeat_serial_runs(self, tc1):
        # ctypes releases the GIL during dgtsv; more threads than cores,
        # switching every microsecond, interleave the runs' solves closely
        grid = TimeGrid.from_step(1e-2, 60)
        meshes = (uniform_mesh(20), uniform_mesh(50), uniform_mesh(35))
        serial = [run(tc1, mesh, grid) for mesh in meshes]
        threaded = [None] * len(meshes)

        def work(i):
            threaded[i] = run(tc1, meshes[i], grid)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(meshes))]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        for a, b in zip(serial, threaded):
            assert b is not None and b.completed
            for name in ("U", "X0", "X1", "L", "newton_iters", "residual_inf"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestRebase:
    """rebase(prev) poses a built system's step from prev: it then answers
    as a system built on prev, bit for bit, whatever it solved before."""

    @staticmethod
    def outputs(system, point, r_next):
        """What the system computes at point, then for the residual r_next:
        each output copied as it is returned."""
        r = system.assemble(*point)
        band, border = system.band.copy(), system.border.copy()
        delta = system.solve(r).copy()
        rhs = system.rhs.copy()
        again = system.resolve(r_next).copy()
        return r, band, border, delta, rhs, again, system.residual(*point)

    def assert_fresh(self, system, prev, mesh, dt, params, rng):
        system.rebase(prev)
        fresh = _StepSystem(prev, mesh, dt, params)
        m = prev.u.size
        # at rest and at a moving iterate
        for point in ((prev.u, 0.0, 0.0), (rng.uniform(0.1, 3.0, m), 0.02, -0.03)):
            r_next = rng.normal(size=m + 2)
            got = self.outputs(system, point, r_next)
            want = self.outputs(fresh, point, r_next)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("before", ["solved", "singular band", "non-finite system",
                                        "no convergence"])
    def test_rebased_system_answers_as_a_fresh_one(self, tc1, before):
        rng = np.random.default_rng(2302)
        mesh, dt = uniform_mesh(40), 0.02
        a, point = random_step(rng, 40)
        b, _ = random_step(rng, 40)
        system = _StepSystem(a, mesh, dt, tc1)
        r = system.assemble(*point)
        if before == "solved":
            system.solve(r)
            system.resolve(rng.normal(size=r.size))
        elif before == "singular band":
            system.band[:] = 0.0
            with pytest.raises(np.linalg.LinAlgError, match="singular band"):
                system.solve(r)
        elif before == "non-finite system":
            r[3] = np.inf
            with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                system.solve(r)
        else:
            opts = SolverOptions(max_newton_iters=1)
            _, status, _, _ = scheme._newton(system, (a.u, 0.0, 0.0), opts, 1e-8)
            assert status is StepStatus.NO_CONVERGENCE
        self.assert_fresh(system, b, mesh, dt, tc1, rng)

    def test_rebase_drops_the_kept_factors(self, tc1):
        rng = np.random.default_rng(2303)
        mesh = uniform_mesh(20)
        a, point = random_step(rng, 20)
        b, _ = random_step(rng, 20)
        system = _StepSystem(a, mesh, 0.02, tc1)
        r = system.assemble(*point)
        system.solve(r)
        system.resolve(r)
        system.rebase(b)
        with pytest.raises(RuntimeError, match="resolve"):
            system.resolve(r)
        # nor does a solve that fails leave the factors of an earlier one
        system.solve(system.assemble(*point))
        system.band[:] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            system.solve(r)
        with pytest.raises(RuntimeError, match="resolve"):
            system.resolve(r)


def full_newton(prev, mesh, dt, params, opts=SolverOptions()):
    """Damped Newton that reassembles on every iteration, through
    reference_assemble and reference_bordered_solve: the end point (u, d0,
    d1) and the iterations, or (None, iterations) when it does not
    converge."""
    floor = opts.resolved_floor(params)
    m = mesh.num_cells + 2
    u, d0, d1 = prev.u, 0.0, 0.0
    for iters in range(1, opts.max_newton_iters + 1):
        r, band, border = reference_assemble(u, d0, d1, prev, mesh, dt, params)
        delta = reference_bordered_solve(r, band, border, dt, params)
        dd0, dd1 = delta[m], delta[m + 1]
        t, _ = scheme._damped_substep(u, prev.L + (d1 - d0), delta[:m], dd1 - dd0, floor)
        if t is None:
            return None, iters
        u = u + t * delta[:m]
        d0, d1 = d0 + t * dd0, d1 + t * dd1
        if t * np.abs(delta).max() <= opts.newton_tol:
            return (u, d0, d1), iters
    return None, iters


def record_iterations(monkeypatch):
    """Record each Newton iteration of the step systems: the system's dt for
    a full one, "confirm" for a residual-only confirmation."""
    events = []
    assemble, resolve = _StepSystem.assemble, _StepSystem.resolve

    def recorded_assemble(self, u, d0, d1):
        events.append(self.dt)
        return assemble(self, u, d0, d1)

    def recorded_resolve(self, r):
        events.append("confirm")
        return resolve(self, r)

    monkeypatch.setattr(_StepSystem, "assemble", recorded_assemble)
    monkeypatch.setattr(_StepSystem, "resolve", recorded_resolve)
    return events


class TestConfirmation:
    """A full undamped iteration with an increment at most
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
            assert state_gap(result.state, moved(prev, point)) <= 1e-13
            prev = result.state
        assert events.count("confirm") >= 150

    def test_continuation_walks_the_sub_steps(self, tc1, monkeypatch):
        # the continuation solves the scheme over dt * k / 16, k = 1..16, in
        # order, each solve Newton's from the previous sub-step's solution
        events = record_iterations(monkeypatch)
        mesh, dt = uniform_mesh(30), 2e-2
        s0 = discretize_initial(tc1, mesh)
        result = homotopy_solve(s0, mesh, dt, tc1)
        assert result.status is StepStatus.CONVERGED
        assert result.iterations == len(events)
        walked = events.copy()
        full = [event for event in walked if event != "confirm"]
        taus = [dt * k / 16 for k in range(1, 17)]
        assert sorted(set(full)) == taus and full == sorted(full)
        assert taus[-1] == dt
        # every sub-step's solve ends on a confirmation, as Newton's does
        assert walked.count("confirm") == 16 and walked[-1] == "confirm"
        events.clear()
        opts = SolverOptions()
        iterate = (s0.u, 0.0, 0.0)
        for tau in taus:
            system = _StepSystem(s0, mesh, tau, tc1)
            iterate, status, _, resid = scheme._newton(
                system, iterate, opts, opts.resolved_floor(tc1))
            assert status is StepStatus.CONVERGED
        assert events == walked
        state = moved(s0, iterate)
        assert result.state.u.tobytes() == state.u.tobytes()
        assert (result.state.X0, result.state.X1, result.state.L) == (
            state.X0, state.X1, state.L)
        assert result.residual_inf == resid

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
        assert events[i + 1] == 1e-2
        assert result.iterations == len(events)
        point, _ = full_newton(first.state, mesh, 1e-2, tc1)
        assert state_gap(result.state, moved(first.state, point)) <= 1e-12


def reference_residual(u, d0, d1, prev, mesh, dt, params):
    """The residual from the public bernoulli, as _StepSystem.residual must
    reproduce bit for bit."""
    L = prev.L + (d1 - d0)
    w = (L * mesh.gaps) * reference_velocity(d0, d1, mesh, dt, params.R)
    F = (bernoulli(-w) * u[:-1] - bernoulli(w) * u[1:]) / (L * mesh.gaps)
    return reference_residual_rows(u, d0, d1, L, F, prev, mesh, dt, params)


def reference_step(prev, mesh, dt, params, opts=SolverOptions()):
    """One step of damped Newton with the scheme's confirmations and end
    point check, built from reference_assemble, reference_bordered_solve and
    reference_residual: (u, d0, d1, iterations, residual sup-norm) of the
    accepted end point, or None when the step is not accepted.

    A full undamped iteration whose increment is at most sqrt(newton_tol)
    is followed by a confirmation, which solves with that iteration's band
    and border on the residual alone."""
    floor = opts.resolved_floor(params)
    m = mesh.num_cells + 2
    u, d0, d1 = prev.u, 0.0, 0.0
    L = prev.L
    confirm, kept = False, None
    for iters in range(1, opts.max_newton_iters + 1):
        if confirm:
            r = reference_residual(u, d0, d1, prev, mesh, dt, params)
        else:
            r, *kept = reference_assemble(u, d0, d1, prev, mesh, dt, params)
        delta = reference_bordered_solve(r, *kept, dt, params)
        if not np.isfinite(delta).all():
            return None
        du, dd0, dd1 = delta[:m], delta[m], delta[m + 1]
        dL = dd1 - dd0
        t_width = (L - floor) / -dL if dL < 0.0 else np.inf
        neg = du < 0.0
        t_pos = (u[neg] / -du[neg]).min() if neg.any() else np.inf
        t = min(1.0, 0.995 * t_width, 0.995 * t_pos)
        if t <= 2.0**-30:
            return None
        u = u + t * du
        d0, d1 = d0 + t * dd0, d1 + t * dd1
        L = prev.L + (d1 - d0)
        step = t * np.abs(delta).max()
        if step <= opts.newton_tol:
            break
        confirm = not confirm and t == 1.0 and step <= np.sqrt(opts.newton_tol)
    else:
        return None
    resid = np.abs(reference_residual(u, d0, d1, prev, mesh, dt, params)).max()
    if resid > 1e-6 or L <= floor:
        return None
    return u, d0, d1, iters, float(resid)


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
            *point, used, resid = step
            prev = moved(prev, point)
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
        assert traj.newton_iters[1:].tolist() == iters
        assert traj.residual_inf[1:].tolist() == resids


@st.composite
def step_problems(draw):
    """A preset, a random non-uniform mesh with 2 to 40 cells, dt
    log-uniform in [1e-4, 1] and an offset of the layer in [-1e6, 1e6]."""
    make = draw(st.sampled_from([make_tc1, make_tc2, make_tc3]))
    cells = draw(st.integers(2, 40))
    sizes = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=cells, max_size=cells)))
    edges = np.concatenate(([0.0], np.cumsum(sizes[:-1]) / sizes.sum(), [1.0]))
    dt = 10.0 ** draw(st.floats(-4.0, 0.0))
    offset = draw(st.floats(-1e6, 1e6))
    return make(), Mesh(edges), dt, offset


@settings(max_examples=200)
@given(step_problems())
def test_converged_steps_match_full_newton(problem):
    # the step from the offset layer is the step from the origin, bit for
    # bit in u, L and the work, and that one is full Newton's
    params, mesh, dt, offset = problem
    prev = discretize_initial(params, mesh)
    far = State(u=prev.u, X0=prev.X0 + offset, X1=prev.X1 + offset, L=prev.L)
    result = newton_step_solve(prev, mesh, dt, params)
    moved_far = newton_step_solve(far, mesh, dt, params)
    assert moved_far.status is result.status
    assert (moved_far.iterations, moved_far.residual_inf) == (result.iterations, result.residual_inf)
    if result.status is not StepStatus.CONVERGED:
        return
    assert moved_far.state.u.tobytes() == result.state.u.tobytes()
    assert moved_far.state.L == result.state.L
    for name in ("X0", "X1"):
        gap = (getattr(moved_far.state, name) - getattr(far, name)) - (
            getattr(result.state, name) - getattr(prev, name))
        assert abs(gap) <= np.spacing(abs(getattr(far, name)) + 1.0)
    point, _ = full_newton(prev, mesh, dt, params)
    assert point is not None
    scale = max(1.0, float(np.abs(result.state.u).max()), abs(result.state.X1))
    assert state_gap(result.state, moved(prev, point)) <= 1e-12 * scale
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
        s = result.state
        assert abs(s.L - (s.X1 - s.X0)) <= 1e-15

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_increment_fails_the_solve(self, tc1, value, monkeypatch):
        # a finite system whose increment is not finite (an overflow, or a
        # nan): the solve fails with no iteration counted and the residual
        # of its start
        solve = _StepSystem.solve

        def overflowing(self, r):
            delta = solve(self, r)
            delta[1] = value
            return delta

        monkeypatch.setattr(_StepSystem, "solve", overflowing)
        mesh = uniform_mesh(10)
        prev = discretize_initial(tc1, mesh)
        result = newton_step_solve(prev, mesh, 1e-2, tc1)
        assert result.status is StepStatus.NO_CONVERGENCE and result.state is None
        assert result.iterations == 0
        r = _StepSystem(prev, mesh, 1e-2, tc1).assemble(prev.u, 0.0, 0.0)
        assert result.residual_inf == np.abs(r).max()


class TestHomotopy:
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

    def test_failed_sub_step_is_retried_at_half_size(self, tc1, monkeypatch):
        # the third of 16 sub-steps fails once: the walk resumes from the
        # second sub-step's solution, not from prev, over 32 sub-steps
        mesh, dt = uniform_mesh(30), 2e-2
        s0 = discretize_initial(tc1, mesh)
        calls = []
        newton = scheme._newton

        def third_fails_once(system, start, *args):
            out = newton(system, start, *args)
            if len(calls) == 2:
                out = (None, StepStatus.NO_CONVERGENCE, out[2], np.inf)
            calls.append((system.dt, start, out))
            return out

        monkeypatch.setattr(scheme, "_newton", third_fails_once)
        result = homotopy_solve(s0, mesh, dt, tc1)
        assert result.status is StepStatus.CONVERGED
        taus = [dt * k / 16 for k in (1, 2, 3)] + [dt * k / 32 for k in range(5, 33)]
        assert [tau for tau, _, _ in calls] == taus
        second_end = calls[1][2][0]
        assert calls[2][1] is second_end and calls[3][1] is second_end
        assert result.iterations == sum(out[2] for _, _, out in calls)
        assert state_gap(result.state, moved(s0, calls[-1][2][0])) == 0.0
        direct = newton_step_solve(s0, mesh, dt, tc1)
        assert state_gap(direct.state, result.state) <= 1e-9

    @pytest.mark.parametrize(
        "make, dt, cell_counts",
        [
            pytest.param(make_tc1, 1e-306, (12, 100), id="1e-306"),
            pytest.param(make_tc1, 3e-308, (12, 100), id="3e-308"),
            pytest.param(make_tc2, 1e-307, (1, 2, 12, 50, 100, 400), id="testcase2-1e-307"),
        ],
    )
    def test_tiny_step_fails_without_warning(self, make, dt, cell_counts):
        # 1/tau overflows for every sub-step of 3e-308: they fail unsolved.
        # The sub-steps of 1e-306 are solved, and their tiny increments
        # overflow u / du; those of 1e-307 (about 6e-309) overflow the
        # assembly's division by tau.  pytest turns any warning into an error.
        params = make()
        for cells in cell_counts:
            mesh = uniform_mesh(cells)
            result = homotopy_solve(discretize_initial(params, mesh), mesh, dt, params)
            assert result.status is not StepStatus.CONVERGED and result.state is None

    def test_tiny_newton_step_fails_without_warning(self, tc1):
        # 1/dt is finite at 1e-308, but on one cell the Schur matrix
        # overflows: the step fails, and no warning is raised
        mesh = uniform_mesh(1)
        result = newton_step_solve(discretize_initial(tc1, mesh), mesh, 1e-308, tc1)
        assert result.status is StepStatus.NO_CONVERGENCE and result.state is None

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
        assert all(abs(s.L - (s.X1 - s.X0)) <= 1e-9 for s in traj.states)
        assert max(traj.residual_inf[1:]) <= 1e-9

    def test_initial_width_at_or_below_floor_rejected(self, tc1):
        # testcase1 starts at L0 = 1: a run cannot start at or below its floor
        mesh, grid = uniform_mesh(10), TimeGrid.from_step(1e-2, 2)
        for floor in (1.0, 1.5):
            with pytest.raises(ValueError, match="run: initial width 1.0 is at or below"):
                run(tc1, mesh, grid, SolverOptions(width_floor=floor))
        assert run(tc1, mesh, grid, SolverOptions(width_floor=np.nextafter(1.0, 0.0))).states

    def test_initial_state_off_the_mesh_rejected(self, tc1):
        first = discretize_initial(tc1, uniform_mesh(11))
        with pytest.raises(ValueError, match="run: initial state does not match the mesh"):
            run(tc1, uniform_mesh(10), TimeGrid.from_step(1e-2, 2), initial_state=first)

    def test_run_calls_its_solvers_through_the_module(self, tc1, monkeypatch):
        # run() looks up each step's Newton solve and the continuation in
        # the module, where the tests and the benchmark's tracer replace
        # them.  A Newton step is written to its row without a State; the
        # continuation builds one, from its last sub-step.
        counts = Counter()

        def count(name, wrapped=None):
            original = wrapped or getattr(scheme, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(scheme, name, counted)

        solve = scheme._newton_step

        def first_fails(system, *args, **kwargs):
            end, status, *work = solve(system, *args, **kwargs)
            if system.prev.X0 == 0.0:
                end, status = None, StepStatus.NO_CONVERGENCE
            return (end, status, *work)

        count("_newton_step", first_fails)
        count("homotopy_solve")
        count("State")
        traj = run(tc1, uniform_mesh(20), TimeGrid.from_step(1e-2, 3))
        assert traj.completed
        # three Newton solves, the first handed to the continuation, whose
        # 16 sub-steps pass on their raw iterates
        assert counts == {"_newton_step": 3, "homotopy_solve": 1, "State": 1}
        # the names the benchmark wraps in this module
        for name in ("newton_step_solve", "State", "solve_banded", "bernoulli",
                     "bernoulli_prime"):
            assert callable(getattr(scheme, name))

    def test_initial_state_override(self, tc1):
        mesh = uniform_mesh(40)
        wave, s0 = wave_state(tc1, mesh)
        traj = run(tc1, mesh, TimeGrid.from_step(1e-2, 10), initial_state=s0)
        assert traj.completed
        assert np.abs(traj.final_state.u - s0.u).max() <= 1e-10

    @pytest.mark.parametrize("mesh_kind", ["uniform", "non-uniform"])
    def test_continued_run_repeats_the_whole_run(self, tc1, mesh_kind):
        # run() over 2N steps is run() over N steps continued for N more
        # from its final state, bit for bit: the refinement study runs its
        # reference in such pieces
        if mesh_kind == "uniform":
            mesh = uniform_mesh(40)
        else:
            rng = np.random.default_rng(47)
            mesh = Mesh(
                np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 39)), [1.0]))
            )
        n, dt = 25, 1e-2
        whole = run(tc1, mesh, TimeGrid.from_step(dt, 2 * n))
        first = run(tc1, mesh, TimeGrid.from_step(dt, n))
        second = run(tc1, mesh, TimeGrid.from_step(dt, n), initial_state=first.final_state)
        assert whole.completed and first.completed and second.completed
        for name in ("U", "X0", "X1", "L", "newton_iters", "residual_inf"):
            joined = np.concatenate([getattr(first, name), getattr(second, name)[1:]])
            assert joined.dtype == getattr(whole, name).dtype
            assert joined.tobytes() == getattr(whole, name).tobytes(), name

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


class TestTranslationInvariance:
    """No row or Jacobian entry of a step reads an absolute position, so a
    run from a layer moved by x repeats the run from the origin: bitwise in
    u, L and the work of every step, and in the positions up to the
    rounding of the stored sums X_prev + d."""

    @staticmethod
    def check(make, cells, dt, steps, offsets):
        params, mesh = make(), uniform_mesh(cells)
        grid = TimeGrid.from_step(dt, steps)
        base = run(params, mesh, grid)
        first = discretize_initial(params, mesh)
        for x in offsets:
            far = State(u=first.u, X0=first.X0 + x, X1=first.X1 + x, L=first.L)
            traj = run(params, mesh, grid, initial_state=far)
            assert traj.termination == base.termination
            for name in ("U", "L", "newton_iters", "residual_inf"):
                assert getattr(traj, name).tobytes() == getattr(base, name).tobytes(), name
            # each stored sum rounds by at most half an ulp of its size
            rounding = traj.X0.size * np.spacing(abs(x) + np.abs(base.X1).max())
            for name in ("X0", "X1"):
                gap = (getattr(traj, name) - traj.X0[0]) - getattr(base, name)
                assert np.abs(gap).max() <= rounding, name
        return base

    def test_completed_run(self):
        base = self.check(make_tc1, 20, 1e-2, 200, (1e6, -1e6))
        assert base.completed

    def test_collapse(self):
        base = self.check(make_tc2, 50, 1e-2, 400, (1e6, -1e6))
        assert base.termination.kind is TerminationKind.WIDTH_COLLAPSED

    def test_collapse_through_the_continuation(self, monkeypatch):
        # Newton misses this collapse and the continuation walks its
        # sub-steps into the width floor, in every run alike
        calls = []
        continuation = scheme.homotopy_solve

        def counted(*args, **kwargs):
            calls.append(args)
            return continuation(*args, **kwargs)

        monkeypatch.setattr(scheme, "homotopy_solve", counted)
        base = self.check(make_tc2, 50, 0.25, 20, (1e6, -1e6))
        assert base.termination.kind is TerminationKind.WIDTH_COLLAPSED
        assert len(calls) == 3

    @pytest.mark.parametrize("x, dt, steps", [(3e5, 1e-2, 200), (1e4, 1e-4, 20)])
    def test_far_from_the_origin(self, x, dt, steps):
        # offsets at which a step posed in absolute positions loses its
        # motion increments to rounding, and Newton fails
        base = self.check(make_tc1, 20, dt, steps, (x,))
        assert base.completed


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
        mesh = Mesh([0.0, *inner, 1.0])
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

    @pytest.mark.parametrize(
        "make, dt, step",
        [(make_tc2, 0.25, 6), (make_tc2, 1.0, 2), (make_tc2, 3.5, 1), (make_tc3, 0.5, 1)],
    )
    def test_continuation_walks_into_a_collapse_newton_misses(
        self, make, dt, step, monkeypatch
    ):
        # Newton reports these collapses as NO_CONVERGENCE; the continuation
        # walks the step into the width floor, and the run brackets it
        brackets = []
        bracket_collapse = scheme._bracket_collapse

        def recorded(*args):
            brackets.append(bracket_collapse(*args))
            return brackets[-1]

        # each end point a solve accepts, with the system of its sub-step,
        # and each one that a later solve starts from: the walk's waypoints
        produced, waypoints = {}, []
        newton = scheme._newton

        def recorded_newton(system, start, *args):
            if id(start) in produced:
                waypoints.append(produced[id(start)])
            outcome = newton(system, start, *args)
            if outcome[0] is not None:
                produced[id(outcome[0])] = (system, outcome[0])
            return outcome

        monkeypatch.setattr(scheme, "_bracket_collapse", recorded)
        monkeypatch.setattr(scheme, "_newton", recorded_newton)
        params, mesh = make(), uniform_mesh(50)
        traj = run(params, mesh, TimeGrid.from_step(dt, 20))
        # the walk continues only from solutions of its sub-steps' scheme
        floor = SolverOptions().resolved_floor(params)
        assert waypoints
        for system, iterate in waypoints:
            state = moved(system.prev, iterate)
            r = residual(system.prev, state, mesh, system.dt, params)
            assert np.abs(r).max() <= scheme._STALL_RESIDUAL and state.L > floor
        term = traj.termination
        assert term.kind is TerminationKind.WIDTH_COLLAPSED and term.step == step
        prev = traj.final_state
        assert newton_step_solve(prev, mesh, dt, params).status is StepStatus.NO_CONVERGENCE
        [(lo, hi)] = brackets
        assert 0.0 < lo < hi <= dt and hi - lo <= 1e-10 * dt
        assert newton_step_solve(prev, mesh, lo, params).status is StepStatus.CONVERGED
        assert newton_step_solve(prev, mesh, hi, params).status is not StepStatus.CONVERGED
        assert term.bracket == ((step - 1) * dt + lo, (step - 1) * dt + hi)

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
        solve, continuation = scheme._newton_step, scheme.homotopy_solve

        def first_fails(system, *args, **kwargs):
            end, status, *work = solve(system, *args, **kwargs)
            if system.prev.X0 == 0.0:
                end, status = None, StepStatus.NO_CONVERGENCE
            return (end, status, *work)

        def counted(*args, **kwargs):
            calls.append(args)
            return continuation(*args, **kwargs)

        monkeypatch.setattr(scheme, "_newton_step", first_fails)
        monkeypatch.setattr(scheme, "homotopy_solve", counted)
        traj = run(tc1, uniform_mesh(20), TimeGrid.from_step(1e-2, 3))
        assert traj.completed and len(calls) == 1

    @pytest.mark.parametrize(
        "make, cells, step, iters, final_L, bracket",
        [
            (make_tc2, 400, 149, 482, 0.0013437304235845258,
             (1.4846908542182, 1.4846908542188)),
            (make_tc3, 100, 35, 151, 0.0011203495503272626,
             (0.3419468952343, 0.3419468952349)),
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
        assert traj.newton_iters[1:].tolist() == iters
        assert traj.residual_inf[1:].tolist() == resids

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
