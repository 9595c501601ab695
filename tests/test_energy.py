import numpy as np
import pytest
from scipy.integrate import quad

from oxidefv import (
    ConvexDensity,
    EnergyLedger,
    ExponentialProfile,
    Mesh,
    ModelParams,
    State,
    TimeGrid,
    build_ledger,
    builtin_densities,
    classify,
    discretize_initial,
    dissipation_split,
    free_energy,
    mean_value_theta,
    run,
    total_free_energy_increment,
    uniform_mesh,
    wave_profile_on_mesh,
    write_ledger_csv,
)
from oxidefv.core import _BLOCK_ELEMS
from oxidefv.energy import shifted_plus_squared
from conftest import make_tc1, make_tc2


def quadratic():
    return next(d for d in builtin_densities() if d.name == "quadratic")


class TestConvexDensity:
    def test_builtins_validate(self):
        samples = np.linspace(0.1, 3.0, 200)
        for density in builtin_densities():
            density.validate_on(samples)

    def test_pressure_identity(self):
        r = np.linspace(0.2, 2.5, 50)
        for density in builtin_densities():
            direct = density.pi(r)
            derived = r * density.phi_prime(r) - density.phi(r)
            assert np.allclose(direct, derived, rtol=0, atol=1e-12)

    def test_broken_density_rejected(self):
        bad = ConvexDensity(
            name="bad",
            phi=lambda r: np.asarray(r) ** 2,
            phi_prime=lambda r: 2.0 * np.asarray(r),
            pi=lambda r: np.asarray(r) * 0.0,
        )
        with pytest.raises(ValueError):
            bad.validate_on(np.linspace(0.5, 2.0, 10))

    def test_concavevalidation_fails(self):
        concave = ConvexDensity.from_phi(
            "concave", lambda r: -np.asarray(r) ** 2, lambda r: -2.0 * np.asarray(r)
        )
        with pytest.raises(ValueError):
            concave.validate_on(np.linspace(0.5, 2.0, 10))


    def test_plus_squared_matches_unclipped_cubic(self):
        # phi powers t clipped to [0, blend]; on the cubic branch that is t
        # itself, so phi must equal the expression that powers t everywhere
        center, blend = 1.0, 0.5
        density = shifted_plus_squared(center, blend)
        r = np.concatenate((
            np.linspace(-1.0, 3.0, 4001),
            [np.nextafter(x, d) for x in (center, center + blend) for d in (-np.inf, np.inf)],
            [center, center + blend],
        ))
        t = r - center
        unclipped = np.where(
            t <= 0.0,
            0.0,
            np.where(t >= blend, t * t - blend * t + blend * blend / 3.0, t**3 / (3.0 * blend)),
        )
        assert density.phi(r).tobytes() == unclipped.tobytes()


class TestFreeEnergy:
    def test_constant_state_quadratic(self):
        mesh = uniform_mesh(8)
        s = State(u=np.full(10, 1.3), X0=0.0, X1=2.0, L=2.0)
        # L * phi(c) since the cell sizes sum to one: 2 * c^2/2 = c^2
        assert abs(free_energy(s, mesh, quadratic()) - 1.3**2) <= 1e-14

    def test_zero_density(self):
        mesh = uniform_mesh(5)
        s = State(u=np.linspace(0.5, 1.5, 7), X0=0.0, X1=1.0, L=1.0)
        zero = ConvexDensity.from_phi("zero", lambda r: 0.0 * np.asarray(r),
                                      lambda r: 0.0 * np.asarray(r))
        assert free_energy(s, mesh, zero) == 0.0

    def test_matches_quadrature_oracle(self):
        params = make_tc1(offset=2.0)
        mesh = uniform_mesh(100)
        s = discretize_initial(params, mesh)
        h_energy = free_energy(s, mesh, quadratic())
        oracle, _ = quad(lambda x: 0.5 * params.u_init(x) ** 2, 0.0, 1.0)
        assert abs(h_energy - oracle) <= 1e-3  # second-order in the cell size


class TestMeanValueTheta:
    def test_quadratic_gives_half(self):
        # exact in real arithmetic; roundoff grows like eps * u / du
        rng = np.random.default_rng(31)
        u = rng.uniform(0.1, 3.0, 50)
        theta = mean_value_theta(u, quadratic())
        assert np.all(np.abs(theta - 0.5) <= 1e-10)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(32)
        for density in builtin_densities():
            u = rng.uniform(0.1, 3.0, 200)
            theta = mean_value_theta(u, density)
            assert np.all(theta >= 0.0) and np.all(theta <= 1.0)

    def test_degenerate_edges_fall_back(self):
        u = np.array([1.0, 1.0, 2.0, 2.0])
        theta = mean_value_theta(u, quadratic())
        assert theta[0] == 0.5 and theta[2] == 0.5

    def test_rows_of_a_block_match_one_row_at_a_time(self):
        rng = np.random.default_rng(34)
        u = rng.uniform(0.1, 3.0, (7, 12))
        u[2, 3:6] = 1.25  # degenerate edges
        for density in builtin_densities():
            theta = mean_value_theta(u, density)
            assert theta.shape == (7, 11)
            for row, expected in zip(theta, u):
                assert np.array_equal(row, mean_value_theta(expected, density))

    def test_mean_value_identity(self):
        # pi jump equals the weighted mean times the phi' jump
        rng = np.random.default_rng(33)
        for density in builtin_densities():
            u = rng.uniform(0.2, 2.8, 100)
            theta = mean_value_theta(u, density)
            lhs = density.pi(u[1:]) - density.pi(u[:-1])
            mean = theta * u[:-1] + (1.0 - theta) * u[1:]
            rhs = mean * (density.phi_prime(u[1:]) - density.phi_prime(u[:-1]))
            assert np.allclose(lhs, rhs, rtol=0, atol=1e-11)


class TestDissipation:
    def test_equilibrium_state_dissipates_nothing(self):
        params = ModelParams(a=1, b=1, alpha0=1, beta0=1, alpha1=1, beta1=1, R=2.0,
                             L0=0.7, u_init=ExponentialProfile(0.0, 0.0, 1.0))
        mesh = uniform_mesh(10)
        s = discretize_initial(params, mesh)
        for density in builtin_densities():
            d_bulk, d_bound = dissipation_split(s, s, mesh, 0.05, params, density)
            assert d_bulk == 0.0 and d_bound == 0.0

    def test_nonnegative_on_transient(self, tc1):
        mesh = uniform_mesh(50)
        traj = run(tc1, mesh, TimeGrid.from_step_and_horizon(1e-2, 0.5))
        for density in builtin_densities():
            for prev, nxt in zip(traj.states[:-1], traj.states[1:]):
                d_bulk, d_bound = dissipation_split(prev, nxt, mesh, 1e-2, tc1, density)
                assert d_bulk >= -1e-10
                assert d_bound >= -1e-10

    def test_energy_balance_is_equality_on_wave(self, tc1):
        # the preserved wave is a steady dissipative state: the total free
        # energy decreases at exactly the dissipation rate
        mesh = uniform_mesh(60)
        wave = classify(tc1).wave
        s0 = State(u=wave_profile_on_mesh(wave, mesh), X0=0.0, X1=wave.L_hat,
                   L=wave.L_hat)
        traj = run(tc1, mesh, TimeGrid.from_step(1e-2, 5), initial_state=s0)
        dt = 1e-2
        for density in builtin_densities():
            ledger = build_ledger(traj, mesh, tc1, density)
            h_tot = np.array(ledger.H_tot)
            d_tot = np.array(ledger.D_bulk[1:]) + np.array(ledger.D_bound[1:])
            balance = np.diff(h_tot) / dt + d_tot
            assert np.abs(balance).max() <= 1e-9


class TestLedger:
    def test_exchange_sums_vanish_at_kinetic_ratios(self):
        # u0 = alpha0/beta0 = a/b and u_{I+1} = alpha1/beta1 kill every summand
        params = ModelParams(a=1.5, b=1.0, alpha0=1.5, beta0=1.0, alpha1=0.8,
                             beta1=2.0, R=1.0, L0=1.0,
                             u_init=ExponentialProfile(0.0, 0.0, 1.0))
        mesh = uniform_mesh(4)
        u = np.array([1.5, 1.0, 1.1, 0.9, 1.2, 0.4])
        states = tuple(State(u=u, X0=0.0, X1=1.0, L=1.0) for _ in range(3))
        from oxidefv import Termination, TerminationKind, Trajectory

        traj = Trajectory(states=states, time_grid=TimeGrid.from_step(0.1, 2),
                          termination=Termination(TerminationKind.COMPLETED),
                          step_indices=(0, 1, 2), newton_iters=(1, 1),
                          residual_inf=(0.0, 0.0))
        for density in builtin_densities():
            ledger = build_ledger(traj, mesh, params, density)
            assert ledger.exchange_left_rate == 0.0
            assert ledger.exchange_left_mass == 0.0
            assert ledger.exchange_right_rate == 0.0
            assert np.allclose(ledger.H_tot, ledger.H, rtol=0, atol=1e-15)

    def test_density_vanishing_on_bracket_reduces_to_bulk_energy(self, tc1):
        # density supported above the solution range: H_tot == H == 0
        mesh = uniform_mesh(40)
        traj = run(tc1, mesh, TimeGrid.from_step_and_horizon(1e-2, 0.3))
        density = shifted_plus_squared(center=5.0)
        ledger = build_ledger(traj, mesh, tc1, density)
        assert np.allclose(ledger.H, 0.0, atol=1e-15)
        assert np.allclose(ledger.H_tot, 0.0, atol=1e-15)

    def test_hand_rolled_total_energy(self, tc1):
        # independent recomputation of the total free energy for one step
        mesh = uniform_mesh(30)
        traj = run(tc1, mesh, TimeGrid.from_step(1e-2, 1))
        density = quadratic()
        ledger = build_ledger(traj, mesh, tc1, density)
        s1 = traj.states[1]
        dt = 1e-2
        H1 = s1.L * float(np.dot(mesh.cell_sizes, 0.5 * s1.u[1:-1] ** 2))
        r0 = tc1.alpha0 / tc1.beta0
        rb = tc1.a / tc1.b
        r1 = tc1.alpha1 / tc1.beta1
        pi = lambda r: 0.5 * r * r
        expected = H1 - (
            pi(r0) * dt * (tc1.alpha0 - tc1.beta0 * s1.u[0])
            + rb * dt * (tc1.a - tc1.b * s1.u[0])
            + tc1.R * pi(r1) * dt * (tc1.alpha1 - tc1.beta1 * s1.u[-1])
        )
        assert abs(ledger.H_tot[1] - expected) <= 1e-13 * max(1.0, abs(expected))

    def test_dissipation_inequality_short_run(self, tc1):
        mesh = uniform_mesh(50)
        traj = run(tc1, mesh, TimeGrid.from_step_and_horizon(1e-2, 1.0))
        dt = 1e-2
        for density in builtin_densities():
            ledger = build_ledger(traj, mesh, tc1, density)
            h_tot = np.array(ledger.H_tot)
            d_tot = np.array(ledger.D_bulk[1:]) + np.array(ledger.D_bound[1:])
            assert np.max(np.diff(h_tot) / dt + d_tot) <= 1e-9
            assert np.all(np.diff(h_tot) <= 1e-9)

    def test_dissipation_inequality_stiff_transient(self):
        # the offset profile drives a stiff initial layer; the ledger
        # inequality must survive it for every density
        params = make_tc1(offset=2.0)
        mesh = uniform_mesh(50)
        traj = run(params, mesh, TimeGrid.from_step_and_horizon(1e-2, 0.5))
        dt = 1e-2
        for density in builtin_densities():
            ledger = build_ledger(traj, mesh, params, density)
            h_tot = np.array(ledger.H_tot)
            d_tot = np.array(ledger.D_bulk[1:]) + np.array(ledger.D_bound[1:])
            assert np.max(np.diff(h_tot) / dt + d_tot) <= 1e-9
            assert np.all(np.diff(h_tot) <= 1e-9)

    def test_requires_contiguous_storage(self, tc1):
        mesh = uniform_mesh(20)
        traj = run(tc1, mesh, TimeGrid.from_step(1e-2, 10), stride=5)
        with pytest.raises(ValueError):
            build_ledger(traj, mesh, tc1, quadratic())

    def test_csv_export(self, tc1, tmp_path):
        mesh = uniform_mesh(20)
        traj = run(tc1, mesh, TimeGrid.from_step(1e-2, 5))
        ledger = build_ledger(traj, mesh, tc1, quadratic())
        path = tmp_path / "ledger.csv"
        write_ledger_csv(ledger, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,t,H,H_tot,D_bulk,D_bound"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[4] == "nan"
        row = lines[2].split(",")
        assert float(row[2]) == pytest.approx(ledger.H[1])


def replay_ledger(traj, mesh, params, density):
    """The per-step definition: record every step in turn."""
    ledger = EnergyLedger(density=density, params=params, dt=traj.time_grid.dt)
    total_free_energy_increment(ledger, traj.states[0], mesh)
    for prev, state in zip(traj.states[:-1], traj.states[1:]):
        total_free_energy_increment(ledger, state, mesh, prev=prev)
    return ledger


def assert_ledgers_identical(blocked, replayed):
    assert blocked.steps == replayed.steps
    assert blocked.H == replayed.H
    assert blocked.H_tot == replayed.H_tot
    # step 0 has no dissipation (nan); everything after must match exactly
    assert np.isnan(blocked.D_bulk[0]) and np.isnan(blocked.D_bound[0])
    assert blocked.D_bulk[1:] == replayed.D_bulk[1:]
    assert blocked.D_bound[1:] == replayed.D_bound[1:]
    assert blocked.exchange_left_rate == replayed.exchange_left_rate
    assert blocked.exchange_left_mass == replayed.exchange_left_mass
    assert blocked.exchange_right_rate == replayed.exchange_right_rate


class TestBlockedLedger:
    """build_ledger evaluates blocks of steps; it must equal the per-step
    replay exactly."""

    def check(self, traj, mesh, params):
        for density in builtin_densities():
            assert_ledgers_identical(
                build_ledger(traj, mesh, params, density),
                replay_ledger(traj, mesh, params, density),
            )

    def test_several_blocks_with_partial_last(self, tc1):
        cells = 100
        rows = max(1, _BLOCK_ELEMS // (cells + 2))
        n_steps = 3 * rows + rows // 4
        assert n_steps % rows != 0
        mesh = uniform_mesh(cells)
        traj = run(tc1, mesh, TimeGrid.from_step(1e-2, n_steps))
        assert traj.completed
        self.check(traj, mesh, tc1)

    def test_non_uniform_mesh(self, tc1):
        rng = np.random.default_rng(35)
        edges = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 39)), [1.0]))
        mesh = Mesh.from_edges(edges)
        traj = run(tc1, mesh, TimeGrid.from_step(1e-2, 30))
        assert traj.completed
        self.check(traj, mesh, tc1)

    def test_collapsed_trajectory(self):
        params = make_tc2()
        mesh = uniform_mesh(30)
        traj = run(params, mesh, TimeGrid.from_step_and_horizon(1e-2, 3.5))
        assert not traj.completed
        self.check(traj, mesh, params)
