from dataclasses import FrozenInstanceError, dataclass, field, replace

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
    TerminationKind,
    TimeGrid,
    bernoulli,
    build_ledger,
    builtin_densities,
    classify,
    discretize_initial,
    dissipation_split,
    free_energy,
    linf_bounds,
    mean_value_theta,
    run,
    uniform_mesh,
    verify_trajectory,
    wave_profile_on_mesh,
    write_ledger_csv,
)
from oxidefv import core
from oxidefv.core import _BLOCK_ELEMS, _frame_velocity, step_blocks
from oxidefv.energy import (
    _THETA_EPS,
    _dissipation_rows,
    _exchange_increments,
    _exchange_weights,
    _potentials,
    shifted_plus_squared,
)
from conftest import make_tc1, make_tc2, trajectory_of


def quadratic():
    return next(d for d in builtin_densities() if d.name == "quadratic")


class TestConvexDensity:
    def test_pressure_identity(self):
        r = np.linspace(0.2, 2.5, 50)
        for density in builtin_densities():
            direct = density.pi(r)
            derived = r * density.phi_prime(r) - density.phi(r)
            assert np.allclose(direct, derived, rtol=0, atol=1e-12)
            # each built-in is convex: phi' is nondecreasing on the samples
            assert np.all(np.diff(density.phi_prime(r)) >= 0.0)

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

    @pytest.mark.parametrize("center", [0.0, 1.0])
    def test_plus_squared_matches_the_power_of_every_entry(self, center):
        # phi takes the power only on the cubic branch; it must write the
        # bytes of the expression that powers every entry, clipped
        blend = 0.5
        density = shifted_plus_squared(center, blend)
        edges = (center, center + blend)
        r = np.concatenate((
            edges,
            [np.nextafter(x, d) for x in edges for d in (-np.inf, np.inf)],
            [x + s * k * 1e-3 for x in edges for s in (-1.0, 1.0) for k in (1, 2, 3)],
            np.linspace(center - 1.0, center + 2.0, 301),
            [np.nan, np.inf, -np.inf],
        ))

        def clipped(r):
            t = np.asarray(r, dtype=float) - center
            cubic = np.minimum(np.maximum(t, 0.0), blend) ** 3 / (3.0 * blend)
            return np.where(
                t <= 0.0,
                0.0,
                np.where(t >= blend, t * t - blend * t + blend * blend / 3.0, cubic),
            )

        with np.errstate(invalid="ignore"):
            for sample in (r, r.reshape(-1, 1), r[::-3], *r):
                assert density.phi(sample).tobytes() == clipped(sample).tobytes()


class TestFreeEnergy:
    def test_constant_state_quadratic(self):
        mesh = uniform_mesh(8)
        s = State(u=np.full(10, 1.3), X0=0.0, X1=2.0, L=2.0)
        # L * phi(c) since the cell sizes sum to one: 2 * c^2/2 = c^2
        assert abs(free_energy(s, mesh, quadratic()) - 1.3**2) <= 1e-14

    def test_zero_density(self):
        mesh = uniform_mesh(5)
        s = State(u=np.linspace(0.5, 1.5, 7), X0=0.0, X1=1.0, L=1.0)
        zero = ConvexDensity("zero", lambda r: 0.0 * np.asarray(r),
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

    @pytest.mark.parametrize("dt", [0.0, -0.05, np.nan, np.inf, -np.inf, True])
    def test_dt_not_positive_and_finite_rejected(self, tc1, dt):
        mesh = uniform_mesh(10)
        s = discretize_initial(tc1, mesh)
        with pytest.raises(ValueError, match="dissipation_split: dt must be positive and finite"):
            dissipation_split(s, s, mesh, dt, tc1, quadratic())

    @pytest.mark.parametrize("dt", [1e-320, np.float64(1e-320), 5e-324, 1e-318])
    def test_overflowing_rates_rejected(self, tc1, dt):
        # the rates of testcase1's first step overflow over this dt: a
        # ValueError naming dt, not a failure inside the Bernoulli weights.
        # Growing X1 = L by 1e-10 keeps each rate finite over 1e-318, but
        # not the right edge's velocity (R = 2).
        mesh = uniform_mesh(10)
        prev, nxt = run(tc1, mesh, TimeGrid.from_step(1e-2, 1)).states
        grow = [State(prev.u, 0.0, x, x) for x in (1.0, 1.0 + 1e-10)]
        for a, b in ((prev, nxt), grow):
            with pytest.raises(ValueError, match=r"dissipation_split: dt .* too small"):
                dissipation_split(a, b, mesh, dt, tc1, quadratic())


class TestLedger:
    def test_exchange_sums_vanish_at_kinetic_ratios(self):
        # u0 = alpha0/beta0 = a/b and u_{I+1} = alpha1/beta1 kill every summand
        params = ModelParams(a=1.5, b=1.0, alpha0=1.5, beta0=1.0, alpha1=0.8,
                             beta1=2.0, R=1.0, L0=1.0,
                             u_init=ExponentialProfile(0.0, 0.0, 1.0))
        mesh = uniform_mesh(4)
        u = np.array([1.5, 1.0, 1.1, 0.9, 1.2, 0.4])
        states = tuple(State(u=u, X0=0.0, X1=1.0, L=1.0) for _ in range(3))
        traj = trajectory_of(states, TimeGrid.from_step(0.1, 2))
        for density in builtin_densities():
            ledger = build_ledger(traj, mesh, params, density)
            assert ledger.H_tot.tobytes() == ledger.H.tobytes()

    def test_frozen_with_read_only_columns(self, tc1):
        mesh = uniform_mesh(12)
        traj = run(tc1, mesh, TimeGrid.from_step(1e-2, 5))
        ledger = build_ledger(traj, mesh, tc1, quadratic())
        for col in (ledger.H, ledger.H_tot, ledger.D_bulk, ledger.D_bound):
            assert col.shape == (6,)
            assert not col.flags.writeable
        assert np.isnan(ledger.D_bulk[0]) and np.isnan(ledger.D_bound[0])
        with pytest.raises(ValueError):
            ledger.H_tot[1] = 0.0
        with pytest.raises(FrozenInstanceError):
            ledger.H = np.zeros(6)

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


@dataclass
class ListLedger:
    """The list ledger that `total_free_energy_increment` recorded into
    before a ledger became the columns that `build_ledger` makes."""

    density: ConvexDensity
    params: ModelParams
    dt: float
    steps: list[int] = field(default_factory=list)
    H: list[float] = field(default_factory=list)
    H_tot: list[float] = field(default_factory=list)
    D_bulk: list[float] = field(default_factory=list)
    D_bound: list[float] = field(default_factory=list)
    exchange_left_rate: float = 0.0
    exchange_left_mass: float = 0.0
    exchange_right_rate: float = 0.0


def total_free_energy_increment(
    ledger: ListLedger,
    state: State,
    mesh: Mesh,
    prev: State | None = None,
) -> ListLedger:
    """A literal copy of the per-step recorder that the ledger columns
    replaced: the per-step definition of a ledger."""
    p = ledger.params
    density = ledger.density
    n = ledger.steps[-1] + 1 if ledger.steps else 0
    H = free_energy(state, mesh, density)
    if n == 0:
        ledger.steps.append(0)
        ledger.H.append(H)
        ledger.H_tot.append(H)
        ledger.D_bulk.append(float("nan"))
        ledger.D_bound.append(float("nan"))
        return ledger

    if prev is None:
        raise ValueError("recording step n >= 1 requires the previous state")
    d_left_rate, d_left_mass, d_right_rate = _exchange_increments(
        p, ledger.dt, state.u[0], state.u[-1]
    )
    ledger.exchange_left_rate += d_left_rate
    ledger.exchange_left_mass += d_left_mass
    ledger.exchange_right_rate += d_right_rate
    H_tot = H - (
        float(density.pi(p.alpha0 / p.beta0)) * ledger.exchange_left_rate
        + float(density.phi_prime(p.a / p.b)) * ledger.exchange_left_mass
        + p.R * float(density.pi(p.alpha1 / p.beta1)) * ledger.exchange_right_rate
    )
    d_bulk, d_bound = dissipation_split(prev, state, mesh, ledger.dt, p, density)
    ledger.steps.append(n)
    ledger.H.append(H)
    ledger.H_tot.append(H_tot)
    ledger.D_bulk.append(d_bulk)
    ledger.D_bound.append(d_bound)
    return ledger


def replay_ledger(traj, mesh, params, density):
    """The per-step definition: record every step in turn."""
    ledger = ListLedger(density=density, params=params, dt=traj.time_grid.dt)
    total_free_energy_increment(ledger, traj.states[0], mesh)
    for prev, state in zip(traj.states[:-1], traj.states[1:]):
        total_free_energy_increment(ledger, state, mesh, prev=prev)
    return ledger


def assert_ledgers_identical(ledger, replayed):
    assert ledger.dt == replayed.dt
    assert list(range(len(ledger.H))) == replayed.steps
    assert np.array_equal(ledger.H, replayed.H)
    assert np.array_equal(ledger.H_tot, replayed.H_tot)
    # row 0 has no dissipation (nan); every later row must match exactly
    assert np.isnan(ledger.D_bulk[0]) and np.isnan(ledger.D_bound[0])
    assert np.array_equal(ledger.D_bulk, replayed.D_bulk, equal_nan=True)
    assert np.array_equal(ledger.D_bound, replayed.D_bound, equal_nan=True)


def edgewise_dissipation_rows(U, X0, X1, L, mesh, dt, params, density):
    """_dissipation_rows with phi' and pi evaluated separately on each
    edge's left and right values and on the boundary traces."""
    u = U[1:]
    Lc = L[1:, None]
    left, right = u[:, :-1], u[:, 1:]
    du = left - right
    dphip = density.phi_prime(right) - density.phi_prime(left)
    dpi = density.pi(right) - density.pi(left)
    regular = (np.abs(dphip) > _THETA_EPS) & (np.abs(du) > _THETA_EPS)
    theta = np.where(regular, (dpi / np.where(regular, dphip, 1.0) - right)
                     / np.where(regular, du, 1.0), 0.5)
    theta = np.clip(theta, 0.0, 1.0)
    w = (Lc * mesh.gaps) * _frame_velocity(
        (X0[1:] - X0[:-1])[:, None], (X1[1:] - X1[:-1])[:, None], (L[1:] - L[:-1])[:, None],
        mesh, dt, params.R,
    )
    weight = bernoulli(w) * theta + bernoulli(-w) * (1.0 - theta)
    dphip = density.phi_prime(u[:, 1:]) - density.phi_prime(u[:, :-1])
    d_bulk = np.sum(weight * dphip * (u[:, 1:] - u[:, :-1]) / (Lc * mesh.gaps), axis=1)
    phip, pi = density.phi_prime, density.pi
    u0, u1 = u[:, 0], u[:, -1]
    d_bound = (
        (params.beta0 * u0 - params.alpha0) * (pi(u0) - pi(params.alpha0 / params.beta0))
        + (params.b * u0 - params.a) * (phip(u0) - phip(params.a / params.b))
        + params.R * (params.beta1 * u1 - params.alpha1)
        * (pi(u1) - pi(params.alpha1 / params.beta1))
    )
    return theta, d_bulk, d_bound


class TestSharedDensityEvaluation:
    """phi and phi' are evaluated once per block and pi is derived from
    them; the theta weights and the dissipation rows stay exactly those of
    the edge-by-edge evaluation."""

    def check(self, traj, mesh, params):
        dt = traj.time_grid.dt
        for density in builtin_densities():
            for _, U, X0, X1, L in step_blocks(traj):
                theta, d_bulk, d_bound = edgewise_dissipation_rows(
                    U, X0, X1, L, mesh, dt, params, density
                )
                assert np.array_equal(mean_value_theta(U[1:], density), theta)
                F, P, Pi = _potentials(density, U[1:])
                assert np.array_equal(F, density.phi(U[1:]))
                assert np.array_equal(P, density.phi_prime(U[1:]))
                assert np.array_equal(Pi, density.pi(U[1:]))
                got_bulk, got_bound = _dissipation_rows(
                    U, X0, X1, L, P, Pi, _exchange_weights(density, params), mesh, dt, params
                )
                assert np.array_equal(got_bulk, d_bulk)
                assert np.array_equal(got_bound, d_bound)

    def test_wave_run_over_several_blocks(self, tc1):
        mesh = uniform_mesh(100)
        traj = run(tc1, mesh, TimeGrid.from_step(1e-2, 60))
        self.check(traj, mesh, tc1)

    def test_non_uniform_mesh_and_collapse(self):
        rng = np.random.default_rng(37)
        edges = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 29)), [1.0]))
        mesh = Mesh(edges)
        params = make_tc2()
        traj = run(params, mesh, TimeGrid.from_step_and_horizon(1e-2, 3.5))
        assert not traj.completed
        self.check(traj, mesh, params)


class TestBlockedLedger:
    """build_ledger evaluates blocks of steps into columns; they must equal
    the per-step replay into lists exactly.  Neither they nor the report of
    verify_trajectory, which also reads blocks, may depend on the block
    size."""

    def check(self, traj, mesh, params):
        replayed = [replay_ledger(traj, mesh, params, d) for d in builtin_densities()]
        columns, reports = set(), set()
        # one row per block, three rows per block, the whole run in one block
        for budget in (1, 3 * (mesh.num_cells + 2), 1 << 30):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "_BLOCK_ELEMS", budget)
                ledgers = [build_ledger(traj, mesh, params, d) for d in builtin_densities()]
                reports.add(repr(verify_trajectory(traj, mesh, params)))
            for ledger, want in zip(ledgers, replayed):
                assert_ledgers_identical(ledger, want)
            columns.add(b"".join(
                col.tobytes()
                for ledger in ledgers
                for col in (ledger.H, ledger.H_tot, ledger.D_bulk, ledger.D_bound)
            ))
        assert len(columns) == 1
        assert len(reports) == 1

    def test_max_principle_reads_every_row(self, tc1):
        # A report keeps only worst values, so comparing reports across
        # block sizes cannot see a walk that loses a block.  Raise one
        # concentration of a single row above M, row by row: the check must
        # fail for every row at every block size.
        cells = 10
        mesh = uniform_mesh(cells)
        traj = run(tc1, mesh, TimeGrid.from_step(1e-2, 10))
        assert verify_trajectory(traj, mesh, tc1).max_principle.passed
        _, M = linf_bounds(tc1)
        for budget in (1, 3 * (cells + 2), 1 << 30):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "_BLOCK_ELEMS", budget)
                for j in range(traj.U.shape[0]):
                    U = traj.U.copy()
                    U[j, j % (cells + 2)] = M + 0.5
                    spiked = replace(traj, U=U)
                    report = verify_trajectory(spiked, mesh, tc1).max_principle
                    assert not report.passed, (budget, j)
                    assert report.worst == 0.5

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
        mesh = Mesh(edges)
        traj = run(tc1, mesh, TimeGrid.from_step(1e-2, 30))
        assert traj.completed
        self.check(traj, mesh, tc1)

    def test_collapsed_trajectory(self):
        params = make_tc2()
        mesh = uniform_mesh(30)
        traj = run(params, mesh, TimeGrid.from_step_and_horizon(1e-2, 3.5))
        assert not traj.completed
        self.check(traj, mesh, params)

    def test_collapse_on_non_uniform_mesh(self):
        rng = np.random.default_rng(38)
        edges = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 29)), [1.0]))
        mesh = Mesh(edges)
        params = make_tc2()
        traj = run(params, mesh, TimeGrid.from_step_and_horizon(1e-2, 3.5))
        assert traj.termination.kind is TerminationKind.WIDTH_COLLAPSED
        self.check(traj, mesh, params)

    def test_one_row_trajectory(self):
        # the first step fails: the trajectory holds the initial state alone
        params = make_tc2()
        mesh = uniform_mesh(50)
        traj = run(params, mesh, TimeGrid.from_step(3.5, 1))
        assert traj.U.shape[0] == 1
        self.check(traj, mesh, params)
        ledger = build_ledger(traj, mesh, params, quadratic())
        assert ledger.H_tot.tolist() == ledger.H.tolist()
