"""Discrete free-energy diagnostics.

Any convex density phi yields a free energy that the scheme dissipates up
to boundary exchanges.  This module evaluates the per-step free energy,
the total free energy including the accumulated exchange corrections, and
the bulk/boundary dissipation split, for arbitrary convex densities.  It
is purely diagnostic: nothing here feeds back into the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bernoulli import bernoulli
from .core import Mesh, ModelParams, State, Trajectory, step_blocks
from .formatting import format_float
from .scheme import _frame_velocity

# Edge differences smaller than this fall back to the midpoint weight 1/2
# in the mean-value construction.
_THETA_EPS = 1e-13


@dataclass(frozen=True)
class ConvexDensity:
    """Convex energy density phi with chemical potential phi' and pressure
    pi(r) = r phi'(r) - phi(r).  Callables must accept numpy arrays."""

    name: str
    phi: Callable
    phi_prime: Callable
    pi: Callable

    @classmethod
    def from_phi(cls, name: str, phi: Callable, phi_prime: Callable) -> "ConvexDensity":
        def pi(r, _phi=phi, _phip=phi_prime):
            r = np.asarray(r, dtype=float)
            return r * _phip(r) - _phi(r)

        return cls(name=name, phi=phi, phi_prime=phi_prime, pi=pi)

    def validate_on(self, samples) -> None:
        """Check convexity (secant monotonicity of phi') and the pressure
        identity on the given sample points."""
        r = np.sort(np.asarray(samples, dtype=float))
        p = np.asarray(self.phi_prime(r), dtype=float)
        if np.any(np.diff(p) < -1e-12 * np.maximum(1.0, np.abs(p[:-1]))):
            raise ValueError(f"density {self.name!r}: phi' is not nondecreasing on the samples")
        direct = np.asarray(self.pi(r), dtype=float)
        derived = r * p - np.asarray(self.phi(r), dtype=float)
        if np.any(np.abs(direct - derived) > 1e-12 * np.maximum(1.0, np.abs(derived))):
            raise ValueError(f"density {self.name!r}: pi(r) != r phi'(r) - phi(r)")


def _quadratic() -> ConvexDensity:
    return ConvexDensity.from_phi("quadratic", lambda r: 0.5 * r * r, lambda r: np.asarray(r, dtype=float))


def _quartic() -> ConvexDensity:
    return ConvexDensity.from_phi("quartic", lambda r: np.asarray(r, dtype=float) ** 4, lambda r: 4.0 * np.asarray(r, dtype=float) ** 3)


def shifted_plus_squared(center: float = 1.0, blend: float = 0.5) -> ConvexDensity:
    """C^2 smoothing of (r - center)_+^2: zero left of center, a cubic blend
    of width `blend`, then the exact quadratic continuation."""

    def phi(r):
        t = np.asarray(r, dtype=float) - center
        # The cubic takes t clipped to [0, blend], which equals t on its
        # branch: a negative base would send the power down a slow path.
        cubic = np.minimum(np.maximum(t, 0.0), blend) ** 3 / (3.0 * blend)
        return np.where(
            t <= 0.0,
            0.0,
            np.where(t >= blend, t * t - blend * t + blend * blend / 3.0, cubic),
        )

    def phi_prime(r):
        t = np.asarray(r, dtype=float) - center
        return np.where(t <= 0.0, 0.0, np.where(t >= blend, 2.0 * t - blend, t * t / blend))

    return ConvexDensity.from_phi(f"plus_sq_{center:g}", phi, phi_prime)


def _boltzmann() -> ConvexDensity:
    # r log r - r + 1; defined for r > 0 only (all maximum-principle
    # brackets with m > 0 keep states inside the domain).
    return ConvexDensity.from_phi(
        "xlogx",
        lambda r: np.asarray(r, dtype=float) * np.log(r) - np.asarray(r, dtype=float) + 1.0,
        lambda r: np.log(np.asarray(r, dtype=float)),
    )


def builtin_densities() -> tuple[ConvexDensity, ...]:
    """The probe family: quadratic, quartic, smoothed shifted positive part,
    and the Boltzmann-type r log r - r + 1."""
    return (_quadratic(), _quartic(), shifted_plus_squared(), _boltzmann())


def _free_energy_rows(U, L, mesh: Mesh, density: ConvexDensity) -> np.ndarray:
    """Free energy of each row of U with its width L.  One np.dot per row:
    a matrix-vector product would sum in another order."""
    P = density.phi(U[:, 1:-1])
    return np.array([Lj * np.dot(mesh.cell_sizes, Pj) for Lj, Pj in zip(L, P)])


def free_energy(state: State, mesh: Mesh, density: ConvexDensity) -> float:
    """L * sum_i h_i phi(u_i) over the interior cells (boundary traces
    excluded)."""
    return float(_free_energy_rows(state.u[None], (state.L,), mesh, density)[0])


def mean_value_theta(u: np.ndarray, density: ConvexDensity) -> np.ndarray:
    """Edge weights theta in [0, 1] from the mean-value identity
    pi(u_{i+1}) - pi(u_i) = (theta u_i + (1-theta) u_{i+1}) (phi'(u_{i+1}) - phi'(u_i)),
    with a 1/2 fallback on degenerate edges.  Rows of a (..., I+2) array
    are treated independently."""
    u = np.asarray(u, dtype=float)
    left = u[..., :-1]
    right = u[..., 1:]
    du = left - right
    dphip = np.asarray(density.phi_prime(right), dtype=float) - np.asarray(
        density.phi_prime(left), dtype=float
    )
    dpi = np.asarray(density.pi(right), dtype=float) - np.asarray(
        density.pi(left), dtype=float
    )
    regular = (np.abs(dphip) > _THETA_EPS) & (np.abs(du) > _THETA_EPS)
    safe_dphip = np.where(regular, dphip, 1.0)
    safe_du = np.where(regular, du, 1.0)
    theta = np.where(regular, (dpi / safe_dphip - right) / safe_du, 0.5)
    return np.clip(theta, 0.0, 1.0)


def _dissipation_rows(
    U, X0, X1, L, mesh: Mesh, dt: float, params: ModelParams, density: ConvexDensity
):
    """Bulk and boundary dissipation of the k steps between the k+1 stacked
    states (rows of U, with their X0, X1 and L), as two length-k arrays.

    The bulk part weights each edge's gradient-type product with the
    Bernoulli combination B(w) theta + B(-w) (1 - theta); the boundary part
    collects the three exchange reactions against their kinetic ratios.
    """
    u = U[1:]
    Lc = L[1:, None]
    # theta first: its temporaries are the most, so little else is alive then.
    theta = mean_value_theta(u, density)
    w = (Lc * mesh.gaps) * _frame_velocity(
        X0[1:, None], X1[1:, None], Lc, X0[:-1, None], X1[:-1, None], L[:-1, None],
        mesh, dt, params.R,
    )
    weight = bernoulli(w) * theta + bernoulli(-w) * (1.0 - theta)
    dphip = np.asarray(density.phi_prime(u[:, 1:]), dtype=float) - np.asarray(
        density.phi_prime(u[:, :-1]), dtype=float
    )
    d_bulk = np.sum(weight * dphip * (u[:, 1:] - u[:, :-1]) / (Lc * mesh.gaps), axis=1)

    phip = density.phi_prime
    pi = density.pi
    r0 = params.alpha0 / params.beta0
    rb = params.a / params.b
    r1 = params.alpha1 / params.beta1
    u0 = u[:, 0]
    u1 = u[:, -1]
    d_bound = (
        (params.beta0 * u0 - params.alpha0) * (pi(u0) - pi(r0))
        + (params.b * u0 - params.a) * (phip(u0) - phip(rb))
        + params.R * (params.beta1 * u1 - params.alpha1) * (pi(u1) - pi(r1))
    )
    return d_bulk, d_bound


def dissipation_split(
    prev: State,
    nxt: State,
    mesh: Mesh,
    dt: float,
    params: ModelParams,
    density: ConvexDensity,
) -> tuple[float, float]:
    """Bulk and boundary dissipation of one accepted step, both nonnegative
    (see `_dissipation_rows`)."""
    if dt <= 0.0:
        raise ValueError("dissipation_split: dt must be positive")
    d_bulk, d_bound = _dissipation_rows(
        np.stack((prev.u, nxt.u)),
        np.array([prev.X0, nxt.X0]),
        np.array([prev.X1, nxt.X1]),
        np.array([prev.L, nxt.L]),
        mesh, dt, params, density,
    )
    return float(d_bulk[0]), float(d_bound[0])


@dataclass
class EnergyLedger:
    """Per-step free energy, total free energy and dissipation split for one
    convex density, plus the running boundary-exchange sums.

    Entries are appended per recorded step n = 0, 1, ...; the dissipation
    columns are undefined at n = 0 and stored as nan.
    """

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

    def times(self) -> np.ndarray:
        return np.asarray(self.steps, dtype=float) * self.dt


def _exchange_increments(params: ModelParams, dt: float, u0, u1):
    """Per-step increments of the three boundary-exchange sums from the new
    boundary traces u0, u1 (scalars or arrays over steps)."""
    return (
        dt * (params.alpha0 - params.beta0 * u0),
        dt * (params.a - params.b * u0),
        dt * (params.alpha1 - params.beta1 * u1),
    )


def _exchange_correction(
    density: ConvexDensity, params: ModelParams, left_rate, left_mass, right_rate
):
    """What the accumulated boundary-exchange sums contribute to the total
    free energy, H_tot = H - correction.  The sums may be arrays."""
    r0 = params.alpha0 / params.beta0
    rb = params.a / params.b
    r1 = params.alpha1 / params.beta1
    # The exchange corrections remove what the environment feeds in, so the
    # total decreases along the scheme; each accumulated sum enters with a
    # minus sign against its pressure / potential weight.
    return (
        float(density.pi(r0)) * left_rate
        + float(density.phi_prime(rb)) * left_mass
        + params.R * float(density.pi(r1)) * right_rate
    )


def total_free_energy_increment(
    ledger: EnergyLedger,
    state: State,
    mesh: Mesh,
    prev: State | None = None,
) -> EnergyLedger:
    """Record the next step in the ledger.

    Accumulates the three boundary-exchange sums (dissolution-rate,
    mass-exchange and oxidation-rate terms) and evaluates the total free
    energy; with the previous state supplied, the dissipation split of the
    step is recorded as well.
    """
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
    H_tot = H - _exchange_correction(
        density, p, ledger.exchange_left_rate, ledger.exchange_left_mass, ledger.exchange_right_rate
    )
    d_bulk, d_bound = dissipation_split(prev, state, mesh, ledger.dt, p, density)
    ledger.steps.append(n)
    ledger.H.append(H)
    ledger.H_tot.append(H_tot)
    ledger.D_bulk.append(d_bulk)
    ledger.D_bound.append(d_bound)
    return ledger


def build_ledger(
    traj: Trajectory,
    mesh: Mesh,
    params: ModelParams,
    density: ConvexDensity,
) -> EnergyLedger:
    """Evaluate a stored trajectory (stride 1) into a complete ledger.

    The steps are evaluated in blocks of consecutive states (`step_blocks`);
    the result is bitwise equal to recording each step in turn with
    `total_free_energy_increment`.
    """
    if not traj.is_contiguous():
        raise ValueError("energy ledger requires a trajectory stored with stride 1")
    dt = traj.time_grid.dt
    n = len(traj.states) - 1
    H = np.empty(n + 1)
    H_tot = np.empty(n + 1)
    d_bulk = np.empty(n)
    d_bound = np.empty(n)
    sums = np.zeros(3)
    for start, U, X0, X1, L in step_blocks(traj.states):
        stop = start + U.shape[0] - 1
        # Row 0 repeats the previous block's last state and running sums;
        # cumsum then adds in step order, as the per-step recording does.
        H[start : stop + 1] = _free_energy_rows(U, L, mesh, density)
        incs = _exchange_increments(params, dt, U[1:, 0], U[1:, -1])
        running = np.cumsum(np.column_stack((sums, incs)), axis=1)
        sums = running[:, -1]
        H_tot[start : stop + 1] = H[start : stop + 1] - _exchange_correction(density, params, *running)
        d_bulk[start:stop], d_bound[start:stop] = _dissipation_rows(
            U, X0, X1, L, mesh, dt, params, density
        )
    H_tot[0] = H[0]

    nan = float("nan")
    ledger = EnergyLedger(
        density=density,
        params=params,
        dt=dt,
        steps=list(range(n + 1)),
        H=H.tolist(),
        H_tot=H_tot.tolist(),
        D_bulk=[nan, *d_bulk.tolist()],
        D_bound=[nan, *d_bound.tolist()],
    )
    ledger.exchange_left_rate, ledger.exchange_left_mass, ledger.exchange_right_rate = sums.tolist()
    return ledger


def write_ledger_csv(ledger: EnergyLedger, path) -> None:
    """Deterministic CSV with columns n, t, H, H_tot, D_bulk, D_bound."""
    with open(path, "w", newline="") as f:
        f.write("n,t,H,H_tot,D_bulk,D_bound\n")
        for i, n in enumerate(ledger.steps):
            row = (
                str(n),
                format_float(n * ledger.dt),
                format_float(ledger.H[i]),
                format_float(ledger.H_tot[i]),
                format_float(ledger.D_bulk[i]),
                format_float(ledger.D_bound[i]),
            )
            f.write(",".join(row) + "\n")
