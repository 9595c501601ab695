"""Discrete free-energy diagnostics.

Any convex density phi yields a free energy that the scheme dissipates up
to boundary exchanges.  This module evaluates the per-step free energy,
the total free energy including the accumulated exchange corrections, and
the bulk/boundary dissipation split, for arbitrary convex densities.  It
is purely diagnostic: nothing here feeds back into the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bernoulli import bernoulli
from .core import Mesh, ModelParams, State, Trajectory, row_integrals, step_blocks
from .formatting import write_csv
from .scheme import _check_rates, _frame_velocity

# Edge differences smaller than this fall back to the midpoint weight 1/2
# in the mean-value construction.
_THETA_EPS = 1e-13


@dataclass(frozen=True)
class ConvexDensity:
    """Convex energy density phi with chemical potential phi'.  Callables
    must accept numpy arrays."""

    name: str
    phi: Callable
    phi_prime: Callable

    def pi(self, r):
        """The pressure pi(r) = r phi'(r) - phi(r)."""
        r = np.asarray(r, dtype=float)
        return r * self.phi_prime(r) - self.phi(r)


def _quadratic() -> ConvexDensity:
    return ConvexDensity("quadratic", lambda r: 0.5 * r * r, lambda r: np.asarray(r, dtype=float))


def _quartic() -> ConvexDensity:
    return ConvexDensity("quartic", lambda r: np.asarray(r, dtype=float) ** 4, lambda r: 4.0 * np.asarray(r, dtype=float) ** 3)


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

    return ConvexDensity(f"plus_sq_{center:g}", phi, phi_prime)


def _boltzmann() -> ConvexDensity:
    # r log r - r + 1; defined for r > 0 only (all maximum-principle
    # brackets with m > 0 keep states inside the domain).
    return ConvexDensity(
        "xlogx",
        lambda r: np.asarray(r, dtype=float) * np.log(r) - np.asarray(r, dtype=float) + 1.0,
        lambda r: np.log(np.asarray(r, dtype=float)),
    )


def builtin_densities() -> tuple[ConvexDensity, ...]:
    """The probe family: quadratic, quartic, smoothed shifted positive part,
    and the Boltzmann-type r log r - r + 1."""
    return (_quadratic(), _quartic(), shifted_plus_squared(), _boltzmann())


def free_energy(state: State, mesh: Mesh, density: ConvexDensity) -> float:
    """L * sum_i h_i phi(u_i) over the interior cells (boundary traces
    excluded)."""
    return float(row_integrals(density.phi(state.u[None, 1:-1]), (state.L,), mesh)[0])


def mean_value_theta(u: np.ndarray, density: ConvexDensity) -> np.ndarray:
    """Edge weights theta in [0, 1] from the mean-value identity
    pi(u_{i+1}) - pi(u_i) = (theta u_i + (1-theta) u_{i+1}) (phi'(u_{i+1}) - phi'(u_i)),
    with a 1/2 fallback on degenerate edges.  Rows of a (..., I+2) array
    are treated independently."""
    u = np.asarray(u, dtype=float)
    _, P, Pi = _potentials(density, u)
    return _theta(u, P[..., 1:] - P[..., :-1], Pi)


def _potentials(density: ConvexDensity, u):
    """phi(u), phi'(u) and the pressure pi(u), with phi and phi' evaluated
    once each; pi takes the operations of ConvexDensity.pi."""
    F = np.asarray(density.phi(u), dtype=float)
    P = np.asarray(density.phi_prime(u), dtype=float)
    return F, P, u * P - F


def _theta(u, dphip, Pi):
    """mean_value_theta of u from its phi' jumps dphip across the edges and
    its pressures Pi = pi(u)."""
    left = u[..., :-1]
    right = u[..., 1:]
    du = left - right
    dpi = Pi[..., 1:] - Pi[..., :-1]
    regular = (np.abs(dphip) > _THETA_EPS) & (np.abs(du) > _THETA_EPS)
    safe_dphip = np.where(regular, dphip, 1.0)
    safe_du = np.where(regular, du, 1.0)
    theta = np.where(regular, (dpi / safe_dphip - right) / safe_du, 0.5)
    return np.clip(theta, 0.0, 1.0)


def _dissipation_rows(
    U, X0, X1, L, P, Pi, weights, mesh: Mesh, dt: float, params: ModelParams
):
    """Bulk and boundary dissipation of the k steps between the k+1 stacked
    states (rows of U, with their X0, X1 and L), as two length-k arrays.
    P and Pi are phi' and pi over the step rows U[1:], shared by theta, the
    bulk and the boundary terms; weights are the density's
    `_exchange_weights`.

    The bulk part weights each edge's gradient-type product with the
    Bernoulli combination B(w) theta + B(-w) (1 - theta); the boundary part
    collects the three exchange reactions against their kinetic ratios.
    """
    u = U[1:]
    Lc = L[1:, None]
    dphip = P[:, 1:] - P[:, :-1]
    theta = _theta(u, dphip, Pi)
    w = (Lc * mesh.gaps) * _frame_velocity(
        np.diff(X0)[:, None], np.diff(X1)[:, None], np.diff(L)[:, None], mesh, dt, params.R
    )
    weight = bernoulli(w) * theta + bernoulli(-w) * (1.0 - theta)
    d_bulk = np.sum(weight * dphip * (u[:, 1:] - u[:, :-1]) / (Lc * mesh.gaps), axis=1)

    pi_r0, phip_rb, pi_r1 = weights
    u0 = u[:, 0]
    u1 = u[:, -1]
    d_bound = (
        (params.beta0 * u0 - params.alpha0) * (Pi[:, 0] - pi_r0)
        + (params.b * u0 - params.a) * (P[:, 0] - phip_rb)
        + params.R * (params.beta1 * u1 - params.alpha1) * (Pi[:, -1] - pi_r1)
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
    (see `_dissipation_rows`).  Raises ValueError for a dt that is not
    positive and finite or that makes a rate (f - f_prev)/dt of X0, X1 or
    L, or an edge velocity, overflow."""
    _check_rates("dissipation_split", prev, nxt, dt, params.R)
    U = np.stack((prev.u, nxt.u))
    _, P, Pi = _potentials(density, U[1:])
    d_bulk, d_bound = _dissipation_rows(
        U,
        np.array([prev.X0, nxt.X0]),
        np.array([prev.X1, nxt.X1]),
        np.array([prev.L, nxt.L]),
        P, Pi, _exchange_weights(density, params),
        mesh, dt, params,
    )
    return float(d_bulk[0]), float(d_bound[0])


@dataclass(frozen=True, eq=False)
class EnergyLedger:
    """Free energy, total free energy and dissipation split of a stored
    trajectory for one convex density, in columns.  `build_ledger` makes
    ledgers.

    H, H_tot, D_bulk and D_bound have one entry per trajectory row: row n
    is step n.  H_tot carries the boundary-exchange sums accumulated up to
    row n.  The dissipation columns are undefined at row 0 and hold nan
    there.  All four are read-only.
    """

    density: ConvexDensity
    dt: float
    H: np.ndarray
    H_tot: np.ndarray
    D_bulk: np.ndarray
    D_bound: np.ndarray

    def __post_init__(self):
        for col in (self.H, self.H_tot, self.D_bulk, self.D_bound):
            col.setflags(write=False)


def _exchange_increments(params: ModelParams, dt: float, u0, u1):
    """Per-step increments of the three boundary-exchange sums from the new
    boundary traces u0, u1 (scalars or arrays over steps)."""
    return (
        dt * (params.alpha0 - params.beta0 * u0),
        dt * (params.a - params.b * u0),
        dt * (params.alpha1 - params.beta1 * u1),
    )


def _exchange_weights(density: ConvexDensity, params: ModelParams) -> tuple[float, float, float]:
    """pi(alpha0/beta0), phi'(a/b) and pi(alpha1/beta1): the weights of the
    three boundary exchanges in the total free energy and in the boundary
    dissipation."""
    return (
        float(density.pi(params.alpha0 / params.beta0)),
        float(density.phi_prime(params.a / params.b)),
        float(density.pi(params.alpha1 / params.beta1)),
    )


def _exchange_correction(weights, R: float, left_rate, left_mass, right_rate):
    """What the accumulated boundary-exchange sums contribute to the total
    free energy, H_tot = H - correction, given the density's
    `_exchange_weights`.  The sums may be arrays."""
    pi_r0, phip_rb, pi_r1 = weights
    # The exchange corrections remove what the environment feeds in, so the
    # total decreases along the scheme; each accumulated sum enters with a
    # minus sign against its pressure / potential weight.
    return pi_r0 * left_rate + phip_rb * left_mass + R * pi_r1 * right_rate


def build_ledger(
    traj: Trajectory,
    mesh: Mesh,
    params: ModelParams,
    density: ConvexDensity,
) -> EnergyLedger:
    """Evaluate a stored trajectory into its ledger.

    The steps are evaluated in blocks of consecutive rows (`step_blocks`),
    with phi and phi' evaluated once per block and pi derived from them.
    Each entry is summed in the same order as when its step is evaluated
    alone, and the exchange sums accumulate in step order.
    """
    dt = traj.time_grid.dt
    rows = traj.U.shape[0]
    H = np.empty(rows)
    H_tot = np.empty(rows)
    D_bulk = np.empty(rows)
    D_bound = np.empty(rows)
    weights = _exchange_weights(density, params)
    # phi never sees the boundary traces of the initial state, which no
    # column reads (xlogx is undefined at 0).
    H[0] = H_tot[0] = row_integrals(density.phi(traj.U[:1, 1:-1]), traj.L[:1], mesh)[0]
    sums = np.zeros(3)
    for start, U, X0, X1, L in step_blocks(traj):
        # Row 0 of a block is the previous block's last row: its H and
        # running sums are known, and cumsum adds on in step order.
        stop = start + U.shape[0]
        u = U[1:]
        F, P, Pi = _potentials(density, u)
        H[start + 1 : stop] = row_integrals(F[:, 1:-1], L[1:], mesh)
        incs = _exchange_increments(params, dt, u[:, 0], u[:, -1])
        running = np.cumsum(np.column_stack((sums, incs)), axis=1)
        sums = running[:, -1]
        H_tot[start + 1 : stop] = H[start + 1 : stop] - _exchange_correction(
            weights, params.R, *running[:, 1:]
        )
        D_bulk[start + 1 : stop], D_bound[start + 1 : stop] = _dissipation_rows(
            U, X0, X1, L, P, Pi, weights, mesh, dt, params
        )
    D_bulk[0] = D_bound[0] = np.nan
    return EnergyLedger(
        density=density,
        dt=dt,
        H=H,
        H_tot=H_tot,
        D_bulk=D_bulk,
        D_bound=D_bound,
    )


def write_ledger_csv(ledger: EnergyLedger, path) -> None:
    """Deterministic CSV with columns n, t, H, H_tot, D_bulk, D_bound."""
    steps = range(len(ledger.H))
    write_csv(
        path,
        ("n", "t", "H", "H_tot", "D_bulk", "D_bound"),
        (
            steps,
            (n * ledger.dt for n in steps),
            ledger.H,
            ledger.H_tot,
            ledger.D_bulk,
            ledger.D_bound,
        ),
    )
