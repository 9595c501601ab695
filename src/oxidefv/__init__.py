"""Implicit finite-volume solver for a one-species oxide layer with moving
boundaries, exponential-fitting fluxes, travelling-wave analysis and
free-energy dissipation diagnostics."""

from .bernoulli import bernoulli, bernoulli_prime
from .core import (
    ExponentialProfile,
    InitialMode,
    Mesh,
    ModelParams,
    State,
    TabulatedProfile,
    Termination,
    TerminationKind,
    TimeGrid,
    Trajectory,
    discretize_initial,
    uniform_mesh,
)
from .waves import (
    RegimeClassification,
    RegimeKind,
    TravellingWave,
    classify,
    wave_profile_on_mesh,
)
from .scheme import (
    SolverOptions,
    StepResult,
    StepStatus,
    homotopy_solve,
    jacobian,
    newton_step_solve,
    residual,
    run,
    run_blocks,
    velocities,
)
from .energy import (
    ConvexDensity,
    EnergyLedger,
    build_ledger,
    builtin_densities,
    dissipation_split,
    free_energy,
    mean_value_theta,
    write_ledger_csv,
)
from .analysis import (
    ConvergenceReport,
    LevelResult,
    TrajectoryReport,
    convergence_study,
    linf_bounds,
    mass_balance_defects,
    project_reference,
    velocity_bounds,
    verify_trajectory,
    wave_distance,
    wave_distances,
    width_rate_bounds,
    write_convergence_csv,
)

__version__ = "0.1.0"
