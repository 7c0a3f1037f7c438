"""Distance-constrained spectral partitions on gridded domains.

A numerical laboratory for sums of first Dirichlet eigenvalues over
partitions whose components keep a prescribed mutual distance, together
with the estimate machinery used to study the small-distance limit:
mean-value comparisons for eigenfunctions, one-phase and two-phase
monotonicity functionals, spherical-cap eigenvalue expansions, and the
separation sweeps behind the uniform Lipschitz bounds.
"""

from .errors import (
    ConfigError,
    ConstraintViolationError,
    ConvergenceError,
    EmptyDomainError,
    EmptyRegionError,
    InfeasibleError,
    SqueezedOutError,
)
from .grid import (
    GridDomain,
    Mask,
    ScalarField,
    build_domain,
    dilate,
    dirichlet_energy,
    discrete_gradient,
    distance_transform,
    erode,
    gradient_magnitude,
    norms,
    rayleigh_quotient,
)
from .eigensolve import (
    CapSpectrum,
    EigenResult,
    RadialGroundState,
    bessel_first_zero,
    cap_eigenvalue,
    first_dirichlet_eig,
    poincare_check,
    radial_ground_state,
)
from .monotonicity import (
    MonotonicityReport,
    RadialProfile,
    acf_psi_functional,
    build_radial_profile,
    cjk_product,
    exterior_ball_nodes,
    gamma_fun,
    gamma_fun_derivative,
    mean_value_check,
    profile_for_lambda,
)
from .partition import (
    PartitionProblem,
    PartitionState,
    SweepReport,
    cutoff_competitor,
    free_boundary_point,
    gradient_location_check,
    init_partition,
    optimize,
    relax_step,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "GridDomain", "Mask", "ScalarField", "build_domain", "distance_transform",
    "dilate", "erode", "discrete_gradient", "gradient_magnitude", "norms",
    "dirichlet_energy", "rayleigh_quotient",
    "EigenResult", "CapSpectrum", "RadialGroundState", "first_dirichlet_eig",
    "bessel_first_zero", "radial_ground_state", "cap_eigenvalue",
    "poincare_check", "exterior_ball_nodes",
    "RadialProfile", "MonotonicityReport", "build_radial_profile",
    "profile_for_lambda", "gamma_fun", "gamma_fun_derivative",
    "mean_value_check", "acf_psi_functional", "cjk_product",
    "PartitionProblem", "PartitionState", "SweepReport", "init_partition",
    "relax_step", "optimize", "cutoff_competitor", "run_sweep",
    "gradient_location_check", "free_boundary_point",
    "ConfigError", "ConstraintViolationError", "ConvergenceError",
    "EmptyDomainError", "EmptyRegionError", "InfeasibleError",
    "SqueezedOutError",
]
