"""Simulation and analysis toolkit for driven-dissipative continuous-variable
quantum batteries.

Four computational routes are provided and cross-validated: closed-form
results for linear charger-battery coupling, a five-equation cumulant ODE
system for nonlinear coupling, weak-driving perturbation series, and exact
truncated-Fock-space Lindblad integration.
"""

from .cumulant import (
    NonlinearParams,
    cumulant_rhs,
    integrate_cumulant,
    steady_energy_nonlinear,
    steady_state_nonlinear,
    steady_variances,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    CvBatteryError,
    InvalidInputError,
    UnphysicalStateError,
    UnsupportedRegimeError,
)
from .focksim import (
    FockConfig,
    build_hamiltonian,
    converge_cutoffs,
    evolve,
    exact_ergotropy,
    extract_moments,
    reduced_battery_state,
)
from .gaussian import (
    MomentState,
    QuadratureStats,
    covariance_determinant,
    ergotropy_gaussian,
    passive_energy,
    purity,
    quadrature_stats,
)
from .linear import (
    LinearConstants,
    LinearParams,
    energy_linear,
    exceptional_point,
    linear_constants,
    max_power,
    optimal_energy,
    optimal_time_energy,
    optimal_time_power,
    power_optima,
    renormalized_frequency,
    steady_energy_linear,
)
from .metrics import BatteryMetrics, compute_metrics, energy_metrics, ergotropy_trajectory
from .perturbation import (
    PerturbationConstants,
    approx_optima_nonlinear,
    perturbation_constants,
    perturbative_energy,
    shifted_time,
    weak_driving_energy,
)

__version__ = "0.1.0"
