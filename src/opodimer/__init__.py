"""Squeezing and entanglement in two evanescently coupled intracavity
downconverters, below threshold.

The package computes output quadrature spectra three independent ways:
closed forms where they exist, a linearized spectral-matrix pipeline for any
stable parameter set, and a positive-P stochastic oracle for the full
nonlinear model. The criteria module turns spectra into squeezing, sum-type
entanglement, and EPR-inference witnesses; the CLI runs bundled parameter
studies and emits deterministic CSV.
"""

from .config import RunConfig, load_config_file, load_preset
from .criteria import (combined_variances, duan_sum, epr_product,
                       optimize_angle, quadrature, spectral_stack,
                       witness_flags, witness_table)
from .errors import (AboveThresholdError, ConfigError, ConvergenceFailureError,
                     DegenerateVarianceError, DetuningMismatchError,
                     DivergenceDetectedError, DomainError, InsufficientDataError,
                     NoCrossingError, OpodimerError, SingularAtFrequencyError)
from .linearized import (LinearModel, build_combined_model, build_linear_model,
                         finite_difference_jacobian, numeric_eigenvalues)
from .model import (DerivedScales, SteadyState, SystemParams, derived_scales,
                    drift_rhs, stability_eigenvalues, steady_state,
                    threshold_bisection)
from .sde import (SdeConfig, SpectrumEstimate, Stepper, TrajectoryEnsemble,
                  estimate_output_spectrum, integrate, load_ensemble_dump,
                  write_ensemble_dump)
from .spectrum import (SpectralMatrix, analytic_combined, analytic_variances,
                       output_moment, spectral_matrix, vacuum_baseline)

__version__ = "0.1.0"

__all__ = [
    "AboveThresholdError", "ConfigError", "ConvergenceFailureError",
    "DegenerateVarianceError", "DerivedScales",
    "DetuningMismatchError", "DivergenceDetectedError", "DomainError",
    "InsufficientDataError", "LinearModel", "NoCrossingError", "OpodimerError",
    "RunConfig", "SdeConfig", "SingularAtFrequencyError",
    "SpectralMatrix", "SpectrumEstimate", "SteadyState", "Stepper",
    "SystemParams", "TrajectoryEnsemble", "analytic_combined",
    "analytic_variances", "build_combined_model", "build_linear_model",
    "combined_variances", "derived_scales", "drift_rhs", "duan_sum",
    "epr_product", "estimate_output_spectrum", "finite_difference_jacobian",
    "integrate", "load_config_file", "load_ensemble_dump", "load_preset",
    "numeric_eigenvalues", "optimize_angle", "output_moment", "quadrature",
    "spectral_matrix", "spectral_stack", "stability_eigenvalues",
    "steady_state", "threshold_bisection", "vacuum_baseline",
    "witness_flags", "witness_table", "write_ensemble_dump",
]
