"""Exception types shared across the package."""


class OpodimerError(Exception):
    """Base class for every failure raised by this package."""


class AboveThresholdError(OpodimerError):
    """Pump is at or above the oscillation threshold; the below-threshold
    linearized analysis is invalid there."""

    def __init__(self, message, eps_crit=None):
        super().__init__(message)
        self.eps_crit = eps_crit


class NoCrossingError(OpodimerError):
    """Min Re eig does not change sign across a numeric threshold."""


class ConvergenceFailureError(OpodimerError):
    """A numeric result failed its accuracy check: the dense eigensolver did
    not converge, the steady state missed its residual tolerance, or a
    quadrature projection kept an imaginary residue."""


class SingularAtFrequencyError(OpodimerError):
    """Drift matrix shifted by i*omega is numerically singular (the system
    is at or above threshold at omega = 0)."""


class DomainError(OpodimerError):
    """Input outside the domain a result is defined on: a closed form given
    unequal pumps (DetuningMismatchError), or a closed form, the threshold
    pencil or a drift block whose value leaves the float range."""


class DetuningMismatchError(DomainError):
    """A closed form given unequal pumps, where the signal supermodes
    (a1 +- a2)/sqrt(2) do not decouple: raised by spectrum.analytic_variances
    and spectrum.analytic_combined."""


class DegenerateVarianceError(OpodimerError):
    """Conditioning variance too small to infer against."""


class DivergenceDetectedError(OpodimerError):
    """Every stochastic trajectory diverged; no statistics available."""


class InsufficientDataError(OpodimerError):
    """Measurement window too short for spectral estimation."""


class ConfigError(OpodimerError):
    """Malformed or unknown run-configuration content."""
