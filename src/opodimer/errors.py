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
    """Bisection bracket does not straddle a stability change."""


class DetuningMismatchError(OpodimerError):
    """Combined-mode analysis requires Delta_a = J_a, Delta_b = J_b and
    equal real pumps."""


class ConvergenceFailureError(OpodimerError):
    """A numeric result failed its accuracy check: the dense eigensolver did
    not converge, the steady state missed its residual tolerance, or a
    quadrature projection kept an imaginary residue."""


class SingularAtFrequencyError(OpodimerError):
    """Drift matrix shifted by i*omega is numerically singular (the system
    is at or above threshold at omega = 0)."""


class DomainError(OpodimerError):
    """Closed-form expression evaluated outside its validity domain."""


class DegenerateVarianceError(OpodimerError):
    """Conditioning variance too small to infer against."""


class DivergenceDetectedError(OpodimerError):
    """Every stochastic trajectory diverged; no statistics available."""


class InsufficientDataError(OpodimerError):
    """Measurement window too short for spectral estimation."""


class ConfigError(OpodimerError):
    """Malformed or unknown run-configuration content."""
