"""Drift and noise matrices of the linearized fluctuation analysis.

Fluctuations about the below-threshold steady state obey the multivariate
Ornstein-Uhlenbeck equation

    d(dx) = -A dx dt + B dW,

with dx in the package-wide ordering [alpha1, alpha1+, alpha2, alpha2+,
beta1, beta1+, beta2, beta2+] and dW a vector of independent real Wiener
increments. On the Delta_a = J_a, Delta_b = J_b manifold the sum and
difference of the low-frequency modes decouple, giving an equivalent pair of
independent 2x2 problems (build_combined_model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DetuningMismatchError
from .model import (SystemParams, _unchecked_state, dense_eigvals, drift_block,
                    drift_rhs, sort_eigenvalues)

STATE_LABELS = ("alpha1", "alpha1+", "alpha2", "alpha2+",
                "beta1", "beta1+", "beta2", "beta2+")

_DETUNING_TOL = 1e-12
_FD_STEP = 1e-6


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def require_combined_manifold(p: SystemParams, what: str) -> float:
    """The real pump amplitude; raises DetuningMismatchError unless
    Delta_a = J_a, Delta_b = J_b and the pumps are equal and real."""
    if abs(p.Delta_a - p.J_a) > _DETUNING_TOL or abs(p.Delta_b - p.J_b) > _DETUNING_TOL:
        raise DetuningMismatchError(
            f"{what} need Delta_a = J_a and Delta_b = J_b, got "
            f"Delta_a - J_a = {p.Delta_a - p.J_a:.3e}, "
            f"Delta_b - J_b = {p.Delta_b - p.J_b:.3e}")
    if not p.equal_pumps or abs(p.eps1.imag) > _DETUNING_TOL * max(1.0, abs(p.eps1)):
        raise DetuningMismatchError(f"{what} need equal real pumps, got "
                                    f"eps1 = {p.eps1}, eps2 = {p.eps2}")
    return p.eps1.real


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Fluctuation model around the alpha = 0 fixed point.

    A is the complex drift matrix; B is the noise matrix. The full model is
    8x8 in STATE_LABELS ordering, with B nonzero only in its first four
    diagonal entries (principal square roots of the complex pump-field
    products, so the entries are real exactly when the intracavity pump
    fields are real and nonnegative). The combined model is 4x4 in the
    ordering [A_plus, A_plus+, A_minus, A_minus+] with
    A_pm = alpha1 +- alpha2 (unnormalized, so each combined mode carries a
    vacuum variance of 2); its plus and minus 2x2 blocks do not couple.
    """

    A: np.ndarray
    B: np.ndarray

    def diffusion(self) -> np.ndarray:
        """B B^T, the diffusion matrix of the fluctuation equation."""
        return self.B @ self.B.T


def build_linear_model(p: SystemParams) -> LinearModel:
    """Assemble A and B at p's alpha = 0 fixed point.

    A is block diagonal: model.drift_block writes its signal and pump
    blocks, and the alpha-beta coupling blocks, proportional to the steady
    alpha fields, are zero at this fixed point. Detunings enter only on the
    diagonal as gamma +- i*Delta. The matrix itself is well defined at the
    alpha = 0 fixed point on either side of threshold; stability is the
    caller's concern (steady_state gates it).
    """
    ss = _unchecked_state(p)
    m1, m2 = p.kappa * ss.beta1_ss, p.kappa * ss.beta2_ss
    A = np.zeros((8, 8), dtype=complex)
    A[:4, :4] = drift_block(p.gamma_a + 1j * p.Delta_a, 1j * p.J_a, m1, m2)
    A[4:, 4:] = drift_block(p.gamma_b + 1j * p.Delta_b, 1j * p.J_b, 0, 0)
    B = np.zeros((8, 8), dtype=complex)
    for k, m in enumerate((m1, np.conj(m1), m2, np.conj(m2))):
        B[k, k] = np.sqrt(complex(m))
    return LinearModel(A=_frozen(A), B=_frozen(B))


def build_combined_model(p: SystemParams) -> LinearModel:
    """Assemble the 4x4 sum/difference model at p's alpha = 0 fixed point.

    Valid only on the Delta_a = J_a, Delta_b = J_b manifold with equal real
    pumps, where the steady pump field is real and the combined modes
    decouple exactly. Like build_linear_model it does not gate stability.
    """
    require_combined_manifold(p, "combined modes")
    m = p.kappa * _unchecked_state(p).beta1_ss.real
    ga, ja = p.gamma_a, 1j * p.J_a
    A = np.array([
        [ga, -m, 0, 0],
        [-m, ga, 0, 0],
        [0, 0, ga + 2 * ja, -m],
        [0, 0, -m, ga - 2 * ja],
    ], dtype=complex)
    # Each combined mode inherits the sum of its constituents' independent
    # noises: B B^T = 2 kappa beta_ss * identity.
    r = np.sqrt(complex(m))
    B = r * np.array([
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [1, 0, -1, 0],
        [0, 1, 0, -1],
    ], dtype=complex)
    return LinearModel(A=_frozen(A), B=_frozen(B))


def numeric_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of the drift matrix by the dense solver, sorted (Re, Im)."""
    return sort_eigenvalues(dense_eigvals(m.A))


def finite_difference_jacobian(p: SystemParams, x0=None) -> np.ndarray:
    """Central-difference Jacobian (step _FD_STEP) of the noise-free
    equations of motion.

    The drift is polynomial in the 8 doubled variables, so a real step along
    each complex coordinate recovers the full complex partial derivative. At
    the steady state this equals -A entrywise; used as the guard on the
    hand-assembled detuned drift matrix.
    """
    if x0 is None:
        x0 = _unchecked_state(p).vector()
    x0 = np.asarray(x0, dtype=complex)
    jac = np.empty((8, 8), dtype=complex)
    for k in range(8):
        dx = np.zeros(8, dtype=complex)
        dx[k] = _FD_STEP
        jac[:, k] = (drift_rhs(p, x0 + dx) - drift_rhs(p, x0 - dx)) / (2.0 * _FD_STEP)
    return jac
