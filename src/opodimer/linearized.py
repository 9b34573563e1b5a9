"""Drift and noise matrices of the linearized fluctuation analysis.

Fluctuations about the below-threshold steady state obey the multivariate
Ornstein-Uhlenbeck equation

    d(dx) = -A dx dt + B dW,

with dx in the package-wide ordering [alpha1, alpha1+, alpha2, alpha2+,
beta1, beta1+, beta2, beta2+] and dW a vector of independent real Wiener
increments. This module holds the linear model alone; the supermode
closed forms live in spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemParams, _signal_blocks, drift_block

STATE_LABELS = ("alpha1", "alpha1+", "alpha2", "alpha2+",
                "beta1", "beta1+", "beta2", "beta2+")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Fluctuation model around the alpha = 0 fixed point.

    A is the complex drift matrix; B is the noise matrix. build_linear_model
    makes them 8x8 in STATE_LABELS ordering, with B nonzero only in its
    first four diagonal entries (principal square roots of the complex
    pump-field products, so the entries are real exactly when the
    intracavity pump fields are real and nonnegative).
    """

    A: np.ndarray
    B: np.ndarray

    def diffusion(self) -> np.ndarray:
        """B B^T, the diffusion matrix of the fluctuation equation."""
        return self.B @ self.B.T


def build_linear_model(p: SystemParams) -> LinearModel:
    """Assemble A and B at p's alpha = 0 fixed point.

    A is block diagonal: model._signal_blocks gives its signal block and
    the pair terms kappa beta_ss that B is built from, model.drift_block its
    pump block, and the alpha-beta coupling blocks, proportional to the
    steady alpha fields, are zero at this fixed point. Detunings enter only
    on the diagonal as gamma +- i*Delta. The matrix itself is well defined
    at the alpha = 0 fixed point on either side of threshold; stability is
    the caller's concern (steady_state gates it).
    """
    signal, ((m1, m2),) = _signal_blocks([p])
    A = np.zeros((8, 8), dtype=complex)
    A[:4, :4] = signal[0]
    A[4:, 4:] = drift_block(p.gamma_b + 1j * p.Delta_b, 1j * p.J_b, 0, 0)
    B = np.zeros((8, 8), dtype=complex)
    for k, m in enumerate((m1, np.conj(m1), m2, np.conj(m2))):
        B[k, k] = np.sqrt(complex(m))
    return LinearModel(A=_frozen(A), B=_frozen(B))
