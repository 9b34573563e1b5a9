"""Stationary spectral matrix and quadrature projections.

For the linear fluctuation equation d(dx) = -A dx dt + B dW the stationary
two-frequency correlations are

    S(omega) = (A + i omega 1)^-1 B B^T (A^T - i omega 1)^-1,

normally ordered and intracavity. Projecting S onto quadrature coefficient
vectors and applying the input-output relation S_out = baseline + 2 gamma_a V
gives every measurable spectrum handled by this package. The coherent-state
baseline is 1 per unit-weight single mode; a combination's baseline follows
from the same commutator algebra (see vacuum_baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailureError, DomainError, SingularAtFrequencyError
from .linearized import _frozen, require_combined_manifold
from .model import SystemParams, steady_state

COND_LIMIT = 1e12

_IMAG_RESIDUE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SpectralMatrix:
    """Raw S(omega) for one model, stacked over frequencies: omega (n_omega,),
    S (n_omega, n, n), and cond (n_omega,), the conditioning of the resolvent
    factor that produced each slice."""

    omega: np.ndarray
    S: np.ndarray
    cond: np.ndarray


def spectral_matrix(model, omegas) -> SpectralMatrix:
    """Evaluate S(omega) at every frequency of omegas (a scalar is one
    frequency) by two stacked linear solves with partial pivoting.

    Works for the 8x8 model and the 4x4 combined model alike. Raises
    ValueError for a non-finite frequency, and SingularAtFrequencyError
    naming the first frequency where (A + i omega) is ill-conditioned beyond
    1e12, which at omega = 0 signals an at-threshold drift matrix.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if omegas.ndim != 1:
        raise ValueError(f"omegas must be a scalar or 1-D, got shape {omegas.shape}")
    if not np.isfinite(omegas).all():
        raise ValueError(f"omegas must be finite, got {omegas}")
    A = model.A
    shift = 1j * omegas[:, None, None] * np.eye(A.shape[0])
    shifted = A + shift
    cond = np.linalg.cond(shifted)
    bad = ~(cond <= COND_LIMIT)  # also catches nan
    if bad.any():
        k = int(np.argmax(bad))
        raise SingularAtFrequencyError(
            f"condition number {cond[k]:.3e} of (A + i omega) exceeds {COND_LIMIT:.0e} "
            f"at omega = {omegas[k]:g}")
    left = np.linalg.solve(shifted, model.diffusion())
    # right factor (A^T - i omega)^-1: solve (A - i omega) Y^T = left^T,
    # then Y = left (A^T - i omega)^-1. S keeps the transposed layout of the
    # solve: each slice then projects with the same summation order as a
    # single-frequency solve, so the printed digits do not depend on n_omega.
    S = np.linalg.solve(A - shift, left.transpose(0, 2, 1)).transpose(0, 2, 1)
    return SpectralMatrix(omega=_frozen(omegas), S=_frozen(S), cond=_frozen(cond))


def coefficient_vector(n: int, terms) -> np.ndarray:
    """Quadrature-combination coefficients in the doubled ordering.

    terms is a sequence of (mode, theta, weight); the selected mode's bare
    slot receives weight * e^{-i theta} and its '+' slot weight * e^{+i theta}.
    The mode is 1 or 2 (the signal modes; the pumps are not quadratures at
    the signal outputs). A 1-D array of angles (the same for every term)
    gives one coefficient vector per angle, shape (n_theta, n).
    """
    c = np.zeros((n,) + np.shape(terms[0][1]), dtype=complex)
    for mode, theta, weight in terms:
        if mode not in (1, 2):
            raise ValueError(f"mode must be 1 or 2, got {mode!r}")
        s = 2 * (mode - 1)
        c[s] += weight * np.exp(-1j * theta)
        c[s + 1] += weight * np.exp(1j * theta)
    return c.T


def vacuum_baseline(terms1, terms2):
    """Coherent-state (vacuum) moment of two quadrature combinations.

    Every same-mode pair contributes w1 w2 cos(theta1 - theta2) per unit of
    the mode's vacuum variance; cross-mode pairs contribute nothing. This
    reduces to 1 for a variance, 0 for orthogonal-quadrature or cross-mode
    covariances. A 1-D array of angles gives one baseline per angle.
    """
    base = 0.0
    for m1, t1, w1 in terms1:
        for m2, t2, w2 in terms2:
            if m1 == m2:
                base += w1 * w2 * np.cos(t1 - t2)
    return base


def output_moment(S: SpectralMatrix, terms1, terms2, gamma_a: float,
                  unit_baseline: float = 1.0) -> np.ndarray:
    """Output-normalized symmetrized moment of two quadrature combinations at
    every frequency of the stack: shape (n_omega,), or (n_omega, n_theta) for
    a 1-D array of term angles.

    value = unit_baseline * vacuum term + 2 gamma_a * Re[(c1.S.c2 + c2.S.c1)/2].
    Taking the real part implements the +-omega average exactly: conjugation
    symmetry of the doubled phase space gives S(-w) = C S(w)* C with C the
    pairwise slot swap, under which the symmetrized projection conjugates.
    unit_baseline is the vacuum variance carried by one unit of mode weight
    (1 for bare modes, 2 for the unnormalized sum/difference modes). Raises
    ConvergenceFailureError naming the first frequency whose projection keeps
    an imaginary residue above 1e-10 times both max(1, |v|) and
    max(1, |c1| |S| |c2|), the scale of its roundoff.
    """
    mat = S.S
    c1 = coefficient_vector(mat.shape[-1], terms1)
    c2 = coefficient_vector(mat.shape[-1], terms2)
    v = 0.5 * ((c1 @ mat)[..., None, :] @ c2[..., :, None]
               + (c2 @ mat)[..., None, :] @ c1[..., :, None])[..., 0, 0]
    bad = np.abs(v.imag) > _IMAG_RESIDUE_TOL * np.maximum(1.0, np.abs(v))
    if bad.any():
        # a moment that vanishes while S is large keeps the roundoff of S
        scale = ((np.abs(c1) @ np.abs(mat))[..., None, :]
                 @ np.abs(c2)[..., :, None])[..., 0, 0]
        bad &= np.abs(v.imag) > _IMAG_RESIDUE_TOL * np.maximum(1.0, scale)
    if bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)
        raise ConvergenceFailureError(
            f"imaginary residue {v.imag[k]:.3e} in quadrature projection "
            f"at omega = {S.omega[k[0]]:g}")
    base = unit_baseline * vacuum_baseline(terms1, terms2)
    return base + 2.0 * gamma_a * v.real


def analytic_variances(p: SystemParams, omega: float) -> dict:
    """Closed-form resonant output spectra at local-oscillator angle zero.

    Valid at zero detuning with equal real pumps below threshold. Returns
    S_X, S_Y (variances at theta = 0, pi/2), the single-mode covariance
    V_XY, and the cross-mode covariances V_X1X2, V_Y1Y2 = -V_X1X2. The sign
    of the J_b^2 cross term in S_Y is fixed by the pump-reversal symmetry
    S_X(-eps) = S_Y(eps); with the opposite sign the form disagrees with the
    numeric pipeline by up to hundreds of percent (see tests).
    """
    if not p.resonant:
        raise DomainError(
            f"resonant closed forms need Delta_a = Delta_b = 0, got "
            f"Delta_a = {p.Delta_a:g}, Delta_b = {p.Delta_b:g}")
    if not p.equal_pumps or p.eps1.imag != 0.0:
        raise DomainError("resonant closed forms need equal real pumps, got "
                          f"eps1 = {p.eps1}, eps2 = {p.eps2}")
    eps = p.eps1.real
    steady_state(p)  # raises AboveThresholdError at or above threshold
    ga, gb, ja, jb = p.gamma_a, p.gamma_b, p.J_a, p.J_b
    gta2 = ga * ga + ja * ja
    gtb2 = gb * gb + jb * jb
    ke = p.kappa * eps
    w2 = omega * omega
    den = 4.0 * ga * ga * gtb2 * gtb2 * w2 + (gtb2 * (gta2 - w2) - ke * ke) ** 2
    core = gb * (gtb2 * (w2 - ja * ja) + jb * jb * ga * ga)
    s_x = 1.0 + 4.0 * ga * ke * (core + gb * (ga * gb + ke) ** 2
                                 + 2.0 * ga * jb * jb * ke) / den
    s_y = 1.0 - 4.0 * ga * ke * (core + gb * (ga * gb - ke) ** 2
                                 - 2.0 * ga * jb * jb * ke) / den
    v_xy = 4.0 * ga * jb * ke * (gtb2 * (ga * ga - ja * ja + w2) + ke * ke) / den
    v_x1x2 = -8.0 * ja * jb * ga * ga * gtb2 * ke / den
    return {"S_X": s_x, "S_Y": s_y, "V_XY": v_xy,
            "V_X1X2": v_x1x2, "V_Y1Y2": -v_x1x2}


def analytic_combined(p: SystemParams, omega: float) -> dict:
    """Closed-form output spectra of the sum/difference quadratures.

    Valid on the Delta_a = J_a, Delta_b = J_b manifold with equal real pumps
    below threshold, where the intracavity pump field kappa*beta_ss =
    kappa*eps/gamma_b is real. The sum-mode pair is exactly two uncoupled
    single-downconverter spectra stacked; the difference mode carries the
    shifted resonance at 2 J_a.
    """
    eps = require_combined_manifold(p, "combined closed forms")
    steady_state(p)  # raises AboveThresholdError at or above threshold
    ga, gb, ja = p.gamma_a, p.gamma_b, p.J_a
    ke = p.kappa * eps
    w2 = omega * omega
    s_xp = 2.0 + 8.0 * ga * gb * ke / ((ga * gb - ke) ** 2 + gb * gb * w2)
    s_yp = 2.0 - 8.0 * ga * gb * ke / ((ga * gb + ke) ** 2 + gb * gb * w2)
    den_m = (gb * gb * (ga * ga + 4.0 * ja * ja - w2) - ke * ke) ** 2 \
        + 4.0 * ga * ga * gb ** 4 * w2
    s_xm = 2.0 + 8.0 * ga * gb * ke * ((ga * gb + ke) ** 2
                                       - gb * gb * (4.0 * ja * ja - w2)) / den_m
    s_ym = 2.0 - 8.0 * ga * gb * ke * ((ga * gb - ke) ** 2
                                       - gb * gb * (4.0 * ja * ja - w2)) / den_m
    return {"S_Xp": s_xp, "S_Yp": s_yp, "S_Xm": s_xm, "S_Ym": s_ym}
