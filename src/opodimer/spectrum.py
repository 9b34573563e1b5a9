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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceFailureError, DetuningMismatchError,
                     SingularAtFrequencyError)
from .linearized import _frozen
from .model import SystemParams, steady_state

COND_LIMIT = 1e12

_IMAG_RESIDUE_TOL = 1e-10

# Frequencies per block of spectral_matrix: its temporaries, about 4 KB per
# frequency of the 8-variable model, stay near 1 MB whatever n_omega.
_OMEGA_BLOCK = 256


@dataclass(frozen=True, eq=False)
class SpectralMatrix:
    """Raw S(omega) for one model, stacked over frequencies: omega (n_omega,),
    S (n_omega, n, n), and cond (n_omega,), the Frobenius condition number
    |M|_F |M^-1|_F of the resolvent factor M = A + i omega that produced each
    slice. It is at least the 2-norm condition number and at most n times
    it (8 times for the 8-variable model)."""

    omega: np.ndarray
    S: np.ndarray
    cond: np.ndarray


def _frobenius_cond(shifted: np.ndarray, inv) -> np.ndarray:
    """|M|_F |M^-1|_F of every slice of a (n_omega, n, n) stack M, given its
    inverse inv, or inf for the whole stack when inv is None (the
    factorization met an exactly singular slice)."""
    if inv is None:
        return np.full(len(shifted), np.inf)
    sq = []
    for m in (shifted, inv):
        # reshape copies a strided inv, so both sums run over contiguous rows
        v = m.reshape(len(m), m.shape[1] * m.shape[2]).view(float)
        sq.append(np.einsum("ij,ij->i", v, v))
    return np.sqrt(sq[0] * sq[1])


def _solve_block(A, w, rhs, support, live, S_t, cond) -> None:
    """Gate and solve one block of frequencies w into its slices S_t (the
    transposed layout) and cond: see spectral_matrix. rhs is the stack of
    one [I | D's columns in support], support the indices the noise reaches
    and live the rows of left = (A + i omega)^-1 D that the second solve
    takes; the other columns of S_t must already hold zeros."""
    n = A.shape[0]
    shift = 1j * w[:, None, None] * np.eye(n)
    shifted, mirrored = A + shift, A - shift
    del shift
    try:
        x = np.linalg.solve(shifted, rhs)
    except np.linalg.LinAlgError:  # an exactly singular slice: the SVD decides
        x = None
    cond[:] = _frobenius_cond(shifted, None if x is None else x[..., :n])
    suspect = np.flatnonzero(~(cond <= 0.5 * COND_LIMIT))  # nan too
    if len(suspect):
        cond2 = np.linalg.cond(shifted[suspect])
        bad = ~(cond2 <= COND_LIMIT)
        if bad.any():
            k = int(np.argmax(bad))
            raise SingularAtFrequencyError(
                f"condition number {cond2[k]:.3e} of (A + i omega) exceeds "
                f"{COND_LIMIT:.0e} at omega = {w[suspect[k]]:g}")
    if x is None:
        raise SingularAtFrequencyError(
            "the LU factorization of (A + i omega) met an exactly zero pivot "
            f"between omega = {w[0]:g} and {w[-1]:g}")
    del shifted
    # right factor (A^T - i omega)^-1: solve (A - i omega) S^T = left^T,
    # whose column k is row k of left, nonzero only in the support's rows
    rhs_t = np.zeros((len(w), n, len(live)), dtype=complex)
    rhs_t[:, support] = x[:, live, n:].transpose(0, 2, 1)
    S_t[..., live] = np.linalg.solve(mirrored, rhs_t)


def spectral_matrix(model, omegas) -> SpectralMatrix:
    """Evaluate S(omega) at every frequency of omegas (a scalar is one
    frequency) by two stacked linear solves with partial pivoting, one
    factorization of (A + i omega) and one of (A - i omega) per frequency.

    Works for a model of any size (A and B n x n). Raises
    ValueError for a non-finite frequency, and SingularAtFrequencyError
    naming the first frequency where the 2-norm condition number of
    (A + i omega) exceeds COND_LIMIT = 1e12 (or is nan), quoting that number;
    at omega = 0 this signals an at-threshold drift matrix. omegas is
    copied: S.omega is read-only, the caller's array is left as it was.

    The frequencies are taken in consecutive blocks of _OMEGA_BLOCK, each
    gated and solved into its slice of S before the next begins, so the
    memory used beyond S and cond does not grow with n_omega. Every slice
    is solved on its own, so S and cond do not depend on the block size,
    and as each block is gated before its second solve, the error names the
    same first frequency as a gate over the whole stack.

    One solve of (A + i omega) against [I | D's nonzero columns], with
    D = B B^T, serves both the gate and the left factor left = M^-1 D: its
    first n columns are M^-1, the same LAPACK gesv that np.linalg.inv runs
    on the identity, and the others are the nonzero columns of left. When A
    couples no index that the noise reaches (D's nonzero rows and columns,
    the same set since D is symmetric) to any other, as in every
    build_linear_model model, left is zero outside those rows and the
    second solve takes only them; otherwise it takes every row. S is then
    zero outside those rows and columns. The values of S do not depend on
    this, but an exact zero of S may carry either sign.

    The gate takes the SVD (np.linalg.cond) only where it can matter. The
    Frobenius condition number of each slice, from M^-1, is never below the
    2-norm one, so a slice where it is at most COND_LIMIT / 2 passes. The
    factor 2 is a margin for rounding: the computed inverse and the SVD
    carry relative errors of order n * cond * 2.2e-16, under 2e-3 for n = 8
    up to cond = 1e12, so such a slice passes the SVD too. The other slices,
    or the whole block when the factorization meets an exactly singular
    slice, go to np.linalg.cond, which decides as before. Near
    threshold only the frequencies next to the critical one take the SVD:
    on the symmetric model with unit damping and coupling and no detuning,
    the Frobenius value at omega = 0 is sqrt(6) times the 2-norm one, so the
    SVD runs once 1 - pump_fraction falls below about 1e-11 (a 2-norm value
    above 2e11).
    """
    omegas = np.atleast_1d(np.array(omegas, dtype=float))
    if omegas.ndim != 1:
        raise ValueError(f"omegas must be a scalar or 1-D, got shape {omegas.shape}")
    if not np.isfinite(omegas).all():
        raise ValueError(f"omegas must be finite, got {omegas}")
    A = model.A
    n = A.shape[0]
    diffusion = model.diffusion()
    noisy = diffusion.any(axis=0)
    support = np.flatnonzero(noisy)
    # an entry of A between an index the noise reaches and one it does not
    coupled = A[noisy[:, None] != noisy].any()
    live = np.arange(n) if coupled else support
    # a stack of one: numpy < 2.0 reads a b with one axis less than a as a
    # stack of vectors
    rhs = np.concatenate((np.eye(n), diffusion[:, support]), axis=1)[None]
    # S keeps the transposed layout of the solve: each slice then projects
    # with the same summation order as a single-frequency solve, so the
    # printed digits do not depend on n_omega.
    S_t = np.zeros((len(omegas), n, n), dtype=complex)
    cond = np.empty(len(omegas))
    for start in range(0, len(omegas), _OMEGA_BLOCK):
        block = slice(start, start + _OMEGA_BLOCK)
        _solve_block(A, omegas[block], rhs, support, live, S_t[block], cond[block])
    return SpectralMatrix(omega=_frozen(omegas), S=_frozen(S_t.transpose(0, 2, 1)),
                          cond=_frozen(cond))


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


def output_moment(S: SpectralMatrix, terms1, terms2, gamma_a: float) -> np.ndarray:
    """Output-normalized symmetrized moment of two quadrature combinations at
    every frequency of the stack: shape (n_omega,), or (n_omega, n_theta) for
    a 1-D array of term angles.

    value = vacuum_baseline(terms1, terms2)
            + 2 gamma_a * Re[(c1.S.c2 + c2.S.c1)/2],

    a vacuum variance of 1 per unit weight of each mode, as for the bare
    modes of the 8-variable model. A variance (terms2 is terms1, the same
    object) is projected once: both products are then the same array P,
    and (P + P)/2 is P bit for bit, as doubling and halving a float are
    exact short of overflow past 8.9e307. Taking the real part implements the
    +-omega average exactly: conjugation symmetry of the doubled phase space
    gives S(-w) = C S(w)* C with C the pairwise slot swap, under which the
    symmetrized projection conjugates. Raises ConvergenceFailureError naming
    the first frequency whose projection keeps an imaginary residue above
    1e-10 times both max(1, |v|) and max(1, |c1| |S| |c2|), the scale of its
    roundoff.
    """
    mat = S.S
    c1 = coefficient_vector(mat.shape[-1], terms1)
    c2 = c1 if terms2 is terms1 else coefficient_vector(mat.shape[-1], terms2)
    v = (c1 @ mat)[..., None, :] @ c2[..., :, None]
    if c2 is not c1:
        v = 0.5 * (v + (c2 @ mat)[..., None, :] @ c1[..., :, None])
    v = v[..., 0, 0]
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
    return vacuum_baseline(terms1, terms2) + 2.0 * gamma_a * v.real


def _supermode_terms(p: SystemParams, omega: float) -> list:
    """Normally ordered output terms (xx, yy, xy) at lab angle 0 of the
    signal supermodes a+- = (a1 +- a2)/sqrt(2): P, of detuning delta =
    Delta_a - J_a, then M, of delta = Delta_a + J_a.

    Equal pumps give both the pair term m = kappa beta_ss and independent
    noise, so each is one detuned degenerate OPO below threshold (Collett &
    Gardiner 1984, Phys. Rev. A 30, 1386). In the frame that makes
    m = |m| e^{i phi} real, its terms are 2 gamma_a times

        S_xx = 2|m| [(gamma_a + |m|)^2 + omega^2 - delta^2] / |det|^2,
        S_yy = 2|m| [delta^2 - (gamma_a - |m|)^2 - omega^2] / |det|^2,
        S_xy = -4 |m| gamma_a delta / |det|^2,

    |det|^2 = (gamma_a^2 - |m|^2 + delta^2 - omega^2)^2 + 4 gamma_a^2 omega^2,
    and lab angle 0 is that frame's angle -phi/2. Raises
    DetuningMismatchError for unequal pumps and AboveThresholdError, from
    steady_state, at or above threshold.
    """
    if not p.equal_pumps:
        raise DetuningMismatchError("closed forms need equal pumps, got "
                                    f"eps1 = {p.eps1}, eps2 = {p.eps2}")
    r, phi = cmath.polar(p.kappa * steady_state(p).beta1_ss)
    c, s = math.cos(0.5 * phi), math.sin(0.5 * phi)
    g, w2 = p.gamma_a, omega * omega
    terms = []
    for delta in (p.Delta_a - p.J_a, p.Delta_a + p.J_a):
        d2 = delta * delta
        k = 4.0 * g * r / ((g * g - r * r + d2 - w2) ** 2 + 4.0 * g * g * w2)
        xx, yy = k * ((g + r) ** 2 + w2 - d2), k * (d2 - (g - r) ** 2 - w2)
        xy = -2.0 * k * g * delta
        terms.append((c * c * xx + s * s * yy - 2.0 * c * s * xy,
                      s * s * xx + c * c * yy + 2.0 * c * s * xy,
                      c * s * (xx - yy) + (c * c - s * s) * xy))
    return terms


def analytic_variances(p: SystemParams, omega: float) -> dict:
    """Closed-form single-mode output spectra at local-oscillator angle zero,
    for equal pumps below threshold (_supermode_terms): S_X, S_Y (variances
    at theta = 0, pi/2), the single-mode covariance V_XY, and the cross-mode
    covariances V_X1X2, V_Y1Y2. omega: a float or a 1-D numpy array."""
    (px, py, pxy), (mx, my, mxy) = _supermode_terms(p, omega)
    return {"S_X": 1.0 + 0.5 * (px + mx), "S_Y": 1.0 + 0.5 * (py + my),
            "V_XY": 0.5 * (pxy + mxy),
            "V_X1X2": 0.5 * (px - mx), "V_Y1Y2": 0.5 * (py - my)}


def analytic_combined(p: SystemParams, omega: float) -> dict:
    """Closed-form output spectra of the unnormalized sum X1 + X2 (P) and
    difference X1 - X2 (M) quadratures at angle zero, for equal pumps below
    threshold (_supermode_terms). omega: a float or a 1-D numpy array."""
    (px, py, _), (mx, my, _) = _supermode_terms(p, omega)
    return {"S_Xp": 2.0 + 2.0 * px, "S_Yp": 2.0 + 2.0 * py,
            "S_Xm": 2.0 + 2.0 * mx, "S_Ym": 2.0 + 2.0 * my}
