"""Parameter sets, models and moments shared by the test modules, and the
oracles the tests check the package against: the supermode closed-form
drift eigenvalues of every equal-pump set, the finite-difference Jacobian,
the 4x4 sum/difference model of the Delta = J manifold, the (Re, Im)
eigenvalue order, the stationary signal covariance, the spectral matrix by
an inverse and two full solves, and a bit-for-bit array comparison."""

import math

import numpy as np

from opodimer.errors import DetuningMismatchError
from opodimer.linearized import LinearModel, _frozen, build_linear_model
from opodimer.model import (SystemParams, _unchecked_state, drift_rhs,
                            steady_state)
from opodimer.spectrum import (_OMEGA_BLOCK, SpectralMatrix, output_moment,
                               spectral_matrix)

_EIG_REAL_TOL = 1e-9
_FD_STEP = 1e-6


# detuned, with unequal complex pumps: off both closed forms' manifolds
DETUNED_COMPLEX = SystemParams(kappa=0.013, gamma_a=1.2, gamma_b=0.7, J_a=0.3,
                               J_b=-0.4, Delta_a=0.3, Delta_b=-1.1,
                               eps1=30 + 20j, eps2=-15 + 2.5j)


# J_a, J_b each +0, -0, positive and negative, at Delta = -0 with pumps that
# have a -0 part: a kernel that folds the '+' rows' sign into the coupling
# coefficient gets the sign of zeros wrong here
SIGNED_ZERO_POINTS = [
    SystemParams(kappa=0.013, gamma_a=1.2, gamma_b=0.7, J_a=j_a, J_b=j_b,
                 Delta_a=-0.0, Delta_b=-0.0, eps1=complex(-0.0, 2.5),
                 eps2=complex(3.0, -0.0))
    for j_a in (0.0, -0.0, 0.7, -1.3) for j_b in (0.0, -0.0, 0.7, -1.3)]


def assert_same_bits(got, want):
    """NaN in the same places, and the same bits everywhere else."""
    got, want = got.view(float), want.view(float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.uint64)[~nan], want.view(np.uint64)[~nan])


def sym(**kw):
    base = dict(kappa=0.01, gamma_a=1.0, gamma_b=1.0, J_a=1.0, J_b=1.0,
                Delta_a=0.0, Delta_b=0.0, pump_fraction=0.5)
    base.update(kw)
    return SystemParams.symmetric(**base)


def model_for(p):
    steady_state(p)  # raises AboveThresholdError at or above threshold
    return build_linear_model(p)


def numeric_moments(p, omega, theta=0.0):
    S = spectral_matrix(model_for(p), omega)
    qx = [(1, theta, 1.0)]
    qy = [(1, theta + math.pi / 2, 1.0)]
    qx2 = [(2, theta, 1.0)]
    qy2 = [(2, theta + math.pi / 2, 1.0)]
    ga = p.gamma_a
    return {
        "S_X": output_moment(S, qx, qx, ga),
        "S_Y": output_moment(S, qy, qy, ga),
        "V_XY": output_moment(S, qx, qy, ga),
        "V_X1X2": output_moment(S, qx, qx2, ga),
        "V_Y1Y2": output_moment(S, qy, qy2, ga),
    }


def sort_eigenvalues(values) -> np.ndarray:
    """Canonical (Re, Im) lexicographic order, for cross-path comparison.

    Real parts within _EIG_REAL_TOL (scaled) are treated as ties so that exact
    analytic multiplets and their numerically fuzzed counterparts sort into
    the same sequence.
    """
    values = np.asarray(values, dtype=complex)
    if values.size == 0:
        return values
    v = values[np.argsort(values.real, kind="stable")]
    tol = _EIG_REAL_TOL * max(1.0, float(np.abs(v.real).max()))
    groups = []
    i = 0
    while i < len(v):
        j = i + 1
        while j < len(v) and v[j].real - v[i].real <= tol:
            j += 1
        block = v[i:j]
        groups.append(block[np.argsort(block.imag, kind="stable")])
        i = j
    return np.concatenate(groups)


def supermode_eigenvalues(p: SystemParams) -> np.ndarray:
    """The 8 drift eigenvalues at the alpha = 0 fixed point in closed form,
    for equal pumps on either side of threshold: the signal supermodes
    (a1 +- a2)/sqrt(2), of detunings delta = Delta_a -+ J_a, each give

        gamma_a +- sqrt(|m|^2 - delta^2),    m = kappa beta_ss

    (the principal square root turns a negative argument into an imaginary
    pair), and the pump block gives gamma_b + i(Delta_b +- J_b) and their
    conjugates.
    """
    assert p.equal_pumps, p
    m2 = abs(p.kappa * _unchecked_state(p).beta1_ss) ** 2
    signal = [p.gamma_a + sign * np.sqrt(complex(m2 - delta ** 2))
              for delta in (p.Delta_a - p.J_a, p.Delta_a + p.J_a)
              for sign in (1, -1)]
    pump = np.array([complex(p.gamma_b, p.Delta_b + p.J_b),
                     complex(p.gamma_b, p.Delta_b - p.J_b)])
    return np.concatenate([signal, pump, pump.conj()])


def build_combined_model(p: SystemParams) -> LinearModel:
    """Assemble the 4x4 sum/difference model at p's alpha = 0 fixed point.

    Valid only on the Delta_a = J_a, Delta_b = J_b manifold with equal real
    pumps below threshold, where the steady pump field is real and the
    combined modes decouple exactly. Raises DetuningMismatchError off that
    manifold or off equal real pumps, and AboveThresholdError at or above
    threshold. The ordering is [A_plus, A_plus+, A_minus, A_minus+] with
    A_pm = alpha1 +- alpha2 (unnormalized, so each combined mode carries a
    vacuum variance of 2); its plus and minus 2x2 blocks do not couple.
    """
    off = (p.Delta_a - p.J_a, p.Delta_b - p.J_b)
    if any(off) or not p.equal_pumps or p.eps1.imag != 0.0:
        raise DetuningMismatchError(
            f"the combined model needs the Delta = J manifold with equal real "
            f"pumps, got Delta - J = {off}, eps1 = {p.eps1}, eps2 = {p.eps2}")
    m = p.kappa * steady_state(p).beta1_ss.real  # raises above threshold
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


def signal_covariance(m: LinearModel) -> np.ndarray:
    """Stationary covariance of the 4x4 signal block of an 8x8 model: the
    Sigma of A_s Sigma + Sigma A_s^T = (B B^T)_s, by one Kronecker solve.

    Below threshold the pump block carries no noise and does not couple to
    the signal block, so the other blocks of the 8x8 covariance are 0.
    """
    a, d = m.A[:4, :4], m.diffusion()[:4, :4]
    eye = np.eye(4)
    vec = np.linalg.solve(np.kron(a, eye) + np.kron(eye, a), d.reshape(16))
    return vec.reshape(4, 4)


def _frobenius_sq(m) -> np.ndarray:
    v = m.reshape(len(m), m.shape[1] * m.shape[2]).view(float)
    return np.einsum("ij,ij->i", v, v)


def reference_spectral_matrix(model, omegas) -> SpectralMatrix:
    """S(omega) and cond by the route spectral_matrix took before one
    factorization served the gate and the left factor: in the same blocks
    of _OMEGA_BLOCK frequencies, an inverse of each (A + i omega) for cond,
    then two full solves, every column of every right-hand side. It has no
    singularity gate."""
    omegas = np.atleast_1d(np.array(omegas, dtype=float))
    A = model.A
    n = A.shape[0]
    eye, diffusion = np.eye(n), model.diffusion()
    S_t = np.empty((len(omegas), n, n), dtype=complex)
    cond = np.empty(len(omegas))
    for start in range(0, len(omegas), _OMEGA_BLOCK):
        block = slice(start, start + _OMEGA_BLOCK)
        shift = 1j * omegas[block][:, None, None] * eye
        shifted = A + shift
        inv = np.linalg.inv(shifted)
        cond[block] = np.sqrt(_frobenius_sq(shifted) * _frobenius_sq(inv))
        del inv
        left = np.linalg.solve(shifted, np.broadcast_to(diffusion, shifted.shape))
        S_t[block] = np.linalg.solve(A - shift, left.transpose(0, 2, 1))
    return SpectralMatrix(omega=omegas, S=S_t.transpose(0, 2, 1), cond=cond)
