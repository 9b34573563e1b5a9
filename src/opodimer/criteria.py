"""Squeezing and entanglement figures of merit at the cavity outputs.

All quantities here are output spectral densities in the convention where a
coherent state sits exactly at 1 per mode. Squeezing of a single output means
a variance below 1; the unnormalized two-mode sum/difference witnesses sit
against 4; the inference (EPR) product sits against 1.

The witnesses take a SpectralMatrix stack (see spectral_stack) and return one
value per frequency of it: one stacked solve serves a whole sweep.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateVarianceError
from .linearized import build_linear_model
from .model import SystemParams, steady_state
from .spectrum import SpectralMatrix, output_moment, spectral_matrix

DUAN_PAIRINGS = ("xminus_yplus", "xplus_yminus")
# Period in theta of each objective: every moment has period pi, and
# theta -> theta + pi/2 swaps the X and Y factors of the EPR product.
PERIODS = {"squeezing": math.pi, "duan": math.pi, "epr": math.pi / 2}
OBJECTIVES = tuple(PERIODS)
# Names of the witness_flags, in order.
FLAGS = ("squeezed", "entangled", "epr")

# (mode, weight) pairs of mode 1, mode 2, their sum p and difference m
_COMBINATIONS = {"1": ((1, 1.0),), "2": ((2, 1.0),),
                 "p": ((1, 1.0), (2, 1.0)), "m": ((1, 1.0), (2, -1.0))}

# Three angles whose z = e^{2i theta} are the cube roots of unity.
_THIRDS = np.array([0.0, math.pi / 3, 2 * math.pi / 3])


def quadrature(name: str, theta=0.0) -> list:
    """(mode, angle, weight) terms of one output quadrature.

    name is X or Y followed by 1 or 2 (one mode), p (the unnormalized sum
    X1 + X2) or m (the difference X1 - X2). X sits at angle theta and Y at
    theta + pi/2; a 1-D array of angles gives one quadrature per angle.
    """
    kind, which = name[:1], name[1:]
    if kind not in ("X", "Y") or which not in _COMBINATIONS:
        raise ValueError(f"unknown quadrature {name!r}")
    ang = theta + math.pi / 2 if kind == "Y" else theta
    return [(mode, ang, weight) for mode, weight in _COMBINATIONS[which]]


def spectral_stack(p: SystemParams, omegas) -> SpectralMatrix:
    """S(omega) of the linearized model at p's steady state, one stacked
    solve over every frequency of omegas."""
    steady_state(p)  # raises AboveThresholdError at or above threshold
    return spectral_matrix(build_linear_model(p), omegas)


def single_mode_moments(S: SpectralMatrix, gamma_a: float, theta=0.0) -> tuple:
    """(S_X, S_Y, V_XY) of mode 1 at angle theta (Y is theta + pi/2), one
    (n_omega,) array each."""
    x, y = quadrature("X1", theta), quadrature("Y1", theta)
    return (output_moment(S, x, x, gamma_a), output_moment(S, y, y, gamma_a),
            output_moment(S, x, y, gamma_a))


def _variance(S: SpectralMatrix, name: str, theta, gamma_a: float) -> np.ndarray:
    """Output variance of the quadrature name at angle theta, projected once."""
    terms = quadrature(name, theta)
    return output_moment(S, terms, terms, gamma_a)


def duan_sum(S: SpectralMatrix, gamma_a: float, theta=0.0,
             pairing: str = "xminus_yplus") -> np.ndarray:
    """Unnormalized sum-criterion witness; separable states sit at >= 4.

    pairing picks which quadrature rides the difference mode:
    "xminus_yplus" is V(X1-X2) + V(Y1+Y2), "xplus_yminus" the transpose.
    Both use the angle-theta frame (X at theta, Y at theta + pi/2). A 1-D
    array of angles adds a trailing axis to the (n_omega,) result.
    """
    if pairing not in DUAN_PAIRINGS:
        raise ValueError(f"pairing must be one of {DUAN_PAIRINGS}, got {pairing!r}")
    x, y = ("Xm", "Yp") if pairing == "xminus_yplus" else ("Xp", "Ym")
    return _variance(S, x, theta, gamma_a) + _variance(S, y, theta, gamma_a)


def _inference_modes(infer_from: int) -> tuple:
    """(i, j): the conditioning mode i = infer_from and the inferred mode j."""
    if infer_from not in (1, 2):
        raise ValueError(f"infer_from must be 1 or 2, got {infer_from!r}")
    return infer_from, 3 - infer_from


def epr_product(S: SpectralMatrix, gamma_a: float, theta=0.0,
                infer_from: int = 1) -> np.ndarray:
    """Product of inference variances; EPR steering below 1.

    Inference of mode j's quadratures from mode i = infer_from at the optimal
    linear gain: S_inf(Q_j) = S(Q_j) - V(Q_i, Q_j)^2 / S(Q_i), evaluated for
    Q = X and Q = Y in the angle-theta frame. Shaped like duan_sum.
    """
    return _inference_product(S, theta, infer_from,
                              _mode_moments(S, gamma_a, theta, infer_from))


def _mode_moments(S: SpectralMatrix, gamma_a: float, theta, infer_from: int,
                  mode1=None) -> dict:
    """The six mode moments of the EPR product at angle theta: the variances
    keyed "X1", "Y1", "X2", "Y2" and the cross-mode covariances
    V(Q_i, Q_j), i = infer_from, keyed "X" and "Y". mode1, when given, is
    the (V(X1), V(Y1)) pair already projected, which is not projected again."""
    i, j = _inference_modes(infer_from)
    moments = dict(zip(("X1", "Y1"), mode1 or ()))
    for name in ("X1", "Y1", "X2", "Y2"):
        if name not in moments:
            moments[name] = _variance(S, name, theta, gamma_a)
    for kind in "XY":
        moments[kind] = output_moment(S, quadrature(f"{kind}{i}", theta),
                                      quadrature(f"{kind}{j}", theta), gamma_a)
    return moments


def _inference_product(S: SpectralMatrix, theta, infer_from: int,
                       moments: dict) -> np.ndarray:
    """epr_product from the six moments of _mode_moments. Raises
    DegenerateVarianceError, naming the frequency and the quadrature's angle,
    where a conditioning variance falls below 1e-14."""
    i, j = _inference_modes(infer_from)
    prod = 1.0
    for kind in "XY":
        vi, vj, vij = moments[f"{kind}{i}"], moments[f"{kind}{j}"], moments[kind]
        low = vi < 1e-14
        if low.any():
            k = np.unravel_index(np.argmax(low), low.shape)
            angle = quadrature(f"{kind}{i}", theta)[0][1]
            raise DegenerateVarianceError(
                f"conditioning variance {vi[k]:.3e} too small to divide by "
                f"at omega = {S.omega[k[0]]:g}, "
                f"theta = {np.broadcast_to(angle, low.shape)[k]:g}")
        prod = prod * (vj - vij * vij / vi)
    return prod


def combined_variances(S: SpectralMatrix, gamma_a: float) -> dict:
    """Numeric sum/difference output spectra (theta = 0 frame) from the full
    model, one (n_omega,) array per name; agrees with the 4x4 route on the
    Delta = J manifold but is defined for any stable parameter set."""
    return {f"S_{name}": _variance(S, name, 0.0, gamma_a)
            for name in ("Xp", "Yp", "Xm", "Ym")}


def witness_table(S: SpectralMatrix, gamma_a: float, theta: float = 0.0,
                  duan_pairing: str = "xminus_yplus",
                  epr_infer_from: int = 1) -> dict:
    """Mode-1 moments and both witnesses at angle theta, one (n_omega,)
    array per column of the spectrum CSV. The EPR product reuses the mode-1
    variances, so each distinct moment is projected once."""
    s_x, s_y, cov_xy = single_mode_moments(S, gamma_a, theta)
    duan = duan_sum(S, gamma_a, theta, duan_pairing)
    moments = _mode_moments(S, gamma_a, theta, epr_infer_from, (s_x, s_y))
    return {"S_X": s_x, "S_Y": s_y, "cov_XY": cov_xy, "duan_sum": duan,
            "epr_product": _inference_product(S, theta, epr_infer_from, moments)}


def witness_flags(table: dict) -> dict:
    """Which frequencies of a witness_table beat each classical bound, one
    (n_omega,) boolean array per flag of FLAGS, in that order: a mode-1
    variance below 1, the Duan sum below 4, the EPR product below 1."""
    return dict(zip(FLAGS, (np.minimum(table["S_X"], table["S_Y"]) < 1.0,
                            table["duan_sum"] < 4.0,
                            table["epr_product"] < 1.0)))


def _laurent(samples) -> np.ndarray:
    """Coefficients of z^-1, z^0, z^1 (z = e^{2i theta}) of a moment
    sampled at the angles _THIRDS."""
    return np.fft.fftshift(np.fft.fft(samples)) / 3.0


def _powers(c) -> np.ndarray:
    """Powers of z carried by Laurent coefficients c, centred on z^0."""
    return np.arange(len(c)) - len(c) // 2


def optimize_angle(p: SystemParams, omega: float, objective: str = "squeezing",
                   *, pairing: str = "xminus_yplus",
                   infer_from: int = 1) -> tuple:
    """Minimize one figure of merit over the local-oscillator angle, exactly.

    Every moment at angle theta is a + b cos 2theta + c sin 2theta, a
    Laurent polynomial of degree 1 in z = e^{2i theta}, so its values at
    theta = 0, pi/3, 2pi/3 fix it. Each objective is written as num/den: the
    mode-1 variance ("squeezing") and duan_sum are num itself (den = 1);
    the EPR product is N(z)N(-z) / (v_i(z)v_i(-z)) with
    N = v_i v_j - v_ij^2. The witness is evaluated, as one stacked
    projection, at the angles of the roots of num' den - num den' and at
    theta = 0 (which covers a flat objective), and the smallest value wins.
    S(omega) is solved once for all of it.

    Returns (theta, value) with theta in [0, pi), or in [0, pi/2) for "epr":
    theta -> theta + pi/2 swaps its X and Y factors, so its period is pi/2.
    Within one period the EPR product can have two distinct minima of equal
    value; argmin then takes the first candidate, deterministically.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    S = spectral_stack(p, [omega])
    ga = p.gamma_a
    witness = {"squeezing": lambda t: _variance(S, "X1", t, ga),
               "duan": lambda t: duan_sum(S, ga, t, pairing),
               "epr": lambda t: epr_product(S, ga, t, infer_from)}[objective]
    if objective == "epr":
        i, j = _inference_modes(infer_from)
        x = {a: quadrature(f"X{a}", _THIRDS) for a in (i, j)}
        vi, vj, vij = (_laurent(output_moment(S, x[a], x[b], ga)[0])
                       for a, b in ((i, i), (j, j), (i, j)))
        n = np.convolve(vi, vj) - np.convolve(vij, vij)
        num = np.convolve(n, n * (-1.0) ** _powers(n))
        den = np.convolve(vi, vi * (-1.0) ** _powers(vi))
    else:
        num, den = _laurent(witness(_THIRDS)[0]), np.ones(1)
    # z d/dz of num/den vanishes where this Laurent polynomial does
    grad = (np.convolve(num * _powers(num), den)
            - np.convolve(num, den * _powers(den)))
    period = PERIODS[objective]
    # the second fold sends a tiny negative angle, which rounds up to
    # period, to 0
    theta = np.concatenate(([0.0], np.angle(np.roots(grad[::-1])) / 2
                            % period % period))
    values = witness(theta)[0]
    k = int(np.argmin(values))
    return float(theta[k]), float(values[k])
