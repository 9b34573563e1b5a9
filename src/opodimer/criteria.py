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
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError
from .linearized import build_linear_model
from .model import SystemParams, steady_state
from .spectrum import SpectralMatrix, output_moment, spectral_matrix, two_mode_terms

DUAN_PAIRINGS = ("xminus_yplus", "xplus_yminus")
OBJECTIVES = ("squeezing", "duan", "epr")

_ANGLE_TOL = 1e-6
_GRID_POINTS = 181


def spectral_stack(p: SystemParams, omegas) -> SpectralMatrix:
    """S(omega) of the linearized model at p's steady state, one stacked
    solve over every frequency of omegas."""
    return spectral_matrix(build_linear_model(p, steady_state(p)), omegas)


def single_mode_moments(S: SpectralMatrix, gamma_a: float, theta=0.0) -> tuple:
    """(S_X, S_Y, V_XY) of mode 1 at angle theta (Y is theta + pi/2), one
    (n_omega,) array each."""
    x = [(1, theta, 1.0)]
    y = [(1, theta + math.pi / 2, 1.0)]
    return (output_moment(S, x, x, gamma_a), output_moment(S, y, y, gamma_a),
            output_moment(S, x, y, gamma_a))


def theta_optimal(v_x: float, v_y: float, v_xy: float) -> tuple:
    """Angles minimizing and maximizing the single-mode variance.

    The variance at angle t is (v_x+v_y)/2 + R cos(2t - phi) with
    R cos(phi) = (v_x-v_y)/2 and R sin(phi) = v_xy, so the extrema follow
    from atan2 directly. Both angles are reported in [0, pi).
    """
    if v_xy == 0.0 and v_x == v_y:
        return 0.0, math.pi / 2
    t_max = 0.5 * math.atan2(2.0 * v_xy, v_x - v_y)
    t_min = (t_max + math.pi / 2) % math.pi
    return t_min, t_max % math.pi


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
    sx, sy = (-1.0, 1.0) if pairing == "xminus_yplus" else (1.0, -1.0)
    first = two_mode_terms(theta, sx)
    second = two_mode_terms(theta + math.pi / 2, sy)
    return (output_moment(S, first, first, gamma_a)
            + output_moment(S, second, second, gamma_a))


def epr_product(S: SpectralMatrix, gamma_a: float, theta=0.0,
                infer_from: int = 1) -> np.ndarray:
    """Product of inference variances; EPR steering below 1.

    Inference of mode j's quadratures from mode i = infer_from at the optimal
    linear gain: S_inf(Q_j) = S(Q_j) - V(Q_i, Q_j)^2 / S(Q_i), evaluated for
    Q = X and Q = Y in the angle-theta frame. Shaped like duan_sum.
    """
    if infer_from not in (1, 2):
        raise ValueError(f"infer_from must be 1 or 2, got {infer_from!r}")
    i = infer_from
    j = 2 if i == 1 else 1
    prod = 1.0
    for ang in (theta, theta + math.pi / 2):
        qi = [(i, ang, 1.0)]
        qj = [(j, ang, 1.0)]
        vi = output_moment(S, qi, qi, gamma_a)
        vj = output_moment(S, qj, qj, gamma_a)
        vij = output_moment(S, qi, qj, gamma_a)
        low = vi < 1e-14
        if low.any():
            k = np.unravel_index(np.argmax(low), low.shape)
            raise DegenerateVarianceError(
                f"conditioning variance {vi[k]:.3e} too small to divide by "
                f"at omega = {S.omega[k[0]]:g}, "
                f"theta = {np.broadcast_to(ang, low.shape)[k]:g}")
        prod = prod * (vj - vij * vij / vi)
    return prod


def combined_variances(S: SpectralMatrix, gamma_a: float) -> dict:
    """Numeric sum/difference output spectra (theta = 0 frame) from the full
    model, one (n_omega,) array per name; agrees with the 4x4 route on the
    Delta = J manifold but is defined for any stable parameter set."""
    out = {}
    for name, sign, ang in (("S_Xp", 1.0, 0.0), ("S_Yp", 1.0, math.pi / 2),
                            ("S_Xm", -1.0, 0.0), ("S_Ym", -1.0, math.pi / 2)):
        terms = two_mode_terms(ang, sign)
        out[name] = output_moment(S, terms, terms, gamma_a)
    return out


@dataclass(frozen=True)
class CorrelationRecord:
    """One evaluated frequency point: mode-1 moments plus both witnesses."""

    omega: float
    theta: float
    S_X: float
    S_Y: float
    cov_XY: float
    duan_sum: float
    epr_product: float

    @property
    def squeezed(self) -> bool:
        return min(self.S_X, self.S_Y) < 1.0

    @property
    def entangled(self) -> bool:
        return self.duan_sum < 4.0

    @property
    def epr(self) -> bool:
        return self.epr_product < 1.0

    def flags(self) -> tuple:
        return tuple(name for name in ("squeezed", "entangled", "epr")
                     if getattr(self, name))


def evaluate_records(S: SpectralMatrix, gamma_a: float, theta: float = 0.0,
                     duan_pairing: str = "xminus_yplus",
                     epr_infer_from: int = 1) -> list:
    """One CorrelationRecord per frequency of the stack, at angle theta."""
    cols = (S.omega, *single_mode_moments(S, gamma_a, theta),
            duan_sum(S, gamma_a, theta, duan_pairing),
            epr_product(S, gamma_a, theta, epr_infer_from))
    return [CorrelationRecord(w, float(theta), *vals)
            for w, *vals in zip(*(c.tolist() for c in cols))]


def evaluate_record(p: SystemParams, omega: float, theta: float = 0.0,
                    duan_pairing: str = "xminus_yplus",
                    epr_infer_from: int = 1) -> CorrelationRecord:
    return evaluate_records(spectral_stack(p, [omega]), p.gamma_a, theta,
                            duan_pairing, epr_infer_from)[0]


def optimize_angle(p: SystemParams, omega: float, objective: str = "squeezing",
                   *, pairing: str = "xminus_yplus",
                   infer_from: int = 1) -> tuple:
    """Minimize one figure of merit over the local-oscillator angle.

    objective "squeezing" minimizes the mode-1 variance at the angle (closed
    form via theta_optimal); "duan" and "epr" minimize the respective witness
    by a half-period grid scan, projected as one stack, refined with
    golden-section to 1e-6 rad. S(omega) is solved once for all of it.
    Returns (theta, value) with theta in [0, pi).
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    S = spectral_stack(p, [omega])
    ga = p.gamma_a
    if objective == "squeezing":
        v_x, v_y, v_xy = (float(v[0]) for v in single_mode_moments(S, ga))
        t_min, _ = theta_optimal(v_x, v_y, v_xy)
        return t_min, float(single_mode_moments(S, ga, t_min)[0][0])
    f = {"duan": lambda t: duan_sum(S, ga, t, pairing)[0],
         "epr": lambda t: epr_product(S, ga, t, infer_from)[0]}[objective]
    grid = np.linspace(0.0, math.pi, _GRID_POINTS)
    k = int(np.argmin(f(grid)))
    step = grid[1] - grid[0]
    a, b = grid[k] - step, grid[k] + step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _ANGLE_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    t_best = 0.5 * (a + b) % math.pi
    return t_best, float(f(t_best))
