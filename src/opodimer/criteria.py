"""Squeezing and entanglement figures of merit at the cavity outputs.

All quantities here are output spectral densities in the convention where a
coherent state sits exactly at 1 per mode. Squeezing of a single output means
a variance below 1; the unnormalized two-mode sum/difference witnesses sit
against 4; the inference (EPR) product sits against 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateVarianceError
from .linearized import build_linear_model
from .model import SystemParams, steady_state
from .spectrum import (QuadratureSelector, output_moment, quadrature_variance_out,
                       spectral_matrix, two_mode_terms)

DUAN_PAIRINGS = ("xminus_yplus", "xplus_yminus")
OBJECTIVES = ("squeezing", "duan", "epr")

_ANGLE_TOL = 1e-6
_GRID_POINTS = 181


@lru_cache(maxsize=256)
def _model(p: SystemParams):
    return build_linear_model(p, steady_state(p))


@lru_cache(maxsize=4096)
def _smatrix(p: SystemParams, omega: float):
    return spectral_matrix(_model(p), omega)


def clear_caches() -> None:
    _smatrix.cache_clear()
    _model.cache_clear()


def single_mode_moments(p: SystemParams, omega: float, theta: float) -> tuple:
    """(S_X, S_Y, V_XY) of mode 1 at angle theta (Y is theta + pi/2)."""
    S = _smatrix(p, float(omega))
    qx = QuadratureSelector(1, theta)
    qy = QuadratureSelector(1, theta + math.pi / 2)
    ga = p.gamma_a
    return (quadrature_variance_out(S, qx, qx, ga),
            quadrature_variance_out(S, qy, qy, ga),
            quadrature_variance_out(S, qx, qy, ga))


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


def duan_sum(p: SystemParams, omega: float, theta: float = 0.0,
             pairing: str = "xminus_yplus") -> float:
    """Unnormalized sum-criterion witness; separable states sit at >= 4.

    pairing picks which quadrature rides the difference mode:
    "xminus_yplus" is V(X1-X2) + V(Y1+Y2), "xplus_yminus" the transpose.
    Both use the angle-theta frame (X at theta, Y at theta + pi/2).
    """
    if pairing not in DUAN_PAIRINGS:
        raise ValueError(f"pairing must be one of {DUAN_PAIRINGS}, got {pairing!r}")
    S = _smatrix(p, float(omega))
    ga = p.gamma_a
    sx, sy = (-1.0, 1.0) if pairing == "xminus_yplus" else (1.0, -1.0)
    first = two_mode_terms(theta, sx)
    second = two_mode_terms(theta + math.pi / 2, sy)
    return (output_moment(S, first, first, ga)
            + output_moment(S, second, second, ga))


def epr_product(p: SystemParams, omega: float, theta: float = 0.0,
                infer_from: int = 1) -> float:
    """Product of inference variances; EPR steering below 1.

    Inference of mode j's quadratures from mode i = infer_from at the optimal
    linear gain: S_inf(Q_j) = S(Q_j) - V(Q_i, Q_j)^2 / S(Q_i), evaluated for
    Q = X and Q = Y in the angle-theta frame.
    """
    if infer_from not in (1, 2):
        raise ValueError(f"infer_from must be 1 or 2, got {infer_from!r}")
    i = infer_from
    j = 2 if i == 1 else 1
    S = _smatrix(p, float(omega))
    ga = p.gamma_a
    prod = 1.0
    for ang in (theta, theta + math.pi / 2):
        qi = QuadratureSelector(i, ang)
        qj = QuadratureSelector(j, ang)
        vi = quadrature_variance_out(S, qi, qi, ga)
        vj = quadrature_variance_out(S, qj, qj, ga)
        vij = quadrature_variance_out(S, qi, qj, ga)
        if vi < 1e-14:
            raise DegenerateVarianceError(
                f"conditioning variance {vi:.3e} too small to divide by "
                f"at omega = {omega:g}, theta = {ang:g}")
        prod *= vj - vij * vij / vi
    return prod


def combined_variances(p: SystemParams, omega: float) -> dict:
    """Numeric sum/difference output spectra (theta = 0 frame) from the full
    model; agrees with the 4x4 route on the Delta = J manifold but is defined
    for any stable parameter set."""
    S = _smatrix(p, float(omega))
    ga = p.gamma_a
    out = {}
    for name, sign, ang in (("S_Xp", 1.0, 0.0), ("S_Yp", 1.0, math.pi / 2),
                            ("S_Xm", -1.0, 0.0), ("S_Ym", -1.0, math.pi / 2)):
        terms = two_mode_terms(ang, sign)
        out[name] = output_moment(S, terms, terms, ga)
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
        out = []
        if self.squeezed:
            out.append("squeezed")
        if self.entangled:
            out.append("entangled")
        if self.epr:
            out.append("epr")
        return tuple(out)


def evaluate_record(p: SystemParams, omega: float, theta: float = 0.0,
                    duan_pairing: str = "xminus_yplus",
                    epr_infer_from: int = 1) -> CorrelationRecord:
    s_x, s_y, v_xy = single_mode_moments(p, omega, theta)
    return CorrelationRecord(
        omega=float(omega), theta=float(theta),
        S_X=s_x, S_Y=s_y, cov_XY=v_xy,
        duan_sum=duan_sum(p, omega, theta, duan_pairing),
        epr_product=epr_product(p, omega, theta, epr_infer_from))


def optimize_angle(p: SystemParams, omega: float, objective: str = "squeezing",
                   *, pairing: str = "xminus_yplus",
                   infer_from: int = 1) -> tuple:
    """Minimize one figure of merit over the local-oscillator angle.

    objective "squeezing" minimizes the mode-1 variance at the angle (closed
    form via theta_optimal); "duan" and "epr" minimize the respective witness
    by a half-period grid scan refined with golden-section to 1e-6 rad.
    Returns (theta, value) with theta in [0, pi).
    """
    if objective == "squeezing":
        v_x, v_y, v_xy = single_mode_moments(p, omega, 0.0)
        t_min, _ = theta_optimal(v_x, v_y, v_xy)
        s_t, _, _ = single_mode_moments(p, omega, t_min)
        return t_min, s_t
    if objective == "duan":
        def f(t):
            return duan_sum(p, omega, t, pairing)
    elif objective == "epr":
        def f(t):
            return epr_product(p, omega, t, infer_from)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    grid = np.linspace(0.0, math.pi, _GRID_POINTS)
    vals = [f(t) for t in grid]
    k = int(np.argmin(vals))
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
    return t_best, f(t_best)
