"""System parameters, steady states, stability eigenvalues, and thresholds.

Two degenerate parametric downconverters sit in one cavity pair and exchange
photons evanescently at both carrier frequencies. All rates are expressed in
units of the low-frequency cavity decay gamma_a; pump amplitudes may be
complex. The doubled-phase-space state ordering used everywhere in this
package is

    [alpha1, alpha1+, alpha2, alpha2+, beta1, beta1+, beta2, beta2+]

where the '+' variables are independent integration variables, not pathwise
conjugates of their partners.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AboveThresholdError, ConvergenceFailureError, NoCrossingError

# Relative guard band around |eps| = eps_crit: exactly-critical pumps are
# classified as at-or-above so the linearized analysis never runs on a
# marginally stable drift matrix.
THRESHOLD_GUARD = 1e-9

_RESIDUAL_TOL = 1e-12
_EIG_REAL_TOL = 1e-9
_BISECTION_RTOL = 1e-10


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the coupled-cavity pair.

    kappa        effective second-order nonlinearity
    gamma_a/b    cavity decay rates at the low/high carrier frequency
    J_a/J_b      evanescent photon-exchange rates at each frequency
    Delta_a/b    cavity detunings from (half) the pump frequency
    eps1, eps2   complex pump amplitudes driving the two high-frequency modes
    """

    kappa: float = 0.01
    gamma_a: float = 1.0
    gamma_b: float = 1.0
    J_a: float = 0.0
    J_b: float = 0.0
    Delta_a: float = 0.0
    Delta_b: float = 0.0
    eps1: complex = 0.0
    eps2: complex = 0.0

    def __post_init__(self):
        for name in ("kappa", "gamma_a", "gamma_b"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, v)
        for name in ("J_a", "J_b", "Delta_a", "Delta_b"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        for name in ("eps1", "eps2"):
            v = complex(getattr(self, name))
            if not cmath.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)

    @classmethod
    def symmetric(cls, *, kappa=0.01, gamma_a=1.0, gamma_b=1.0, J_a=0.0,
                  J_b=0.0, Delta_a=0.0, Delta_b=0.0, eps=None,
                  pump_fraction=None) -> "SystemParams":
        """Equal-pump constructor.

        The pump is given either directly (``eps``) or as a fraction of the
        critical amplitude (``pump_fraction``); omitting both leaves the
        cavity undriven.
        """
        if eps is not None and pump_fraction is not None:
            raise ValueError("give eps or pump_fraction, not both")
        base = cls(kappa=kappa, gamma_a=gamma_a, gamma_b=gamma_b, J_a=J_a,
                   J_b=J_b, Delta_a=Delta_a, Delta_b=Delta_b)
        if pump_fraction is not None:
            eps = pump_fraction * derived_scales(base).eps_crit
        elif eps is None:
            eps = 0.0
        return replace(base, eps1=complex(eps), eps2=complex(eps))

    @property
    def equal_pumps(self) -> bool:
        return self.eps1 == self.eps2

    @property
    def resonant(self) -> bool:
        return self.Delta_a == 0.0 and self.Delta_b == 0.0


@dataclass(frozen=True)
class DerivedScales:
    """The threshold location for one parameter set, and the pump's share
    of it."""

    eps_crit: float
    pump_fraction: float


@dataclass(frozen=True)
class SteadyState:
    """Classical fixed point with the low-frequency modes empty.

    The '+' partners equal the conjugates of beta1_ss/beta2_ss at any
    deterministic fixed point, so only the two independent values are stored.
    """

    beta1_ss: complex
    beta2_ss: complex

    def vector(self) -> np.ndarray:
        """Full 8-component state in the package ordering."""
        return np.array([
            0, 0, 0, 0,
            self.beta1_ss, np.conj(self.beta1_ss),
            self.beta2_ss, np.conj(self.beta2_ss),
        ], dtype=complex)


def derived_scales(p: SystemParams) -> DerivedScales:
    """Threshold pump amplitude and the pump's fraction of it.

    eps_crit = sqrt([gamma_a^2 + d_a^2][gamma_b^2 + (J_b - Delta_b)^2]) / kappa
    with d_a = min(|J_a - Delta_a|, |J_a + Delta_a|): equal pumps drive only
    the symmetric pump supermode (detuning Delta_b - J_b), which feeds both
    signal supermodes (detunings Delta_a -+ J_a), and the one closer to
    resonance oscillates first. This reduces to
    sqrt([gamma_a^2 + J_a^2][gamma_b^2 + J_b^2]) / kappa on resonance and to
    gamma_a * gamma_b / kappa on the Delta = J manifold, and holds for either
    sign of coupling and detuning.
    """
    d_a = min(abs(p.J_a - p.Delta_a), abs(p.J_a + p.Delta_a))
    eps_crit = math.sqrt(
        (p.gamma_a ** 2 + d_a ** 2)
        * (p.gamma_b ** 2 + (p.J_b - p.Delta_b) ** 2)
    ) / p.kappa
    frac = max(abs(p.eps1), abs(p.eps2)) / eps_crit
    return DerivedScales(eps_crit=eps_crit, pump_fraction=frac)


def drift_rhs(p: SystemParams, x, out=None) -> np.ndarray:
    """Deterministic part of the doubled-phase-space equations of motion.

    Accepts a state of shape (8,) or a stack of shape (8, n); returns the
    time derivative with the same shape, written into ``out`` when given
    (C-contiguous, of x's shape, not overlapping x). Row by row:

        out[0] = -ca a1 + k a1+ b1 + i J_a a2      (ca = gamma_a + i Delta_a)
        out[1] = -ca* a1+ + k a1 b1+ - i J_a a2+
        out[4] = eps1 - cb b1 - k/2 a1 a1 + i J_b b2   (cb = gamma_b + i Delta_b)
        out[5] = eps1* - cb* b1+ - k/2 a1+ a1+ - i J_b b2+

    and rows 2, 3, 6, 7 with cavities 1 and 2 swapped. The four signal rows
    and the four pump rows are each computed as one (4, n) block: the
    partner rows (a1 <-> a1+) are the view reshape(2, 2, n)[:, ::-1], the
    other cavity's rows the view reshape(2, 2, n)[::-1]; steps that both
    blocks share run once over all 8 rows. Each element goes through the
    operations of the row formulas above in their order.
    """
    x = np.asarray(x, dtype=complex)
    if out is None:
        out = np.empty(x.shape, dtype=complex)
    xs, outs = x.reshape(8, -1), out.reshape(8, -1)
    if not outs.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    n = xs.shape[1]
    a, b = xs[:4], xs[4:]
    da, db = outs[:4], outs[4:]
    w = np.empty((8, n), dtype=complex)
    ws = w[:4]
    ca = p.gamma_a + 1j * p.Delta_a
    cb = p.gamma_b + 1j * p.Delta_b
    cac, cbc = ca.conjugate(), cb.conjugate()
    c = np.array([-ca, -cac, -ca, -cac, cb, cbc, cb, cbc,
                  p.eps1, p.eps1.conjugate(), p.eps2, p.eps2.conjugate(),
                  1j * p.J_a, 1j * p.J_b])
    own, eps, cross = c[:8, None], c[8:12, None], c[12:, None, None, None]
    k = p.kappa
    np.multiply(own, xs, out=outs)                  # -ca a1; cb b1
    np.subtract(eps, db, out=db)                    # eps1 - cb b1
    np.multiply(k, a.reshape(2, 2, n)[:, ::-1], out=ws.reshape(2, 2, n))
    np.multiply(ws, b, out=ws)
    np.add(da, ws, out=da)                          # + k a1+ b1
    np.multiply(0.5 * k, a, out=ws)
    np.multiply(ws, a, out=ws)
    np.subtract(db, ws, out=db)                     # - k/2 a1 a1
    w4, out4 = w.reshape(2, 2, 2, n), outs.reshape(2, 2, 2, n)
    np.multiply(cross, xs.reshape(2, 2, 2, n)[:, ::-1], out=w4)
    np.add(out4[:, :, 0], w4[:, :, 0], out=out4[:, :, 0])       # + i J a2
    np.subtract(out4[:, :, 1], w4[:, :, 1], out=out4[:, :, 1])  # - i J a2+
    return out


def _unchecked_state(p: SystemParams) -> SteadyState:
    """The alpha = 0 fixed point, which exists on both sides of threshold;
    no stability gate, so threshold probing can build on it."""
    if p.equal_pumps:
        b = p.eps1 / (p.gamma_b - 1j * (p.J_b - p.Delta_b))
        return SteadyState(beta1_ss=b, beta2_ss=b)
    # The alpha = 0 pump-mode equations are linear: one 2x2 solve.
    cb = p.gamma_b + 1j * p.Delta_b
    beta = np.linalg.solve(np.array([[cb, -1j * p.J_b], [-1j * p.J_b, cb]]),
                           np.array([p.eps1, p.eps2]))
    return SteadyState(beta1_ss=complex(beta[0]), beta2_ss=complex(beta[1]))


def _is_below_threshold(p: SystemParams) -> bool:
    """True when every drift eigenvalue has positive real part and, for
    equal pumps, the pump sits strictly inside the guard band below
    eps_crit."""
    eigs = stability_eigenvalues(p)
    if float(np.min(eigs.real)) <= 0.0:
        return False
    return not p.equal_pumps or (
        derived_scales(p).pump_fraction < 1.0 - THRESHOLD_GUARD)


def steady_state(p: SystemParams) -> SteadyState:
    """Below-threshold classical steady state.

    Equal pumps use the closed form beta_ss = eps / [gamma_b - i(J_b - Delta_b)];
    unequal pumps fall back on the numeric fixed-point solve. Raises
    AboveThresholdError when any stability eigenvalue has a non-positive real
    part (or the pump enters the guard band around eps_crit), since the
    fluctuation analysis built on this state would be meaningless there.
    """
    if not _is_below_threshold(p):
        eps_crit = derived_scales(p).eps_crit
        raise AboveThresholdError(
            f"pump amplitude {max(abs(p.eps1), abs(p.eps2)):.8g} is not below "
            f"threshold: eps_crit = {eps_crit:.8g}", eps_crit=eps_crit)
    state = _unchecked_state(p)
    resid = float(np.max(np.abs(drift_rhs(p, state.vector()))))
    if resid > _RESIDUAL_TOL * max(1.0, abs(p.eps1), abs(p.eps2)):
        raise ConvergenceFailureError(
            f"steady-state residual {resid:.3e} out of tolerance")
    return state


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


def stability_eigenvalues(p: SystemParams) -> np.ndarray:
    """Decay eigenvalues of the fluctuation drift matrix, sorted by (Re, Im).

    Below threshold all real parts are positive; the slowest one touching
    zero marks the oscillation threshold. On resonance with equal real pumps
    the closed form applies:

        gamma_b +- i J_b                                               (each twice)
        gamma_a +- sqrt(kappa^2 eps^2 / (gamma_b^2 + J_b^2) - J_a^2)   (each twice)

    with the principal square root turning a negative argument into an
    imaginary pair. Anything else is delegated to the dense eigensolver on
    the assembled drift matrix at the alpha = 0 fixed point (which exists on
    both sides of threshold, so this routine never raises).
    """
    if p.resonant and p.equal_pumps and p.eps1.imag == 0.0:
        gtb = math.hypot(p.gamma_b, p.J_b)
        s = np.sqrt(complex((p.kappa * p.eps1.real / gtb) ** 2 - p.J_a ** 2))
        lam = [p.gamma_b + 1j * p.J_b, p.gamma_b - 1j * p.J_b,
               p.gamma_a + s, p.gamma_a - s]
        return sort_eigenvalues(lam + lam)
    from . import linearized  # deferred to break the module cycle

    m = linearized.build_linear_model(p, _unchecked_state(p))
    return linearized.numeric_eigenvalues(m)


def threshold_bisection(p: SystemParams) -> float:
    """Numeric threshold: equal real pump amplitude at which the slowest
    drift eigenvalue crosses zero.

    Ignores the pump fields of ``p`` and scans amplitude on
    [0, 10 * analytic eps_crit] with a bracketing root find on
    min Re eig(A), to relative tolerance _BISECTION_RTOL. The eigenvalues
    come from the dense solver on the assembled drift matrix, never from the
    closed form, so this is an independent check of the analytic threshold.
    Raises NoCrossingError when the bracket does not change sign.
    """
    from . import linearized  # deferred to break the module cycle

    scales = derived_scales(p)
    hi = 10.0 * scales.eps_crit

    def slowest(e: float) -> float:
        q = replace(p, eps1=complex(e), eps2=complex(e))
        m = linearized.build_linear_model(q, _unchecked_state(q))
        return float(np.min(linearized.numeric_eigenvalues(m).real))

    f_lo, f_hi = slowest(0.0), slowest(hi)
    if not (f_lo > 0.0 > f_hi):
        raise NoCrossingError(
            f"min Re eig does not change sign on [0, {hi:.6g}]: "
            f"endpoints {f_lo:.6g}, {f_hi:.6g}")
    from scipy.optimize import brentq  # deferred: most of the package import time
    root = brentq(slowest, 0.0, hi, rtol=_BISECTION_RTOL, xtol=1e-12 * hi)
    return float(root)
