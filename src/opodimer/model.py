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
from dataclasses import dataclass

import numpy as np

from .errors import (AboveThresholdError, ConvergenceFailureError, DomainError,
                     NoCrossingError)

# Relative guard band around |eps| = eps_crit: exactly-critical pumps are
# classified as at-or-above so the linearized analysis never runs on a
# marginally stable drift matrix.
THRESHOLD_GUARD = 1e-9

_RESIDUAL_TOL = 1e-12


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
        for name in self.__dataclass_fields__:  # in declaration order
            v = (complex if name.startswith("eps") else float)(getattr(self, name))
            positive = name in ("kappa", "gamma_a", "gamma_b")
            if not cmath.isfinite(v) or (positive and not v > 0.0):
                raise ValueError(f"{name} must be {'positive and ' * positive}"
                                 f"finite, got {v!r}")
            object.__setattr__(self, name, v)

    @classmethod
    def symmetric(cls, *, eps=None, pump_fraction=None, **rates) -> "SystemParams":
        """Equal-pump constructor; ``rates`` are the non-pump fields, which
        keep the class defaults when left out.

        The pump is given either directly (``eps``) or as a fraction of the
        critical amplitude (``pump_fraction``); omitting both leaves the
        cavity undriven.
        """
        if eps is not None and pump_fraction is not None:
            raise ValueError("give eps or pump_fraction, not both")
        if pump_fraction is not None:
            eps = pump_fraction * critical_pump(cls(**rates))
        elif eps is None:
            eps = 0.0
        return cls(eps1=complex(eps), eps2=complex(eps), **rates)

    @property
    def equal_pumps(self) -> bool:
        return self.eps1 == self.eps2


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


def critical_pump(p: SystemParams) -> float:
    """Threshold amplitude eps_crit of equal pumps.

    eps_crit = sqrt([gamma_a^2 + d_a^2][gamma_b^2 + (J_b - Delta_b)^2]) / kappa
    with d_a = min(|J_a - Delta_a|, |J_a + Delta_a|): equal pumps drive only
    the symmetric pump supermode (detuning Delta_b - J_b), which feeds both
    signal supermodes (detunings Delta_a -+ J_a), and the one closer to
    resonance oscillates first. This reduces to
    sqrt([gamma_a^2 + J_a^2][gamma_b^2 + J_b^2]) / kappa on resonance and to
    gamma_a * gamma_b / kappa on the Delta = J manifold, and holds for either
    sign of coupling and detuning. Raises DomainError when eps_crit is not
    a finite positive float.
    """
    d_a = min(abs(p.J_a - p.Delta_a), abs(p.J_a + p.Delta_a))
    try:
        eps_crit = math.sqrt(
            (p.gamma_a ** 2 + d_a ** 2)
            * (p.gamma_b ** 2 + (p.J_b - p.Delta_b) ** 2)
        ) / p.kappa
    except OverflowError:  # a float ** 2 past the float range
        eps_crit = math.inf
    if not math.isfinite(eps_crit):
        raise DomainError(f"critical pump overflows a float at {p}")
    if not eps_crit > 0.0:  # a float ** 2 under the float range
        raise DomainError(f"critical pump underflows to 0 at {p}")
    return eps_crit


def drift_kernel(p: SystemParams, n: int, scale: float = 1.0):
    """scale times the drift of p on (8, n) stacks, as bind(x, out) -> f with
    f() -> out: the one home of the doubled-phase-space equations of motion.
    Row by row, at scale 1:

        out[0] = -ca a1 + k a1+ b1 + i J_a a2      (ca = gamma_a + i Delta_a)
        out[1] = -ca* a1+ + k a1 b1+ - i J_a a2+
        out[4] = eps1 - cb b1 - k/2 a1 a1 + i J_b b2   (cb = gamma_b + i Delta_b)
        out[5] = eps1* - cb* b1+ - k/2 a1+ a1+ - i J_b b2+

    and rows 2, 3, 6, 7 with cavities 1 and 2 swapped. bind views x and out
    once, so f() reads what x holds when it runs. Both are complex (8, n),
    C-contiguous lest a reshape copy x, unchecked; out must not overlap x.

    The own, pump and cross-cavity coefficients are laid out at full width
    once, so the ufuncs that read them are flat loops; the partner rows
    (a1 <-> a1+) are the view reshape(2, 2, n)[:, ::-1] of the signal rows,
    the other cavity's rows the view reshape(2, 2, 2, n)[:, ::-1] of all 8.
    The cross-cavity term is added once over all 8 rows after its '+' rows
    are negated: x - y is exactly x + (-y), while folding the sign into the
    coefficient is not ((-c) y and -(c y) can differ in the sign of a zero).
    Each element goes through the operations of the row formulas above in
    their order.

    Every coefficient (ca, cb, eps, k, k/2, i J) is multiplied by scale once,
    when the kernel is built, part by part (a complex product with
    scale + 0j can flip the sign of a zero), so at scale 1 each keeps its
    bits; integrate folds its step into the drift this way.
    """
    ca = p.gamma_a + 1j * p.Delta_a
    cb = p.gamma_b + 1j * p.Delta_b
    cac, cbc = ca.conjugate(), cb.conjugate()

    def full(*c):
        c = np.array(c)
        c.view(float)[...] *= scale  # part by part
        return np.repeat(c[:, None], n, axis=1)

    own = full(-ca, -cac, -ca, -cac, cb, cbc, cb, cbc)
    eps = full(p.eps1, p.eps1.conjugate(), p.eps2, p.eps2.conjugate())
    cross = full(*[1j * p.J_a] * 4, *[1j * p.J_b] * 4).reshape(2, 2, 2, n)
    # a Python float enters the same complex loop as k + 0j, but dispatches slower
    k, half_k = (np.array(c * scale + 0j) for c in (p.kappa, 0.5 * p.kappa))
    w = np.empty((8, n), dtype=complex)
    ws, ws2, w4 = w[:4], w[:4].reshape(2, 2, n), w.reshape(2, 2, 2, n)
    w_plus = w4[:, :, 1].view(float)  # the '+' rows, as float pairs

    def bind(x, out):
        a, b, da, db = x[:4], x[4:], out[:4], out[4:]
        partner, other = a.reshape(2, 2, n)[:, ::-1], x.reshape(2, 2, 2, n)[:, ::-1]

        def f():
            np.multiply(own, x, out=out)                # -ca a1; cb b1
            np.subtract(eps, db, out=db)                # eps1 - cb b1
            np.multiply(k, partner, out=ws2)
            np.multiply(ws, b, out=ws)
            np.add(da, ws, out=da)                      # + k a1+ b1
            np.multiply(half_k, a, out=ws)
            np.multiply(ws, a, out=ws)
            np.subtract(db, ws, out=db)                 # - k/2 a1 a1
            np.multiply(cross, other, out=w4)
            np.negative(w_plus, out=w_plus)             # -(i J a2+)
            np.add(out, w, out=out)                     # + i J a2
            return out

        return f

    return bind


def drift_rhs(p: SystemParams, x) -> np.ndarray:
    """Deterministic part of the equations of motion: binds
    drift_kernel(p, n) to x and runs it once.

    Accepts a state of shape (8,) or a stack of shape (8, n); returns the
    time derivative with the same shape.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    out = np.empty(x.shape, dtype=complex)
    xs = x.reshape(8, -1)
    drift_kernel(p, xs.shape[1])(xs, out.reshape(8, -1))()
    return out


def drift_block(c, j, m1, m2) -> np.ndarray:
    """The 4x4 block of the drift matrix A on one quartet [a1, a1+, a2, a2+]
    about the alpha = 0 fixed point, where A is block diagonal: c = gamma +
    i Delta, j = i J, and m1, m2 the pair terms kappa beta_ss (0 in the pump
    block). Array arguments broadcast to a stack of blocks, shape
    (..., 4, 4). The one place the entries of A are written, except that
    cli.cmd_verify --negative-control negates the four pair-term entries
    of its prediction's A.
    """
    c, j, m1, m2 = np.broadcast_arrays(c, j, m1, m2)  # an int 0 stays an int
    D = np.zeros((*c.shape, 4, 4), dtype=complex)
    D[..., 0, 0], D[..., 0, 1], D[..., 0, 2] = c, -m1, -j
    D[..., 1, 0], D[..., 1, 1], D[..., 1, 3] = -np.conj(m1), np.conj(c), j
    D[..., 2, 0], D[..., 2, 2], D[..., 2, 3] = -j, c, -m2
    D[..., 3, 1], D[..., 3, 2], D[..., 3, 3] = j, -np.conj(m2), np.conj(c)
    return D


def _signal_rates(ps: list) -> tuple:
    """drift_block's c = gamma_a + i Delta_a and j = i J_a of each set in ps."""
    return (np.array([p.gamma_a + 1j * p.Delta_a for p in ps]),
            np.array([1j * p.J_a for p in ps]))


def _require_finite(A) -> np.ndarray:
    """A as an array, after raising dense_eigvals' DomainError if an entry
    of it is not finite."""
    A = np.asarray(A)
    finite = np.isfinite(A).reshape(len(A), -1).all(axis=1)
    if (bad := np.flatnonzero(~finite)).size:
        raise DomainError(f"row {bad[0]}: drift matrix is not finite "
                          f"(an entry overflows a float)")
    return A


def dense_eigvals(A) -> np.ndarray:
    """np.linalg.eigvals of a matrix or a stack of them, unsorted. Raises
    DomainError naming the first row (along A's first axis: a matrix of a
    stack) with an entry that is not finite, such as a pair term kappa
    beta_ss past the float range, before the solver sees it, and
    ConvergenceFailureError where the solver fails."""
    A = _require_finite(A)
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"eigensolver failed: {exc}") from exc


def _equal_pump_field(p: SystemParams, eps: complex) -> complex:
    """Steady pump field of equal pumps eps at the alpha = 0 fixed point."""
    return eps / (p.gamma_b - 1j * (p.J_b - p.Delta_b))


def _unchecked_state(p: SystemParams) -> SteadyState:
    """The alpha = 0 fixed point, which exists on both sides of threshold;
    no stability gate, so threshold probing can build on it."""
    if p.equal_pumps:
        b = _equal_pump_field(p, p.eps1)
        return SteadyState(beta1_ss=b, beta2_ss=b)
    # The alpha = 0 pump-mode equations are linear: one 2x2 solve.
    cb = p.gamma_b + 1j * p.Delta_b
    beta = np.linalg.solve(np.array([[cb, -1j * p.J_b], [-1j * p.J_b, cb]]),
                           np.array([p.eps1, p.eps2]))
    return SteadyState(beta1_ss=complex(beta[0]), beta2_ss=complex(beta[1]))


def _is_below_threshold(p: SystemParams) -> bool:
    """For equal pumps, True when |eps| sits strictly inside the guard band
    below eps_crit: that closed form is exact for any sign of coupling and
    detuning, where the dense eigensolve loses the real part at large
    |J_a| / gamma_a (its slowest decay reads 0.0 at J_a = 3e16 and half
    threshold). Otherwise True when every drift eigenvalue has positive
    real part. Both raise DomainError for a drift block that is not finite."""
    if p.equal_pumps:
        _require_finite(_signal_blocks([p])[0])
        return abs(p.eps1) / critical_pump(p) < 1.0 - THRESHOLD_GUARD
    return float(np.min(stability_eigenvalues(p).real)) > 0.0


def steady_state(p: SystemParams) -> SteadyState:
    """Below-threshold classical steady state.

    Equal pumps use the closed form beta_ss = eps / [gamma_b - i(J_b - Delta_b)];
    unequal pumps fall back on the numeric fixed-point solve. Raises
    AboveThresholdError when equal pumps enter the guard band below
    eps_crit, or when any stability eigenvalue of unequal pumps has a
    non-positive real part (_is_below_threshold), since the fluctuation
    analysis built on this state would be meaningless there.
    """
    if not _is_below_threshold(p):
        eps_crit = critical_pump(p)
        raise AboveThresholdError(
            f"pump amplitude {max(abs(p.eps1), abs(p.eps2)):.8g} is not below "
            f"threshold: eps_crit = {eps_crit:.8g}", eps_crit=eps_crit)
    state = _unchecked_state(p)
    resid = float(np.max(np.abs(drift_rhs(p, state.vector()))))
    if resid > _RESIDUAL_TOL * max(1.0, abs(p.eps1), abs(p.eps2)):
        raise ConvergenceFailureError(
            f"steady-state residual {resid:.3e} out of tolerance")
    return state


def _signal_blocks(ps: list) -> tuple:
    """The 4x4 signal block of A at the alpha = 0 fixed point of each
    parameter set in ps, shape (len(ps), 4, 4), and the pair terms
    [kappa beta1_ss, kappa beta2_ss] it is built from, shape (len(ps), 2)."""
    ss = [_unchecked_state(p) for p in ps]
    m = np.array([[p.kappa * s.beta1_ss, p.kappa * s.beta2_ss]
                  for p, s in zip(ps, ss)])
    return drift_block(*_signal_rates(ps), m[:, 0], m[:, 1]), m


def stability_eigenvalues(p: SystemParams) -> np.ndarray:
    """Decay eigenvalues of the fluctuation drift matrix, shape (8,),
    unsorted: the signal block's four, then the pump block's four.

    Below threshold all real parts are positive; the slowest one touching
    zero marks the oscillation threshold. At the alpha = 0 fixed point,
    which exists on both sides of threshold, A is block diagonal. Its signal
    block (_signal_blocks) goes through one dense eigensolve; its pump block
    does not see the pump and has the eigenvalues gamma_b + i(Delta_b +- J_b)
    and their conjugates, in that order. No 8x8 matrix is factored.
    """
    pump = np.array([p.gamma_b + 1j * (p.Delta_b + p.J_b),
                     p.gamma_b + 1j * (p.Delta_b - p.J_b)])
    signal = dense_eigvals(_signal_blocks([p])[0])[0]
    return np.concatenate([signal, pump, pump.conj()])


def min_re_eig_stack(ps: list) -> np.ndarray:
    """min Re stability_eigenvalues(p) for each parameter set in ps, from
    one stacked eigensolve of their signal blocks: the signal block's slowest
    decay, or the pump block's gamma_b where that is smaller."""
    return np.minimum(dense_eigvals(_signal_blocks(ps)[0]).real.min(axis=1),
                      [p.gamma_b for p in ps])


# Relative step of the sign check on each side of a threshold e. At the
# root the critical signal supermode, of detuning d_a, has the eigenvalues
# gamma_a +- sqrt(|m|^2 - d_a^2) with |m| = sqrt(gamma_a^2 + d_a^2) growing
# as e, so the step moves the slowest one by _SIGN_STEP (gamma_a^2 + d_a^2)
# / gamma_a. The dense solver errs by about its condition number
# sqrt(1 + d_a^2 / gamma_a^2) times u ||A|| (u = 2^-53, ||A|| about
# |Delta_a| + |J_a|), so the check resolves rows with (|Delta_a| + |J_a|) /
# sqrt(gamma_a^2 + d_a^2) < _SIGN_STEP / u = 9e9: |J_a| / gamma_a < 4.5e9 on
# Delta_a = +-J_a (d_a = 0; 1e10 passed, 3e10 failed). On resonance (d_a =
# |J_a|) the step is large, but below the root the slowest eigenvalue is
# gamma_a itself, and the check fails once the solver's error, a few
# u |J_a|, reaches it: every quarter decade of |J_a| / gamma_a from 1e9 to
# 10^14.75 passed, 1e15, 1e16 and 3e16 failed (10^15.25 to 10^15.75 passed).
_SIGN_STEP = 1e-6


def threshold_bisection_stack(ps: list) -> np.ndarray:
    """Numeric threshold of each parameter set in ps: the least equal real
    pump amplitude e at which the slowest drift eigenvalue reaches zero;
    the pump fields of each set are ignored.

    At the alpha = 0 fixed point A is block diagonal, and the eigenvalues of
    its pump block have real part gamma_b > 0 whatever the pump
    (stability_eigenvalues), so min Re eig(A) changes sign where that of the
    4x4 signal block does. That block is the pencil A0 + e A1, as the steady
    pump field is linear in e: drift_block gives A0 undriven and A1 from the
    pump field of e = 1. A0's eigenvalues have real part gamma_a > 0, so
    det(A0 + e A1) = 0 exactly where 1/e is an eigenvalue mu of
    M = -A0^-1 A1 (Golub & Van Loan, Matrix Computations, 7.7), and a row's
    threshold is 1/mu for its largest positive Re mu: M's dominant
    eigenvalue, which the solver gets to a few u ||M|| on every manifold.
    One stacked solve and eigensolve give every row's mu; a second stacked
    eigensolve checks that min Re eig(A0 + e A1) is > 0 at e (1 - _SIGN_STEP)
    and < 0 at e (1 + _SIGN_STEP). No closed form is used, so this checks
    critical_pump independently, and no row depends on the others.
    Raises DomainError naming the first row whose M, or whose threshold or
    its steps, is not a finite float, before any eigensolve sees it, and
    NoCrossingError naming the first row with no positive mu or whose sign
    check fails, with its e and both min Re eig values.
    """
    A0 = drift_block(*_signal_rates(ps), 0j, 0j)
    ms = np.array([p.kappa * _equal_pump_field(p, 1 + 0j) for p in ps])
    A1 = drift_block(0j, 0j, ms, ms)
    M = -np.linalg.solve(A0, A1)
    if (bad := np.flatnonzero(~np.isfinite(M).all(axis=(1, 2)))).size:
        raise DomainError(f"row {bad[0]}: -A0^-1 A1 of the threshold pencil "
                          f"is not finite at {ps[bad[0]]}")
    mu = dense_eigvals(M).real.max(axis=1)
    live = mu > 0.0
    with np.errstate(over="ignore", divide="ignore"):
        e = 1.0 / mu
        steps = e[:, None] * np.array([1.0 - _SIGN_STEP, 1.0 + _SIGN_STEP])
    if (bad := np.flatnonzero(live & ~np.isfinite(steps).all(axis=1))).size:
        raise DomainError(f"row {bad[0]}: threshold 1/mu = 1/{mu[bad[0]]:.6g} "
                          f"overflows a float at {ps[bad[0]]}")
    f = np.full(steps.shape, np.nan)  # nan: no positive mu, not evaluated
    A = A0[live, None] + steps[live, :, None, None] * A1[live, None]
    f[live] = dense_eigvals(A).real.min(axis=-1)
    crossing = (f[:, 0] > 0.0) & (f[:, 1] < 0.0)
    if not crossing.all():
        i = int(np.argmin(crossing))
        raise NoCrossingError(
            f"row {i}: min Re eig does not change sign at e = 1/mu = {e[i]:.6g}: "
            f"{f[i, 0]:.6g} at e (1 - {_SIGN_STEP:g}), "
            f"{f[i, 1]:.6g} at e (1 + {_SIGN_STEP:g})")
    return e
