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

    @property
    def resonant(self) -> bool:
        return self.Delta_a == 0.0 and self.Delta_b == 0.0


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


def drift_kernel(p: SystemParams, n: int):
    """The drift of p on (8, n) stacks, as bind(x, out) -> f with f() -> out:
    the one home of the doubled-phase-space equations of motion. Row by row:

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
    """
    ca = p.gamma_a + 1j * p.Delta_a
    cb = p.gamma_b + 1j * p.Delta_b
    cac, cbc = ca.conjugate(), cb.conjugate()

    def full(*c):
        return np.repeat(np.array(c)[:, None], n, axis=1)

    own = full(-ca, -cac, -ca, -cac, cb, cbc, cb, cbc)
    eps = full(p.eps1, p.eps1.conjugate(), p.eps2, p.eps2.conjugate())
    cross = full(*[1j * p.J_a] * 4, *[1j * p.J_b] * 4).reshape(2, 2, 2, n)
    # a Python float enters the same complex loop as k + 0j, but dispatches slower
    k, half_k = np.array(p.kappa + 0j), np.array(0.5 * p.kappa + 0j)
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


def drift_block(c: complex, j: complex, m1: complex, m2: complex) -> np.ndarray:
    """The 4x4 block of the drift matrix A on one quartet [a1, a1+, a2, a2+]
    about the alpha = 0 fixed point, where A is block diagonal: c = gamma +
    i Delta, j = i J, and m1, m2 the pair terms kappa beta_ss (0 in the pump
    block). The one place the entries of A are written.
    """
    D = np.zeros((4, 4), dtype=complex)
    D[0, 0], D[0, 1], D[0, 2] = c, -m1, -j
    D[1, 0], D[1, 1], D[1, 3] = -np.conj(m1), np.conj(c), j
    D[2, 0], D[2, 2], D[2, 3] = -j, c, -m2
    D[3, 1], D[3, 2], D[3, 3] = j, -np.conj(m2), np.conj(c)
    return D


def dense_eigvals(A) -> np.ndarray:
    """np.linalg.eigvals of a matrix or a stack of them, unsorted; raises
    ConvergenceFailureError where the solver fails."""
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
    """True when every drift eigenvalue has positive real part and, for
    equal pumps, the pump sits strictly inside the guard band below
    eps_crit."""
    eigs = stability_eigenvalues(p)
    if float(np.min(eigs.real)) <= 0.0:
        return False
    return not p.equal_pumps or (
        max(abs(p.eps1), abs(p.eps2)) / critical_pump(p) < 1.0 - THRESHOLD_GUARD)


def steady_state(p: SystemParams) -> SteadyState:
    """Below-threshold classical steady state.

    Equal pumps use the closed form beta_ss = eps / [gamma_b - i(J_b - Delta_b)];
    unequal pumps fall back on the numeric fixed-point solve. Raises
    AboveThresholdError when any stability eigenvalue has a non-positive real
    part (or the pump enters the guard band around eps_crit), since the
    fluctuation analysis built on this state would be meaningless there.
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


def _signal_eigenvalues(ps: list) -> np.ndarray:
    """Eigenvalues of the 4x4 signal block of each parameter set in ps at
    the alpha = 0 fixed point, unsorted, shape (len(ps), 4): the one place
    that picks the closed form or the dense solver.

    On resonance with equal real pumps the block has the closed form

        gamma_a +- sqrt(kappa^2 eps^2 / (gamma_b^2 + J_b^2) - J_a^2)   (each twice)

    with the principal square root turning a negative argument into an
    imaginary pair. All other rows go through one stacked dense eigensolve.
    """
    signal = np.empty((len(ps), 4), dtype=complex)
    dense, blocks = [], []
    for i, p in enumerate(ps):
        if p.resonant and p.equal_pumps and p.eps1.imag == 0.0:
            gtb = math.hypot(p.gamma_b, p.J_b)
            s = np.sqrt(complex((p.kappa * p.eps1.real / gtb) ** 2 - p.J_a ** 2))
            signal[i] = [p.gamma_a + s, p.gamma_a - s] * 2
        else:
            ss = _unchecked_state(p)
            dense.append(i)
            blocks.append(drift_block(p.gamma_a + 1j * p.Delta_a, 1j * p.J_a,
                                      p.kappa * ss.beta1_ss, p.kappa * ss.beta2_ss))
    if blocks:
        signal[dense] = dense_eigvals(np.array(blocks))
    return signal


def stability_eigenvalues(p: SystemParams) -> np.ndarray:
    """Decay eigenvalues of the fluctuation drift matrix, shape (8,),
    unsorted: the signal block's four, then the pump block's four.

    Below threshold all real parts are positive; the slowest one touching
    zero marks the oscillation threshold. At the alpha = 0 fixed point
    (which exists on both sides of threshold, so this routine never raises)
    A is block diagonal. Its signal block's eigenvalues come from
    _signal_eigenvalues, in closed form or from the dense 4x4 eigensolver,
    in that routine's order. Its pump block does not see the pump and has
    the eigenvalues gamma_b + i(Delta_b + J_b), gamma_b + i(Delta_b - J_b)
    and their conjugates, in that order. No 8x8 matrix is factored.
    """
    pump = np.array([p.gamma_b + 1j * (p.Delta_b + p.J_b),
                     p.gamma_b + 1j * (p.Delta_b - p.J_b)])
    return np.concatenate([_signal_eigenvalues([p])[0], pump, pump.conj()])


def min_re_eig_stack(ps: list) -> np.ndarray:
    """min Re stability_eigenvalues(p) for each parameter set in ps, from
    one _signal_eigenvalues call: the signal block's slowest decay, or the
    pump block's gamma_b where that is smaller."""
    return np.minimum(_signal_eigenvalues(ps).real.min(axis=1),
                      [p.gamma_b for p in ps])


def _quadrature_form(M: np.ndarray) -> np.ndarray:
    """Real form of a stack of conjugation-symmetric complex matrices.

    Each 2x2 block [[p, q], [q*, p*]] of M (..., 2k, 2k), acting on
    (a, a*), becomes [[Re(p+q), -Im(p-q)], [Im(p+q), Re(p-q)]] acting on
    (Re a, Im a): M = T R T^-1 with T = [[1, i], [1, -i]] per block, so R
    has the eigenvalues of M.
    """
    p, q = M[..., 0::2, 0::2], M[..., 0::2, 1::2]
    s, d = p + q, p - q
    R = np.empty(M.shape)
    R[..., 0::2, 0::2], R[..., 0::2, 1::2] = s.real, -d.imag
    R[..., 1::2, 0::2], R[..., 1::2, 1::2] = s.imag, d.real
    return R


def _kinds(rows: np.ndarray) -> np.ndarray:
    """Number the rows of a 2-D array by their bits, in order of first
    appearance: bit-equal rows get the same number."""
    seen = {}
    return np.array([seen.setdefault(r.tobytes(), len(seen)) for r in rows],
                    dtype=int)


def threshold_bisection_stack(ps: list) -> np.ndarray:
    """Numeric threshold of each parameter set in ps: the equal real pump
    amplitude at which the slowest drift eigenvalue crosses zero; the pump
    fields of each set are ignored.

    At the alpha = 0 fixed point A is block diagonal, and the eigenvalues of
    its pump block have real part gamma_b > 0 whatever the pump e
    (stability_eigenvalues), so min Re eig(A) changes sign where that of the
    4x4 signal block does. That block is A0 + e A1, as the steady pump field
    is linear in e: drift_block at the pump fields of e = 0 and e = 1 gives
    A0 and A1, and no 8x8 model is built. A root find on its dense
    eigenvalues, never the closed form, checks the analytic threshold
    independently.

    The rows are solved on the real quadrature form R0 + e R1 of the
    block (_quadrature_form), an exact similarity for real e, as the real
    eigensolver is about twice as fast on the stack. Rows whose R0, R1 and
    bracket are bit-equal (a pump scan's, say) share one root find.

    All rows are solved at once on [0, hi0 = 10 * critical_pump] with one
    stacked eigvals per step, by Illinois regula falsi (Dowell & Jarratt,
    BIT 11, 168 (1971)): each row steps to the secant point of its bracket,
    clipped to at least tol = 1e-12 hi0 + _BISECTION_RTOL lo inside it, and
    halves the f value of an end that stayed put twice running; a row whose
    bracket has not halved over its last four steps bisects instead. Each
    row stops on its own once hi - lo <= 2 tol and returns its midpoint, so
    a row's root does not depend on the other rows. Raises DomainError
    naming the first row whose hi0 overflows a float, before any
    eigensolve, and NoCrossingError naming the first row whose bracket does
    not change sign.
    """
    def block_at(p: SystemParams, e: complex) -> np.ndarray:
        m = p.kappa * _equal_pump_field(p, e)
        return drift_block(p.gamma_a + 1j * p.Delta_a, 1j * p.J_a, m, m)

    hi0 = np.array([10.0 * critical_pump(p) for p in ps])
    if (bad := np.flatnonzero(~np.isfinite(hi0))).size:
        raise DomainError(f"row {bad[0]}: bracket end 10 * eps_crit overflows "
                          f"a float at {ps[bad[0]]}")
    A0 = np.array([block_at(p, 0j) for p in ps]).reshape(-1, 4, 4)
    A1 = np.array([block_at(p, 1 + 0j) for p in ps]).reshape(-1, 4, 4) - A0
    A0, A1 = _quadrature_form(A0), _quadrature_form(A1)
    # one root find per distinct row: first[j] is the first row of kind j
    kind = _kinds(np.concatenate([A0.reshape(-1, 16), A1.reshape(-1, 16),
                                  hi0[:, None]], axis=1))
    first = np.unique(kind, return_index=True)[1]
    A0, A1, hi0 = A0[first], A1[first], hi0[first]

    def slowest(rows, e: np.ndarray) -> np.ndarray:
        A = A0[rows] + e[:, None, None] * A1[rows]
        return dense_eigvals(A).real.min(axis=1)

    lo, hi = np.zeros_like(hi0), hi0.copy()
    f_lo, f_hi = slowest(slice(None), lo), slowest(slice(None), hi)
    crossing = (f_lo > 0.0) & (f_hi < 0.0)
    if not crossing.all():
        j = int(np.argmin(crossing))
        raise NoCrossingError(
            f"row {first[j]}: min Re eig does not change sign on "
            f"[0, {hi[j]:.6g}]: endpoints {f_lo[j]:.6g}, {f_hi[j]:.6g}")
    # widths before each row's last four steps, newest first, and the end
    # that moved last (-1 lo, +1 hi, 0 after a bisection step)
    back = np.full((4, hi0.size), np.inf)
    moved = np.zeros(hi0.shape, dtype=int)
    while (rows := np.flatnonzero(
            hi - lo > 2.0 * (1e-12 * hi0 + _BISECTION_RTOL * lo))).size:
        l, h, fl, fh = lo[rows], hi[rows], f_lo[rows], f_hi[rows]
        tol = 1e-12 * hi0[rows] + _BISECTION_RTOL * l
        w = h - l
        x = np.clip(l + fl * (w / (fl - fh)), l + tol, h - tol)
        bisect = w > 0.5 * back[-1, rows]
        x[bisect] = 0.5 * (l + h)[bisect]
        back[1:, rows], back[0, rows] = back[:-1, rows], w
        fx = slowest(rows, x)
        stable = fx > 0.0  # x replaces lo; otherwise hi
        last = moved[rows]
        f_lo[rows] = np.where(stable, fx, np.where(last == 1, 0.5 * fl, fl))
        f_hi[rows] = np.where(stable, np.where(last == -1, 0.5 * fh, fh), fx)
        lo[rows], hi[rows] = np.where(stable, x, l), np.where(stable, h, x)
        moved[rows] = np.where(bisect, 0, np.where(stable, -1, 1))
    return (0.5 * (lo + hi))[kind]
