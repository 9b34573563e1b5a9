"""Positive-P trajectory integration and spectrum estimation.

The full nonlinear model is driven by four independent real Wiener increments
entering the signal rows with state-dependent amplitudes sqrt(kappa * beta);
the pump rows carry no explicit noise. Because the noise amplitudes depend
only on noise-free variables, the Ito and Stratonovich readings coincide and
both steppers target the same process.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import model as _model
from .errors import ConfigError, DivergenceDetectedError, InsufficientDataError
from .linearized import STATE_LABELS, _frozen
from .spectrum import coefficient_vector, vacuum_baseline

# Steps per noise chunk. It fixes which Philox draw feeds which step, so it
# is part of every seeded result: at 256 the seed-5 pump-mean test fails.
_NOISE_CHUNK = 2048
_NOISE_TILE = 8  # streams whose draws pass to a chunk through one tile
_DIVERGENCE_FACTOR = 1e6
_MIDPOINT_ITERATIONS = 4
_MIN_MEASURE_PERIODS = 50.0
# Bytes of the noise buffer (chunk x 4 x block doubles) of one trajectory
# block plus its record buffer (n_vars x n_samples x block complex doubles).
# Each block step has a fixed dispatch cost (about 0.1 ms on a 2-core Xeon).
# On the 4096-trajectory ensemble benchmark this budget's blocks of 1376 took
# 8.0 s at 172 MB peak RSS, and 96 MiB's blocks of 1032 took 8.6 s at 154 MB
# (medians of 6 alternating pairs; 96 MiB was slower in all 6).
_NOISE_BUDGET = 128 * 2 ** 20
# |kappa beta| range of amplitude_kernel's real-ufunc path: inside it
# (|z| + |Re z|)/2 is a normal double and their sum cannot overflow.
_AMPLITUDE_RANGE = (2.0 ** -1021, 2.0 ** 1022)

DUMP_FORMAT = "opodimer-ensemble/1"
# the payload layout integrate_to_dump writes, the only one
# load_ensemble_dump reads
_DUMP_LAYOUT = {"dtype": "complex128-le",
                "order": ["trajectory", "sample", "variable"]}


def _as_count(v, least: int, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        raise ConfigError(f"{where} must be an integer >= {least}, got {v!r}")
    return v


class Stepper(Enum):
    EULER_MARUYAMA = "euler-maruyama"
    SEMI_IMPLICIT_MIDPOINT = "semi-implicit-midpoint"


@dataclass(frozen=True)
class SdeConfig:
    """Integration settings. Times are in units of 1/gamma_a = 1 by default;
    n_traj is the full ensemble size including any later-flagged trajectories."""

    dt: float = 0.01
    t_transient: float = 20.0
    t_measure: float = 200.0
    n_traj: int = 4096
    seed: int = 0
    stepper: Stepper = Stepper.SEMI_IMPLICIT_MIDPOINT
    record_stride: int = 5
    record: str = "alpha"

    def __post_init__(self):
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t_transient", float(self.t_transient))
        object.__setattr__(self, "t_measure", float(self.t_measure))
        try:
            object.__setattr__(self, "stepper", Stepper(self.stepper))
        except ValueError:
            raise ConfigError(
                f"unknown stepper {self.stepper!r}; choose from "
                f"{[s.value for s in Stepper]}") from None
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigError(f"dt must be a positive finite float, got {self.dt!r}")
        if self.t_transient < 0.0 or not math.isfinite(self.t_transient):
            raise ConfigError(f"t_transient must be >= 0, got {self.t_transient!r}")
        if self.t_measure <= 0.0 or not math.isfinite(self.t_measure):
            raise ConfigError(f"t_measure must be > 0, got {self.t_measure!r}")
        for name, least in (("n_traj", 2), ("record_stride", 1), ("seed", 0)):
            _as_count(getattr(self, name), least, name)
        if self.record not in ("alpha", "all"):
            raise ConfigError(
                f'record must be "alpha" or "all", got {self.record!r}')
        # round() fails on an infinite ratio; numpy indexes below sys.maxsize
        if not (self.t_transient + self.t_measure) / self.dt < sys.maxsize:
            raise ConfigError(f"t_transient + t_measure at dt = {self.dt!r} "
                              f"is more than {sys.maxsize} steps")
        _, n_me, n_rec = self.sample_counts()
        if n_me < self.record_stride:
            raise ConfigError("t_measure shorter than one recording stride")
        if 8 * 16 * n_rec > sys.maxsize:
            raise ConfigError(f"{n_rec} samples of 8 complex doubles per "
                              f"trajectory pass {sys.maxsize} bytes")

    @property
    def n_vars(self) -> int:
        """Variables recorded per sample: the 4 signal rows or all 8."""
        return 4 if self.record == "alpha" else 8

    def sample_counts(self) -> tuple:
        """(transient steps, measured steps, recorded samples)."""
        n_me = round(self.t_measure / self.dt)
        return round(self.t_transient / self.dt), n_me, -(-n_me // self.record_stride)

    @property
    def dt_sample(self) -> float:
        """Time between recorded samples."""
        return self.dt * self.record_stride


def _project(c, states) -> np.ndarray:
    """sum_v c[v] states[v] over the first axis, element by element, so a
    trajectory's series has the same bits in whatever block it is projected.
    Diverged (non-finite) trajectories are projected silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = c[0] * states[0]
        for cv, sv in zip(c[1:], states[1:]):
            q += cv * sv
    return q


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Monte Carlo output spectrum on the FFT frequency grid, or on the bins
    kept from it, in ascending omega, with standard errors from the spread
    of the per-trajectory periodograms."""

    omega: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    baseline: float
    n_traj_used: int
    n_diverged: int

    def nearest(self, omega: float) -> tuple:
        """(omega_bin, value, stderr) at the grid frequency closest to omega."""
        i = int(np.argmin(np.abs(self.omega - omega)))
        return float(self.omega[i]), float(self.values[i]), float(self.stderr[i])


def amplitude_kernel(kappa: float, n: int):
    """The noise amplitude sqrt(kappa b) of complex (4, n) pump rows b, as
    bind(b, out) -> f with f() -> out: out complex (4, n), not overlapping
    b, both C-contiguous (bind raises ValueError otherwise).

    numpy's complex sqrt (libm csqrt) spends most of its time in hypot.
    f takes z = kappa b as numpy multiplies it and computes, with numpy's
    SIMD complex abs in place of hypot, t = sqrt((|z| + |Re z|)/2) (the
    larger component) and s = Im z / (2t): the root is (t, s) where
    Re z > 0 and (|s|, copysign(t, Im z)) elsewhere. Each component is
    within 7 ulp of np.sqrt(z) (the bound is derived in tests/test_sde.py).
    Where |z| is zero, not finite or outside _AMPLITUDE_RANGE, out holds
    np.sqrt(z), so the branch cut, signed zeros, inf and NaN are as numpy
    has them; two reductions find such elements, and only a block that
    holds one takes np.sqrt, of those elements alone. A block whose every
    Re z is at least _AMPLITUDE_RANGE[0] and every |z| at most its top,
    as a driven pump's is, lies in the range and in Re z > 0 (|z| >= Re z):
    two reductions find it, and f writes (t, s) straight into out, with no
    branch select. An element's bits do not depend on the rest of its
    block. The values computed and discarded for the elements np.sqrt
    takes raise the invalid and overflow flags, which integrate ignores.
    """
    lo, hi = _AMPLITUDE_RANGE
    m = 4 * n
    k = np.array(kappa + 0j)  # as in model.drift_kernel
    z, w = np.empty((2, m), dtype=complex)  # w = (t, s)
    zr, zi, t, s = z.real, z.imag, w.real, w.imag
    mag, u = np.empty((2, m))
    pos, inside = np.empty((2, m), dtype=bool)

    # flat arrays and positional outs: at n = 256 the fixed cost of each
    # ufunc call is most of its time
    def bind(b, out):
        if not (b.flags.c_contiguous and out.flags.c_contiguous):
            raise ValueError("amplitude_kernel needs C-contiguous arrays")
        b, flat = b.reshape(m), out.reshape(m)
        re, im = flat.real, flat.imag

        def f():
            np.multiply(k, b, z)
            np.abs(z, mag)
            np.copyto(u, zr)
            if (np.minimum.reduce(u) >= lo
                    and np.maximum.reduce(mag) <= hi):  # False for nan
                np.add(mag, u, u)
                np.multiply(u, 0.5, u)
                np.sqrt(u, re)
                np.add(re, re, u)
                np.divide(zi, u, im)
                return out
            np.greater(u, 0.0, pos)
            np.abs(u, u)
            np.add(mag, u, u)
            np.multiply(u, 0.5, u)
            np.sqrt(u, t)
            np.add(t, t, u)
            np.divide(zi, u, s)
            np.abs(s, re)
            np.copysign(t, zi, im)
            np.copyto(flat, w, where=pos)
            if not (np.minimum.reduce(mag) >= lo
                    and np.maximum.reduce(mag) <= hi):  # True for nan
                np.greater_equal(mag, lo, pos)
                np.less_equal(mag, hi, inside)
                np.logical_and(pos, inside, inside)
                np.logical_not(inside, inside)
                np.sqrt(z, flat, where=inside)
            return out

        return f

    return bind


def _warn(message: str) -> None:
    """RuntimeWarning attributed to the first frame outside this module."""
    frame, level = sys._getframe(1), 2
    while frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)


def integrate(p: _model.SystemParams, cfg: SdeConfig, consume,
              noise: np.ndarray = None) -> np.ndarray:
    """Integrate the positive-P equations, handing strided samples to consume,
    and return the read-only diverged mask of the n_traj trajectories.

    Each finished block of trajectories is handed over as consume(rec,
    alive): rec its (n_vars, n_samples, n) samples, n_vars = 4 for the
    signal rows or 8 for the full state as cfg.record says, and alive its
    slice of the live mask. rec is one buffer reused by every block, so the
    consumer copies what it keeps. No sample is kept here.

    Each trajectory owns a counter-based generator spawned from the config
    seed, so results are bit-identical for identical inputs and trajectory k
    is unchanged when n_traj grows. noise, if given, must hold standard
    normal increments of shape (4, n_steps, n_traj); they are scaled by
    sqrt(dt) internally (for common-random-number tests, coarse increments
    are (z1 + z2)/sqrt(2) of the fine ones).

    Trajectories are integrated in blocks, each on buffers allocated once:
    a block holds as many trajectories as fit _NOISE_BUDGET bytes of noise
    and record buffer (min(_NOISE_CHUNK, n_steps) x 4 increments and
    n_vars x n_samples samples per trajectory), so memory beyond the live
    mask does not grow with n_traj. Each block spawns its own seeds as it
    starts (or takes its slice of the injected noise), so blocking changes
    no output bit, and every element goes through the same
    floating-point operations in the same order as the allocating form

        xm = x;  4 times: xm = x + (drift_h(xm) + noise(xm))
        x = 2 xm - x

    with h = dt/2 and dw = z sqrt(dt)/2 for increments z (x + (drift_h(x)
    + noise(x)) with h = dt and dw = z sqrt(dt) for Euler-Maruyama), where
    drift_h is the drift with each coefficient scaled by h
    (model.drift_kernel(p, n, h)) and noise(y) is sqrt(kappa beta) dw,
    added to the signal rows alone, with beta = y[4:] and the root taken
    by amplitude_kernel: within 7 ulp of np.sqrt per component, and np.sqrt
    itself at zero, inf, NaN and magnitudes outside _AMPLITUDE_RANGE.
    Folding the step into the coefficients saves two passes per update
    over xm = x + 0.5 (drift(xm) dt + noise(xm)) and rounds differently:
    against that form a sample moves by about 1e-15 of its series' largest
    magnitude.

    Trajectories whose state magnitude exceeds 1e6 * max(1, |beta_ss|) at a
    sampling instant are flagged as diverged and reported, never silently
    dropped; only if every trajectory diverges does this raise.
    """
    eigs = _model.stability_eigenvalues(p)
    rate = float(np.max(np.abs(eigs)))
    if cfg.dt * rate >= 0.1:
        raise ConfigError(
            f"dt = {cfg.dt:g} too coarse: dt * max|eigenvalue| = "
            f"{cfg.dt * rate:.3g} >= 0.1")
    if not _model._is_below_threshold(p):
        _warn("integrating at or above threshold; positive-P trajectories "
              "are expected to spike")
    n_tr, n_me, n_rec = cfg.sample_counts()
    n_steps = n_tr + n_me
    if noise is not None:
        noise = np.asarray(noise, dtype=float)
        if noise.shape != (4, n_steps, cfg.n_traj):
            raise ConfigError(
                f"injected noise must have shape (4, {n_steps}, {cfg.n_traj}), "
                f"got {noise.shape}")
    root = np.random.SeedSequence(cfg.seed)  # spawn counts its children
    ss = _model._unchecked_state(p)
    x0 = ss.vector()[:, None]
    thresh = _DIVERGENCE_FACTOR * max(1.0, abs(ss.beta1_ss), abs(ss.beta2_ss))
    n_vars = cfg.n_vars
    n_chunk = min(_NOISE_CHUNK, n_steps)
    two = np.array(2.0 + 0j)  # 0-d complex, as in model.drift_kernel
    midpoint = cfg.stepper is Stepper.SEMI_IMPLICIT_MIDPOINT
    # each update takes half a step of drift and noise (midpoint) or a whole one
    h, sqrt_h = ((cfg.dt / 2, math.sqrt(cfg.dt) / 2) if midpoint
                 else (cfg.dt, math.sqrt(cfg.dt)))

    def run_block(rec, alive, z):
        # Step one block of trajectories from x0, writing its samples into
        # rec (n_vars, n_rec, n) and clearing alive where they diverge; the
        # increments come from z, the block's injected noise, if given.
        n = alive.size
        drift = _model.drift_kernel(p, n, h)
        amplitude = amplitude_kernel(p.kappa, n)
        gens = () if z is not None else [
            np.random.Generator(np.random.Philox(s)) for s in root.spawn(n)]
        x = x0.repeat(n, axis=1)
        xm, d = np.empty_like(x), np.empty_like(x)
        d_sig = d[:4]
        nz = np.empty((4, n), dtype=complex)  # the pump rows carry no noise
        dwc = np.empty((4, n), dtype=complex)  # this step's increments
        mag, peak, ok = np.empty((8, n)), np.empty(n), np.empty(n, dtype=bool)
        chunk = np.empty((n_chunk, 4, n))
        # each stream draws its (4, m) increments of a chunk in one call
        tile = np.empty((min(_NOISE_TILE, len(gens)), 4 * n_chunk))
        at_x = (drift(x, d), amplitude(x[4:], nz))
        at_xm = (drift(xm, d), amplitude(xm[4:], nz))
        iterations = (at_x,) + (at_xm,) * (_MIDPOINT_ITERATIONS - 1)

        def check():
            np.abs(x, out=mag)
            np.max(mag, axis=0, out=peak)
            np.less_equal(peak, thresh, out=ok)  # False for nan
            np.logical_and(alive, ok, out=alive)

        def drift_and_noise(f, g):
            # d = f(), h times the drift at y, and d[:4] += g() dw, g the
            # amplitude at y[4:] and dw this step's increments times sqrt_h
            f()
            g()
            np.multiply(nz, dwc, out=nz)
            np.add(d_sig, nz, out=d_sig)

        j = 0
        for step in range(n_steps):
            if step >= n_tr and (step - n_tr) % cfg.record_stride == 0:
                rec[:, j] = x[:n_vars]
                check()
                j += 1
            ci = step % _NOISE_CHUNK
            if ci == 0:
                m = min(_NOISE_CHUNK, n_steps - step)
                if z is not None:
                    chunk[:m] = z[:, step:step + m].transpose(1, 0, 2)
                for t0 in range(0, len(gens), _NOISE_TILE):
                    part = gens[t0:t0 + _NOISE_TILE]
                    for t, gen in enumerate(part):
                        gen.standard_normal(out=tile[t, :4 * m])
                    drawn = tile[:len(part), :4 * m].reshape(-1, 4, m)
                    chunk[:m, :, t0:t0 + len(part)] = drawn.T
                np.multiply(chunk[:m], sqrt_h, out=chunk[:m])
            np.copyto(dwc, chunk[ci])  # cast to complex once per step
            if midpoint:
                for f, g in iterations:
                    drift_and_noise(f, g)
                    np.add(x, d, out=xm)
                np.multiply(two, xm, out=xm)
                np.subtract(xm, x, out=x)
            else:
                drift_and_noise(*at_x)
                np.add(x, d, out=x)
        check()

    # bytes per trajectory: noise doubles plus complex samples
    block = max(1, _NOISE_BUDGET // (4 * n_chunk * 8 + n_vars * n_rec * 16))
    rec = np.empty((n_vars, n_rec, min(block, cfg.n_traj)), dtype=complex)
    alive = np.ones(cfg.n_traj, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, cfg.n_traj, block):
            sl = slice(lo, lo + block)
            out = rec[:, :, :alive[sl].size]
            run_block(out, alive[sl], None if noise is None else noise[:, :, sl])
            consume(out, alive[sl])

    diverged = _frozen(~alive)
    n_div = int(diverged.sum())
    if n_div == cfg.n_traj:
        raise DivergenceDetectedError(
            f"every one of the {cfg.n_traj} trajectories diverged")
    if n_div:
        _warn(f"{n_div} of {cfg.n_traj} trajectories diverged and are "
              "excluded from statistics")
    return diverged


class _Periodograms:
    """Per-trajectory periodogram values F(w_k) F(-w_k) / T of quadrature
    combinations at chosen bins, filled one trajectory block at a time.

    A block's live columns are projected, transformed and kept at the bins
    only: an (n_combos, n_bins, n_traj) float array is all that grows with
    the ensemble. Projection and FFT treat each trajectory on its own, so
    the estimates do not depend on how the ensemble was split into blocks.
    """

    def __init__(self, p: _model.SystemParams, cfg: SdeConfig, combos,
                 omegas=None):
        if cfg.t_measure < _MIN_MEASURE_PERIODS / p.gamma_a:
            raise InsufficientDataError(
                f"t_measure = {cfg.t_measure:g} is below {_MIN_MEASURE_PERIODS:g}"
                f"/gamma_a = {_MIN_MEASURE_PERIODS / p.gamma_a:g}; spectra would "
                "be dominated by window leakage")
        n_rec = cfg.sample_counts()[2]
        self.params, self.combos = p, combos
        self.dt_s = cfg.dt_sample
        self.span = n_rec * self.dt_s
        omega = 2.0 * math.pi * np.fft.fftfreq(n_rec, self.dt_s)
        bins = np.argsort(omega)
        if omegas is not None:  # the bin SpectrumEstimate.nearest picks
            omegas = np.asarray(omegas, dtype=float).ravel()
            if omegas.size == 0 or not np.isfinite(omegas).all():
                raise ValueError(
                    f"omegas must be finite and not empty, got {omegas}")
            bins = bins[np.unique([np.argmin(np.abs(omega[bins] - w))
                                   for w in omegas])]
        self.bins, self.neg, self.omega = bins, (-bins) % n_rec, _frozen(omega[bins])
        self.coeffs = [coefficient_vector(cfg.n_vars, terms) for terms in combos]
        self.P = np.empty((len(combos), bins.size, cfg.n_traj))
        self.n_live = 0

    def __call__(self, rec, alive) -> None:
        lo, n = self.n_live, int(alive.sum())
        for P, c in zip(self.P, self.coeffs):
            F = np.fft.fft(_project(c, rec)[:, alive], axis=0)
            F *= self.dt_s
            P[:, lo:lo + n] = (F[self.bins] * F[self.neg]).real / self.span
            del F  # before the next combination's transform is allocated
        self.n_live += n

    def estimates(self) -> list:
        """One SpectrumEstimate per combination over the live trajectories
        (integrate raises DivergenceDetectedError if none is left). Standard
        errors are the spread of the per-trajectory values over sqrt(n_live),
        with n_live - 1 degrees of freedom (zero only in the noiseless
        undriven case, NaN for a single live trajectory)."""
        n_live = self.n_live
        scale = 2.0 * self.params.gamma_a
        out = []
        for terms, P in zip(self.combos, self.P):
            # each C-contiguous row is reduced on its own, pairwise, whatever
            # the number of bins kept
            P = np.ascontiguousarray(P[:, :n_live])
            base = vacuum_baseline(terms, terms)
            values = base + scale * P.mean(axis=1)
            stderr = scale * P.std(axis=1, ddof=1) / math.sqrt(n_live) \
                if n_live >= 2 else np.full(P.shape[0], np.nan)
            out.append(SpectrumEstimate(
                omega=self.omega, values=_frozen(values), stderr=_frozen(stderr),
                baseline=base, n_traj_used=n_live,
                n_diverged=self.P.shape[2] - n_live))
        return out


def stream_output_spectra(p: _model.SystemParams, cfg: SdeConfig, combos,
                          omegas=None, noise: np.ndarray = None) -> list:
    """Integrate and return one output-normalized ensemble periodogram per
    quadrature combination of combos ([(mode, theta, weight), ...] each).

    Per trajectory the finite-window transform F(w) = dt_sample * DFT(q)
    enters as F(w) F(-w) / T, whose ensemble mean converges to the normally
    ordered combination spectrum; adding the vacuum baseline and the
    2 gamma_a in/out scaling makes the result directly comparable with the
    linearized output spectra. Each estimate holds the FFT bins nearest to
    omegas, once each and ascending (every bin when omegas is None); a bin's
    value does not depend on which other bins are kept or on how the
    ensemble is split into blocks. Each block is folded into those bins as
    soon as it is integrated, so memory does not grow with n_traj beyond
    n_combos x n_bins floats per trajectory. The measurement window, and
    omegas (ValueError where empty or not finite), are checked before any
    step is taken.
    """
    acc = _Periodograms(p, cfg, combos, omegas)
    integrate(p, cfg, acc, noise)
    return acc.estimates()


def integrate_to_dump(p: _model.SystemParams, cfg: SdeConfig, path,
                      noise: np.ndarray = None) -> np.ndarray:
    """integrate, writing raw samples as little-endian complex doubles plus
    a JSON sidecar, and return the diverged mask.

    Layout is trajectory-major: all samples of trajectory 0, then 1, ...;
    each sample is n_variables complex doubles in the state ordering. Each
    block is copied out one trajectory at a time as it finishes, into a
    temporary file beside path that replaces path only once the run
    succeeds; if integrate raises, no payload or sidecar is written and path
    is left as it was. The sidecar (same path + ".json"), written last,
    records shapes, labels, parameters, seed, and the diverged-trajectory
    indices so the stream can be audited without this package.
    """
    path = Path(path)
    part = path.with_name(path.name + ".part")

    def write(rec, alive):
        for t in range(rec.shape[2]):
            f.write(np.ascontiguousarray(rec[:, :, t].T).astype("<c16", copy=False))

    try:
        with part.open("wb") as f:
            diverged = integrate(p, cfg, write, noise)
        part.replace(path)
    finally:
        part.unlink(missing_ok=True)
    params = asdict(p)
    n_tr, _, n_rec = cfg.sample_counts()
    sidecar = {
        "format": DUMP_FORMAT,
        **_DUMP_LAYOUT,
        "n_traj": cfg.n_traj,
        "n_samples": n_rec,
        "n_variables": cfg.n_vars,
        "variables": list(STATE_LABELS[:cfg.n_vars]),
        "t_first_sample": n_tr * cfg.dt,
        "dt_sample": cfg.dt_sample,
        "params": params | {k: [params[k].real, params[k].imag]
                            for k in ("eps1", "eps2")},
        "config": asdict(cfg) | {"stepper": cfg.stepper.value},
        "diverged_indices": np.flatnonzero(diverged).tolist(),
    }
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return diverged


def load_ensemble_dump(path) -> tuple:
    """Read a dump back as (states, sidecar) with states shaped
    (n_variables, n_samples, n_traj), as integrate hands blocks to its
    consumer. Raises ConfigError on format mismatch."""
    path = Path(path)
    try:
        sidecar = json.loads(Path(str(path) + ".json").read_text(encoding="ascii"))
    except ValueError as exc:  # also a sidecar that is not ASCII
        raise ConfigError(f"sidecar of {path} is not valid JSON: {exc}") from exc
    if not isinstance(sidecar, dict):
        raise ConfigError(f"sidecar of {path} is not a JSON object")
    if sidecar.get("format") != DUMP_FORMAT:
        raise ConfigError(
            f"unsupported dump format {sidecar.get('format')!r}")
    for key, want in _DUMP_LAYOUT.items():
        if sidecar.get(key) != want:
            raise ConfigError(f"sidecar of {path} gives {key} "
                              f"{sidecar.get(key)!r}, not {want!r}")
    shape = tuple(_as_count(sidecar.get(k), 0, f"{k} in the sidecar of {path}")
                  for k in ("n_traj", "n_samples", "n_variables"))
    labels = list(STATE_LABELS[:shape[2]])
    if len(labels) != shape[2] or sidecar.get("variables") != labels:
        raise ConfigError(f"sidecar of {path} labels its {shape[2]} variables "
                          f"{sidecar.get('variables')!r}, not the first "
                          f"{shape[2]} of {list(STATE_LABELS)}")
    data = path.read_bytes()
    if len(data) != 16 * math.prod(shape):
        raise ConfigError(f"dump holds {len(data)} bytes, sidecar promises "
                          f"{shape} complex doubles")
    states = np.frombuffer(data, dtype="<c16").reshape(shape).transpose(2, 1, 0)
    return states, sidecar
