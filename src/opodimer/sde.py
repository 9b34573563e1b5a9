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

_NOISE_CHUNK = 2048
_DIVERGENCE_FACTOR = 1e6
_MIDPOINT_ITERATIONS = 4
_MIN_MEASURE_PERIODS = 50.0
# Bytes of the noise buffer (chunk x 4 x block doubles) of one trajectory
# block plus its record buffer (n_vars x n_samples x block complex doubles).
# Every block step carries a fixed numpy dispatch cost (about 0.11 ms on a
# 2-core Xeon). On the benchmark's 4096-trajectory ensemble this budget's
# blocks of 1376 took 13.6 s, blocks of 512 16.0 s and blocks of 2048
# 17.1 s (medians of 3 runs).
_NOISE_BUDGET = 128 * 2 ** 20

DUMP_FORMAT = "opodimer-ensemble/1"


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
        if not isinstance(self.n_traj, int) or self.n_traj < 2:
            raise ConfigError(f"n_traj must be an integer >= 2, got {self.n_traj!r}")
        if not isinstance(self.record_stride, int) or self.record_stride < 1:
            raise ConfigError(
                f"record_stride must be an integer >= 1, got {self.record_stride!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        if self.record not in ("alpha", "all"):
            raise ConfigError(
                f'record must be "alpha" or "all", got {self.record!r}')
        # round() fails on an infinite ratio; numpy indexes below sys.maxsize
        if not (self.t_transient + self.t_measure) / self.dt < sys.maxsize:
            raise ConfigError(f"t_transient + t_measure at dt = {self.dt!r} "
                              f"is more than {sys.maxsize} steps")
        if 8 * 16 * (n_rec := self.sample_counts()[2]) > sys.maxsize:
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

        xm = x;  4 times: xm = x + 0.5 * (drift(xm) dt + noise(xm))
        x = 2 xm - x

    (x + drift(x) dt + noise(x) for Euler-Maruyama), where noise(y) is
    sqrt(kappa beta) dW on the signal rows and zero on the pump rows.

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
    if n_me < cfg.record_stride:
        raise ConfigError("t_measure shorter than one recording stride")
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
    kappa, dt, sqdt = p.kappa, cfg.dt, math.sqrt(cfg.dt)
    midpoint = cfg.stepper is Stepper.SEMI_IMPLICIT_MIDPOINT

    def run_block(rec, alive, z):
        # Step one block of trajectories from x0, writing its samples into
        # rec (n_vars, n_rec, n) and clearing alive where they diverge; the
        # increments come from z, the block's injected noise, if given.
        n = alive.size
        drift = _model.drift_kernel(p, n)
        gens = () if z is not None else [
            np.random.Generator(np.random.Philox(s)) for s in root.spawn(n)]
        x = x0.repeat(n, axis=1)
        xm, d = np.empty_like(x), np.empty_like(x)
        nz = np.zeros((8, n), dtype=complex)  # the pump rows carry no noise
        nz_sig = nz[:4]
        mag, peak, ok = np.empty((8, n)), np.empty(n), np.empty(n, dtype=bool)
        chunk = np.empty((n_chunk, 4, n))

        def check():
            np.abs(x, out=mag)
            np.max(mag, axis=0, out=peak)
            np.less_equal(peak, thresh, out=ok)  # False for nan
            np.logical_and(alive, ok, out=alive)

        def drift_and_noise(y):
            # d = drift(y) * dt; nz = sqrt(kappa * beta) * dw, with dw this
            # step's increments scaled by sqrt(dt)
            drift(y, d)
            np.multiply(kappa, y[4:], out=nz_sig)
            np.sqrt(nz_sig, out=nz_sig)
            np.multiply(nz_sig, dw, out=nz_sig)
            np.multiply(d, dt, out=d)

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
                for t, gen in enumerate(gens):
                    chunk[:m, :, t] = gen.standard_normal((4, m)).T
                np.multiply(chunk[:m], sqdt, out=chunk[:m])
            dw = chunk[ci]
            if midpoint:
                y = x
                for _ in range(_MIDPOINT_ITERATIONS):
                    drift_and_noise(y)
                    np.add(d, nz, out=d)
                    np.multiply(0.5, d, out=d)
                    np.add(x, d, out=xm)
                    y = xm
                np.multiply(2.0, xm, out=xm)
                np.subtract(xm, x, out=x)
            else:
                drift_and_noise(x)
                np.add(x, d, out=x)
                np.add(x, nz, out=x)
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
        """One SpectrumEstimate per combination over the live trajectories.
        Standard errors are the spread of the per-trajectory values over
        sqrt(n_live), with n_live - 1 degrees of freedom (zero only in the
        noiseless undriven case, NaN for a single live trajectory)."""
        n_live = self.n_live
        if n_live == 0:
            raise DivergenceDetectedError("no live trajectories to estimate from")
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
    n_combos x n_bins floats per trajectory. The measurement window is
    checked before any step is taken.
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
        "dtype": "complex128-le",
        "order": ["trajectory", "sample", "variable"],
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
    shape = tuple(sidecar.get(k) for k in ("n_traj", "n_samples", "n_variables"))
    if not all(isinstance(n, int) and n >= 0 for n in shape):
        raise ConfigError(f"sidecar of {path} promises the shape {shape}, not "
                          "three non-negative integers")
    data = path.read_bytes()
    if len(data) != 16 * math.prod(shape):
        raise ConfigError(f"dump holds {len(data)} bytes, sidecar promises "
                          f"{shape} complex doubles")
    states = np.frombuffer(data, dtype="<c16").reshape(shape).transpose(2, 1, 0)
    return states, sidecar
