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
_N_BATCHES = 16
# Bytes of the noise buffer (chunk x 4 x block doubles) of one trajectory
# block: 2048 trajectories at _NOISE_CHUNK = 2048. Every block step carries a
# fixed numpy dispatch cost (about 0.17 ms on a 2-core Xeon), so blocks of 512
# made a 4096-trajectory run about 17% slower than blocks of 2048.
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


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """Recorded samples of one integration run.

    states has shape (n_vars, n_samples, n_traj) with n_vars = 4 for the
    signal rows or 8 for the full state, as config.record says; diverged
    marks trajectories that crossed the divergence threshold at any sampling
    instant and must be excluded from statistics.
    """

    times: np.ndarray
    states: np.ndarray
    params: _model.SystemParams
    config: SdeConfig
    diverged: np.ndarray

    @property
    def n_traj(self) -> int:
        return self.states.shape[2]

    @property
    def n_samples(self) -> int:
        return self.states.shape[1]

    @property
    def n_diverged(self) -> int:
        return int(self.diverged.sum())

    @property
    def dt_sample(self) -> float:
        return self.config.dt * self.config.record_stride

    def quadrature_series(self, terms) -> np.ndarray:
        """Pathwise quadrature-combination series, live trajectories only.

        terms is [(mode, theta, weight), ...] as in spectrum.coefficient_vector;
        returns a complex (n_samples, n_live) array. The combination is complex
        pathwise even though its ensemble statistics are real. Projecting
        before selecting the live columns never copies the states array.
        """
        c = coefficient_vector(self.states.shape[0], terms)
        return np.tensordot(c, self.states, axes=1)[:, ~self.diverged]


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Monte Carlo output spectrum on the FFT frequency grid (shifted to
    ascending omega), with batch-mean standard errors."""

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


def integrate(p: _model.SystemParams, cfg: SdeConfig,
              noise: np.ndarray = None) -> TrajectoryEnsemble:
    """Integrate the positive-P equations and record strided samples.

    Each trajectory owns a counter-based generator spawned from the config
    seed, so results are bit-identical for identical inputs and trajectory k
    is unchanged when n_traj grows. noise, if given, must hold standard
    normal increments of shape (4, n_steps, n_traj); they are scaled by
    sqrt(dt) internally (for common-random-number tests, coarse increments
    are (z1 + z2)/sqrt(2) of the fine ones).

    Trajectories are integrated in blocks, each on buffers allocated once:
    a block holds as many trajectories as fit _NOISE_BUDGET bytes of noise
    buffer (min(_NOISE_CHUNK, n_steps) x 4 increments per trajectory), so
    memory beyond the returned states does not grow with n_traj. Each block
    takes its own slice of the spawned seeds (or of the injected noise), so
    blocking changes no output bit, and every element goes through the same
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
        warnings.warn("integrating at or above threshold; positive-P "
                      "trajectories are expected to spike", RuntimeWarning,
                      stacklevel=2)
    n_tr = round(cfg.t_transient / cfg.dt)
    n_me = round(cfg.t_measure / cfg.dt)
    if n_me < cfg.record_stride:
        raise ConfigError("t_measure shorter than one recording stride")
    n_steps = n_tr + n_me
    if noise is not None:
        noise = np.asarray(noise, dtype=float)
        if noise.shape != (4, n_steps, cfg.n_traj):
            raise ConfigError(
                f"injected noise must have shape (4, {n_steps}, {cfg.n_traj}), "
                f"got {noise.shape}")
        seeds = None
    else:
        seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_traj)
    ss = _model._unchecked_state(p)
    x0 = ss.vector()[:, None]
    thresh = _DIVERGENCE_FACTOR * max(1.0, abs(ss.beta1_ss), abs(ss.beta2_ss))
    n_vars = 4 if cfg.record == "alpha" else 8
    n_chunk = min(_NOISE_CHUNK, n_steps)
    kappa, dt, sqdt = p.kappa, cfg.dt, math.sqrt(cfg.dt)
    drift = _model.drift_rhs
    midpoint = cfg.stepper is Stepper.SEMI_IMPLICIT_MIDPOINT

    def run_block(rec, alive, gens, z):
        # Step one block of trajectories from x0, writing its samples into
        # rec (n_vars, n_rec, n) and clearing alive where they diverge.
        n = alive.size
        x = x0.repeat(n, axis=1)
        xm, d = np.empty_like(x), np.empty_like(x)
        nz = np.zeros((8, n), dtype=complex)  # the pump rows carry no noise
        nz_sig = nz[:4]
        mag, peak, ok = np.empty((8, n)), np.empty(n), np.empty(n, dtype=bool)
        if gens is None:
            dw = np.empty((4, n))
        else:
            chunk = np.empty((n_chunk, 4, n))

        def check():
            np.abs(x, out=mag)
            np.max(mag, axis=0, out=peak)
            np.less_equal(peak, thresh, out=ok)  # False for nan
            np.logical_and(alive, ok, out=alive)

        def drift_and_noise(y):
            # d = drift(y) * dt; nz = sqrt(kappa * beta) * dw, with dw this
            # step's increments scaled by sqrt(dt)
            drift(p, y, out=d)
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
            if gens is None:
                np.multiply(z[:, step], sqdt, out=dw)
            else:
                ci = step % _NOISE_CHUNK
                if ci == 0:
                    m = min(_NOISE_CHUNK, n_steps - step)
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

    rec = np.empty((n_vars, -(-n_me // cfg.record_stride), cfg.n_traj),
                   dtype=complex)
    alive = np.ones(cfg.n_traj, dtype=bool)
    block = max(1, _NOISE_BUDGET // (4 * n_chunk * 8))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, cfg.n_traj, block):
            sl = slice(lo, lo + block)
            run_block(rec[:, :, sl], alive[sl],
                      None if seeds is None else
                      [np.random.Generator(np.random.Philox(s)) for s in seeds[sl]],
                      None if noise is None else noise[:, :, sl])

    diverged = ~alive
    n_div = int(diverged.sum())
    if n_div == cfg.n_traj:
        raise DivergenceDetectedError(
            f"every one of the {cfg.n_traj} trajectories diverged")
    if n_div:
        warnings.warn(f"{n_div} of {cfg.n_traj} trajectories diverged and are "
                      "excluded from statistics", RuntimeWarning, stacklevel=2)
    times = np.arange(n_tr, n_steps, cfg.record_stride) * cfg.dt
    return TrajectoryEnsemble(times=_frozen(times), states=_frozen(rec),
                              params=p, config=cfg, diverged=_frozen(diverged))


def estimate_output_spectrum(ensemble: TrajectoryEnsemble, terms) -> SpectrumEstimate:
    """Ensemble periodogram of a quadrature combination, output-normalized.

    Per trajectory the finite-window transform F(w) = dt_sample * DFT(q)
    enters as F(w) F(-w) / T, whose ensemble mean converges to the normally
    ordered combination spectrum; adding the vacuum baseline and the
    2 gamma_a in/out scaling makes the result directly comparable with the
    linearized output spectra. Standard errors come from the means of
    _N_BATCHES batches of trajectories (zero only in the noiseless undriven
    case).
    """
    p = ensemble.params
    t_meas = ensemble.config.t_measure
    if t_meas < _MIN_MEASURE_PERIODS / p.gamma_a:
        raise InsufficientDataError(
            f"t_measure = {t_meas:g} is below {_MIN_MEASURE_PERIODS:g}/gamma_a "
            f"= {_MIN_MEASURE_PERIODS / p.gamma_a:g}; spectra would be "
            "dominated by window leakage")
    if ensemble.n_diverged == ensemble.n_traj:
        raise DivergenceDetectedError("no live trajectories to estimate from")
    q = ensemble.quadrature_series(terms)
    n_rec, n_live = q.shape
    dt_s = ensemble.dt_sample
    span = n_rec * dt_s
    F = np.fft.fft(q, axis=0) * dt_s
    P = (F * F[(-np.arange(n_rec)) % n_rec, :]).real / span
    omega = 2.0 * math.pi * np.fft.fftfreq(n_rec, dt_s)
    base = vacuum_baseline(terms, terms)
    scale = 2.0 * p.gamma_a
    values = base + scale * P.mean(axis=1)
    nb = min(_N_BATCHES, n_live)
    batch_means = np.stack(
        [P[:, idx].mean(axis=1) for idx in np.array_split(np.arange(n_live), nb)],
        axis=1)
    stderr = scale * batch_means.std(axis=1, ddof=1) / math.sqrt(nb) \
        if nb >= 2 else np.full(n_rec, np.nan)
    order = np.argsort(omega)
    return SpectrumEstimate(
        omega=_frozen(omega[order]), values=_frozen(values[order]),
        stderr=_frozen(stderr[order]), baseline=base,
        n_traj_used=n_live, n_diverged=ensemble.n_diverged)


def _params_jsonable(p: _model.SystemParams) -> dict:
    d = asdict(p)
    return d | {k: [d[k].real, d[k].imag] for k in ("eps1", "eps2")}


def _config_jsonable(cfg: SdeConfig) -> dict:
    return asdict(cfg) | {"stepper": cfg.stepper.value}


def write_ensemble_dump(ensemble: TrajectoryEnsemble, path) -> Path:
    """Write raw samples as little-endian complex doubles plus a JSON sidecar.

    Layout is trajectory-major: all samples of trajectory 0, then 1, ...;
    each sample is n_variables complex doubles in the state ordering. The
    sidecar (same path + ".json") records shapes, labels, parameters, seed,
    and the diverged-trajectory indices so the stream can be audited without
    this package.
    """
    path = Path(path)
    arr = np.ascontiguousarray(
        ensemble.states.transpose(2, 1, 0)).astype("<c16")
    path.write_bytes(arr.tobytes())
    sidecar = {
        "format": DUMP_FORMAT,
        "dtype": "complex128-le",
        "order": ["trajectory", "sample", "variable"],
        "n_traj": ensemble.n_traj,
        "n_samples": ensemble.n_samples,
        "n_variables": ensemble.states.shape[0],
        "variables": list(STATE_LABELS[:ensemble.states.shape[0]]),
        "t_first_sample": float(ensemble.times[0]),
        "dt_sample": ensemble.dt_sample,
        "params": _params_jsonable(ensemble.params),
        "config": _config_jsonable(ensemble.config),
        "diverged_indices": np.flatnonzero(ensemble.diverged).tolist(),
    }
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return path


def load_ensemble_dump(path) -> tuple:
    """Read a dump back as (states, sidecar) with states shaped like
    TrajectoryEnsemble.states. Raises ConfigError on format mismatch."""
    path = Path(path)
    sidecar = json.loads(Path(str(path) + ".json").read_text(encoding="ascii"))
    if sidecar.get("format") != DUMP_FORMAT:
        raise ConfigError(
            f"unsupported dump format {sidecar.get('format')!r}")
    shape = (sidecar["n_traj"], sidecar["n_samples"], sidecar["n_variables"])
    flat = np.frombuffer(path.read_bytes(), dtype="<c16")
    if flat.size != shape[0] * shape[1] * shape[2]:
        raise ConfigError(
            f"dump holds {flat.size} samples, sidecar promises {shape}")
    states = flat.reshape(shape).transpose(2, 1, 0)
    return states, sidecar
