import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from opodimer import sde
from opodimer.errors import (ConfigError, DivergenceDetectedError,
                             InsufficientDataError)
from opodimer.linearized import build_linear_model
from opodimer.model import SystemParams, _unchecked_state, drift_rhs, steady_state
from opodimer.sde import (SdeConfig, Stepper, integrate, integrate_to_dump,
                          load_ensemble_dump, stream_output_spectra)
from opodimer.spectrum import vacuum_baseline


def sym(**kw):
    base = dict(kappa=0.01, gamma_a=1.0, gamma_b=1.0, J_a=1.0, J_b=1.0,
                Delta_a=0.0, Delta_b=0.0, pump_fraction=0.5)
    base.update(kw)
    return SystemParams.symmetric(**base)


Y0_TERMS = [(1, math.pi / 2, 1.0)]


def collect(p, cfg, noise=None):
    """integrate with a consumer that keeps every block: (diverged mask,
    states), states of shape (n_vars, n_samples, n_traj)."""
    blocks = []
    diverged = integrate(p, cfg, lambda rec, alive: blocks.append(rec.copy()), noise)
    return diverged, np.concatenate(blocks, axis=2)


def spectrum_of(p, cfg, terms, noise=None):
    """The estimate of one combination on every bin."""
    return stream_output_spectra(p, cfg, [terms], noise=noise)[0]


class TestConfigValidation:
    def test_rejects_bad_values(self):
        for kw in (dict(dt=0.0), dict(dt=-1.0), dict(t_measure=0.0),
                   dict(n_traj=1), dict(n_traj=2.5), dict(record_stride=0),
                   dict(stepper="heun"), dict(record="beta_only"),
                   dict(t_transient=-0.1), dict(seed=-1),
                   # more steps than sys.maxsize, or a ratio past the float
                   # range; a record of 8 x 8e17 complex doubles
                   dict(dt=1e-300), dict(t_transient=1e300),
                   dict(t_measure=1e300, dt=1e-10), dict(dt=5e-17)):
            with pytest.raises(ConfigError):
                SdeConfig(**kw)

    def test_stepper_coerced_from_string(self):
        cfg = SdeConfig(stepper="euler-maruyama")
        assert cfg.stepper is Stepper.EULER_MARUYAMA

    def test_step_too_coarse_for_stiffness(self):
        # detuned J_a = 10 puts eigenvalues near |lambda| ~ 20
        p = sym(J_a=10.0, Delta_a=10.0, Delta_b=1.0)
        with pytest.raises(ConfigError):
            collect(p, SdeConfig(dt=0.01, t_measure=1.0, n_traj=2))

    def test_above_threshold_warns(self):
        p = sym(pump_fraction=1.01)
        cfg = SdeConfig(dt=0.002, t_transient=0.0, t_measure=0.1, n_traj=2,
                        seed=7)
        with pytest.warns(RuntimeWarning):
            collect(p, cfg)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        p = sym()
        cfg = SdeConfig(dt=0.02, t_transient=1.0, t_measure=4.0, n_traj=8,
                        seed=3)
        _, a = collect(p, cfg)
        _, b = collect(p, cfg)
        assert np.array_equal(a, b)

    def test_trajectory_prefix_stable_in_ensemble_size(self):
        # growing the ensemble must not reshuffle existing trajectories
        p = sym()
        _, small = collect(p, SdeConfig(dt=0.02, t_transient=1.0,
                                        t_measure=4.0, n_traj=4, seed=3))
        _, big = collect(p, SdeConfig(dt=0.02, t_transient=1.0,
                                      t_measure=4.0, n_traj=8, seed=3))
        assert np.array_equal(small, big[:, :, :4])


def row_drift(p, x):
    """The equations of motion written row by row, one temporary per term."""
    a1, a1p, a2, a2p, b1, b1p, b2, b2p = x
    ca = p.gamma_a + 1j * p.Delta_a
    cb = p.gamma_b + 1j * p.Delta_b
    k = p.kappa
    out = np.empty_like(x)
    out[0] = -ca * a1 + k * a1p * b1 + 1j * p.J_a * a2
    out[1] = -np.conj(ca) * a1p + k * a1 * b1p - 1j * p.J_a * a2p
    out[2] = -ca * a2 + k * a2p * b2 + 1j * p.J_a * a1
    out[3] = -np.conj(ca) * a2p + k * a2 * b2p - 1j * p.J_a * a1p
    out[4] = p.eps1 - cb * b1 - 0.5 * k * a1 * a1 + 1j * p.J_b * b2
    out[5] = np.conj(p.eps1) - np.conj(cb) * b1p - 0.5 * k * a1p * a1p - 1j * p.J_b * b2p
    out[6] = p.eps2 - cb * b2 - 0.5 * k * a2 * a2 + 1j * p.J_b * b1
    out[7] = np.conj(p.eps2) - np.conj(cb) * b2p - 0.5 * k * a2p * a2p - 1j * p.J_b * b1p
    return out


def philox_increments(cfg, n_steps):
    """The standard normal increments integrate draws for cfg, as one array:
    trajectory t fills chunk after chunk of _NOISE_CHUNK steps from its own
    Philox stream."""
    z = np.empty((4, n_steps, cfg.n_traj))
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_traj)
    for t, s in enumerate(seeds):
        gen = np.random.Generator(np.random.Philox(s))
        for c0 in range(0, n_steps, sde._NOISE_CHUNK):
            m = min(sde._NOISE_CHUNK, n_steps - c0)
            z[:, c0:c0 + m, t] = gen.standard_normal((4, m))
    return z


def reference_integrate(p, cfg, z):
    """A plain allocating stepper over explicit increments z: every step
    builds fresh arrays for the drift, the noise and the update."""
    ss = _unchecked_state(p)
    n_tr = round(cfg.t_transient / cfg.dt)
    n_steps = n_tr + round(cfg.t_measure / cfg.dt)
    n_vars = 4 if cfg.record == "alpha" else 8
    x = np.zeros((8, cfg.n_traj), dtype=complex)
    x[4], x[5] = ss.beta1_ss, np.conj(ss.beta1_ss)
    x[6], x[7] = ss.beta2_ss, np.conj(ss.beta2_ss)
    thresh = 1e6 * max(1.0, abs(ss.beta1_ss), abs(ss.beta2_ss))
    alive = np.ones(cfg.n_traj, dtype=bool)
    rec = []

    def noise(y, dw):
        out = np.zeros_like(y)
        for r in range(4):
            out[r] = np.sqrt(p.kappa * y[4 + r]) * dw[r]
        return out

    for step in range(n_steps):
        if step >= n_tr and (step - n_tr) % cfg.record_stride == 0:
            rec.append(x[:n_vars].copy())
            peak = np.max(np.abs(x), axis=0)
            alive &= np.isfinite(peak) & (peak <= thresh)
        dw = z[:, step, :] * math.sqrt(cfg.dt)
        if cfg.stepper is Stepper.SEMI_IMPLICIT_MIDPOINT:
            xm = x
            for _ in range(4):
                xm = x + 0.5 * (row_drift(p, xm) * cfg.dt + noise(xm, dw))
            x = 2.0 * xm - x
        else:
            x = x + row_drift(p, x) * cfg.dt + noise(x, dw)
    peak = np.max(np.abs(x), axis=0)
    alive &= np.isfinite(peak) & (peak <= thresh)
    return np.stack(rec, axis=1), ~alive


def assert_same_run(run, ref):
    (diverged, states), (ref_states, ref_diverged) = run, ref
    assert np.array_equal(states.view(float), ref_states.view(float))
    assert np.array_equal(diverged, ref_diverged)


POINTS = {
    "driven": sym(),
    # pump rows start at exact zeros, so the sign of each zero matters
    "undriven": sym(pump_fraction=0.0),
    "detuned": SystemParams(kappa=0.013, gamma_a=1.2, gamma_b=0.7, J_a=0.3,
                            J_b=-0.4, Delta_a=0.3, Delta_b=-1.1,
                            eps1=30 + 20j, eps2=-15 + 2.5j),
}


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


class TestReferenceStepper:
    """integrate must give, bit for bit, what the plain stepper gives."""

    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("stepper", [s.value for s in Stepper])
    @pytest.mark.parametrize("record", ["alpha", "all"])
    def test_seeded_run_equals_reference(self, point, stepper, record):
        p = POINTS[point]
        cfg = SdeConfig(dt=0.02, t_transient=0.5, t_measure=2.0, n_traj=5,
                        seed=13, stepper=stepper, record=record,
                        record_stride=3)
        z = philox_increments(cfg, 125)
        assert_same_run(collect(p, cfg), reference_integrate(p, cfg, z))

    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("stepper", [s.value for s in Stepper])
    def test_injected_noise_equals_reference(self, point, stepper):
        p = POINTS[point]
        cfg = SdeConfig(dt=0.02, t_transient=0.5, t_measure=2.0, n_traj=5,
                        stepper=stepper, record="all", record_stride=2)
        z = np.random.default_rng(8).standard_normal((4, 125, 5))
        assert_same_run(collect(p, cfg, noise=z),
                        reference_integrate(p, cfg, z))

    @pytest.mark.parametrize("injected", [False, True])
    def test_run_over_several_blocks(self, monkeypatch, injected):
        # blocks of 2 trajectories (the last holds 1), noise chunks of 16 steps
        monkeypatch.setattr(sde, "_NOISE_CHUNK", 16)
        p = POINTS["detuned"]
        cfg = SdeConfig(dt=0.02, t_transient=0.5, t_measure=2.0, n_traj=5,
                        seed=4, record="all")
        force_blocks(monkeypatch, cfg, 2)
        z = (np.random.default_rng(2).standard_normal((4, 125, 5)) if injected
             else philox_increments(cfg, 125))
        run = collect(p, cfg, noise=z if injected else None)
        assert_same_run(run, reference_integrate(p, cfg, z))
        monkeypatch.setattr(sde, "_NOISE_BUDGET", 2 ** 25)
        _, one = collect(p, cfg, noise=z if injected else None)
        assert np.array_equal(run[1].view(float), one.view(float))

    def test_drift_blocks_equal_row_formulas(self):
        rng = np.random.default_rng(6)
        pool = np.array([0.0, -0.0, 1e-310, -1e-310, 1.0, -2.5, np.inf, -np.inf])
        for p in list(POINTS.values()) + SIGNED_ZERO_POINTS:
            for n in (1, 3, 256):
                x = rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n))
                signed = np.empty((8, n), dtype=complex)
                signed.real = rng.choice(pool, (8, n))
                signed.imag = rng.choice(pool, (8, n))
                for y in (x, signed):
                    with np.errstate(invalid="ignore", over="ignore"):
                        want = row_drift(p, y)
                        got = drift_rhs(p, y)
                    assert_same_bits(got, want)
            # a single state is computed as a stack of one
            x8 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            got = drift_rhs(p, x8)
            assert got.shape == (8,)
            assert_same_bits(got, row_drift(p, x8[:, None])[:, 0])


class TestPhysics:
    def test_pump_mean_matches_backaction_corrected_value(self):
        # The pump mode is depleted by the mean signal photon pair rate;
        # compare against the stationary second moment of the linear model.
        p = sym()
        st = steady_state(p)
        model = build_linear_model(p)
        m2 = scipy.linalg.solve_sylvester(model.A, model.A.T,
                                          model.diffusion())
        corr = (p.eps1 - p.kappa * m2[0, 0] / 2.0) / \
            (p.gamma_b - 1j * (p.J_b - p.Delta_b))
        cfg = SdeConfig(dt=0.04, t_transient=12.0, t_measure=3.0,
                        n_traj=10000, seed=5, record="all")
        last = []  # beta1 at the last sampling instant, block by block
        integrate(p, cfg, lambda rec, alive: last.append(rec[4, -1].copy()))
        beta = np.concatenate(last)
        mean = beta.mean()
        err_re = beta.real.std(ddof=1) / math.sqrt(cfg.n_traj)
        err_im = beta.imag.std(ddof=1) / math.sqrt(cfg.n_traj)
        assert abs(mean.real - corr.real) < 3 * err_re
        assert abs(mean.imag - corr.imag) < 3 * err_im
        # and the correction itself is tiny at this pump strength
        assert abs(mean - st.beta1_ss) / abs(st.beta1_ss) < 1e-3

    def test_vacuum_input_gives_flat_unit_spectrum(self):
        p = sym(pump_fraction=0.0)
        cfg = SdeConfig(dt=0.02, t_transient=0.5, t_measure=60.0, n_traj=64,
                        seed=9)
        est = spectrum_of(p, cfg, Y0_TERMS)
        assert np.allclose(est.values, 1.0)
        assert np.allclose(est.stderr, 0.0)

    def test_driven_spectrum_matches_linear_theory_at_dc(self):
        from opodimer.criteria import single_mode_moments, spectral_stack
        p = sym()
        cfg = SdeConfig(dt=0.01, t_transient=20.0, t_measure=120.0,
                        n_traj=512, seed=12)
        est = spectrum_of(p, cfg, Y0_TERMS)
        sy, _, _ = single_mode_moments(spectral_stack(p, 0.0), p.gamma_a,
                                       math.pi / 2)
        w, val, err = est.nearest(0.0)
        assert w == 0.0
        assert err > 0.0
        assert abs(val - sy) / err < 3.0

    def test_euler_agrees_with_midpoint_statistics(self):
        p = sym()
        cfg = SdeConfig(dt=0.005, t_transient=20.0, t_measure=80.0,
                        n_traj=256, seed=21, stepper="euler-maruyama")
        est = spectrum_of(p, cfg, Y0_TERMS)
        from opodimer.criteria import single_mode_moments, spectral_stack
        sy, _, _ = single_mode_moments(spectral_stack(p, 0.0), p.gamma_a,
                                       math.pi / 2)
        _, val, err = est.nearest(0.0)
        assert abs(val - sy) / err < 3.0

    def test_halving_dt_with_common_noise_converges(self):
        # common random numbers: the coarse path must see the pairwise sums
        # of the fine increments, scaled back to unit variance
        p = sym()
        n_traj, seed = 256, 4
        t_tr, t_me = 10.0, 60.0
        dt_f = 0.01
        n_f = round((t_tr + t_me) / dt_f)
        rng = np.random.default_rng(seed)
        z_f = rng.standard_normal((4, n_f, n_traj))
        z_c = (z_f[:, 0::2, :] + z_f[:, 1::2, :]) / math.sqrt(2.0)

        cfg_f = SdeConfig(dt=dt_f, t_transient=t_tr, t_measure=t_me,
                          n_traj=n_traj, record_stride=2)
        cfg_c = SdeConfig(dt=2 * dt_f, t_transient=t_tr, t_measure=t_me,
                          n_traj=n_traj, record_stride=1)
        est_f = spectrum_of(p, cfg_f, Y0_TERMS, noise=z_f)
        est_c = spectrum_of(p, cfg_c, Y0_TERMS, noise=z_c)
        _, vf, ef = est_f.nearest(0.0)
        _, vc, ec = est_c.nearest(0.0)
        assert abs(vf - vc) < math.hypot(ef, ec)


def periodograms(cfg, states, terms):
    """Per-trajectory periodograms of one combination on every bin, in
    ascending omega, written out from recorded samples: the pathwise
    per-slot sum, its transform, and F(w) F(-w) / T."""
    q = sum(w * (states[2 * m - 2] * np.exp(-1j * t)
                 + states[2 * m - 1] * np.exp(1j * t)) for m, t, w in terms)
    n = cfg.sample_counts()[2]
    F = np.fft.fft(q, axis=0) * cfg.dt_sample
    P = (F * F[-np.arange(n) % n]).real / (n * cfg.dt_sample)
    return P[np.argsort(np.fft.fftfreq(n))]


class TestDivergence:
    def test_all_trajectories_diverging_raises(self):
        p = sym()
        t_tr, t_me, dt = 0.0, 10.0, 0.02
        n_steps = round((t_tr + t_me) / dt)
        noise = np.full((4, n_steps, 4), 1e5)
        cfg = SdeConfig(dt=dt, t_transient=t_tr, t_measure=t_me, n_traj=4)
        with pytest.raises(DivergenceDetectedError):
            collect(p, cfg, noise=noise)

    def test_partial_divergence_is_excluded_from_estimate(self):
        p = sym()
        t_tr, t_me, dt = 1.0, 60.0, 0.02
        n_steps = round((t_tr + t_me) / dt)
        cfg = SdeConfig(dt=dt, t_transient=t_tr, t_measure=t_me, n_traj=6)
        terms = [(1, 0.3, 1.0), (2, 0.3, -1.0)]
        # one trajectory diverges, then all but one
        for dead in ([0], [1, 2, 3, 4, 5]):
            noise = np.random.default_rng(0).standard_normal((4, n_steps, 6))
            noise[:, :, dead] = 1e5
            with pytest.warns(RuntimeWarning, match="diverged"):
                diverged, states = collect(p, cfg, noise=noise)
            assert np.flatnonzero(diverged).tolist() == dead
            # the estimate written out from the samples of the live
            # trajectories, and its standard error from the spread of their
            # periodograms (NaN for a single one)
            P = periodograms(cfg, states[:, :, ~diverged], terms)
            n_live = P.shape[1]
            want = vacuum_baseline(terms, terms) + 2.0 * p.gamma_a * P.mean(axis=1)
            want_err = (2.0 * p.gamma_a * P.std(axis=1, ddof=1) / math.sqrt(n_live)
                        if n_live > 1 else np.full(len(P), np.nan))
            # under -W error, the divergence is the one warning
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("error")
                warnings.filterwarnings("always", ".* diverged")
                est = spectrum_of(p, cfg, terms, noise=noise)
            assert len(caught) == 1
            assert est.n_traj_used == 6 - len(dead)
            assert np.isfinite(est.values).all()
            assert np.allclose(est.values, want, rtol=1e-12, atol=1e-12)
            assert np.allclose(est.stderr, want_err, rtol=1e-12, atol=1e-12,
                               equal_nan=True)
        with pytest.raises(ValueError, match="mode must be 1 or 2"):
            spectrum_of(p, cfg, [(3, 0.0, 1.0)], noise=noise)  # a pump slot

    def test_returns_read_only_mask(self):
        cfg = SdeConfig(dt=0.02, t_transient=0.0, t_measure=2.0, n_traj=3)
        noise = np.random.default_rng(0).standard_normal((4, 100, 3))
        noise[:, :, 1] = 1e5
        with pytest.warns(RuntimeWarning, match="diverged"):
            diverged = integrate(sym(), cfg, lambda rec, alive: None, noise)
        assert diverged.dtype == bool
        assert diverged.tolist() == [False, True, False]
        with pytest.raises(ValueError):
            diverged[0] = True

    def test_injected_noise_shape_checked(self):
        p = sym()
        cfg = SdeConfig(dt=0.02, t_transient=1.0, t_measure=4.0, n_traj=4)
        with pytest.raises(ConfigError):
            collect(p, cfg, noise=np.zeros((4, 10, 4)))


class TestWarningsPointAtTheCaller:
    # integrate warns from inside the package; filters and -W error must see
    # the line that called into it, here in this file
    CFG = SdeConfig(dt=0.01, t_transient=0.0, t_measure=50.0, n_traj=3, seed=7)

    @pytest.mark.parametrize("entry", ["stream_output_spectra",
                                       "integrate_to_dump"])
    @pytest.mark.parametrize("cause", ["threshold", "diverged"])
    def test_warning_names_this_file(self, tmp_path, entry, cause):
        if cause == "threshold":
            p, noise = sym(pump_fraction=1.01), None
        else:
            p = sym()
            noise = np.random.default_rng(1).standard_normal((4, 5000, 3))
            noise[:, :, 0] = 1e5
        with pytest.warns(RuntimeWarning, match=cause) as rec:
            if entry == "stream_output_spectra":
                stream_output_spectra(p, self.CFG, [Y0_TERMS], noise=noise)
            else:
                integrate_to_dump(p, self.CFG, tmp_path / "d.bin", noise=noise)
        assert [w.filename for w in rec] == [__file__] * len(rec)


class TestEstimator:
    def test_short_window_rejected(self):
        p = sym()
        cfg = SdeConfig(dt=0.02, t_transient=0.5, t_measure=20.0, n_traj=4,
                        seed=2)
        with pytest.raises(InsufficientDataError):
            spectrum_of(p, cfg, Y0_TERMS)

    def test_frequency_axis_is_centered_and_ascending(self):
        p = sym(pump_fraction=0.0)
        cfg = SdeConfig(dt=0.02, t_transient=0.5, t_measure=60.0, n_traj=4,
                        seed=2)
        est = spectrum_of(p, cfg, Y0_TERMS)
        assert (np.diff(est.omega) > 0).all()
        assert est.omega[0] < 0 < est.omega[-1]
        assert 0.0 in est.omega


def force_blocks(monkeypatch, cfg, n):
    """Shrink _NOISE_BUDGET so that a streamed run of cfg takes blocks of
    n trajectories."""
    n_tr, n_me, n_rec = cfg.sample_counts()
    per_traj = 4 * min(sde._NOISE_CHUNK, n_tr + n_me) * 8 + cfg.n_vars * n_rec * 16
    monkeypatch.setattr(sde, "_NOISE_BUDGET", n * per_traj)


STREAM_COMBOS = [Y0_TERMS, [(1, 0.3, 1.0), (2, 0.3, -1.0)]]


def assert_streams_like_one_block(monkeypatch, p, cfg, omegas, noise=None):
    """stream_output_spectra, over the blocks the caller set up, equals bit
    for bit a one-block run that keeps every bin, at the bins it kept."""
    streamed = stream_output_spectra(p, cfg, STREAM_COMBOS, omegas, noise=noise)
    monkeypatch.setattr(sde, "_NOISE_BUDGET", 2 ** 40)
    whole = stream_output_spectra(p, cfg, STREAM_COMBOS, noise=noise)
    for got, want in zip(streamed, whole):
        keep = (slice(None) if omegas is None
                else np.unique([np.argmin(np.abs(want.omega - w)) for w in omegas]))
        for field in ("omega", "values", "stderr"):
            assert np.array_equal(getattr(got, field), getattr(want, field)[keep])
        assert (got.n_traj_used, got.n_diverged) == (want.n_traj_used, want.n_diverged)
        assert got.baseline == want.baseline
        for w in omegas or ():
            assert got.nearest(w) == want.nearest(w)


class TestStreaming:
    """stream_output_spectra folds each block into its bins as it goes."""

    # 251 samples, an odd count, and 130 trajectories in uneven blocks: a
    # projection, mean or spread whose rounding depends on where an element
    # sits in its block, or on how many bins are kept, shows
    CFG = SdeConfig(dt=0.04, t_transient=0.4, t_measure=50.2, n_traj=130,
                    seed=11, stepper="euler-maruyama")

    def noise(self, seed):
        n_tr, n_me, _ = self.CFG.sample_counts()
        return np.random.default_rng(seed).standard_normal((4, n_tr + n_me, 130))

    @pytest.mark.parametrize("omegas", [None, (0.0, 0.5, 3.0, 0.51), (8.0,)])
    @pytest.mark.parametrize("injected", [False, True])
    def test_equals_recorded_estimate_over_blocks(self, monkeypatch, omegas,
                                                  injected):
        force_blocks(monkeypatch, self.CFG, 45)  # blocks of 45, 45 and 40
        noise = self.noise(3) if injected else None
        assert_streams_like_one_block(monkeypatch, sym(), self.CFG, omegas, noise)

    def test_equals_recorded_estimate_in_one_block(self, monkeypatch):
        # a few bins kept against every bin, both in one block
        assert_streams_like_one_block(monkeypatch, sym(), self.CFG, (0.0, 1.5))

    def test_stderr_is_the_spread_of_the_trajectories(self):
        # 130 trajectories, so a rule over batches of them would differ
        p, noise = sym(), self.noise(5)
        est = spectrum_of(p, self.CFG, Y0_TERMS, noise=noise)
        _, states = collect(p, self.CFG, noise=noise)
        P = periodograms(self.CFG, states, Y0_TERMS)
        want = 2.0 * p.gamma_a * P.std(axis=1, ddof=1) / math.sqrt(130)
        assert np.allclose(est.stderr, want, rtol=1e-12, atol=1e-12)

    def test_diverged_trajectory_is_excluded(self, monkeypatch):
        force_blocks(monkeypatch, self.CFG, 50)
        noise = self.noise(0)
        noise[:, :, 60] = 1e5
        with pytest.warns(RuntimeWarning, match="diverged"):
            est = spectrum_of(sym(), self.CFG, Y0_TERMS, noise=noise)
        with pytest.warns(RuntimeWarning, match="diverged"):
            assert_streams_like_one_block(monkeypatch, sym(), self.CFG, (0.0, 2.0),
                                          noise)
        assert (est.n_traj_used, est.n_diverged) == (129, 1)
        assert np.isfinite(est.values).all()

    def test_memory_does_not_grow_with_the_ensemble(self, monkeypatch):
        cfg = SdeConfig(dt=0.04, t_transient=0.0, t_measure=50.0, n_traj=64,
                        seed=2, stepper="euler-maruyama")
        force_blocks(monkeypatch, cfg, 64)
        omegas = (0.0, 1.0, 2.0)

        def peak(n_traj):
            tracemalloc.start()
            try:
                stream_output_spectra(sym(), dataclasses.replace(cfg, n_traj=n_traj),
                                      STREAM_COMBOS, omegas)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(64)  # first-call allocations (FFT plans and the like)
        small = peak(64)
        for big in (256, 576):
            # the kept bins grow by n_combos x n_bins floats per trajectory;
            # the recorded samples of each extra trajectory alone would take
            # 4 x 250 complex doubles = 15.6 KiB, and a seed spawned for
            # each trajectory up front about 370 B
            bins = len(STREAM_COMBOS) * len(omegas) * 8 * (big - 64)
            assert peak(big) - small <= bins + 64 * 1024, big

    def test_short_window_rejected_before_stepping(self, monkeypatch):
        def no_steps(*args, **kwargs):
            raise AssertionError("integrate was called")

        monkeypatch.setattr(sde, "integrate", no_steps)
        cfg = SdeConfig(dt=0.02, t_transient=0.5, t_measure=20.0, n_traj=4)
        with pytest.raises(InsufficientDataError):
            stream_output_spectra(sym(), cfg, [Y0_TERMS], (0.0,))


class TestDump:
    def test_round_trip_is_byte_exact(self, tmp_path):
        p = sym()
        cfg = SdeConfig(dt=0.02, t_transient=1.0, t_measure=8.0, n_traj=16,
                        seed=6, record="all")
        _, want = collect(p, cfg)
        base = tmp_path / "dump.bin"
        integrate_to_dump(p, cfg, base)
        states, sidecar = load_ensemble_dump(base)
        assert np.array_equal(states, want)
        assert sidecar["format"] == "opodimer-ensemble/1"
        assert sidecar["config"]["seed"] == 6
        assert sidecar["n_variables"] == 8
        assert sidecar["variables"][4] == "beta1"
        assert sidecar["diverged_indices"] == []
        assert (sidecar["n_traj"], sidecar["n_samples"]) == (16, 80)
        # sidecar lives beside the payload
        meta = json.loads((tmp_path / "dump.bin.json").read_text())
        assert meta == sidecar

    def test_sidecar_sampling_grid(self, tmp_path):
        # n_tr = round(1 / 0.03) = 33 steps, then ceil(267 / 3) samples
        cfg = SdeConfig(dt=0.03, t_transient=1.0, t_measure=8.0, n_traj=4,
                        seed=6, record_stride=3)
        integrate_to_dump(sym(), cfg, tmp_path / "d.bin")
        _, sidecar = load_ensemble_dump(tmp_path / "d.bin")
        assert sidecar["n_samples"] == 89
        assert sidecar["t_first_sample"] == 0.99
        assert sidecar["dt_sample"] == 0.09

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_streamed_dump_equals_recorded_dump(self, tmp_path, monkeypatch,
                                                blocks):
        # the dump of a run over `blocks` blocks holds the samples and the
        # sidecar of a one-block run
        cfg = SdeConfig(dt=0.02, t_transient=1.0, t_measure=8.0, n_traj=16,
                        seed=5, record="all")
        p = sym()
        diverged, states = collect(p, cfg)  # 16 trajectories fit one block
        integrate_to_dump(p, cfg, tmp_path / "r.bin")
        if blocks > 1:
            force_blocks(monkeypatch, cfg, 6)  # blocks of 6, 6 and 4
        streamed = integrate_to_dump(p, cfg, tmp_path / "s.bin")
        payload = np.ascontiguousarray(states.transpose(2, 1, 0)).astype("<c16")
        assert (tmp_path / "s.bin").read_bytes() == payload.tobytes()
        assert (tmp_path / "r.bin").read_bytes() == payload.tobytes()
        assert ((tmp_path / "s.bin.json").read_text()
                == (tmp_path / "r.bin.json").read_text())
        assert streamed.shape == (cfg.n_traj,)
        assert np.array_equal(streamed, diverged)

    def test_diverged_run_leaves_no_payload(self, tmp_path):
        cfg = SdeConfig(dt=0.02, t_transient=0.0, t_measure=2.0, n_traj=3)
        target = tmp_path / "d.bin"
        target.write_bytes(b"earlier dump")
        noise = np.full((4, 100, 3), 1e5)
        with pytest.raises(DivergenceDetectedError):
            integrate_to_dump(sym(), cfg, target, noise=noise)
        assert target.read_bytes() == b"earlier dump"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["d.bin"]

    def test_truncated_payload_rejected(self, tmp_path):
        p = sym()
        cfg = SdeConfig(dt=0.02, t_transient=1.0, t_measure=8.0, n_traj=4,
                        seed=6)
        target = tmp_path / "d.bin"
        side = tmp_path / "d.bin.json"
        integrate_to_dump(p, cfg, target)
        payload, meta = target.read_bytes(), json.loads(side.read_text())
        no_n_traj = {k: v for k, v in meta.items() if k != "n_traj"}
        for data, text in ((payload[:-16], None),  # one sample short
                           (payload[:-1], None),  # one byte short
                           (None, json.dumps(no_n_traj)),
                           (None, json.dumps(list(meta))),
                           (None, json.dumps(meta)[:-1])):  # not valid JSON
            target.write_bytes(payload if data is None else data)
            side.write_text(json.dumps(meta) if text is None else text)
            with pytest.raises(ConfigError):
                load_ensemble_dump(target)
