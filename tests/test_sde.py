import json
import math

import numpy as np
import pytest
import scipy.linalg

from opodimer import sde
from opodimer.errors import (ConfigError, DivergenceDetectedError,
                             InsufficientDataError)
from opodimer.linearized import build_linear_model
from opodimer.model import SystemParams, _unchecked_state, drift_rhs, steady_state
from opodimer.sde import (SdeConfig, Stepper, estimate_output_spectrum,
                          integrate, load_ensemble_dump, write_ensemble_dump)


def sym(**kw):
    base = dict(kappa=0.01, gamma_a=1.0, gamma_b=1.0, J_a=1.0, J_b=1.0,
                Delta_a=0.0, Delta_b=0.0, pump_fraction=0.5)
    base.update(kw)
    return SystemParams.symmetric(**base)


Y0_TERMS = [(1, math.pi / 2, 1.0)]


class TestConfigValidation:
    def test_rejects_bad_values(self):
        for kw in (dict(dt=0.0), dict(dt=-1.0), dict(t_measure=0.0),
                   dict(n_traj=1), dict(n_traj=2.5), dict(record_stride=0),
                   dict(stepper="heun"), dict(record="beta_only"),
                   dict(t_transient=-0.1), dict(seed=-1)):
            with pytest.raises(ConfigError):
                SdeConfig(**kw)

    def test_stepper_coerced_from_string(self):
        cfg = SdeConfig(stepper="euler-maruyama")
        assert cfg.stepper is Stepper.EULER_MARUYAMA

    def test_step_too_coarse_for_stiffness(self):
        # detuned J_a = 10 puts eigenvalues near |lambda| ~ 20
        p = sym(J_a=10.0, Delta_a=10.0, Delta_b=1.0)
        with pytest.raises(ConfigError):
            integrate(p, SdeConfig(dt=0.01, t_measure=1.0, n_traj=2))

    def test_above_threshold_warns(self):
        p = sym(pump_fraction=1.01)
        cfg = SdeConfig(dt=0.002, t_transient=0.0, t_measure=0.1, n_traj=2,
                        seed=7)
        with pytest.warns(RuntimeWarning):
            integrate(p, cfg)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        p = sym()
        cfg = SdeConfig(dt=0.02, t_transient=1.0, t_measure=4.0, n_traj=8,
                        seed=3)
        a = integrate(p, cfg)
        b = integrate(p, cfg)
        assert np.array_equal(a.states, b.states)

    def test_trajectory_prefix_stable_in_ensemble_size(self):
        # growing the ensemble must not reshuffle existing trajectories
        p = sym()
        small = integrate(p, SdeConfig(dt=0.02, t_transient=1.0,
                                       t_measure=4.0, n_traj=4, seed=3))
        big = integrate(p, SdeConfig(dt=0.02, t_transient=1.0,
                                     t_measure=4.0, n_traj=8, seed=3))
        assert np.array_equal(small.states, big.states[:, :, :4])


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
    times, rec = [], []

    def noise(y, dw):
        out = np.zeros_like(y)
        for r in range(4):
            out[r] = np.sqrt(p.kappa * y[4 + r]) * dw[r]
        return out

    for step in range(n_steps):
        if step >= n_tr and (step - n_tr) % cfg.record_stride == 0:
            rec.append(x[:n_vars].copy())
            times.append(step * cfg.dt)
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
    return np.array(times), np.stack(rec, axis=1), ~alive


def assert_same_run(ens, ref):
    times, states, diverged = ref
    assert np.array_equal(ens.states.view(float), states.view(float))
    assert np.array_equal(ens.times, times)
    assert np.array_equal(ens.diverged, diverged)


POINTS = {
    "driven": sym(),
    # pump rows start at exact zeros, so the sign of each zero matters
    "undriven": sym(pump_fraction=0.0),
    "detuned": SystemParams(kappa=0.013, gamma_a=1.2, gamma_b=0.7, J_a=0.3,
                            J_b=-0.4, Delta_a=0.3, Delta_b=-1.1,
                            eps1=30 + 20j, eps2=-15 + 2.5j),
}


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
        assert_same_run(integrate(p, cfg), reference_integrate(p, cfg, z))

    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("stepper", [s.value for s in Stepper])
    def test_injected_noise_equals_reference(self, point, stepper):
        p = POINTS[point]
        cfg = SdeConfig(dt=0.02, t_transient=0.5, t_measure=2.0, n_traj=5,
                        stepper=stepper, record="all", record_stride=2)
        z = np.random.default_rng(8).standard_normal((4, 125, 5))
        assert_same_run(integrate(p, cfg, noise=z),
                        reference_integrate(p, cfg, z))

    @pytest.mark.parametrize("injected", [False, True])
    def test_run_over_several_blocks(self, monkeypatch, injected):
        # blocks of 2 trajectories (the last holds 1), noise chunks of 16 steps
        monkeypatch.setattr(sde, "_NOISE_CHUNK", 16)
        monkeypatch.setattr(sde, "_NOISE_BUDGET", 4 * 16 * 8 * 2)
        p = POINTS["detuned"]
        cfg = SdeConfig(dt=0.02, t_transient=0.5, t_measure=2.0, n_traj=5,
                        seed=4, record="all")
        z = (np.random.default_rng(2).standard_normal((4, 125, 5)) if injected
             else philox_increments(cfg, 125))
        ens = integrate(p, cfg, noise=z if injected else None)
        assert_same_run(ens, reference_integrate(p, cfg, z))
        monkeypatch.setattr(sde, "_NOISE_BUDGET", 2 ** 25)
        one = integrate(p, cfg, noise=z if injected else None)
        assert np.array_equal(ens.states.view(float), one.states.view(float))

    def test_drift_blocks_equal_row_formulas(self):
        rng = np.random.default_rng(6)
        zeros = np.array([0.0, -0.0, 1e-310, -1e-310, 1.0, -2.5])
        for p in POINTS.values():
            for n in (1, 3, 256):
                x = rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n))
                signed = np.empty((8, n), dtype=complex)
                signed.real = rng.choice(zeros, (8, n))
                signed.imag = rng.choice(zeros, (8, n))
                for y in (x, signed):
                    want = row_drift(p, y)
                    assert np.array_equal(drift_rhs(p, y).view(float),
                                          want.view(float))
                    out = np.empty_like(y)
                    assert drift_rhs(p, y, out=out) is out
                    assert np.array_equal(out.view(float), want.view(float))
            # a single state is computed as a stack of one
            x8 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            got = drift_rhs(p, x8)
            assert got.shape == (8,)
            assert np.array_equal(got.view(float),
                                  row_drift(p, x8[:, None])[:, 0].view(float))


class TestPhysics:
    def test_pump_mean_matches_backaction_corrected_value(self):
        # The pump mode is depleted by the mean signal photon pair rate;
        # compare against the stationary second moment of the linear model.
        p = sym()
        st = steady_state(p)
        model = build_linear_model(p, st)
        m2 = scipy.linalg.solve_sylvester(model.A, model.A.T,
                                          model.diffusion())
        corr = (p.eps1 - p.kappa * m2[0, 0] / 2.0) / \
            (p.gamma_b - 1j * (p.J_b - p.Delta_b))
        cfg = SdeConfig(dt=0.04, t_transient=12.0, t_measure=3.0,
                        n_traj=10000, seed=5, record="all")
        ens = integrate(p, cfg)
        beta = ens.states[4, -1, :]
        mean = beta.mean()
        err_re = beta.real.std(ddof=1) / math.sqrt(ens.n_traj)
        err_im = beta.imag.std(ddof=1) / math.sqrt(ens.n_traj)
        assert abs(mean.real - corr.real) < 3 * err_re
        assert abs(mean.imag - corr.imag) < 3 * err_im
        # and the correction itself is tiny at this pump strength
        assert abs(mean - st.beta1_ss) / abs(st.beta1_ss) < 1e-3

    def test_vacuum_input_gives_flat_unit_spectrum(self):
        p = sym(pump_fraction=0.0)
        cfg = SdeConfig(dt=0.02, t_transient=0.5, t_measure=60.0, n_traj=64,
                        seed=9)
        est = estimate_output_spectrum(integrate(p, cfg), Y0_TERMS)
        assert np.allclose(est.values, 1.0)
        assert np.allclose(est.stderr, 0.0)

    def test_driven_spectrum_matches_linear_theory_at_dc(self):
        from opodimer.criteria import single_mode_moments, spectral_stack
        p = sym()
        cfg = SdeConfig(dt=0.01, t_transient=20.0, t_measure=120.0,
                        n_traj=512, seed=12)
        est = estimate_output_spectrum(integrate(p, cfg), Y0_TERMS)
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
        est = estimate_output_spectrum(integrate(p, cfg), Y0_TERMS)
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
        est_f = estimate_output_spectrum(integrate(p, cfg_f, noise=z_f),
                                         Y0_TERMS)
        est_c = estimate_output_spectrum(integrate(p, cfg_c, noise=z_c),
                                         Y0_TERMS)
        _, vf, ef = est_f.nearest(0.0)
        _, vc, ec = est_c.nearest(0.0)
        assert abs(vf - vc) < math.hypot(ef, ec)


class TestDivergence:
    def test_all_trajectories_diverging_raises(self):
        p = sym()
        t_tr, t_me, dt = 0.0, 10.0, 0.02
        n_steps = round((t_tr + t_me) / dt)
        noise = np.full((4, n_steps, 4), 1e5)
        cfg = SdeConfig(dt=dt, t_transient=t_tr, t_measure=t_me, n_traj=4)
        with pytest.raises(DivergenceDetectedError):
            integrate(p, cfg, noise=noise)

    def test_partial_divergence_is_excluded_from_estimate(self):
        p = sym()
        t_tr, t_me, dt = 1.0, 60.0, 0.02
        n_steps = round((t_tr + t_me) / dt)
        noise = np.random.default_rng(0).standard_normal((4, n_steps, 6))
        noise[:, :, 0] = 1e5
        with pytest.warns(RuntimeWarning, match="diverged"):
            ens = integrate(p, SdeConfig(dt=dt, t_transient=t_tr,
                                         t_measure=t_me, n_traj=6),
                            noise=noise)
        assert ens.n_diverged == 1
        assert ens.diverged[0] and not ens.diverged[1:].any()
        # pathwise series: the per-slot sum over the live trajectories
        terms = [(1, 0.3, 1.0), (2, 0.3, -1.0)]
        live = ens.states[:, :, 1:]
        want = sum(w * (live[2 * m - 2] * np.exp(-1j * t)
                        + live[2 * m - 1] * np.exp(1j * t)) for m, t, w in terms)
        assert np.allclose(ens.quadrature_series(terms), want, rtol=0.0,
                           atol=1e-14 * np.abs(live).max())
        with pytest.raises(ValueError, match="mode must be 1 or 2"):
            ens.quadrature_series([(3, 0.0, 1.0)])  # a pump slot
        est = estimate_output_spectrum(ens, Y0_TERMS)
        assert est.n_traj_used == 5
        assert np.isfinite(est.values).all()

    def test_injected_noise_shape_checked(self):
        p = sym()
        cfg = SdeConfig(dt=0.02, t_transient=1.0, t_measure=4.0, n_traj=4)
        with pytest.raises(ConfigError):
            integrate(p, cfg, noise=np.zeros((4, 10, 4)))


class TestEstimator:
    def test_short_window_rejected(self):
        p = sym()
        cfg = SdeConfig(dt=0.02, t_transient=0.5, t_measure=20.0, n_traj=4,
                        seed=2)
        with pytest.raises(InsufficientDataError):
            estimate_output_spectrum(integrate(p, cfg), Y0_TERMS)

    def test_frequency_axis_is_centered_and_ascending(self):
        p = sym(pump_fraction=0.0)
        cfg = SdeConfig(dt=0.02, t_transient=0.5, t_measure=60.0, n_traj=4,
                        seed=2)
        est = estimate_output_spectrum(integrate(p, cfg), Y0_TERMS)
        assert (np.diff(est.omega) > 0).all()
        assert est.omega[0] < 0 < est.omega[-1]
        assert 0.0 in est.omega


class TestDump:
    def test_round_trip_is_byte_exact(self, tmp_path):
        p = sym()
        cfg = SdeConfig(dt=0.02, t_transient=1.0, t_measure=8.0, n_traj=16,
                        seed=6, record="all")
        ens = integrate(p, cfg)
        base = tmp_path / "dump.bin"
        write_ensemble_dump(ens, base)
        states, sidecar = load_ensemble_dump(base)
        assert np.array_equal(states, ens.states)
        assert sidecar["format"] == "opodimer-ensemble/1"
        assert sidecar["config"]["seed"] == 6
        assert sidecar["n_variables"] == 8
        assert sidecar["variables"][4] == "beta1"
        assert sidecar["diverged_indices"] == []
        # sidecar lives beside the payload
        meta = json.loads((tmp_path / "dump.bin.json").read_text())
        assert meta == sidecar

    def test_truncated_payload_rejected(self, tmp_path):
        p = sym()
        cfg = SdeConfig(dt=0.02, t_transient=1.0, t_measure=8.0, n_traj=4,
                        seed=6)
        target = tmp_path / "d.bin"
        write_ensemble_dump(integrate(p, cfg), target)
        target.write_bytes(target.read_bytes()[:-16])
        with pytest.raises(ConfigError):
            load_ensemble_dump(target)
