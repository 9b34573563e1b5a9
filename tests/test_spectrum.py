import math

import numpy as np
import pytest

from opodimer.config import load_preset
from opodimer.errors import (AboveThresholdError, ConvergenceFailureError,
                             DetuningMismatchError, DomainError,
                             SingularAtFrequencyError)
from opodimer.linearized import build_combined_model, build_linear_model
from opodimer.model import SystemParams, _unchecked_state, steady_state
from opodimer.spectrum import (SpectralMatrix, analytic_combined,
                               analytic_variances, output_moment,
                               spectral_matrix, vacuum_baseline)

SWAP = np.zeros((8, 8))
for k in range(4):
    SWAP[2 * k, 2 * k + 1] = SWAP[2 * k + 1, 2 * k] = 1.0


def sym(**kw):
    base = dict(kappa=0.01, gamma_a=1.0, gamma_b=1.0, J_a=1.0, J_b=1.0,
                Delta_a=0.0, Delta_b=0.0, pump_fraction=0.5)
    base.update(kw)
    return SystemParams.symmetric(**base)


def model_for(p):
    return build_linear_model(p, steady_state(p))


def numeric_moments(p, omega, theta=0.0):
    S = spectral_matrix(model_for(p), omega)
    qx = [(1, theta, 1.0)]
    qy = [(1, theta + math.pi / 2, 1.0)]
    qx2 = [(2, theta, 1.0)]
    qy2 = [(2, theta + math.pi / 2, 1.0)]
    ga = p.gamma_a
    return {
        "S_X": output_moment(S, qx, qx, ga),
        "S_Y": output_moment(S, qy, qy, ga),
        "V_XY": output_moment(S, qx, qy, ga),
        "V_X1X2": output_moment(S, qx, qx2, ga),
        "V_Y1Y2": output_moment(S, qy, qy2, ga),
    }


class TestSelectors:
    def test_mode_validation(self):
        # modes 3 and 4 are the pump slots of the 8-variable model
        S = spectral_matrix(model_for(sym()), 0.0)
        for mode in (0, 3, 4):
            with pytest.raises(ValueError, match="mode must be 1 or 2"):
                output_moment(S, [(mode, 0.0, 1.0)], [(mode, 0.0, 1.0)], 1.0)

    def test_vacuum_baseline_cases(self):
        assert vacuum_baseline([(1, 0.3, 1.0)], [(1, 0.3, 1.0)]) == pytest.approx(1.0)
        assert vacuum_baseline([(1, 0.0, 1.0)],
                               [(1, math.pi / 2, 1.0)]) == pytest.approx(0.0)
        assert vacuum_baseline([(1, 0.0, 1.0)], [(2, 0.0, 1.0)]) == 0.0
        # unnormalized sum and difference modes carry baseline 2
        for s in (1.0, -1.0):
            t = [(1, 0.1, 1.0), (2, 0.1, s)]
            assert vacuum_baseline(t, t) == pytest.approx(2.0)


class TestSpectralMatrix:
    def test_even_in_frequency_after_projection(self):
        p = sym(J_a=2.0)
        m = model_for(p)
        q = [(1, 0.7, 1.0)]
        for w in (0.3, 1.7, 9.2):
            a = output_moment(spectral_matrix(m, w), q, q, p.gamma_a)
            b = output_moment(spectral_matrix(m, -w), q, q, p.gamma_a)
            assert a == pytest.approx(b, rel=1e-12)

    def test_conjugation_symmetry_of_raw_matrix(self):
        m = model_for(sym(J_a=3.0, J_b=0.5))
        for w in (0.0, 1.3, 6.0):
            S = spectral_matrix(m, w).S
            Sm = spectral_matrix(m, -w).S
            assert np.allclose(Sm, SWAP @ S.conj() @ SWAP, atol=1e-12)

    def test_singular_at_threshold(self):
        p = sym(pump_fraction=1.0)
        m = build_linear_model(p, _unchecked_state(p))
        with pytest.raises(SingularAtFrequencyError):
            spectral_matrix(m, 0.0)
        # away from the critical frequency the matrix is fine
        spectral_matrix(m, 2.0)

    def test_condition_number_reported(self):
        S = spectral_matrix(model_for(sym()), 0.5)
        assert S.cond.shape == S.omega.shape == (1,)
        assert S.cond[0] >= 1.0
        assert S.omega[0] == 0.5

    @pytest.mark.parametrize("preset", ["fig1", "fig5"])
    def test_stack_equals_each_omega_alone(self, preset):
        cfg = load_preset(preset)
        omegas = cfg.sweep.omegas()
        for _, spec, _ in cfg.variants():
            m = model_for(spec.to_params())
            stack = spectral_matrix(m, omegas)
            assert stack.S.shape == (len(omegas), 8, 8)
            for k, w in enumerate(omegas):
                one = spectral_matrix(m, w)
                assert np.array_equal(stack.S[k], one.S[0])
                assert np.array_equal(stack.cond[k], one.cond[0])

    def test_singular_frequency_in_stack_is_named(self):
        p = sym(pump_fraction=1.0)
        m = build_linear_model(p, _unchecked_state(p))
        with pytest.raises(SingularAtFrequencyError, match=r"at omega = 0$"):
            spectral_matrix(m, [2.0, -1.5, 0.0, 3.0])
        with pytest.raises(ValueError, match="must be finite"):
            spectral_matrix(model_for(sym()), [2.0, math.nan])

    def test_imaginary_residue_raises_typed_error(self):
        # i * identity breaks the conjugation symmetry of a true S(omega)
        S = SpectralMatrix(omega=np.zeros(1), S=1j * np.eye(8)[None],
                           cond=np.ones(1))
        terms = [(1, 0.0, 1.0)]
        with pytest.raises(ConvergenceFailureError):
            output_moment(S, terms, terms, 1.0)

    def test_imaginary_residue_in_one_slice_of_the_stack(self):
        good = spectral_matrix(model_for(sym()), [0.5, 1.0, 2.0])
        mat = np.array(good.S)
        mat[1] += 1j * np.eye(8)
        S = SpectralMatrix(omega=good.omega, S=mat, cond=good.cond)
        terms = [(1, 0.3, 1.0)]
        output_moment(good, terms, terms, 1.0)
        with pytest.raises(ConvergenceFailureError, match=r"at omega = 1$"):
            output_moment(S, terms, terms, 1.0)


class TestSingleOpoLimit:
    def test_textbook_values_at_half_threshold(self):
        p = sym(J_a=0.0, J_b=0.0)
        m = numeric_moments(p, 0.0)
        assert m["S_X"] == pytest.approx(9.0, abs=1e-12)
        assert m["S_Y"] == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert m["S_X"] * m["S_Y"] == pytest.approx(1.0, abs=1e-12)
        assert m["V_XY"] == pytest.approx(0.0, abs=1e-12)
        assert m["V_X1X2"] == pytest.approx(0.0, abs=1e-12)


class TestClosedForms:
    def test_match_numeric_pipeline(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = SystemParams.symmetric(
                kappa=rng.uniform(0.005, 0.05),
                gamma_a=rng.uniform(0.3, 3.0), gamma_b=rng.uniform(0.3, 3.0),
                J_a=rng.uniform(-5, 5), J_b=rng.uniform(-5, 5),
                Delta_a=0.0, Delta_b=0.0,
                pump_fraction=rng.uniform(0.05, 0.95))
            for w in (0.0, rng.uniform(0.1, 10.0), -rng.uniform(0.1, 10.0)):
                a = analytic_variances(p, w)
                n = numeric_moments(p, w)
                for k in n:
                    assert a[k] == pytest.approx(n[k], rel=1e-10, abs=1e-12), \
                        (k, w)

    def test_pump_reversal_swaps_quadratures(self):
        # The closed forms must satisfy S_X(-eps) = S_Y(eps); this pins the
        # sign of the J_b^2 cross term, where a sign slip produces errors of
        # order unity against the numeric pipeline.
        base = dict(kappa=0.01, gamma_a=1.0, gamma_b=0.8, J_a=2.0, J_b=1.5,
                    Delta_a=0.0, Delta_b=0.0)
        plus = SystemParams(eps1=120.0, eps2=120.0, **base)
        minus = SystemParams(eps1=-120.0, eps2=-120.0, **base)
        for w in (0.0, 0.9, 3.7):
            ap, am = analytic_variances(plus, w), analytic_variances(minus, w)
            np_, nm = numeric_moments(plus, w), numeric_moments(minus, w)
            assert am["S_X"] == pytest.approx(ap["S_Y"], rel=1e-12)
            assert am["S_Y"] == pytest.approx(ap["S_X"], rel=1e-12)
            assert nm["S_X"] == pytest.approx(np_["S_Y"], rel=1e-10)
            assert am["S_X"] == pytest.approx(nm["S_X"], rel=1e-10)

    def test_domain_gates(self):
        with pytest.raises(DomainError):
            analytic_variances(sym(Delta_a=0.5), 0.0)
        with pytest.raises(DomainError):
            analytic_variances(
                SystemParams(kappa=0.01, gamma_a=1, gamma_b=1, J_a=1, J_b=1,
                             Delta_a=0, Delta_b=0, eps1=50, eps2=60), 0.0)
        with pytest.raises(AboveThresholdError):
            analytic_variances(sym(pump_fraction=1.05), 0.0)
        # one gate for all three, at either edge of the guard band
        for frac, raises in ((1.0 - 1e-10, True), (1.0 - 1e-8, False)):
            p = sym(pump_fraction=frac)
            q = sym(J_a=10.0, Delta_a=10.0, Delta_b=1.0, pump_fraction=frac)
            for call in (lambda: analytic_variances(p, 0.0),
                         lambda: analytic_combined(q, 0.0),
                         lambda: steady_state(p), lambda: steady_state(q)):
                if raises:
                    with pytest.raises(AboveThresholdError):
                        call()
                else:
                    call()


class TestCombined:
    def detuned(self, ja=10.0):
        return sym(J_a=ja, Delta_a=ja, Delta_b=1.0)

    def test_zero_frequency_frozen_values(self):
        p = self.detuned()
        a = analytic_combined(p, 0.0)
        assert a["S_Xp"] == pytest.approx(18.0, abs=1e-10)
        assert a["S_Yp"] == pytest.approx(2.0 / 9.0, abs=1e-12)
        assert a["S_Xm"] == pytest.approx(1.9900934344485872, rel=1e-12)
        assert a["S_Ym"] == pytest.approx(2.0099563785774412, rel=1e-12)

    def test_matches_four_dim_pipeline(self):
        p = self.detuned()
        m4 = build_combined_model(p, steady_state(p))
        for w in (0.0, 1.1, 6.61, 20.0, -20.0):
            S4 = spectral_matrix(m4, w)
            a = analytic_combined(p, w)
            # the combined modes are unnormalized: vacuum baseline 2 per mode
            for key, mode, ang in (("S_Xp", 1, 0.0), ("S_Yp", 1, math.pi / 2),
                                   ("S_Xm", 2, 0.0), ("S_Ym", 2, math.pi / 2)):
                q = [(mode, ang, 1.0)]
                v = output_moment(S4, q, q, 1.0, unit_baseline=2.0)
                assert v == pytest.approx(a[key], rel=1e-10), (key, w)

    def test_matches_full_model_projections(self):
        p = self.detuned()
        m8 = model_for(p)
        for w in (0.0, 2.3, 19.0):
            S8 = spectral_matrix(m8, w)
            a = analytic_combined(p, w)
            for key, sign, ang in (("S_Xp", 1.0, 0.0),
                                   ("S_Yp", 1.0, math.pi / 2),
                                   ("S_Xm", -1.0, 0.0),
                                   ("S_Ym", -1.0, math.pi / 2)):
                terms = [(1, ang, 1.0), (2, ang, sign)]
                v = output_moment(S8, terms, terms, p.gamma_a)
                assert v == pytest.approx(a[key], rel=1e-10), (key, w)

    def test_manifold_gate(self):
        with pytest.raises(DetuningMismatchError):
            analytic_combined(sym(), 0.0)
        with pytest.raises(DetuningMismatchError):
            build_combined_model(sym(J_a=10.0, Delta_a=9.9, Delta_b=1.0),
                                 steady_state(sym(J_a=10.0, Delta_a=9.9,
                                                  Delta_b=1.0)))
