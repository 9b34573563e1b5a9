import math

import numpy as np
import pytest

from opodimer import criteria
from opodimer.config import apply_overrides, load_preset
from opodimer.criteria import (CorrelationRecord, combined_variances,
                               duan_sum, epr_product, evaluate_record,
                               optimize_angle, single_mode_moments,
                               spectral_stack)
from opodimer.model import SystemParams
from opodimer.spectrum import analytic_combined


def sym(**kw):
    base = dict(kappa=0.01, gamma_a=1.0, gamma_b=1.0, J_a=1.0, J_b=1.0,
                Delta_a=0.0, Delta_b=0.0, pump_fraction=0.5)
    base.update(kw)
    return SystemParams.symmetric(**base)


DETUNED = sym(J_a=10.0, Delta_a=10.0, Delta_b=1.0)


class TestWitnesses:
    def test_duan_pairing_is_quarter_turn_of_transpose(self):
        p = sym(J_a=2.0)
        S = spectral_stack(p, [0.0, 1.3])
        for t in (0.0, 0.4, 1.1):
            a = duan_sum(S, p.gamma_a, t, "xminus_yplus")
            b = duan_sum(S, p.gamma_a, t + math.pi / 2, "xplus_yminus")
            assert a == pytest.approx(b, rel=1e-12)

    def test_duan_rejects_unknown_pairing(self):
        with pytest.raises(ValueError):
            duan_sum(spectral_stack(sym(), 0.0), 1.0, 0.0, "xx_yy")

    def test_detuned_duan_equals_combined_sum(self):
        # V(X1 - X2) + V(Y1 + Y2) at theta = 0 is S_Xm + S_Yp identically
        omegas = [0.0, 2.0, 18.9]
        d = duan_sum(spectral_stack(DETUNED, omegas), DETUNED.gamma_a, 0.0,
                     "xminus_yplus")
        for k, w in enumerate(omegas):
            a = analytic_combined(DETUNED, w)
            assert d[k] == pytest.approx(a["S_Xm"] + a["S_Yp"], rel=1e-10)

    def test_epr_symmetric_between_outputs(self):
        S = spectral_stack(DETUNED, [0.0, 1.5])
        assert epr_product(S, DETUNED.gamma_a, 0.0, infer_from=1) == \
            pytest.approx(epr_product(S, DETUNED.gamma_a, 0.0, infer_from=2),
                          rel=1e-10)

    def test_epr_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            epr_product(spectral_stack(sym(), 0.0), 1.0, 0.0, infer_from=3)
        with pytest.raises(ValueError, match="infer_from"):
            optimize_angle(sym(), 0.0, "epr", infer_from=3)

    def test_undriven_cavity_is_classical(self):
        p = sym(pump_fraction=0.0)
        r = evaluate_record(p, 0.7, 0.3)
        assert r.S_X == pytest.approx(1.0, abs=1e-12)
        assert r.S_Y == pytest.approx(1.0, abs=1e-12)
        assert r.cov_XY == pytest.approx(0.0, abs=1e-12)
        assert r.duan_sum == pytest.approx(4.0, abs=1e-12)
        assert r.epr_product == pytest.approx(1.0, abs=1e-12)
        assert r.flags() == ()

    def test_detuned_record_flags(self):
        r = evaluate_record(DETUNED, 0.0, 0.0)
        assert r.squeezed and r.entangled and r.epr
        assert r.flags() == ("squeezed", "entangled", "epr")
        assert r.duan_sum == pytest.approx(2.2123156566708095, abs=1e-10)
        assert r.epr_product == pytest.approx(0.35857196073739517, abs=1e-9)

    def test_combined_variances_match_closed_forms(self):
        omegas = [0.0, 5.0, 20.0]
        got = combined_variances(spectral_stack(DETUNED, omegas), DETUNED.gamma_a)
        for i, w in enumerate(omegas):
            want = analytic_combined(DETUNED, w)
            for k in want:
                assert got[k][i] == pytest.approx(want[k], rel=1e-10)


class TestOptimizeAngle:
    def test_squeezing_closed_form_frozen_angles(self):
        t, v = optimize_angle(sym(J_a=1.0), 0.0, "squeezing")
        assert math.degrees(t) == pytest.approx(112.5, abs=1e-6)
        for ja in (2.0, 5.0, 10.0):
            t, v = optimize_angle(sym(J_a=ja), 0.0, "squeezing")
            assert math.degrees(t) == pytest.approx(22.5, abs=1e-6)

    def test_squeezing_value_is_true_minimum(self):
        p = sym(J_a=5.0)
        t, v = optimize_angle(p, 0.0, "squeezing")
        S = spectral_stack(p, 0.0)
        for dt in (-0.01, 0.01):
            s, _, _ = single_mode_moments(S, p.gamma_a, t + dt)
            assert s[0] >= v - 1e-12

    @pytest.mark.parametrize("objective", ["duan", "epr"])
    def test_witness_minimizers_beat_fine_grid(self, objective):
        p = sym(J_a=2.0)
        t, v = optimize_angle(p, 1.5, objective)
        S = spectral_stack(p, 1.5)
        fn = {"duan": lambda x: duan_sum(S, p.gamma_a, x)[0],
              "epr": lambda x: epr_product(S, p.gamma_a, x)[0]}[objective]
        grid = np.linspace(0.0, math.pi, 20001)
        best = min(fn(x) for x in grid)
        assert v <= best + 1e-8
        assert 0.0 <= t < (math.pi / 2 if objective == "epr" else math.pi)

    def test_duan_symmetric_minimum_is_exact(self):
        # the fig1 Duan witness is symmetric about 67.5 degrees at omega = 0
        p = load_preset("fig1").params.to_params()
        t, _ = optimize_angle(p, 0.0, "duan")
        assert math.degrees(t) == pytest.approx(67.5, abs=1e-9)

    @pytest.mark.parametrize("preset,minimum", [("fig4", 9.91384849671e-07),
                                                ("fig5", 1.00017247003e-06)])
    def test_epr_minimum_narrower_than_a_grid_step(self, preset, minimum):
        # at 0.999 of threshold the EPR dip is narrower than 1e-6 rad
        cfg = apply_overrides(load_preset(preset), ["params.pump_fraction=0.999"])
        t, v = optimize_angle(cfg.params.to_params(), 0.0, "epr")
        assert v <= minimum * (1 + 1e-9)
        assert 0.0 <= t < math.pi / 2

    @pytest.mark.parametrize("objective", criteria.OBJECTIVES)
    def test_one_spectral_solve_per_call(self, monkeypatch, objective):
        calls = []
        solve = criteria.spectral_matrix

        def counted(model, omegas):
            calls.append(omegas)
            return solve(model, omegas)

        monkeypatch.setattr(criteria, "spectral_matrix", counted)
        optimize_angle(sym(J_a=2.0), 1.5, objective)
        assert len(calls) == 1

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            optimize_angle(sym(), 0.0, "sharpness")


class TestRecordShape:
    def test_record_is_frozen_and_complete(self):
        r = evaluate_record(sym(), 1.0, 0.2)
        assert isinstance(r, CorrelationRecord)
        with pytest.raises(Exception):
            r.S_X = 5.0
        assert r.omega == 1.0 and r.theta == 0.2
