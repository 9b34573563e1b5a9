import math

import numpy as np
import pytest

from opodimer import criteria
from opodimer.config import apply_overrides, load_preset
from opodimer.criteria import (combined_variances, duan_sum, epr_product,
                               optimize_angle, quadrature, single_mode_moments,
                               spectral_stack, witness_flags, witness_table)
from opodimer.errors import DegenerateVarianceError
from opodimer.model import SystemParams
from opodimer.spectrum import SpectralMatrix, analytic_combined, output_moment


def sym(**kw):
    base = dict(kappa=0.01, gamma_a=1.0, gamma_b=1.0, J_a=1.0, J_b=1.0,
                Delta_a=0.0, Delta_b=0.0, pump_fraction=0.5)
    base.update(kw)
    return SystemParams.symmetric(**base)


DETUNED = sym(J_a=10.0, Delta_a=10.0, Delta_b=1.0)


class TestQuadrature:
    @pytest.mark.parametrize("theta", [0.3, np.array([0.0, 0.4, 2.0])])
    def test_term_lists(self, theta):
        y = theta + math.pi / 2
        want = {"X1": [(1, theta, 1.0)], "Y1": [(1, y, 1.0)],
                "X2": [(2, theta, 1.0)], "Y2": [(2, y, 1.0)],
                "Xp": [(1, theta, 1.0), (2, theta, 1.0)],
                "Yp": [(1, y, 1.0), (2, y, 1.0)],
                "Xm": [(1, theta, 1.0), (2, theta, -1.0)],
                "Ym": [(1, y, 1.0), (2, y, -1.0)]}
        for name, terms in want.items():
            got = quadrature(name, theta)
            assert [(m, w) for m, _, w in got] == [(m, w) for m, _, w in terms]
            for (_, a, _), (_, b, _) in zip(got, terms):
                assert np.array_equal(a, b), name

    @pytest.mark.parametrize("name", ["", "X", "X3", "Z1", "x1", "Xminus"])
    def test_unknown_name(self, name):
        with pytest.raises(ValueError, match="quadrature"):
            quadrature(name)


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

    def test_epr_rejects_vanishing_conditioning_variance(self):
        # X1 at theta = 0 projects on slots 0 and 1: -1/8 in their four
        # entries sums to -1/2, and 2 gamma_a (-1/2) cancels the vacuum 1
        mat = np.zeros((1, 8, 8), dtype=complex)
        mat[0, :2, :2] = -0.125
        S = SpectralMatrix(omega=np.array([2.5]), S=mat, cond=np.array([1.0]))
        x1 = quadrature("X1")
        assert output_moment(S, x1, x1, 1.0)[0] < 1e-14
        with pytest.raises(DegenerateVarianceError,
                           match=r"omega = 2\.5, theta = 0$"):
            epr_product(S, 1.0, 0.0)

    def test_undriven_cavity_is_classical(self):
        p = sym(pump_fraction=0.0)
        t = witness_table(spectral_stack(p, 0.7), p.gamma_a, 0.3)
        assert t["S_X"] == pytest.approx([1.0], abs=1e-12)
        assert t["S_Y"] == pytest.approx([1.0], abs=1e-12)
        assert t["cov_XY"] == pytest.approx([0.0], abs=1e-12)
        assert t["duan_sum"] == pytest.approx([4.0], abs=1e-12)
        assert t["epr_product"] == pytest.approx([1.0], abs=1e-12)
        assert not any(f.any() for f in witness_flags(t).values())

    def test_detuned_record_flags(self):
        t = witness_table(spectral_stack(DETUNED, 0.0), DETUNED.gamma_a, 0.0)
        flags = witness_flags(t)
        assert list(flags) == ["squeezed", "entangled", "epr"]
        assert all(f.tolist() == [True] for f in flags.values())
        assert t["duan_sum"] == pytest.approx([2.2123156566708095], abs=1e-10)
        assert t["epr_product"] == pytest.approx([0.35857196073739517], abs=1e-9)

    def test_flags_sit_on_the_classical_bounds(self):
        t = {"S_X": np.array([1.0, 1.2, 0.9]), "S_Y": np.array([1.0, 0.99, 1.5]),
             "duan_sum": np.array([4.0, 3.99, 5.0]),
             "epr_product": np.array([1.0, 0.99, 2.0])}
        flags = witness_flags(t)
        assert flags["squeezed"].tolist() == [False, True, True]
        assert flags["entangled"].tolist() == [False, True, False]
        assert flags["epr"].tolist() == [False, True, False]

    @pytest.mark.parametrize("pairing,infer_from", [("xminus_yplus", 1),
                                                    ("xplus_yminus", 2)])
    def test_table_columns_are_the_witnesses(self, pairing, infer_from):
        S = spectral_stack(DETUNED, [0.0, 1.5, 18.9])
        t = witness_table(S, DETUNED.gamma_a, 0.4, pairing, infer_from)
        assert list(t) == ["S_X", "S_Y", "cov_XY", "duan_sum", "epr_product"]
        want = (*single_mode_moments(S, DETUNED.gamma_a, 0.4),
                duan_sum(S, DETUNED.gamma_a, 0.4, pairing),
                epr_product(S, DETUNED.gamma_a, 0.4, infer_from))
        for col, w in zip(t.values(), want):
            assert col.shape == (3,)
            assert np.array_equal(col, w)

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
        best = fn(grid).min()  # one stacked evaluation over the grid
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

