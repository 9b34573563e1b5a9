import math
import subprocess
import sys

import numpy as np
import pytest

from opodimer import model
from opodimer.errors import AboveThresholdError, ConvergenceFailureError
from opodimer.model import (SteadyState, SystemParams, derived_scales,
                            drift_rhs, sort_eigenvalues, stability_eigenvalues,
                            steady_state, threshold_bisection)


def sym(**kw):
    base = dict(kappa=0.01, gamma_a=1.0, gamma_b=1.0, J_a=1.0, J_b=1.0,
                Delta_a=0.0, Delta_b=0.0, pump_fraction=0.5)
    base.update(kw)
    return SystemParams.symmetric(**base)


def test_every_export_resolves():
    import opodimer

    assert [n for n in opodimer.__all__ if not hasattr(opodimer, n)] == []


class TestParams:
    def test_validation_rejects_bad_rates(self):
        for bad in ({"kappa": 0.0}, {"kappa": -1.0}, {"gamma_a": 0.0},
                    {"gamma_b": -2.0}, {"J_a": math.nan},
                    {"Delta_b": math.inf}):
            kw = dict(kappa=0.01, gamma_a=1.0, gamma_b=1.0)
            kw.update(bad)
            with pytest.raises(ValueError):
                SystemParams(**kw)

    def test_symmetric_pump_fraction(self):
        p = sym(pump_fraction=0.5)
        assert p.eps1 == p.eps2
        assert p.eps1.real == pytest.approx(100.0, rel=1e-14)
        assert p.eps1.imag == 0.0
        assert p.equal_pumps and p.resonant

    def test_symmetric_rejects_double_pump_spec(self):
        with pytest.raises(ValueError):
            SystemParams.symmetric(kappa=0.01, gamma_a=1, gamma_b=1, J_a=0,
                                   J_b=0, Delta_a=0, Delta_b=0,
                                   eps=10.0, pump_fraction=0.1)
        # omitting both leaves the cavity undriven
        p = SystemParams.symmetric(kappa=0.01, gamma_a=1, gamma_b=1, J_a=0,
                                   J_b=0, Delta_a=0, Delta_b=0)
        assert p.eps1 == 0j and p.eps2 == 0j

    def test_hashable_for_caching(self):
        assert hash(sym()) == hash(sym())
        assert sym() == sym()


class TestDerivedScales:
    def test_resonant_coupled_threshold(self):
        # gamma_tilde = sqrt(1 + 1) each, eps_crit = 2/0.01
        s = derived_scales(sym())
        assert s.eps_crit == pytest.approx(200.0, rel=1e-14)
        assert s.pump_fraction == pytest.approx(0.5, rel=1e-14)

    def test_uncoupled_threshold(self):
        s = derived_scales(sym(J_a=0.0, J_b=0.0))
        assert s.eps_crit == pytest.approx(100.0, rel=1e-14)

    def test_tracked_detuning_threshold_independent_of_coupling(self):
        for ja in (1.0, 5.0, 10.0, 20.0):
            s = derived_scales(sym(J_a=ja, Delta_a=ja, J_b=1.0, Delta_b=1.0))
            assert s.eps_crit == pytest.approx(100.0, rel=1e-14)

    def test_opposite_sign_coupling_and_detuning(self):
        # the difference signal supermode sits at detuning Delta_a + J_a = 0:
        # eps_crit = sqrt(1 + 3^2) * 1 / 0.01, not sqrt(1 + 6^2) * sqrt(1 + 3^2) / 0.01
        p = sym(J_a=3.0, Delta_a=-3.0, J_b=0.0, Delta_b=-3.0)
        crit = derived_scales(p).eps_crit
        assert crit == pytest.approx(316.2277660168380, rel=1e-14)
        assert threshold_bisection(p) == pytest.approx(crit, rel=1e-8)


class TestSteadyState:
    def test_pump_rotation(self):
        # beta = eps / (gamma_b - i (J_b - Delta_b)) = 100 / (1 - i)
        p = SystemParams(kappa=0.01, gamma_a=1.0, gamma_b=1.0, J_a=1.0,
                         J_b=1.0, Delta_a=0.0, Delta_b=0.0, eps1=100.0,
                         eps2=100.0)
        ss = steady_state(p)
        assert ss.beta1_ss == pytest.approx(50.0 + 50.0j, rel=1e-14)
        assert ss.beta2_ss == ss.beta1_ss

    def test_vector_layout_conjugate_slots(self):
        ss = steady_state(sym())
        v = ss.vector()
        assert v.shape == (8,)
        assert np.all(v[:4] == 0)
        assert v[5] == np.conj(v[4])
        assert v[7] == np.conj(v[6])

    def test_drift_vanishes_at_steady_state(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = SystemParams(
                kappa=rng.uniform(0.005, 0.05),
                gamma_a=rng.uniform(0.3, 3.0), gamma_b=rng.uniform(0.3, 3.0),
                J_a=rng.uniform(-5, 5), J_b=rng.uniform(-5, 5),
                Delta_a=rng.uniform(-5, 5), Delta_b=rng.uniform(-5, 5),
                eps1=complex(rng.uniform(-20, 20), rng.uniform(-20, 20)),
                eps2=complex(rng.uniform(-20, 20), rng.uniform(-20, 20)))
            try:
                ss = steady_state(p)
            except AboveThresholdError:
                continue
            r = drift_rhs(p, ss.vector())
            scale = max(1.0, float(np.abs(ss.vector()).max()))
            assert float(np.abs(r).max()) < 1e-10 * scale

    def test_unequal_pumps_newton_consistency(self):
        # equal-pump closed form must be a fixed point of the general path
        p_eq = SystemParams(kappa=0.01, gamma_a=1.0, gamma_b=1.0, J_a=1.0,
                            J_b=2.0, Delta_a=0.5, Delta_b=-1.0,
                            eps1=40.0 + 5.0j, eps2=40.0 + 5.0j)
        p_ne = SystemParams(kappa=0.01, gamma_a=1.0, gamma_b=1.0, J_a=1.0,
                            J_b=2.0, Delta_a=0.5, Delta_b=-1.0,
                            eps1=40.0 + 5.0j, eps2=40.0 + 5.0001j)
        b_eq = steady_state(p_eq).beta1_ss
        b_ne = steady_state(p_ne).beta1_ss
        assert abs(b_eq - b_ne) < 1e-2 * abs(b_eq)

    def test_above_threshold_raises_and_names_critical_value(self):
        p = sym(pump_fraction=1.2)
        with pytest.raises(AboveThresholdError) as ei:
            steady_state(p)
        assert ei.value.eps_crit == pytest.approx(200.0, rel=1e-12)
        assert "200" in str(ei.value)

    def test_at_threshold_is_not_below(self):
        with pytest.raises(AboveThresholdError):
            steady_state(sym(pump_fraction=1.0))

    def test_residual_check_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(model, "_unchecked_state",
                            lambda p: SteadyState(beta1_ss=1.0, beta2_ss=1.0))
        with pytest.raises(ConvergenceFailureError):
            steady_state(sym())


class TestEigenvalues:
    def test_frozen_values_at_unit_pump_coupling(self):
        # kappa*eps = 1: pump pair 1 +- i (twice), signal pair
        # 1 +- i sqrt(1 - 1/2) (twice)
        p = SystemParams(kappa=0.01, gamma_a=1.0, gamma_b=1.0, J_a=1.0,
                         J_b=1.0, Delta_a=0.0, Delta_b=0.0,
                         eps1=100.0, eps2=100.0)
        got = stability_eigenvalues(p)
        s = math.sqrt(0.5)
        want = sort_eigenvalues(np.array(
            [1 + 1j, 1 + 1j, 1 - 1j, 1 - 1j,
             1 + 1j * s, 1 + 1j * s, 1 - 1j * s, 1 - 1j * s]))
        assert np.allclose(got, want, atol=1e-12)

    def test_sorted_real_then_imag(self):
        e = stability_eigenvalues(sym())
        assert np.all(np.diff(e.real) > -1e-9)
        for r in np.unique(np.round(e.real, 9)):
            block = e.imag[np.abs(e.real - r) < 1e-9]
            assert np.all(np.diff(block) >= 0)

    def test_analytic_matches_numeric_route(self):
        from opodimer.linearized import build_linear_model, numeric_eigenvalues
        for ja, jb, frac in ((0.0, 0.0, 0.3), (2.0, 1.0, 0.7),
                             (5.0, 0.5, 0.9)):
            p = sym(J_a=ja, J_b=jb, pump_fraction=frac)
            analytic = stability_eigenvalues(p)
            numeric = numeric_eigenvalues(build_linear_model(p, steady_state(p)))
            assert np.allclose(analytic, numeric, atol=1e-10)

    def test_min_real_part_crosses_zero_at_threshold(self):
        below = stability_eigenvalues(sym(pump_fraction=0.999))
        assert float(below.real.min()) > 0.0
        above = stability_eigenvalues(sym(pump_fraction=1.001))
        assert float(above.real.min()) < 0.0


class TestThresholdBisection:
    def test_matches_analytic_resonant(self):
        p = sym()
        assert threshold_bisection(p) == pytest.approx(200.0, rel=1e-8)

    def test_matches_analytic_detuned(self):
        p = sym(J_a=10.0, Delta_a=10.0, Delta_b=1.0)
        assert threshold_bisection(p) == pytest.approx(100.0, rel=1e-8)

    def test_package_import_defers_the_root_finder(self):
        code = "import sys, opodimer; assert 'scipy.optimize' not in sys.modules"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True)
        assert r.returncode == 0, r.stderr
