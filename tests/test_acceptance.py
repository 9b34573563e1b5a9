"""End-to-end acceptance checks.

Each test prints one "[criterion N] PASS" line (visible with -s or on
failure) and enforces the pinned tolerance for that check. The three
expensive trajectory ensembles are module-scoped so the whole file costs
one SDE run per physical configuration; each streams into the spectrum
estimate the criteria read and is never held whole.
"""
import math
import time

import numpy as np
import pytest

from opodimer import sde
from opodimer.criteria import (combined_variances, duan_sum, epr_product,
                               optimize_angle, spectral_stack)
from opodimer.linearized import build_linear_model
from opodimer.model import (SystemParams, critical_pump, dense_eigvals,
                            stability_eigenvalues, steady_state,
                            threshold_bisection_stack)
from opodimer.spectrum import analytic_combined, analytic_variances

from helpers import (finite_difference_jacobian, numeric_moments,
                     supermode_eigenvalues, sort_eigenvalues, sym)


FIG4 = sym(J_a=10.0, Delta_a=10.0, Delta_b=1.0)


def _pass(n, detail):
    print(f"[criterion {n}] PASS  {detail}")


def _random_equal_pumps(rng):
    """Equal pumps below threshold at a uniform phase, with any coupling and
    signal and pump detuning in [-5, 5]."""
    rates = dict(kappa=rng.uniform(0.005, 0.05),
                 gamma_a=rng.uniform(0.3, 3.0), gamma_b=rng.uniform(0.3, 3.0),
                 J_a=rng.uniform(-5.0, 5.0), J_b=rng.uniform(-5.0, 5.0),
                 Delta_a=rng.uniform(-5.0, 5.0), Delta_b=rng.uniform(-5.0, 5.0))
    eps = (rng.uniform(0.05, 0.95) * critical_pump(SystemParams(**rates))
           * np.exp(1j * rng.uniform(-math.pi, math.pi)))
    return SystemParams.symmetric(eps=eps, **rates)


# Wall-clock per ensemble and its estimate, summed by criterion 9's budget
# check.
_SDE_SECONDS = {}

YP_TERMS = [(1, math.pi / 2, 1.0), (2, math.pi / 2, 1.0)]


def _timed_estimate(key, params, config, terms, omegas=None):
    start = time.perf_counter()
    est, = sde.stream_output_spectra(params, config, [terms], omegas)
    _SDE_SECONDS[key] = time.perf_counter() - start
    return est


@pytest.fixture(scope="module")
def ens_vacuum():
    p = sym(pump_fraction=0.0)
    cfg = sde.SdeConfig(dt=0.01, t_transient=0.5, t_measure=100.0,
                        n_traj=4096, seed=41, record_stride=5)
    return p, _timed_estimate("vacuum", p, cfg, [(1, 0.0, 1.0)])


@pytest.fixture(scope="module")
def ens_single():
    p = sym(J_a=0.0, J_b=0.0)
    cfg = sde.SdeConfig(dt=0.01, t_transient=20.0, t_measure=200.0,
                        n_traj=4096, seed=42, record_stride=10)
    return p, _timed_estimate("single", p, cfg, [(1, math.pi / 2, 1.0)], (0.0,))


@pytest.fixture(scope="module")
def ens_detuned():
    cfg = sde.SdeConfig(dt=0.004, t_transient=20.0, t_measure=200.0,
                        n_traj=4096, seed=43, record_stride=25)
    return FIG4, _timed_estimate("detuned", FIG4, cfg, YP_TERMS, (0.0,))


def test_criterion_01_closed_forms_match_numeric_spectra():
    rng = np.random.default_rng(2024)
    omegas = np.linspace(-12.0, 12.0, 21)
    start = time.perf_counter()
    for _ in range(200):
        p = _random_equal_pumps(rng)
        a = analytic_variances(p, omegas)
        n = numeric_moments(p, omegas)
        for k in n:
            assert a[k] == pytest.approx(n[k], rel=1e-10, abs=1e-12), (k, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(1, f"200 equal-pump sets (any detuning and pump phase) x 21 "
             f"frequencies, rel 1e-10, {elapsed:.1f}s")


def test_criterion_02_single_opo_reduction():
    p = sym(J_a=0.0, J_b=0.0)
    assert p.kappa * abs(p.eps1) == pytest.approx(0.5, abs=1e-15)
    for m in (analytic_variances(p, 0.0), numeric_moments(p, 0.0)):
        assert m["S_Y"] == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert m["S_X"] == pytest.approx(9.0, abs=1e-12)
        assert m["S_X"] * m["S_Y"] == pytest.approx(1.0, abs=1e-12)
    _pass(2, "S_Y = 1/9, S_X = 9, product 1 at 1e-12")


def test_criterion_03_detuned_squeezing_headline(ens_detuned):
    want = 2.0 / 9.0
    got = analytic_combined(FIG4, 0.0)["S_Yp"]
    assert got == pytest.approx(want, abs=1e-6)
    S = spectral_stack(FIG4, 0.0)
    assert combined_variances(S, FIG4.gamma_a)["S_Yp"] == pytest.approx(
        want, abs=1e-6)

    p, est = ens_detuned
    _, val, err = est.nearest(0.0)
    z = (val - want) / err
    assert abs(z) < 3.0
    _pass(3, f"S_Yp(0) = 2/9 (88.9% squeezing), SDE z = {z:+.2f}")


def test_criterion_04_entanglement_witness():
    got = duan_sum(spectral_stack(FIG4, 0.0), FIG4.gamma_a, 0.0, "xminus_yplus")[0]
    assert got == pytest.approx(2.2123156566708087, abs=1e-4)
    assert got < 4.0
    ref = analytic_combined(FIG4, 0.0)
    assert got == pytest.approx(ref["S_Xm"] + ref["S_Yp"], rel=1e-10)

    dips = []
    for ja in (1.0, 10.0, 20.0):
        p = sym(J_a=ja, Delta_a=ja, Delta_b=1.0)
        assert duan_sum(spectral_stack(p, 0.0), p.gamma_a)[0] < 4.0
        if ja >= 10.0:
            lo, hi = 1.5 * ja, 2.5 * ja
            grid = np.linspace(lo, hi, 601)
            vals = duan_sum(spectral_stack(p, grid), p.gamma_a)
            k = int(vals.argmin())
            assert 0 < k < len(grid) - 1
            assert vals[k] < 4.0
            assert vals[k] < vals[0] and vals[k] < vals[-1]
            dips.append((ja, grid[k]))
    assert all(abs(w - 2 * ja) < 0.5 * ja for ja, w in dips)
    _pass(4, "duan_sum(0) = 2.2123 < 4; side dips near 2*J_a for "
             "J_a in {10, 20}")


def test_criterion_05_epr_two_route_crosscheck():
    route_a = epr_product(spectral_stack(FIG4, 0.0), FIG4.gamma_a, 0.0,
                          infer_from=1)[0]
    c = analytic_combined(FIG4, 0.0)
    s_x1 = (c["S_Xp"] + c["S_Xm"]) / 4.0
    v_x = (c["S_Xp"] - c["S_Xm"]) / 4.0
    s_y1 = (c["S_Yp"] + c["S_Ym"]) / 4.0
    v_y = (c["S_Yp"] - c["S_Ym"]) / 4.0
    route_b = (s_x1 - v_x ** 2 / s_x1) * (s_y1 - v_y ** 2 / s_y1)
    assert route_a == pytest.approx(0.3587, abs=1e-3)
    assert route_a == pytest.approx(route_b, rel=1e-9)
    assert route_a < 1.0
    _pass(5, f"epr_product(0) = {route_a:.4f} < 1, routes agree to 1e-9")


def test_criterion_06_threshold_bisection_matches_analytic():
    grid = (0.0, 0.5, 1.0, 2.0, 5.0)
    detuned_values = []
    for ja in grid:
        for jb in grid:
            res = sym(J_a=ja, J_b=jb)
            assert threshold_bisection_stack([res])[0] == pytest.approx(
                critical_pump(res), rel=1e-6)
            det = sym(J_a=ja, J_b=jb, Delta_a=ja, Delta_b=jb)
            crit = critical_pump(det)
            assert threshold_bisection_stack([det])[0] == pytest.approx(
                crit, rel=1e-6)
            detuned_values.append(crit)
            # coupling and detuning of opposite sign, on and off Delta = -J
            for da, db in ((-ja, -jb), (-3.0, -3.0)):
                opp = sym(J_a=ja, J_b=jb, Delta_a=da, Delta_b=db)
                assert threshold_bisection_stack([opp])[0] == pytest.approx(
                    critical_pump(opp), rel=1e-6)
    assert np.allclose(detuned_values, detuned_values[0], rtol=1e-12)
    _pass(6, f"5x5 grid, resonant, matched-detuning and opposite-sign "
             f"detuning; detuned threshold constant at {detuned_values[0]:g}")


def test_criterion_07_eigenvalue_oracle():
    rng = np.random.default_rng(77)
    for _ in range(100):
        p = _random_equal_pumps(rng)
        analytic = sort_eigenvalues(supermode_eigenvalues(p))
        for eigs in (stability_eigenvalues(p),
                     dense_eigvals(build_linear_model(p).A)):
            assert np.allclose(analytic, sort_eigenvalues(eigs), atol=1e-10,
                               rtol=0.0)
    _pass(7, "100 random equal-pump sets, the closed form and both "
             "solvers' sorted spectra agree to 1e-10 absolute")


def test_criterion_08_jacobian_negates_drift_matrix():
    rng = np.random.default_rng(88)
    for i in range(50):
        kw = dict(kappa=rng.uniform(0.005, 0.05),
                  gamma_a=rng.uniform(0.3, 3.0),
                  gamma_b=rng.uniform(0.3, 3.0),
                  J_a=rng.uniform(-5.0, 5.0), J_b=rng.uniform(-5.0, 5.0),
                  Delta_a=0.0, Delta_b=0.0,
                  pump_fraction=rng.uniform(0.05, 0.9))
        if i % 2:
            kw["Delta_a"] = rng.uniform(-3.0, 3.0)
            kw["Delta_b"] = rng.uniform(-3.0, 3.0)
        p = SystemParams.symmetric(**kw)
        try:
            steady_state(p)
        except Exception:
            continue
        jac = finite_difference_jacobian(p)
        assert np.allclose(jac, -build_linear_model(p).A, atol=1e-6)
    _pass(8, "finite-difference Jacobian equals -A to 1e-6, detunings "
             "included")


def test_criterion_09_sde_oracle_suite(ens_vacuum, ens_single, ens_detuned):
    p_vac, est = ens_vacuum
    assert np.abs(est.values - 1.0).max() <= 3.0 * np.maximum(
        est.stderr, 1e-15).max()
    assert np.allclose(est.values, 1.0, atol=1e-12)

    p_single, est = ens_single
    _, val, err = est.nearest(0.0)
    z_single = (val - 1.0 / 9.0) / err
    assert abs(z_single) < 3.0

    p_det, est = ens_detuned
    _, val, err = est.nearest(0.0)
    z_det = (val - 2.0 / 9.0) / err
    assert abs(z_det) < 3.0

    total = sum(_SDE_SECONDS.values())
    assert total < 600.0

    # caption-level angle checks standing in for untabulated curve data
    t, _ = optimize_angle(sym(J_a=1.0), 0.0, "squeezing")
    assert math.degrees(t) == pytest.approx(113.0, abs=1.0)
    for ja in (2.0, 5.0, 10.0):
        t, _ = optimize_angle(sym(J_a=ja), 0.0, "squeezing")
        assert math.degrees(t) == pytest.approx(22.0, abs=1.0)
    _pass(9, f"vacuum flat, single z = {z_single:+.2f}, detuned "
             f"z = {z_det:+.2f}, ensembles {total:.0f}s < 600s, angles "
             f"113/22 within 1 degree")
