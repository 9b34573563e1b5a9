import math
import tracemalloc

import numpy as np
import pytest

from opodimer import spectrum
from opodimer.config import PRESETS, load_preset
from opodimer.errors import (AboveThresholdError, ConvergenceFailureError,
                             DetuningMismatchError, DomainError,
                             SingularAtFrequencyError)
from opodimer.linearized import LinearModel, build_linear_model
from opodimer.model import SystemParams, critical_pump, steady_state
from opodimer.criteria import combined_variances, quadrature, spectral_stack
from opodimer.spectrum import (COND_LIMIT, SpectralMatrix, analytic_combined,
                               analytic_variances, coefficient_vector,
                               output_moment, spectral_matrix, vacuum_baseline)

from helpers import (DETUNED_COMPLEX, assert_same_bits, build_combined_model,
                     model_for, numeric_moments, reference_spectral_matrix, sym)

# pumps off real equal pumps: unequal, unequal and complex, equal and
# imaginary, and equal with an imaginary part far below any tolerance
OFF_PUMPS = ((50.0, 40.0), (50.0, 60.0), (50.0, 50.0 + 1.0j), (50.0j, 50.0j),
             (50.0 + 1e-13j, 50.0 + 1e-13j))
# the closed forms raise on the unequal ones and take the equal ones
UNEQUAL_PUMPS = [(e1, e2) for e1, e2 in OFF_PUMPS if e1 != e2]
EQUAL_COMPLEX = [e1 for e1, e2 in OFF_PUMPS if e1 == e2]


def assert_pipeline_values(p, omegas):
    """Every key of both closed forms matches the 8x8 pipeline within
    max(1e-10 |want|, 1e-12), pytest.approx's rule at rel=1e-10, at each
    frequency of omegas. Each closed form is called once, on the array."""
    omegas = np.asarray(omegas, dtype=float)
    want = {**numeric_moments(p, omegas),
            **combined_variances(spectral_stack(p, omegas), p.gamma_a)}
    got = {**analytic_variances(p, omegas), **analytic_combined(p, omegas)}
    for k in want:
        gap = np.abs(got[k] - want[k]) - np.maximum(1e-10 * np.abs(want[k]), 1e-12)
        assert not (gap > 0).any(), (k, omegas[np.argmax(gap)], p)


SWAP = np.zeros((8, 8))
for k in range(4):
    SWAP[2 * k, 2 * k + 1] = SWAP[2 * k + 1, 2 * k] = 1.0


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
        m = build_linear_model(p)
        with pytest.raises(SingularAtFrequencyError):
            spectral_matrix(m, 0.0)
        # away from the critical frequency the matrix is fine
        spectral_matrix(m, 2.0)

    def test_condition_number_reported(self):
        m = model_for(sym())
        S = spectral_matrix(m, 0.5)
        assert S.cond.shape == S.omega.shape == (1,)
        assert S.omega[0] == 0.5
        # the Frobenius condition number, between the 2-norm one and n times it
        M = m.A + 0.5j * np.eye(8)
        assert S.cond[0] == pytest.approx(
            np.linalg.norm(M) * np.linalg.norm(np.linalg.inv(M)), rel=1e-12)
        assert np.linalg.cond(M) <= S.cond[0] <= 8 * np.linalg.cond(M)
        empty = spectral_matrix(m, [])
        assert empty.S.shape == (0, 8, 8) and empty.cond.shape == (0,)

    def test_caller_frequencies_stay_writeable(self):
        w = np.linspace(-1.0, 1.0, 5)
        before = w.copy()
        S = spectral_matrix(model_for(sym()), w)
        assert w.flags.writeable
        assert np.array_equal(w, before)
        assert not S.omega.flags.writeable

    @pytest.mark.parametrize("preset", ["fig1", "fig5"])
    def test_stack_equals_each_omega_alone(self, preset):
        cfg = load_preset(preset)
        omegas = cfg.sweep.omegas()
        for _, spec, _ in cfg.variants():
            m = model_for(spec.system)
            stack = spectral_matrix(m, omegas)
            assert stack.S.shape == (len(omegas), 8, 8)
            for k, w in enumerate(omegas):
                one = spectral_matrix(m, w)
                assert np.array_equal(stack.S[k], one.S[0])
                assert np.array_equal(stack.cond[k], one.cond[0])

    def test_singular_frequency_in_stack_is_named(self):
        p = sym(pump_fraction=1.0)
        m = build_linear_model(p)
        with pytest.raises(SingularAtFrequencyError, match=r"at omega = 0$"):
            spectral_matrix(m, [2.0, -1.5, 0.0, 3.0])
        with pytest.raises(ValueError, match="must be finite"):
            spectral_matrix(model_for(sym()), [2.0, math.nan])

    def test_singular_frequency_past_the_first_block_is_named(self):
        m = build_linear_model(sym(pump_fraction=1.0))
        n = spectrum._OMEGA_BLOCK
        with pytest.raises(SingularAtFrequencyError, match=r"at omega = 0$"):
            spectral_matrix(m, np.r_[np.linspace(2.0, 9.0, n + 3), 0.0, -1.5])

    def test_memory_does_not_grow_with_the_grid(self):
        m = model_for(sym())

        def beyond_output(n_blocks):
            omegas = np.linspace(-50.0, 50.0, n_blocks * spectrum._OMEGA_BLOCK)
            tracemalloc.start()
            try:
                S = spectral_matrix(m, omegas)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - S.S.nbytes - S.cond.nbytes

        beyond_output(4)  # first-call allocations
        small = beyond_output(4)
        # temporaries of 4 KB per frequency would add 29 MB over 28 blocks
        assert beyond_output(32) <= small + 64 * 1024

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


def dense_model():
    """A toy model whose A couples every index to every other, with noise
    on four of its eight indices: its second solve takes every row."""
    rng = np.random.default_rng(5)
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)) + 6.0 * np.eye(8)
    return LinearModel(A=A, B=np.diag([1.0, 0.5, 0.0, 2.0, 0.0, 0.0, 0.0, 1.5j]))


def reference_cases():
    """(name, model, omegas) of every preset variant on its own grid, and of
    the detuned complex-pump point, an undriven model, the 4x4 combined
    model and the dense toy model on one grid."""
    cases = []
    for preset in PRESETS:
        cfg = load_preset(preset)
        for label, spec, _ in cfg.variants():
            cases.append((f"{preset}:{label}", model_for(spec.system),
                          cfg.sweep.omegas()))
    w = np.linspace(-20.0, 20.0, 601)
    cases += [("detuned", model_for(DETUNED_COMPLEX), w),
              ("undriven", model_for(sym(pump_fraction=0.0)), w),
              ("combined", build_combined_model(sym(J_a=2.0, Delta_a=2.0,
                                                    Delta_b=1.0)), w),
              ("dense", dense_model(), w)]
    return cases


REFERENCE_CASES = reference_cases()


class TestReferenceRoute:
    @pytest.mark.parametrize("name,model,omegas", REFERENCE_CASES,
                             ids=[c[0] for c in REFERENCE_CASES])
    def test_matches_inverse_and_two_full_solves(self, name, model, omegas):
        got = spectral_matrix(model, omegas)
        want = reference_spectral_matrix(model, omegas)
        np.testing.assert_array_equal(got.cond.view(np.int64),
                                      want.cond.view(np.int64))
        g = np.ascontiguousarray(got.S).view(float)
        r = np.ascontiguousarray(want.S).view(float)
        assert np.array_equal(g, r)  # -0.0 == 0.0
        assert (r[g.view(np.int64) != r.view(np.int64)] == 0.0).all()

    @pytest.mark.parametrize("model,live", [(model_for(sym()), 4),
                                            (dense_model(), 8)])
    def test_solves_keep_to_the_noise_support(self, monkeypatch, model, live):
        # every right-hand side is a stack (numpy < 2.0 reads a b with one
        # axis less than a as a stack of vectors); the first solve takes the
        # identity and D's nonzero columns, the second the live rows of left
        calls = []
        solve = np.linalg.solve

        def recorded(a, b):
            assert b.ndim == a.ndim
            calls.append(b.shape[-1])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        spectral_matrix(model, np.linspace(-5.0, 5.0, spectrum._OMEGA_BLOCK + 3))
        spectral_matrix(model, 0.7)
        assert calls == [8 + 4, live] * 3  # two blocks, then one

    def test_factorization_failure_is_a_typed_error(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(SingularAtFrequencyError,
                           match=r"between omega = 1 and 3$"):
            spectral_matrix(model_for(sym()), [1.0, 2.0, 3.0])

    def test_memory_no_higher_than_the_reference(self):
        cfg = load_preset("fig5")
        model = model_for(cfg.variants()[0][1].system)
        omegas = cfg.sweep.omegas()
        assert len(omegas) == 2001

        def beyond_output(route):
            tracemalloc.start()
            try:
                S = route(model, omegas)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - S.S.nbytes - S.cond.nbytes

        for route in (spectral_matrix, reference_spectral_matrix):
            beyond_output(route)  # first-call allocations
        assert beyond_output(spectral_matrix) <= \
            beyond_output(reference_spectral_matrix)


def two_sided_moment(S, terms1, terms2, gamma_a):
    """output_moment as it was written before a variance was projected once:
    both products of the symmetrized form, always."""
    mat = S.S
    c1 = coefficient_vector(mat.shape[-1], terms1)
    c2 = coefficient_vector(mat.shape[-1], terms2)
    v = 0.5 * ((c1 @ mat)[..., None, :] @ c2[..., :, None]
               + (c2 @ mat)[..., None, :] @ c1[..., :, None])[..., 0, 0]
    return vacuum_baseline(terms1, terms2) + 2.0 * gamma_a * v.real


class TestProjectOnce:
    @pytest.mark.parametrize("preset", ["fig1", "fig4", "fig5"])
    def test_moments_keep_the_two_sided_bits(self, preset):
        # a variance, for the same terms object twice, is projected once;
        # its bits are those of the two-sided form, as are a covariance's
        cfg = load_preset(preset)
        angles = np.array([0.0, 0.4, 2.0])
        for _, spec, _ in cfg.variants():
            p = spec.system
            S = spectral_matrix(model_for(p), cfg.sweep.omegas())
            for theta in (0.3, angles):
                terms = [quadrature(q, theta) for q in
                         ("X1", "Y1", "X2", "Xp", "Yp", "Xm", "Ym")]
                # each variance, then its covariance with the next term
                for t1, t2 in zip(terms, terms[1:] + terms[:1]):
                    for pair in ((t1, t1), (t1, t2)):
                        got = output_moment(S, *pair, p.gamma_a)
                        want = two_sided_moment(S, *pair, p.gamma_a)
                        np.testing.assert_array_equal(got.view(np.int64),
                                                      want.view(np.int64))


def diagonal_model(delta):
    """A = diag(1, ..., 1, delta): at omega = 0 the 2-norm condition number is
    1/delta and the Frobenius one sqrt(7 + 1/delta^2) sqrt(7 + delta^2),
    about 2.65/delta."""
    return LinearModel(A=np.diag([1.0] * 7 + [delta]).astype(complex),
                       B=np.eye(8))


class TestSingularityGate:
    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        cond = np.linalg.cond

        def counted(x, *args):
            calls.append(len(x))
            return cond(x, *args)

        monkeypatch.setattr(np.linalg, "cond", counted)
        return calls

    def test_below_the_limit_passes_through_the_svd(self, svd_calls):
        S = spectral_matrix(diagonal_model(1 / 0.9e12), [3.0, 0.0])
        assert S.cond[1] > COND_LIMIT  # the Frobenius value alone would fail
        assert svd_calls == [1]  # only omega = 0 went to the SVD

    def test_above_the_limit_raises_with_the_2norm_value(self, svd_calls):
        with pytest.raises(SingularAtFrequencyError,
                           match=r"condition number 1\.100e\+12 .* at omega = 0$"):
            spectral_matrix(diagonal_model(1 / 1.1e12), [3.0, 0.0])
        assert svd_calls == [1]

    def test_well_conditioned_stack_skips_the_svd(self, svd_calls):
        spectral_matrix(model_for(sym()), np.linspace(-5.0, 5.0, 11))
        assert svd_calls == []

    def test_exactly_singular_slice_sends_the_stack_to_the_svd(self, svd_calls):
        with pytest.raises(SingularAtFrequencyError, match=r"at omega = 0$"):
            spectral_matrix(diagonal_model(0.0), [2.0, 0.0])
        assert svd_calls == [2]

    def test_exactly_singular_slice_sends_only_its_block_to_the_svd(self,
                                                                   svd_calls):
        # omega = 0 in a second block of 5 frequencies
        n = spectrum._OMEGA_BLOCK
        with pytest.raises(SingularAtFrequencyError, match=r"at omega = 0$"):
            spectral_matrix(diagonal_model(0.0),
                            np.r_[np.linspace(1.0, 5.0, n + 3), 0.0, 2.0])
        assert svd_calls == [5]

    def test_decision_near_threshold_is_the_svd_rule(self):
        omegas = np.array([0.0, 1e-12, 1e-11])
        outcomes = set()
        for gap in np.geomspace(1e-13, 1e-10, 13):
            m = build_linear_model(sym(pump_fraction=1.0 - gap))
            for w in omegas:
                cond = np.linalg.cond(m.A + 1j * np.array([w])[:, None, None]
                                      * np.eye(8))[0]
                passes = bool(cond <= COND_LIMIT)
                try:
                    spectral_matrix(m, w)
                except SingularAtFrequencyError as exc:
                    assert not passes, (gap, w, cond)
                    assert f"{cond:.3e}" in str(exc)
                else:
                    assert passes, (gap, w, cond)
                outcomes.add(passes)
        assert outcomes == {True, False}


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

    @pytest.mark.parametrize("p", [
        sym(J_a=2.0, J_b=-1.5),
        sym(J_a=10.0, Delta_a=10.0, Delta_b=1.0),
        SystemParams.symmetric(eps=40.0 + 30.0j, kappa=0.01, gamma_a=1.0,
                               gamma_b=0.8, J_a=1.0, J_b=0.5, Delta_a=0.3,
                               Delta_b=-0.2)],
        ids=["resonant", "delta_eq_j", "equal_complex"])
    def test_frequency_array_is_each_frequency_alone(self, p):
        # the closed forms take a numpy array of omega elementwise, with the
        # bits of one scalar call per frequency
        omegas = np.linspace(-12.0, 12.0, 25)
        for form in (analytic_variances, analytic_combined):
            got = form(p, omegas)
            for k, v in got.items():
                assert_same_bits(v, np.array([form(p, w)[k] for w in omegas]))

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
        assert issubclass(DetuningMismatchError, DomainError)
        # equal pumps off Delta = 0 by any amount, 1e-13 included, on
        # Delta = J, or complex: the pipeline's values
        rates = dict(kappa=0.01, gamma_a=1, gamma_b=1, J_a=1, J_b=1,
                     Delta_a=0, Delta_b=0)
        for p in ([sym(**kw) for kw in (
                dict(Delta_a=0.5), dict(Delta_a=1e-13), dict(Delta_b=-1e-13),
                dict(J_a=10.0, Delta_a=10.0, Delta_b=1.0))]
                + [SystemParams(eps1=e, eps2=e, **rates) for e in EQUAL_COMPLEX]):
            assert_pipeline_values(p, [0.0, 1.7])
        for eps1, eps2 in UNEQUAL_PUMPS:
            p = SystemParams(eps1=eps1, eps2=eps2, **rates)
            for form in (analytic_variances, analytic_combined):
                with pytest.raises(DomainError, match="equal pumps") as exc:
                    form(p, 0.0)
                assert exc.type is DetuningMismatchError, (eps1, eps2)
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

    def test_random_equal_complex_pumps(self):
        # the whole equal-pump space: any coupling and detuning on signals
        # and pumps, at any pump phase
        rng = np.random.default_rng(32)
        omegas = np.linspace(-20.0, 20.0, 41)
        for _ in range(300):
            j_a, j_b, d_a, d_b = rng.uniform(-10.0, 10.0, 4)
            rates = dict(kappa=rng.uniform(1e-3, 0.1),
                         gamma_a=rng.uniform(0.2, 3.0),
                         gamma_b=rng.uniform(0.2, 3.0),
                         J_a=j_a, J_b=j_b, Delta_a=d_a, Delta_b=d_b)
            eps = (rng.uniform(0.05, 0.95) * critical_pump(SystemParams(**rates))
                   * np.exp(1j * rng.uniform(-math.pi, math.pi)))
            assert_pipeline_values(SystemParams.symmetric(eps=eps, **rates),
                                   omegas)


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
        m4 = build_combined_model(p)
        for w in (0.0, 1.1, 6.61, 20.0, -20.0):
            S4 = spectral_matrix(m4, w)
            a = analytic_combined(p, w)
            # the combined modes are unnormalized: vacuum baseline 2 per
            # mode, one unit more than output_moment's bare-mode baseline
            for key, mode, ang in (("S_Xp", 1, 0.0), ("S_Yp", 1, math.pi / 2),
                                   ("S_Xm", 2, 0.0), ("S_Ym", 2, math.pi / 2)):
                q = [(mode, ang, 1.0)]
                v = output_moment(S4, q, q, 1.0) + 1.0
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
        # off Delta = J by any amount, one ulp of J_a = 10 included, or on
        # the resonant manifold: the pipeline's values, where the 4x4 model
        # still raises
        for kw in (dict(), dict(J_a=10.0, Delta_a=9.9, Delta_b=1.0),
                   dict(J_a=10.0, Delta_a=math.nextafter(10.0, 11.0), Delta_b=1.0),
                   dict(J_a=10.0, Delta_a=10.0, Delta_b=1.0 + 1e-13)):
            assert_pipeline_values(sym(**kw), [0.0, 20.0])
            with pytest.raises(DomainError, match="Delta = J manifold") as exc:
                build_combined_model(sym(**kw))
            assert exc.type is DetuningMismatchError, kw
        # on the Delta = J manifold, equal complex pumps give the pipeline's
        # values and unequal pumps raise
        rates = dict(J_a=10.0, J_b=1.0, Delta_a=10.0, Delta_b=1.0)
        for e in EQUAL_COMPLEX:
            assert_pipeline_values(SystemParams(eps1=e, eps2=e, **rates), [0.0, 20.0])
        for eps1, eps2 in UNEQUAL_PUMPS:
            p = SystemParams(eps1=eps1, eps2=eps2, **rates)
            with pytest.raises(DomainError, match="equal pumps") as exc:
                analytic_combined(p, 0.0)
            assert exc.type is DetuningMismatchError, (eps1, eps2)
