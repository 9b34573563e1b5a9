import numpy as np
import pytest

from opodimer.errors import DetuningMismatchError
from opodimer.linearized import build_linear_model
from opodimer.model import (SystemParams, _unchecked_state, dense_eigvals,
                            stability_eigenvalues, steady_state)

from helpers import (build_combined_model, finite_difference_jacobian,
                     model_for, supermode_eigenvalues, sort_eigenvalues, sym)

SWAP = np.zeros((8, 8))
for k in range(4):
    SWAP[2 * k, 2 * k + 1] = SWAP[2 * k + 1, 2 * k] = 1.0


def entrywise_model(p):
    """A and B written entry by entry on the full 8x8, as the drift matrix
    was assembled before the block builder: the reference it must match."""
    ss = _unchecked_state(p)
    m1, m2 = p.kappa * ss.beta1_ss, p.kappa * ss.beta2_ss
    ca = p.gamma_a + 1j * p.Delta_a
    cb = p.gamma_b + 1j * p.Delta_b
    ja, jb = 1j * p.J_a, 1j * p.J_b
    A = np.zeros((8, 8), dtype=complex)
    A[0, 0], A[0, 1], A[0, 2] = ca, -m1, -ja
    A[1, 0], A[1, 1], A[1, 3] = -np.conj(m1), np.conj(ca), ja
    A[2, 0], A[2, 2], A[2, 3] = -ja, ca, -m2
    A[3, 1], A[3, 2], A[3, 3] = ja, -np.conj(m2), np.conj(ca)
    A[4, 4], A[4, 6] = cb, -jb
    A[5, 5], A[5, 7] = np.conj(cb), jb
    A[6, 4], A[6, 6] = -jb, cb
    A[7, 5], A[7, 7] = jb, np.conj(cb)
    B = np.zeros((8, 8), dtype=complex)
    B[0, 0] = np.sqrt(complex(m1))
    B[1, 1] = np.sqrt(complex(np.conj(m1)))
    B[2, 2] = np.sqrt(complex(m2))
    B[3, 3] = np.sqrt(complex(np.conj(m2)))
    return A, B


# Parameter rows off resonance or with unequal pumps, outside the resonant
# sets of the eigenvalue oracle tests: Delta tracking J, Delta = -3
# against positive J (opposite signs), negative J_a and Delta_b, and
# unequal complex pumps with and without detuning.
OFF_RESONANCE = (
    dict(J_a=10.0, J_b=1.0, Delta_a=10.0, Delta_b=1.0, eps1=50.0, eps2=50.0),
    dict(J_a=3.0, J_b=0.5, Delta_a=-3.0, Delta_b=-3.0, eps1=120.0, eps2=120.0),
    dict(J_a=-2.0, J_b=1.5, Delta_a=0.5, Delta_b=-1.0, eps1=80.0, eps2=80.0),
    dict(J_a=1.0, J_b=1.0, eps1=60.0 + 20.0j, eps2=-30.0 + 45.0j),
    dict(J_a=-1.5, J_b=2.0, Delta_a=0.7, Delta_b=-0.4,
         eps1=90.0 - 10.0j, eps2=25.0 + 60.0j),
)


class TestDriftMatrix:
    def test_frozen_entries(self):
        # kappa * beta_ss = 0.01 * (50 + 50i) with eps = 100, J_b = 1
        p = SystemParams(kappa=0.01, gamma_a=1.0, gamma_b=1.0, J_a=1.0,
                         J_b=1.0, Delta_a=0.0, Delta_b=0.0,
                         eps1=100.0, eps2=100.0)
        m = model_for(p)
        assert m.A.shape == (8, 8)
        assert m.A[0, 0] == pytest.approx(1.0)
        assert m.A[0, 1] == pytest.approx(-(0.5 + 0.5j), rel=1e-14)
        assert m.A[0, 2] == pytest.approx(-1j)
        assert m.A[1, 0] == pytest.approx(-(0.5 - 0.5j), rel=1e-14)
        assert m.A[1, 3] == pytest.approx(1j)
        # pump block: decay, detuning-free rotation, coupling
        assert m.A[4, 4] == pytest.approx(1.0)
        assert m.A[4, 6] == pytest.approx(-1j)
        assert m.A[5, 7] == pytest.approx(1j)
        assert np.all(m.A[4:, :4] == 0)

    def test_conjugation_symmetry(self):
        # rows come in conjugate pairs: C A* C = A
        for p in (sym(), sym(J_a=10, Delta_a=10, Delta_b=1),
                  sym(J_a=-3, J_b=2, Delta_a=0.7, Delta_b=-0.2)):
            A = model_for(p).A
            assert np.allclose(SWAP @ A.conj() @ SWAP, A, atol=1e-14)

    def test_noise_squares_to_pump_quadrature(self):
        p = sym()
        m = model_for(p)
        ss = steady_state(p)
        D = m.diffusion()
        assert D[0, 0] == pytest.approx(p.kappa * ss.beta1_ss, rel=1e-14)
        assert D[1, 1] == pytest.approx(np.conj(p.kappa * ss.beta1_ss),
                                        rel=1e-14)
        assert np.count_nonzero(D[4:, :]) == 0

    @pytest.mark.parametrize("kw", [
        dict(J_a=1.0, J_b=1.0, eps1=100.0, eps2=100.0),
        *OFF_RESONANCE[:3],
        dict(J_a=0.0, J_b=-0.0, Delta_a=-0.0, eps1=50.0, eps2=50.0),
        *OFF_RESONANCE[3:],
    ])
    def test_blocks_match_the_entrywise_assembly(self, kw):
        # bit for bit, signed zeros included, on both sides of threshold
        for f in (1.0, 0.0, 3.0):
            q = dict(kw, eps1=f * kw["eps1"], eps2=f * kw["eps2"])
            m = build_linear_model(SystemParams(kappa=0.01, **q))
            A, B = entrywise_model(SystemParams(kappa=0.01, **q))
            assert m.A.tobytes() == A.tobytes() and m.B.tobytes() == B.tobytes()

    def test_arrays_read_only(self):
        m = model_for(sym())
        with pytest.raises(ValueError):
            m.A[0, 0] = 0.0
        with pytest.raises(ValueError):
            m.B[0, 0] = 0.0


class TestCombinedModel:
    def test_requires_matched_detunings(self):
        with pytest.raises(DetuningMismatchError):
            build_combined_model(sym())
        p = sym(J_a=10.0, Delta_a=10.0, Delta_b=1.0)
        m = build_combined_model(p)
        assert m.A.shape == (4, 4)

    def test_block_structure_and_diffusion(self):
        p = sym(J_a=10.0, Delta_a=10.0, Delta_b=1.0)
        ss = steady_state(p)
        m = build_combined_model(p)
        ke = p.kappa * ss.beta1_ss.real
        ga, ja = p.gamma_a, p.J_a
        want = np.array([
            [ga, -ke, 0, 0],
            [-ke, ga, 0, 0],
            [0, 0, ga + 2j * ja, -ke],
            [0, 0, -ke, ga - 2j * ja]], dtype=complex)
        assert np.allclose(m.A, want, atol=1e-12)
        assert np.allclose(m.diffusion(), 2.0 * ke * np.eye(4), atol=1e-12)

    def test_eigenvalues_split_into_sum_and_difference_pairs(self):
        p = sym(J_a=10.0, Delta_a=10.0, Delta_b=1.0)
        ss = steady_state(p)
        m = build_combined_model(p)
        ke = p.kappa * ss.beta1_ss.real
        ga, ja = p.gamma_a, p.J_a
        want = sort_eigenvalues(np.array(
            [ga - ke, ga + ke,
             ga + np.sqrt(complex(ke * ke - 4 * ja * ja)),
             ga - np.sqrt(complex(ke * ke - 4 * ja * ja))]))
        assert np.allclose(sort_eigenvalues(dense_eigvals(m.A)), want, atol=1e-10)


class TestJacobian:
    def test_matches_negated_drift_matrix(self):
        for p in (sym(), sym(J_a=4, J_b=0.5, Delta_a=1.2, Delta_b=0.3,
                             pump_fraction=0.8)):
            m = model_for(p)
            J = finite_difference_jacobian(p)
            assert np.max(np.abs(J + m.A)) < 1e-6

    def test_respects_custom_expansion_point(self):
        p = sym()
        x0 = steady_state(p).vector() + 0.05
        J = finite_difference_jacobian(p, x0=x0)
        # drift is quadratic, so the Jacobian moves with the expansion point
        assert np.max(np.abs(J + model_for(p).A)) > 1e-5


class TestEigenvalueOracle:
    def test_numeric_matches_analytic_spread(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = SystemParams.symmetric(
                kappa=rng.uniform(0.005, 0.05),
                gamma_a=rng.uniform(0.3, 3.0), gamma_b=rng.uniform(0.3, 3.0),
                J_a=rng.uniform(-5, 5), J_b=rng.uniform(-5, 5),
                Delta_a=0.0, Delta_b=0.0,
                pump_fraction=rng.uniform(0.05, 0.95))
            analytic = sort_eigenvalues(supermode_eigenvalues(p))
            for eigs in (stability_eigenvalues(p),
                         dense_eigvals(model_for(p).A)):
                assert np.allclose(analytic, sort_eigenvalues(eigs), atol=1e-10)

    @pytest.mark.parametrize("kw", OFF_RESONANCE)
    def test_dense_signal_block_and_pump_closed_form(self, kw):
        # off resonance, the signal block's 4x4 eigensolve and the pump
        # block's closed form must give the 8x8 spectrum, and the supermode
        # closed form too where the pumps are equal, on both sides of
        # threshold
        for f in (0.5, 1.0, 2.0):
            p = SystemParams(kappa=0.01, **dict(
                kw, eps1=f * kw["eps1"], eps2=f * kw["eps2"]))
            assert not (p.Delta_a == p.Delta_b == 0.0 and p.equal_pumps)
            got = sort_eigenvalues(stability_eigenvalues(p))
            wants = [dense_eigvals(build_linear_model(p).A)]
            if p.equal_pumps:
                wants.append(supermode_eigenvalues(p))
            for want in wants:
                np.testing.assert_allclose(
                    got, sort_eigenvalues(want), rtol=0.0, atol=1e-10,
                    err_msg=f"{kw} x {f}")
