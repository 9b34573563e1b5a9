import csv
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from opodimer import model
from opodimer.errors import (AboveThresholdError, ConvergenceFailureError,
                             DomainError, NoCrossingError)
from opodimer.model import (SteadyState, SystemParams, _signal_blocks,
                            _unchecked_state, critical_pump, dense_eigvals,
                            drift_block, drift_rhs, min_re_eig_stack,
                            stability_eigenvalues, steady_state,
                            threshold_bisection_stack)

from helpers import (SIGNED_ZERO_POINTS, assert_same_bits, supermode_eigenvalues,
                     sort_eigenvalues, sym)


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
        assert p.equal_pumps and p.Delta_a == p.Delta_b == 0.0

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
        assert critical_pump(sym()) == pytest.approx(200.0, rel=1e-14)

    def test_uncoupled_threshold(self):
        crit = critical_pump(sym(J_a=0.0, J_b=0.0))
        assert crit == pytest.approx(100.0, rel=1e-14)

    def test_tracked_detuning_threshold_independent_of_coupling(self):
        for ja in (1.0, 5.0, 10.0, 20.0):
            crit = critical_pump(sym(J_a=ja, Delta_a=ja, J_b=1.0, Delta_b=1.0))
            assert crit == pytest.approx(100.0, rel=1e-14)

    def test_opposite_sign_coupling_and_detuning(self):
        # the difference signal supermode sits at detuning Delta_a + J_a = 0:
        # eps_crit = sqrt(1 + 3^2) * 1 / 0.01, not sqrt(1 + 6^2) * sqrt(1 + 3^2) / 0.01
        p = sym(J_a=3.0, Delta_a=-3.0, J_b=0.0, Delta_b=-3.0)
        crit = critical_pump(p)
        assert crit == pytest.approx(316.2277660168380, rel=1e-14)
        assert threshold_bisection_stack([p])[0] == pytest.approx(crit, rel=1e-8)

    def test_overflow_is_a_domain_error(self):
        # a square past the float range, and a product of two finite ones
        for kw in (dict(J_a=1e200), dict(J_a=1e150, J_b=1e150)):
            with pytest.raises(DomainError):
                critical_pump(SystemParams(**kw))

    def test_underflow_is_a_domain_error(self):
        # gamma_a ** 2 underflows to 0 and takes the product with it
        with pytest.raises(DomainError, match="underflows to 0"):
            critical_pump(SystemParams(gamma_a=1e-300))
        # a subnormal square still gives a positive threshold, unchanged
        p = SystemParams(gamma_a=1e-160, kappa=1.0)
        assert critical_pump(p) == math.sqrt((1e-160 ** 2 + 0.0) * 1.0) > 0.0


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

    def test_equal_pumps_decided_by_the_closed_form(self):
        # at J_a = 3e16 the dense eigensolve reads the slowest decay as 0.0;
        # eps_crit = sqrt(1 + 9e32) / 0.01 = 3e18 decides instead
        p = SystemParams.symmetric(J_a=3e16, pump_fraction=0.5)
        assert steady_state(p).beta1_ss == 1.5e18
        with pytest.raises(AboveThresholdError):
            steady_state(SystemParams.symmetric(J_a=3e16,
                                                pump_fraction=1.0 - 1e-10))

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
        got = sort_eigenvalues(stability_eigenvalues(p))
        s = math.sqrt(0.5)
        want = sort_eigenvalues(np.array(
            [1 + 1j, 1 + 1j, 1 - 1j, 1 - 1j,
             1 + 1j * s, 1 + 1j * s, 1 - 1j * s, 1 - 1j * s]))
        assert np.allclose(got, want, atol=1e-12)

    def test_sorted_real_then_imag(self):
        e = sort_eigenvalues(stability_eigenvalues(sym()))
        assert np.all(np.diff(e.real) > -1e-9)
        for r in np.unique(np.round(e.real, 9)):
            block = e.imag[np.abs(e.real - r) < 1e-9]
            assert np.all(np.diff(block) >= 0)

    @pytest.mark.parametrize("p", [
        sym(),
        sym(J_a=10.0, Delta_a=10.0, Delta_b=1.0),
        sym(J_a=3.0, J_b=0.5, Delta_a=-3.0, Delta_b=-3.0),
        SystemParams(J_a=1.0, J_b=2.0, Delta_b=0.5, eps1=30.0, eps2=10.0 + 5.0j),
    ], ids=["resonant", "tracking", "negative-detuning", "unequal-pumps"])
    def test_signal_block_then_pump_block(self, p):
        # unsorted, bit for bit: the signal block's eigenvalues in
        # the eigensolver's order, then the pump block's closed form
        gb, plus, minus = p.gamma_b, p.Delta_b + p.J_b, p.Delta_b - p.J_b
        want = np.concatenate([dense_eigvals(_signal_blocks([p])[0])[0], [
            complex(gb, plus), complex(gb, minus),
            complex(gb, -plus), complex(gb, -minus)]])
        got = stability_eigenvalues(p)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_analytic_matches_numeric_route(self):
        # the supermode closed form on resonant sets against the block
        # solver and the 8x8 one
        from opodimer.linearized import build_linear_model
        for ja, jb, frac in ((0.0, 0.0, 0.3), (2.0, 1.0, 0.7),
                             (5.0, 0.5, 0.9)):
            p = sym(J_a=ja, J_b=jb, pump_fraction=frac)
            analytic = sort_eigenvalues(supermode_eigenvalues(p))
            for eigs in (stability_eigenvalues(p),
                         dense_eigvals(build_linear_model(p).A)):
                assert np.allclose(analytic, sort_eigenvalues(eigs), atol=1e-10)

    def test_overflow_is_a_domain_error(self):
        # a typed error at each point, none an OverflowError: J_a ** 2 past
        # the float range in critical_pump, a pump far above threshold, and
        # integrate's step check, which sees the eigenvalues of size 1e200
        # and 1e160 first
        from opodimer.errors import ConfigError
        from opodimer.sde import SdeConfig, integrate
        points = (SystemParams(J_a=1e200), SystemParams(J_a=1e200, eps1=1, eps2=1),
                  SystemParams(kappa=1.0, eps1=1e160, eps2=1e160))
        for p in points[:2]:
            with pytest.raises(DomainError, match="critical pump overflows"):
                steady_state(p)
        with pytest.raises(AboveThresholdError):
            steady_state(points[2])
        cfg = SdeConfig(n_traj=2, t_measure=1.0)
        for p in points:
            with pytest.raises(ConfigError, match="too coarse"):
                integrate(p, cfg, lambda rec, alive: None)

    def test_non_finite_drift_block_is_a_domain_error(self):
        # kappa beta_ss = 1e300 * 1e300 overflows before the eigensolve,
        # which would report the block as a convergence failure
        p = SystemParams(kappa=1e300, eps1=1e300, eps2=1e300)
        for f in (stability_eigenvalues, steady_state):
            with pytest.raises(DomainError,
                               match=r"^row 0: drift matrix is not finite"):
                f(p)
        with pytest.raises(DomainError, match=r"^row 1: "):
            min_re_eig_stack([sym(), p, p])

    def test_min_real_part_crosses_zero_at_threshold(self):
        below = stability_eigenvalues(sym(pump_fraction=0.999))
        assert float(below.real.min()) > 0.0
        above = stability_eigenvalues(sym(pump_fraction=1.001))
        assert float(above.real.min()) < 0.0


class TestThresholdBisection:
    def test_matches_analytic_resonant(self):
        p = sym()
        assert threshold_bisection_stack([p])[0] == pytest.approx(200.0, rel=1e-8)

    def test_matches_analytic_detuned(self):
        p = sym(J_a=10.0, Delta_a=10.0, Delta_b=1.0)
        assert threshold_bisection_stack([p])[0] == pytest.approx(100.0, rel=1e-8)

    def test_runs_without_scipy(self, tmp_path):
        # scipy is not a runtime dependency: with every scipy import blocked,
        # the package imports and every subcommand runs, in one process
        verify = ["verify", "--set", "params.J_a=1", "--set", "params.J_b=1",
                  "--set", "params.pump_fraction=0.5",
                  "--set", "sde.n_traj=40", "--set", "sde.t_measure=50"]
        runs = [
            ["stability", "--preset", "fig1"],
            ["stability", "--preset", "fig1", "--set", "stability.mode=pump-scan"],
            ["spectrum", "--preset", "fig1"],
            # fig4 is detuned
            ["stability", "--preset", "fig4"],
            # the Delta-tracking and Delta = -3 grids: detuning and coupling
            # of the same and of opposite signs
            ["stability", "--preset", "fig1",
             "--set", "stability.track_detuning=true"],
            ["stability", "--preset", "fig1", "--set", "params.Delta_a=-3",
             "--set", "params.Delta_b=-3"],
            ["spectrum", "--preset", "fig4"],
            # every preset sets pump_fraction; this pump is a complex amplitude
            ["spectrum", "--set", "params.eps=[30,10]",
             "--set", "sweep.omega_points=11"],
            ["optimize-angle", "--preset", "fig1"],
            # 40 trajectories draw their noise through five tiles of 8
            verify,
            # Euler-Maruyama shares the drift kernel
            verify + ["--set", "sde.stepper=euler-maruyama"],
            ["sde-dump", "--set", "sde.n_traj=2"],
        ]
        outs = [tmp_path / f"out{i}" for i in range(len(runs))]
        argvs = [argv + ["--out", str(out)] for argv, out in zip(runs, outs)]
        code = "\n".join([
            "import json, sys",
            "sys.modules['scipy'] = None",
            "from opodimer import cli",
            "print(json.dumps([cli.main(a) for a in json.loads(sys.argv[1])]))",
        ])
        r = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        codes = json.loads(r.stdout.splitlines()[-1])
        # the z gate may FAIL (exit 3) at 40 trajectories
        allowed = [(0, 3) if argv[0] == "verify" else (0,) for argv in runs]
        assert all(c in ok for c, ok in zip(codes, allowed)), (codes, r.stderr)
        assert all(out.stat().st_size > 0 for out in outs)
        # the numeric thresholds of both grids match the closed form to 1e-8
        for out in outs[4:6]:
            rows = list(csv.DictReader(
                line for line in out.read_text().splitlines()
                if not line.startswith("#")))
            assert len(rows) == 25, out  # the default 5x5 coupling grid
            for row in rows:
                num = float(row["eps_crit_bisect"])
                ana = float(row["eps_crit_analytic"])
                assert abs(num - ana) <= 1e-8 * ana, row


# One row of each kind: resonant, Delta tracking J, Delta = -3 (opposite
# signs of coupling and detuning), Delta = -J, and unequal J_a / J_b.
STACK_ROWS = (
    dict(J_a=1.0, J_b=1.0),
    dict(J_a=10.0, J_b=1.0, Delta_a=10.0, Delta_b=1.0),
    dict(J_a=3.0, J_b=0.5, Delta_a=-3.0, Delta_b=-3.0),
    dict(J_a=2.0, J_b=4.0, Delta_a=-2.0, Delta_b=-4.0),
    dict(J_a=7.5, J_b=0.0),
)


# Largest relative distance between the pencil's threshold and
# critical_pump: about three times the largest measured on the sets of
# test_matches_critical_pump, 3.5e-15 on the Delta = -3 scan grid (2.7e-15
# on the random sets, 1.4e-15 at J / gamma = 1e6, 4e-16 at 1e9).
AGREEMENT_RTOL = 1e-14


def count_eigensolves(monkeypatch) -> list:
    """Record the stack size of every dense_eigvals call from now on."""
    calls = []
    real = model.dense_eigvals

    def counted(A):
        calls.append(len(np.reshape(A, (-1, *np.shape(A)[-2:]))))
        return real(A)
    monkeypatch.setattr(model, "dense_eigvals", counted)
    return calls


def zero_pump_field(monkeypatch, target):
    """Make the steady pump field of target 0 at every pump, so its pencil
    has no threshold."""
    real = model._equal_pump_field

    def field(p, eps):
        return 0j if p == target else real(p, eps)
    monkeypatch.setattr(model, "_equal_pump_field", field)


def scan_grids() -> list:
    """The three 21x21 coupling grids of the benchmark's scan: plain, Delta
    tracking J, and Delta = -3."""
    grid = [10.0 * i / 20 for i in range(21)]
    return [[sym(J_a=ja, J_b=jb, **detuning(ja, jb))
             for ja in grid for jb in grid]
            for detuning in (lambda ja, jb: {},
                             lambda ja, jb: dict(Delta_a=ja, Delta_b=jb),
                             lambda ja, jb: dict(Delta_a=-3.0, Delta_b=-3.0))]


def mixed_rows() -> list:
    """STACK_ROWS, an unequal and a complex pump, and a row above
    threshold."""
    return [sym(**kw) for kw in STACK_ROWS] + [
        SystemParams(J_a=1.0, J_b=1.0, eps1=30.0, eps2=10.0),
        sym(J_a=2.0, pump_fraction=None, eps=30.0 + 10.0j),
        sym(J_a=2.0, J_b=0.5, pump_fraction=1.5)]


class TestSignalBlocks:
    def test_build_linear_model_is_the_inline_assembly(self):
        # the reference: A and B assembled inline from the steady state,
        # which build_linear_model's route through _signal_blocks must match
        # bit for bit, as must each row of one stacked _signal_blocks call;
        # on driven, unequal, complex, above-threshold, signed-zero and
        # undriven rows
        from opodimer.linearized import build_linear_model
        undriven = [SystemParams(J_a=2.0, J_b=-1.0, Delta_a=0.5),
                    sym(pump_fraction=0.0),
                    SystemParams(J_a=-0.0, Delta_a=-0.0, Delta_b=-0.0,
                                 eps1=complex(-0.0, -0.0), eps2=-0.0)]
        ps = mixed_rows() + SIGNED_ZERO_POINTS + undriven
        blocks, pairs = _signal_blocks(ps)
        for p, block, pair in zip(ps, blocks, pairs):
            ss = _unchecked_state(p)
            m1, m2 = p.kappa * ss.beta1_ss, p.kappa * ss.beta2_ss
            A = np.zeros((8, 8), dtype=complex)
            A[:4, :4] = drift_block(p.gamma_a + 1j * p.Delta_a, 1j * p.J_a, m1, m2)
            A[4:, 4:] = drift_block(p.gamma_b + 1j * p.Delta_b, 1j * p.J_b, 0, 0)
            B = np.zeros((8, 8), dtype=complex)
            for k, m in enumerate((m1, np.conj(m1), m2, np.conj(m2))):
                B[k, k] = np.sqrt(complex(m))
            got = build_linear_model(p)
            assert_same_bits(got.A, A)
            assert_same_bits(got.B, B)
            assert_same_bits(block, A[:4, :4])
            assert_same_bits(pair, np.array([m1, m2]))


class TestThresholdStack:
    def test_rows_do_not_depend_on_the_stack(self):
        ps = [sym(**kw) for kw in STACK_ROWS]
        stacked = threshold_bisection_stack(ps)
        alone = [threshold_bisection_stack([p])[0] for p in ps]
        assert stacked.tolist() == alone
        rev = threshold_bisection_stack(ps[::-1] + ps[:2])
        assert rev.tolist() == alone[::-1] + alone[:2]
        for p, root in zip(ps, alone):
            assert root == pytest.approx(critical_pump(p), rel=1e-10)

    def test_signal_block_root_is_the_full_drift_threshold(self):
        # the 8x8 drift matrix, pump block included, turns unstable at the
        # root that the 4x4 signal block gives: by stability_eigenvalues
        # and by the dense 8x8 solver
        from opodimer.linearized import build_linear_model
        for kw in STACK_ROWS:
            root = threshold_bisection_stack([sym(**kw)])[0]
            for f, sign in ((1.0 - 1e-8, 1.0), (1.0 + 1e-8, -1.0)):
                q = sym(**kw, pump_fraction=None, eps=root * f)
                dense = build_linear_model(q)
                for eigs in (stability_eigenvalues(q), dense_eigvals(dense.A)):
                    assert sign * float(eigs.real.min()) > 0.0, (kw, f)

    def test_matches_critical_pump(self):
        # the scan grids, seeded random sets, J / gamma = 1e6 on each
        # manifold (resonance, Delta = J, Delta = -J and Delta = -3), and
        # J / gamma = 1e9 on Delta = +-J, inside the sign check's reach
        rng = np.random.default_rng(23)
        rand = [sym(J_a=rng.uniform(-10, 10), J_b=rng.uniform(-10, 10),
                    Delta_a=rng.uniform(-10, 10), Delta_b=rng.uniform(-10, 10),
                    gamma_a=rng.uniform(0.3, 3), gamma_b=rng.uniform(0.3, 3),
                    kappa=rng.uniform(0.005, 0.05)) for _ in range(500)]
        far = [sym(gamma_a=g, J_a=1e6 * g, Delta_a=d * g, J_b=1.0)
               for g in (0.5, 2.0) for d in (0.0, 1e6, -1e6, -3.0)]
        far += [sym(J_a=1e9, Delta_a=d) for d in (1e9, -1e9)]
        for ps in scan_grids() + [rand, far]:
            roots = threshold_bisection_stack(ps)
            want = np.array([critical_pump(p) for p in ps])
            assert np.max(np.abs(roots - want) / want) <= AGREEMENT_RTOL
        # gamma_a ** 2 is subnormal in critical_pump; the pencil has no
        # square and gets the true threshold gamma_a gamma_b / kappa
        p = SystemParams(gamma_a=1e-160, kappa=1.0)
        assert threshold_bisection_stack([p])[0] == pytest.approx(
            1e-160, rel=AGREEMENT_RTOL)

    def test_bad_row_names_its_bracket(self, monkeypatch):
        # a row with no positive mu is named, with its e = 1/mu and the
        # min Re eig values its sign check never took
        ps = [sym(**kw) for kw in STACK_ROWS]
        zero_pump_field(monkeypatch, ps[2])
        with pytest.raises(NoCrossingError,
                           match=r"row 2: .* e = 1/mu = -?inf: nan at e "
                                 r"\(1 - 1e-06\), nan at e \(1 \+ 1e-06\)"):
            threshold_bisection_stack(ps)
        threshold_bisection_stack(ps[:2] + ps[3:])  # the other rows cross

    def test_sign_check_refuses_a_root_that_is_not_a_crossing(self,
                                                                monkeypatch):
        # doubling row 2's mu halves its root: the block is stable on both
        # sides of it, and the error gives both min Re eig values
        ps = [sym(**kw) for kw in STACK_ROWS]
        want = critical_pump(ps[2]) / 2.0
        real = model.dense_eigvals

        def doubled_first(A):
            monkeypatch.setattr(model, "dense_eigvals", real)
            eigs = real(A)
            eigs[2] *= 2.0
            return eigs
        monkeypatch.setattr(model, "dense_eigvals", doubled_first)
        with pytest.raises(NoCrossingError) as err:
            threshold_bisection_stack(ps)
        e, below, above = map(float, re.search(
            r"^row 2: .* e = 1/mu = (\S+): (\S+) at e \(1 - 1e-06\), "
            r"(\S+) at e \(1 \+ 1e-06\)$", str(err.value)).groups())
        assert e == pytest.approx(want, rel=1e-5)  # printed to 6 digits
        assert below > 0.0 and above > 0.0

    def test_repeated_bad_row_is_named_at_its_first_place(self, monkeypatch):
        # the error names the first row that fails, in input order
        ps = [sym(**kw) for kw in STACK_ROWS]
        zero_pump_field(monkeypatch, ps[2])
        with pytest.raises(NoCrossingError, match=r"row 2: "):
            threshold_bisection_stack(ps + ps[2:3])
        with pytest.raises(NoCrossingError, match=r"row 1: "):
            threshold_bisection_stack(ps[:1] + ps[2:3] * 2)

    def test_overflowing_bracket_is_a_domain_error(self, monkeypatch):
        # eps_crit = 101 / 1e-306 is a float, and the pencil gets it
        p = sym(kappa=1e-306, J_a=10.0, J_b=10.0)
        assert threshold_bisection_stack([p])[0] == pytest.approx(
            critical_pump(p), rel=AGREEMENT_RTOL)
        # at kappa = 1e-307 the root 1/mu overflows: the sign check's
        # eigensolve never sees it; an M that overflows reaches no eigensolve
        calls = count_eigensolves(monkeypatch)
        for bad, msg, solves in (
                (SystemParams(kappa=1e-307, J_a=10.0, J_b=10.0),
                 "threshold 1/mu", [7]),
                (SystemParams(kappa=1e300, gamma_a=1e-10, gamma_b=0.5),
                 "-A0\\^-1 A1", [])):
            ps = [sym(**kw) for kw in STACK_ROWS]
            ps.insert(2, bad)
            ps.append(bad)
            calls.clear()
            with pytest.raises(DomainError, match=rf"^row 2: {msg}"):
                threshold_bisection_stack(ps)
            assert calls == solves

    def test_min_re_eig_stack_is_stability_eigenvalues_bit_for_bit(self):
        ps = mixed_rows()
        want = np.array([stability_eigenvalues(p).real.min() for p in ps])
        got = min_re_eig_stack(ps)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_min_re_eig_stack_takes_one_eigensolve(self, monkeypatch):
        # every kind of row shares one stack: no row takes another route
        calls = count_eigensolves(monkeypatch)
        for ps in (mixed_rows(), mixed_rows()[:1]):
            calls.clear()
            min_re_eig_stack(ps)
            assert calls == [len(ps)]

    def test_eigensolve_budget(self, monkeypatch):
        # one stacked solve and two stacked eigensolves, whatever the number
        # of rows: the counts the README quotes
        calls = count_eigensolves(monkeypatch)
        solves = []
        real_solve = np.linalg.solve

        def counted_solve(a, b):
            solves.append(len(a))
            return real_solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        rows = [sym(**kw) for kw in STACK_ROWS]
        for ps in [rows[:1], rows] + scan_grids():
            calls.clear()
            solves.clear()
            threshold_bisection_stack(ps)
            assert calls == [len(ps), 2 * len(ps)]
            assert solves == [len(ps)]

    def test_strong_coupling_on_resonance(self):
        # on resonance the sign check resolves J_a / gamma_a up to about
        # 10^14.75 (the comment on model._SIGN_STEP)
        p = SystemParams(J_a=1e14)
        assert threshold_bisection_stack([p])[0] == pytest.approx(
            critical_pump(p), rel=AGREEMENT_RTOL)

    def test_pump_scan_rows_give_the_single_row_root(self):
        # the root ignores the pump: 200 pump fractions give the single
        # row's root, bit for bit
        ps = [sym(J_a=2.0, J_b=1.0, Delta_a=0.5, pump_fraction=f)
              for f in np.linspace(0.01, 0.99, 200)]
        alone = threshold_bisection_stack(ps[:1]).tolist()
        assert threshold_bisection_stack(ps).tolist() == alone * 200
