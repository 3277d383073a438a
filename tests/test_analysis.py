import collections
import dataclasses
import gc
from dataclasses import replace
import json
import weakref

import numpy as np
import pytest
import sympy

from dsest import (
    AnalysisReport,
    DescriptorSystem,
    DimensionMismatchError,
    Tolerance,
    build_F,
    build_F_K,
    characterization_suite,
    is_partially_causal,
    is_partially_causal_detectable,
    is_partially_detectable,
    is_partially_impulse_observable,
    numeric_rank,
    qkf,
    synthesize_estimator,
)

from dsest.analysis import _PLANTS, _plant
from dsest.linalg import Subspace
from dsest.exceptions import DsestError
from dsest.io import report_to_dict
import census
from conftest import (detect_candidate_lambdas, detectability_matrices,
                      lifted_system, random_draw, random_pencil, random_system,
                      stiff_system)


class TestShapeContract:
    # E is 2x3: A must be 2x3, B have 2 rows, C and K 3 columns, D be p x l.
    GOOD = dict(E=np.ones((2, 3)), A=np.ones((2, 3)), B=np.ones((2, 1)),
                C=np.ones((1, 3)), D=np.zeros((1, 1)), K=np.ones((1, 3)))

    @pytest.mark.parametrize("name, bad, message", [
        ("A", np.ones((3, 3)), "A is 3x3, expected 2x3"),
        ("B", np.ones((3, 1)), "B is 3x1, expected 2x1"),
        ("C", np.ones((1, 2)), "C is 1x2, expected 1x3"),
        ("D", np.zeros((1, 2)), "D is 1x2, expected 1x1"),
        ("K", np.ones((1, 4)), "K is 1x4, expected 1x3"),
    ], ids="ABCDK")
    def test_mismatch_names_the_matrix(self, name, bad, message):
        with pytest.raises(DimensionMismatchError) as info:
            DescriptorSystem(**{**self.GOOD, name: bad})
        assert str(info.value) == "shape mismatch: " + message

    def test_from_matrices_fills_in_D(self):
        args = {k: v for k, v in self.GOOD.items() if k != "D"}
        assert np.array_equal(DescriptorSystem.from_matrices(**args).D,
                              np.zeros((1, 1)))
        with pytest.raises(DimensionMismatchError, match="shape mismatch: C is"):
            DescriptorSystem.from_matrices(**{**args, "C": np.ones((1, 2))})


class TestFloat64Contract:
    GOOD = TestShapeContract.GOOD

    @pytest.mark.parametrize("name", "EABCDK")
    def test_complex_matrix_is_refused_by_name(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            DescriptorSystem(**{**self.GOOD, name: self.GOOD[name] + 0j})

    def test_float64_input_keeps_its_bits_and_float32_is_upcast(self):
        rng = np.random.default_rng(0)
        mats = {k: rng.standard_normal(v.shape) for k, v in self.GOOD.items()}
        for dtype in (np.float64, np.float32):
            sys = DescriptorSystem(**{k: v.astype(dtype) for k, v in mats.items()})
            for name, value in mats.items():
                got = getattr(sys, name)
                assert got.dtype == np.float64
                assert got.tobytes() == value.astype(dtype).astype(np.float64).tobytes()

    @staticmethod
    def outcome(mats: dict):
        """The report and estimator of a system as bytes, or the error."""
        sys = DescriptorSystem.from_matrices(**mats)
        try:
            report = is_partially_causal_detectable(sys)
            est, trace = synthesize_estimator(sys)
        except DsestError as exc:
            return repr(exc)
        return (json.dumps(report_to_dict(report), sort_keys=True),
                [X.tobytes() for X in (est.N, est.H, est.R, est.M, trace.state_map)])

    @pytest.mark.parametrize("seed", range(20))
    def test_float32_input_is_read_as_its_float64_values(self, ex_system, seed):
        T = np.random.default_rng(seed).standard_normal((4, 4))
        T_inv = np.linalg.inv(T)
        single = {name: M.astype(np.float32) for name, M in dict(
            E=T @ ex_system.E @ T_inv, A=T @ ex_system.A @ T_inv, B=T @ ex_system.B,
            C=ex_system.C @ T_inv, K=ex_system.K @ T_inv, D=ex_system.D).items()}
        double = {name: M.astype(np.float64) for name, M in single.items()}
        assert self.outcome(single) == self.outcome(double)


class TestBlockToeplitz:
    def test_build_F_depth_one(self):
        E = np.array([[1.0]])
        A = np.array([[7.0]])
        F = build_F(E, A, 1)
        assert np.array_equal(F, np.array([[1.0, 7.0], [0.0, 1.0]]))

    def test_build_F_K_places_functional_row(self):
        E = np.array([[2.0]])
        A = np.array([[3.0]])
        K = np.array([[5.0]])
        FK = build_F_K(E, A, K, 1)
        assert np.array_equal(FK, np.array([[2.0, 3.0],
                                            [0.0, 2.0],
                                            [0.0, 5.0]]))

    def test_depths_consistent(self):
        E = np.eye(2)
        A = np.ones((2, 2))
        F2 = build_F(E, A, 2)
        assert F2.shape == (6, 6)
        assert np.array_equal(F2[:2, 2:4], A)
        assert np.array_equal(F2[2:4, 2:4], E)


class TestCanonicalVerdicts:
    def test_full_positive_verdict(self, ex_system):
        report = is_partially_causal_detectable(ex_system)
        assert report.partially_causal_detectable
        assert report.partially_detectable
        assert report.partially_causal
        assert report.partially_impulse_observable
        assert all(characterization_suite(ex_system))

    def test_sigma_counterexample(self, sigma_violating_system):
        report = is_partially_causal_detectable(sigma_violating_system)
        assert not report.partially_causal_detectable
        assert not any(characterization_suite(sigma_violating_system))
        # Detectable all the same: only the causality condition fails.
        assert report.partially_detectable
        assert is_partially_detectable(sigma_violating_system)[0]

    def test_sigma_causal_variant(self, sigma_causal_system):
        report = is_partially_causal_detectable(sigma_causal_system)
        assert report.partially_causal_detectable

    def test_sigma_causality_ranks(self, sigma_violating_system,
                                   sigma_causal_system):
        ok, (free, derivative) = is_partially_causal(
            sigma_violating_system.E, sigma_violating_system.A,
            sigma_violating_system.B, sigma_violating_system.K)
        assert not ok
        assert free[1] <= free[2] and derivative[1] > derivative[2]
        assert derivative[0] == "the functional depends on input derivatives"
        ok2, rows2 = is_partially_causal(
            sigma_causal_system.E, sigma_causal_system.A,
            sigma_causal_system.B, sigma_causal_system.K)
        assert ok2 and all(residual <= threshold for _, residual, threshold in rows2)

    def test_unstable_unobserved_not_detectable(self):
        sys = DescriptorSystem.from_matrices(
            np.eye(1), np.array([[1.0]]), np.zeros((1, 0)),
            np.zeros((0, 1)), np.eye(1))
        ok, _ = is_partially_detectable(sys)
        assert not ok

    def test_zero_functional_always_estimable(self):
        sys = DescriptorSystem.from_matrices(
            np.eye(2), np.array([[3.0, 0.0], [0.0, 5.0]]), np.zeros((2, 0)),
            np.zeros((0, 2)), np.zeros((0, 2)))
        report = is_partially_causal_detectable(sys)
        assert report.partially_causal_detectable


class TestRowRelativeRule:
    # K vanishes on a plant-only subspace when every nonzero row does,
    # relative to its own norm, so the units of z decide nothing.
    K_CHANGES = {
        "K x1e-12": lambda K: 1e-12 * K,
        "K x1e-9": lambda K: 1e-9 * K,
        "K x1e-4": lambda K: 1e-4 * K,
        "K x1e3": lambda K: 1e3 * K,
        "row 0 x1e-9": lambda K: np.vstack([1e-9 * K[:1], K[1:]]),
    }

    @staticmethod
    def _read(sys, K):
        report = is_partially_causal_detectable(
            DescriptorSystem(E=sys.E, A=sys.A, B=sys.B, C=sys.C, D=sys.D, K=K))
        residuals = np.array([residual for _, residual, _ in report.block_checks])
        assert ((0.0 <= residuals) & (residuals <= 1.0)).all()
        return (report.partially_causal_detectable, report.partially_causal,
                report.partially_detectable,
                report.partially_impulse_observable), residuals

    @pytest.mark.parametrize("change", K_CHANGES)
    @pytest.mark.parametrize("rows", ["K", "K and e_n"])
    @pytest.mark.parametrize("fixture", ["ex_system", "sigma_violating_system"])
    def test_verdict_and_residuals_keep(self, request, fixture, rows, change):
        # e_n reads the algebraic state of either system, which is estimable.
        sys = request.getfixturevalue(fixture)
        K = sys.K if rows == "K" else np.vstack([sys.K, np.eye(sys.n)[-1:]])
        verdicts, residuals = self._read(sys, K)
        new_verdicts, new_residuals = self._read(sys, self.K_CHANGES[change](K))
        assert new_verdicts == verdicts
        assert np.abs(new_residuals - residuals).max() <= 1e-12

    @pytest.mark.parametrize("fixture", ["ex_system", "sigma_violating_system"])
    def test_zero_row_is_ignored(self, request, fixture):
        sys = request.getfixturevalue(fixture)
        verdicts, residuals = self._read(sys, sys.K)
        new_verdicts, new_residuals = self._read(
            sys, np.vstack([np.zeros((1, sys.n)), sys.K]))
        assert new_verdicts == verdicts
        assert np.array_equal(new_residuals, residuals)

    def test_scaled_violating_row_is_still_refused(self, sigma_violating_system):
        K = np.vstack([1e-9 * sigma_violating_system.K, [[0.0, 1.0]]])
        verdicts, residuals = self._read(sigma_violating_system, K)
        assert verdicts[:2] == (False, False)
        assert residuals[1] == pytest.approx(1.0)


class TestImpulseObservability:
    def test_canonical(self, ex_system):
        assert is_partially_impulse_observable(ex_system)

    def test_impulsive_unobserved_mode(self):
        # 0 = x2 row makes x1 with E-row [0,1] impulsive; K sees it, C empty
        E = np.array([[0.0, 1.0], [0.0, 0.0]])
        A = np.eye(2)
        sys = DescriptorSystem.from_matrices(
            E, A, np.zeros((2, 0)), np.zeros((0, 2)), np.array([[1.0, 0.0]]))
        assert not is_partially_impulse_observable(sys)


class TestConsensus:
    def test_five_characterizations_agree(self):
        rng = np.random.default_rng(101)
        for _ in range(80):
            sys = random_system(rng)
            votes = characterization_suite(sys)
            assert len(set(bool(v) for v in votes)) == 1, \
                f"characterizations disagree: {votes} on\n{sys}"


class TestRankEquivalenceOracle:
    def test_rank_equality_matches_qkf_conditions(self):
        # rank F == rank F_K  (depth n+1)  <=>  K_eps = 0 and K_sigma J = 0
        rng = np.random.default_rng(102)
        for _ in range(60):
            E, A = random_pencil(rng)
            n = E.shape[1]
            K = rng.integers(-3, 4, (int(rng.integers(1, n + 1)), n)).astype(float)
            # Entries are integers, so exact arithmetic gives the true ranks;
            # the stacked matrices can be too ill-conditioned for SVD ranks.
            rank_eq = (sympy.Matrix(build_F(E, A, n).astype(int)).rank()
                       == sympy.Matrix(build_F_K(E, A, K, n).astype(int)).rank())
            dec = qkf(E, A)
            K_eps, _, K_sigma, _ = dec.split_right(K)
            cond = (np.abs(K_eps).max(initial=0.0) < 1e-9
                    and np.abs(K_sigma @ dec.J_sigma).max(initial=0.0) < 1e-9)
            assert rank_eq == cond


class TestFullStateRegression:
    @staticmethod
    def classical_causal_detectability(sys: DescriptorSystem) -> bool:
        """Independent classical test for K = I via the stacked one-step
        space intersected with ker C and ker E being trivial, combined with
        the detectability rank test at every candidate frequency."""
        from dsest.linalg import intersect, kernel, preimage, image
        from dsest.analysis import _toeplitz_F
        m, n = sys.E.shape
        F = _toeplitz_F(np.hstack([sys.E, np.zeros((m, sys.l))]),
                        np.hstack([sys.A, sys.B]), n)
        corner_A1 = np.zeros((n * m, n))    # [0; ...; 0; A]
        corner_A1[(n - 1) * m:] = sys.A
        pre = preimage(corner_A1, image(F))
        cap = intersect(intersect(pre, kernel(sys.C)), kernel(sys.E))
        causal = cap.dim == 0
        detectable = True
        for lam in detect_candidate_lambdas(sys):
            if lam.real < 0:
                continue  # only the closed right half-plane matters
            wk, wo = detectability_matrices(sys, lam)
            if numeric_rank(wk) != numeric_rank(wo):
                detectable = False
        return causal and detectable

    def test_matches_on_random_full_state(self):
        rng = np.random.default_rng(103)
        agree = 0
        for _ in range(25):
            base = random_system(rng, max_dim=4)
            sys = DescriptorSystem.from_matrices(
                base.E, base.A, base.B, base.C, np.eye(base.n), D=base.D)
            mine = is_partially_causal_detectable(sys).partially_causal_detectable
            ref = self.classical_causal_detectability(sys)
            assert mine == ref
            agree += 1
        assert agree == 25


class TestNoDecompositionCrash:
    def test_draws_470_and_512_decide(self):
        # Both crashed with a QKF certification failure when the candidate
        # eigenvalues came from the full quasi-Kronecker form.
        rng = np.random.default_rng(7)
        draws = [random_system(rng) for _ in range(513)]
        for index in (470, 512):
            report = is_partially_causal_detectable(draws[index])
            assert report.partially_causal_detectable is False

    def test_slow_time_scale_decides_as_drawn(self):
        # E -> 1e3 E only slows the time scale, so the verdict must not move.
        rng = np.random.default_rng(7)
        for index in range(300):
            sys = random_system(rng)
            slow = DescriptorSystem.from_matrices(
                1e3 * sys.E, sys.A, sys.B, sys.C, sys.K, D=sys.D)
            assert is_partially_causal_detectable(slow).partially_causal_detectable \
                == is_partially_causal_detectable(sys).partially_causal_detectable, index


class TestInvariance:
    def test_transforms_that_hold_change_no_letter(self):
        # Draws 0-59 of the census, letters and partial impulse
        # observability; ``tests/census.py --invariance`` runs all 600 and
        # also prints the E x 1e3 row, which changes letters today.
        changes = census.invariance_changes(60, census.HOLDING)
        assert changes == {name: collections.Counter() for name in census.HOLDING}

    @pytest.mark.parametrize("c", [1e-9, 1e-12])
    def test_worked_example_at_small_scale(self, ex_system, c):
        # Every rank decision is relative to the data, with no floor at 1,
        # so the worked example decides and builds as at scale 1.
        small = DescriptorSystem.from_matrices(
            *(c * getattr(ex_system, k) for k in "EABCK"), D=c * ex_system.D)
        assert is_partially_causal_detectable(small).partially_causal_detectable
        est, _ = synthesize_estimator(small)
        assert np.linalg.eigvals(est.N) == pytest.approx([-1.0, -1.0], abs=1e-8)


class TestNearAxisMode:
    def test_integrator_read_by_K_is_not_detectable(self, near_axis_system):
        # The integrator may come out a roundoff distance left of the axis;
        # it must still count as non-decaying.
        report = is_partially_causal_detectable(near_axis_system)
        assert report.partially_detectable is False
        assert report.partially_causal_detectable is False
        condition, residual, threshold = report.block_checks[2]
        assert "non-decaying" in condition and residual > threshold
        assert any(abs(complex(re, im)) < 1e-6
                   for re, im in report.diagnostics["non_decaying_modes"])


class TestStiffSpectrum:
    # The roundoff band scales with the norm of J_f (about 1e6 here), but
    # it stays far narrower than the slow mode.
    def test_slow_decaying_mode_is_detectable(self):
        report = is_partially_causal_detectable(stiff_system(-1e-4))
        assert report.partially_causal_detectable is True

    def test_slow_integrator_is_not_detectable(self):
        report = is_partially_causal_detectable(stiff_system(0.0))
        assert report.partially_causal_detectable is False


class TestLambdaSweep:
    def test_sweep_soundness_spot_check(self, ex_system):
        # Detectability must imply rank equality of the lifted half-plane
        # test at random points of the closed right half-plane.
        ok, _ = is_partially_detectable(ex_system)
        assert ok
        rng = np.random.default_rng(104)
        for _ in range(50):
            lam = complex(rng.uniform(0, 5), rng.uniform(-5, 5))
            with_K, without_K = detectability_matrices(ex_system, lam)
            assert numeric_rank(with_K) == numeric_rank(without_K)


class TestDecidedInDimensionN:
    def test_sweep_system_at_n_20(self):
        # The plant is fully observable with an index-1 pencil, so the
        # functional is estimable.
        sys = lifted_system(20, 0)
        assert is_partially_causal_detectable(sys).partially_causal_detectable
        est, _ = synthesize_estimator(sys)
        assert est.s == 18 and np.linalg.eigvals(est.N).real.max() < 0

    def test_unobservable_mode_listed_once(self):
        # The lifted pencil carries this mode (0.1723) as a 5-fold defective
        # eigenvalue; the n-dimensional structure lists it once.
        report = is_partially_causal_detectable(lifted_system(5, 3, unobserved=True))
        assert report.partially_detectable is False
        (re, im), = report.diagnostics["non_decaying_modes"]
        assert abs(re - 0.17234808) < 1e-6 and im == 0.0

    def test_diagnostics_keys(self, ex_system):
        # Pinned: every key costs work on every analysis.
        report = is_partially_causal_detectable(ex_system)
        assert sorted(report.diagnostics) == ["non_decaying_modes", "rank_rtol"]

    def test_one_staircase_and_one_qkf_per_analysis(self, monkeypatch, ex_system):
        calls = count_calls(monkeypatch, ("observability_staircase", "qkf"))
        is_partially_causal_detectable(ex_system)
        assert sorted(calls) == ["observability_staircase", "qkf"]


LIFTED = ("characterization_suite", "_toeplitz_F")


def count_calls(monkeypatch, names) -> list:
    """Record the name of every call of the given ``dsest.analysis``
    functions, which still run.  Systems that earlier tests left in
    reference cycles are freed first, so that no plant memo of theirs is
    shared (see the ``fresh_plants`` fixture)."""
    import dsest.analysis as analysis
    gc.collect()
    calls = []
    for name in names:
        def counted(*args, _f=getattr(analysis, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(analysis, name, counted)
    return calls


def copy_of(sys: DescriptorSystem) -> DescriptorSystem:
    """The same system as a new object; it shares the plant memo of ``sys``
    while both are alive."""
    return DescriptorSystem.from_matrices(sys.E, sys.A, sys.B, sys.C, sys.K, D=sys.D)


class TestLiftedOnFirstRead:
    """No read of a report, its first included, runs lifted code."""

    def test_verdict_path_runs_no_lifted_code(self, monkeypatch, ex_system,
                                              sigma_violating_system):
        from dsest.io import render_report_markdown, report_to_dict
        fields = [f.name for f in dataclasses.fields(AnalysisReport)]
        cases = ((ex_system, True), (sigma_violating_system, False))
        expected = [[getattr(is_partially_causal_detectable(copy_of(sys)), name)
                     for name in fields] for sys, _ in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("the verdict path ran lifted code")
        for name in LIFTED:
            monkeypatch.setattr(f"dsest.analysis.{name}", refuse)
        for (sys, verdict), eager in zip(cases, expected):
            report = is_partially_causal_detectable(sys)
            assert report.partially_causal_detectable is verdict
            assert report.partially_causal is verdict
            assert [getattr(report, name) for name in fields] == eager
            assert report_to_dict(report)["partially_causal"] is verdict
            render_report_markdown("system", report)


class TestImpulseObservabilityOnFirstRead:
    """The verdict does not read partial impulse observability; a report
    computes it when it is first read, from its plant memo and K."""

    def test_verdict_path_runs_no_W_chain(self, monkeypatch, fresh_plants,
                                          ex_system, sigma_violating_system):
        def refuse(*args, **kwargs):
            raise AssertionError("the verdict path ran the W chain")
        monkeypatch.setattr("dsest.analysis._W_star", refuse)
        for sys, verdict in ((ex_system, True), (sigma_violating_system, False)):
            report = is_partially_causal_detectable(sys)
            assert report.partially_causal_detectable is verdict
            assert report.partially_causal is verdict
            with pytest.raises(AssertionError, match="W chain"):
                report.partially_impulse_observable

    def test_equals_the_function_in_three_forms(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            sys = random_system(rng)
            forms = [sys, replace(sys, E=sys.E * 1e3), replace(sys, K=sys.K * 1e-4)]
            reports = [is_partially_causal_detectable(form) for form in forms]
            assert [report.partially_impulse_observable for report in reports] \
                == [is_partially_impulse_observable(form) for form in forms]

    def test_read_after_the_system_is_collected(self, ex_system):
        def impulsive():
            return DescriptorSystem.from_matrices(
                np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), np.zeros((2, 0)),
                np.zeros((0, 2)), np.array([[1.0, 0.0]]))

        for build, observable in ((lambda: copy_of(ex_system), True),
                                  (impulsive, False)):
            sys = build()
            report = is_partially_causal_detectable(sys)
            collected = weakref.ref(sys)
            del sys
            gc.collect()
            assert collected() is None
            assert report.partially_impulse_observable is observable

    def test_second_read_computes_nothing(self, monkeypatch, ex_system):
        report = is_partially_causal_detectable(ex_system)
        calls = count_calls(monkeypatch, ("_inclusion_in_kernel",))
        assert report.partially_impulse_observable
        assert report.partially_impulse_observable
        assert calls == ["_inclusion_in_kernel"]

    def test_no_subspace_is_built_through_the_public_constructor(
            self, monkeypatch, fresh_plants, ex_system):
        built = []
        for name in ("__init__", "_set"):
            def counted(*args, _f=getattr(Subspace, name), _name=name, **kwargs):
                built.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(Subspace, name, counted)
        report = is_partially_causal_detectable(ex_system)
        assert report.partially_causal_detectable
        assert report.partially_impulse_observable
        assert "_set" in built
        assert "__init__" not in built


class TestCausalityInDimensionN:
    """Partial causality is read from the first two block checks.

    The lifted SVD rank tests it replaces answered ``False`` on every case
    below.  On the lifted systems synthesis builds a Hurwitz estimator
    (``TestDecidedInDimensionN``); on the integer draws the exact (sympy,
    rational) ranks of the same lifted matrices, given in the comments as
    rank without K == rank with K, agree with the block checks.  They are
    recorded, not recomputed: the library no longer builds those matrices.
    """

    @pytest.mark.parametrize("n", [20, 24])
    def test_report_on_lifted_systems(self, n):
        report = is_partially_causal_detectable(lifted_system(n, 0))
        assert report.partially_causal is True
        assert report.partially_causal_detectable is True

    # (seed, draw index of random_system(default_rng(seed)))
    REPORT_DRAWS = (
        (7, 288),       # exact ranks 49 == 49
        (11, 26),       # 31 == 31
        (11, 209),      # 48 == 48
        (11, 405),      # 32 == 32
    )
    PLANT_DRAWS = (
        (7, 272),       # exact ranks 50 == 50
        (11, 237),      # 32 == 32
        (11, 405),      # 32 == 32
        (11, 438),      # 50 == 50
        (11, 514),      # 50 == 50
    )

    @pytest.mark.parametrize("seed, index", REPORT_DRAWS)
    def test_report_on_random_draws(self, seed, index):
        report = is_partially_causal_detectable(random_draw(seed, index))
        assert report.partially_causal is True

    @pytest.mark.parametrize("seed, index", PLANT_DRAWS)
    def test_plant_on_random_draws(self, seed, index):
        sys = random_draw(seed, index)
        assert is_partially_causal(sys.E, sys.A, sys.B, sys.K)[0] is True


class TestStructureMemo:
    def test_analysis_synthesis_and_detectability_share_one_structure(
            self, monkeypatch, ex_system):
        calls = count_calls(monkeypatch, ("observability_staircase", "qkf"))
        assert is_partially_causal_detectable(ex_system).partially_causal_detectable
        synthesize_estimator(ex_system)
        assert is_partially_detectable(ex_system)[0]
        assert sorted(calls) == ["observability_staircase", "qkf"]

    def test_each_tolerance_builds_its_own_structure(self, monkeypatch, ex_system):
        calls = count_calls(monkeypatch, ("observability_staircase",))
        is_partially_causal_detectable(ex_system)
        is_partially_causal_detectable(ex_system, Tolerance(rank_rtol=1e-9))
        assert len(calls) == 2
        # An equal tolerance is the same key.
        is_partially_causal_detectable(ex_system, Tolerance())
        synthesize_estimator(ex_system, Tolerance(rank_rtol=1e-9))
        assert len(calls) == 2

    def test_matrices_are_read_only_c_ordered_copies(self):
        E = np.asfortranarray(np.diag([1.0, 1.0, 0.0]))
        sys = DescriptorSystem.from_matrices(E, -np.eye(3), np.ones((3, 1)),
                                             np.ones((1, 3)), np.eye(1, 3))
        assert sys.E.flags.writeable is False
        assert all(not getattr(sys, name).flags.writeable for name in "EABCDK")
        assert all(getattr(sys, name).flags.c_contiguous for name in "EABCDK")
        assert not sys.E.flags.f_contiguous
        assert not np.shares_memory(sys.E, E)
        with pytest.raises(ValueError):
            sys.E[0, 0] = 2.0

    def test_equality_is_identity(self):
        # Two copies of one system are different objects, each with its own
        # structures; == and != answer without comparing arrays.
        mats = dict(E=np.eye(2), A=np.diag([1.0, -1.0]), B=np.zeros((2, 0)),
                    C=np.array([[0.0, 1.0]]), K=np.array([[1.0, 0.0]]))
        sys, other = (DescriptorSystem.from_matrices(**mats) for _ in range(2))
        assert (sys == sys) is True and (sys != sys) is False
        assert (sys == other) is False and (sys != other) is True

    def test_editing_the_input_in_place_changes_nothing(self):
        # x1' = x1 is unmeasured and read by K: not detectable.  Editing the
        # caller's array to x1' = -x1 would make it detectable.
        mats = dict(E=np.eye(2), A=np.diag([1.0, -1.0]), B=np.zeros((2, 0)),
                    C=np.array([[0.0, 1.0]]), K=np.array([[1.0, 0.0]]))
        sys = DescriptorSystem.from_matrices(**mats)
        assert not is_partially_causal_detectable(sys).partially_causal_detectable
        mats["A"][0, 0] = -1.0
        assert sys.A[0, 0] == 1.0
        assert not is_partially_causal_detectable(sys).partially_causal_detectable
        assert not is_partially_causal_detectable(copy_of(sys)).partially_causal_detectable
        edited = DescriptorSystem.from_matrices(**mats)
        assert is_partially_causal_detectable(edited).partially_causal_detectable


class TestSharedPlant:
    """Systems with equal plant data (E, A, B, C, D) share one memo of what
    does not read K; no result may show it."""

    # Plants with coordinates that a functional may read (verdict Y) and one
    # it may not (N): draws of random_system, then a lifted system whose
    # states 0 and 1 hold an unobserved non-decaying mode.
    PLANTS = {"rng7-224": ((7, 224), [2], 0), "rng7-256": ((7, 256), [3], 0),
              "rng11-122": ((11, 122), [0, 1], 2), "rng11-188": ((11, 188), [0], 1),
              "lifted-5-3": (None, [2, 3, 4], 0)}

    @classmethod
    def functionals(cls, name: str):
        """The plant, then K (a Gaussian mix of the Y coordinates), 1e-4 K,
        K reading one Y coordinate and K reading the N coordinate."""
        draw, ys, j_n = cls.PLANTS[name]
        plant = random_draw(*draw) if draw else lifted_system(5, 3, unobserved=True)
        rows = np.eye(plant.n)
        K = np.random.default_rng(len(ys)).standard_normal((2, len(ys))) @ rows[ys]
        return plant, [K, 1e-4 * K, rows[ys[:1]], rows[[j_n]]]

    @staticmethod
    def outcome(sys) -> tuple:
        """The report JSON, then (N, H, R, M, state_map, L) as bytes or the
        refusal text."""
        report = json.dumps(report_to_dict(is_partially_causal_detectable(sys)))
        try:
            est, trace = synthesize_estimator(sys)
        except DsestError as exc:
            return report, str(exc)
        return report, [(X.shape, X.tobytes()) for X in (
            est.N, est.H, est.R, est.M, trace.state_map, trace.L)]

    @pytest.mark.parametrize("name", sorted(PLANTS))
    def test_same_bits_as_a_system_alone(self, monkeypatch, name):
        plant, Ks = self.functionals(name)
        systems = lambda: (DescriptorSystem.from_matrices(
            plant.E, plant.A, plant.B, plant.C, K, D=plant.D) for K in Ks)
        alone = []
        for sys in systems():
            memo = weakref.ref(_plant(sys))
            alone.append(self.outcome(sys))
            del sys
            assert memo() is None       # no equal-plant system was alive
        verdicts = [json.loads(report)["partially_causal_detectable"]
                    for report, _ in alone]
        assert verdicts == [True, True, True, False]

        calls = count_calls(monkeypatch, ("observability_staircase", "qkf"))
        for order in (1, -1):
            together = list(systems())[::order]
            assert len({id(_plant(sys)) for sys in together}) == 1
            assert [self.outcome(sys) for sys in together] == alone[::order]
            del together
        assert sorted(calls) == ["observability_staircase", "observability_staircase",
                                 "qkf", "qkf"]

    def test_only_equal_plant_data_share(self):
        plant, (K, *_) = self.functionals("rng7-224")
        mats = dict(E=plant.E, A=plant.A, B=plant.B, C=plant.C, D=plant.D, K=K)
        C_order = DescriptorSystem.from_matrices(**mats)
        same = DescriptorSystem.from_matrices(**mats)
        F_order = DescriptorSystem.from_matrices(
            **dict(mats, A=np.asfortranarray(plant.A)))
        other_D = DescriptorSystem.from_matrices(**dict(mats, D=plant.D + 1.0))
        # A system keeps C-ordered copies, so the layout of the caller's
        # arrays can change neither the memo nor a bit of any result.
        assert np.array_equal(F_order.A, C_order.A) and F_order.A.flags.c_contiguous
        assert _plant(same) is _plant(C_order)
        assert _plant(F_order) is _plant(C_order)
        assert self.outcome(F_order) == self.outcome(C_order)
        assert _plant(other_D) is not _plant(C_order)
        H, other_H = (synthesize_estimator(sys)[0].H for sys in (C_order, other_D))
        assert not np.array_equal(H, other_H)

    def test_entry_dropped_with_the_last_system(self):
        from dsest import simulate
        plant, (K, K_small, *_) = self.functionals("lifted-5-3")
        a, b = (DescriptorSystem.from_matrices(plant.E, plant.A, plant.B, plant.C,
                                               k, D=plant.D) for k in (K, K_small))
        for sys in (a, b):     # every stage of the memo is built
            is_partially_causal_detectable(sys)
            est, trace = synthesize_estimator(sys)
            simulate(sys, est, np.zeros(sys.n), np.zeros(est.s), T=0.1, dt=0.01)
        del sys
        memo = weakref.ref(_plant(a))
        assert _plant(b) is memo() and memo() in _PLANTS.values()
        del a
        assert memo() is not None
        del b
        assert memo() is None

    def test_callers_cannot_change_each_others_results(self):
        plant, (K, _, one, _) = self.functionals("lifted-5-3")
        a, b = (DescriptorSystem.from_matrices(plant.E, plant.A, plant.B, plant.C,
                                               k, D=plant.D) for k in (K, one))
        est_a, trace_a = synthesize_estimator(a)
        est_b, trace_b = synthesize_estimator(b)
        before = [X.copy() for X in (est_b.N, est_b.H)]
        arrays = [value for part in (trace_a, trace_a.staircase, trace_a.stacked_qkf)
                  for value in vars(part).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 17
        for X in arrays:
            with pytest.raises(ValueError, match="read-only"):
                X[...] = 1.0
        for X in (est_a.N, est_a.H, est_a.R, est_a.M):
            X[...] = 1.0
        assert all(np.array_equal(X, Y) for X, Y in zip((est_b.N, est_b.H), before))
        est_again, _ = synthesize_estimator(a)
        assert np.array_equal(est_again.N, before[0])
