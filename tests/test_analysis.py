import numpy as np
import pytest
import sympy

from dsest import (
    DescriptorSystem,
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

from conftest import (detect_candidate_lambdas, detectability_matrices,
                      lifted_system, random_pencil, random_system, stiff_system)


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
        assert all(report.characterization_votes)

    def test_causality_ranks(self, ex_system):
        report = is_partially_causal_detectable(ex_system)
        assert report.causality_ranks == (34, 34)

    def test_sigma_counterexample(self, sigma_violating_system):
        report = is_partially_causal_detectable(sigma_violating_system)
        assert not report.partially_causal_detectable
        assert not any(report.characterization_votes)
        # Detectable all the same: only the causality condition fails.
        assert report.partially_detectable
        assert is_partially_detectable(sigma_violating_system)[0]

    def test_sigma_causal_variant(self, sigma_causal_system):
        report = is_partially_causal_detectable(sigma_causal_system)
        assert report.partially_causal_detectable

    def test_sigma_causality_ranks(self, sigma_violating_system,
                                   sigma_causal_system):
        ok, ranks, _ = is_partially_causal(
            sigma_violating_system.E, sigma_violating_system.A,
            sigma_violating_system.B, sigma_violating_system.K)
        assert not ok and ranks == (6, 7)
        ok2, ranks2, _ = is_partially_causal(
            sigma_causal_system.E, sigma_causal_system.A,
            sigma_causal_system.B, sigma_causal_system.K)
        assert ok2 and ranks2 == (6, 6)

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
        from dsest.analysis import StackedSystem
        st = StackedSystem(sys)
        F = st.F_script()
        pre = preimage(st.corner_A1, image(F))
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
    # The roundoff band scales with the spectral radius (1e6 here), but it
    # stays far narrower than the slow mode.
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

    def test_one_staircase_and_one_qkf_per_analysis(self, monkeypatch, ex_system):
        import dsest.analysis as analysis
        calls = []
        for name in ("observability_staircase", "qkf"):
            def counted(*args, _f=getattr(analysis, name), _name=name, **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(analysis, name, counted)
        is_partially_causal_detectable(ex_system)
        assert sorted(calls) == ["observability_staircase", "qkf"]
