import dataclasses
import os

import numpy as np
import pytest
from scipy.linalg import expm

import census

from dsest import (
    DescriptorSystem,
    DimensionMismatchError,
    EstimatorRealization,
    InputSignal,
    SynthesisError,
    SynthesisTrace,
    is_partially_causal_detectable,
    simulate,
    synthesize_estimator,
    wong_limits,
)
from dsest.analysis import _functional
from dsest.io import load_estimator, load_system
from dsest.linalg import DEFAULT_TOL
from conftest import SPLIT_PLANTS, random_draw, random_system, split_system, stiff_system


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def ramp():
    return InputSignal.polynomial([[0.0, 1.0]])


class TestEstimatorShapeContract:
    # Order 2 reading three channels, one functional.
    GOOD = dict(N=-np.eye(2), H=np.ones((2, 3)), R=np.ones((1, 2)),
                M=np.zeros((1, 3)))

    @pytest.mark.parametrize("name, bad, message", [
        ("N", -np.ones((2, 3)), "N is 2x3, expected 2x2"),
        ("H", np.ones((3, 3)), "H is 3x3, expected 2x3"),
        ("R", np.ones((1, 3)), "R is 1x3, expected 1x2"),
        ("M", np.zeros((2, 3)), "M is 2x3, expected 1x3"),
        ("M", np.zeros((1, 2)), "M is 1x2, expected 1x3"),
    ], ids=["N", "H", "R", "M-rows", "M-columns"])
    def test_inconsistent_block_is_rejected(self, name, bad, message):
        with pytest.raises(DimensionMismatchError) as info:
            EstimatorRealization(**{**self.GOOD, name: bad})
        assert str(info.value) == "shape mismatch: estimator " + message

    def test_float_arrays_are_kept_and_entries_checked(self):
        est = EstimatorRealization(**self.GOOD)
        assert all(getattr(est, k) is v for k, v in self.GOOD.items())
        assert EstimatorRealization(N=[[-1]], H=[[1]], R=[[1]], M=[[0]]).N.dtype == float
        with pytest.raises(ValueError, match="finite"):
            EstimatorRealization(**{**self.GOOD, "R": np.array([[1.0, np.nan]])})

    @pytest.mark.parametrize("name", "NHRM")
    def test_float64_blocks_and_complex_refused(self, name):
        single = EstimatorRealization(**{**self.GOOD, name: self.GOOD[name].astype(
            np.float32)})
        assert getattr(single, name).dtype == np.float64
        with pytest.raises(ValueError, match=f"^estimator {name} must be real"):
            EstimatorRealization(**{**self.GOOD, name: self.GOOD[name] + 0j})

    def test_equality_is_identity(self):
        # Array fields make field-wise == ambiguous; an estimator is itself.
        a, b = (EstimatorRealization(**{k: v.copy() for k, v in self.GOOD.items()})
                for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2


def test_trace_keeps_what_callers_read():
    assert [f.name for f in dataclasses.fields(SynthesisTrace)] == [
        "staircase", "stacked_qkf", "A_eta1", "A_eta2", "L", "eta_folded",
        "state_map"]


class TestWorkedExample:
    def test_order_and_spectrum(self, ex_system):
        est, trace = synthesize_estimator(ex_system)
        assert est.s == 2
        assert trace.eta_folded
        eigs = np.sort(np.linalg.eigvals(est.N))
        assert np.abs(eigs - np.array([-1.0, -1.0])).max() < 1e-6
        # trace and determinant are exact for the defective pair
        assert abs(np.trace(est.N) + 2.0) < 1e-9
        assert abs(np.linalg.det(est.N) - 1.0) < 1e-9

    def test_builds_the_reference_estimator_bit_for_bit(self):
        sys, _, _ = load_system(os.path.join(DATA, "example_system.json"))
        ref, _ = load_estimator(os.path.join(DATA, "reference_estimator.json"))
        est, _ = synthesize_estimator(sys)
        for name in ("N", "H", "R", "M"):
            assert getattr(est, name).tobytes() == getattr(ref, name).tobytes(), name
        assert np.linalg.eigvals(est.N).tolist() == [-1.0, -1.0]

    def test_matched_initialization_tracks_exactly(self, ex_system):
        est, trace = synthesize_estimator(ex_system)
        x0 = np.array([1.0, 2.0, 3.0, 0.0])
        w0 = trace.tracked_state(x0)
        tr = simulate(ex_system, est, x0, w0, u=ramp(), T=10.0)
        assert np.abs(tr.e).max() < 1e-9

    def test_error_dynamics_are_linear_in_w_offset(self, ex_system):
        est, trace = synthesize_estimator(ex_system)
        x0 = np.array([0.5, -2.0, 1.5, 0.0])
        delta = np.array([3.0, -1.0])
        w0 = trace.tracked_state(x0) + delta
        tr = simulate(ex_system, est, x0, w0, u=ramp(), T=10.0)
        ref = np.stack([est.R @ expm(est.N * tk) @ delta for tk in tr.t],
                       axis=1)
        assert np.abs(tr.e - ref).max() < 1e-8

    def test_stacked_block_shapes(self, ex_system):
        est, trace = synthesize_estimator(ex_system)
        # H and M consume the stacked input (u; y)
        assert est.H.shape == (2, ex_system.l + ex_system.p)
        assert est.M.shape == (ex_system.r, ex_system.l + ex_system.p)
        assert est.R.shape == (ex_system.r, 2)


class TestRefusal:
    def test_sigma_violation_refused(self, sigma_violating_system):
        with pytest.raises(SynthesisError,
                           match="no functional ODE estimator exists"):
            synthesize_estimator(sigma_violating_system)

    def test_unstable_unobserved_refused(self):
        # x1' = x1 unmeasured, z = x1: detectability fails.
        sys = DescriptorSystem.from_matrices(
            np.eye(2), np.diag([1.0, -1.0]), np.zeros((2, 0)),
            np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        with pytest.raises(SynthesisError,
                           match="no functional ODE estimator exists"):
            synthesize_estimator(sys)

    def test_near_axis_integrator_refused(self, near_axis_system):
        with pytest.raises(SynthesisError,
                           match="no functional ODE estimator exists"):
            synthesize_estimator(near_axis_system)

    def test_decides_without_the_analysis(self, monkeypatch, ex_system,
                                          sigma_violating_system):
        # The construction's own block checks are the criterion: synthesis
        # neither runs the lifted rank tests nor needs them to refuse.
        def refuse(*args, **kwargs):
            raise AssertionError("synthesis ran a lifted rank test")
        for name in ("characterization_suite", "_toeplitz_F"):
            monkeypatch.setattr(f"dsest.analysis.{name}", refuse)
        est, _ = synthesize_estimator(ex_system)
        assert est.s == 2
        with pytest.raises(SynthesisError,
                           match="no functional ODE estimator exists"):
            synthesize_estimator(sigma_violating_system)


class TestFoldedBlock:
    """A folded overdetermined block is resolved into M and needs no gain."""

    @staticmethod
    def built(sys):
        est, trace = synthesize_estimator(sys)
        return [est.N, est.H, est.R, est.M, trace.state_map], trace

    def assert_same_build_without_place_poles(self, make_system, monkeypatch):
        ref, trace = self.built(make_system())
        assert trace.eta_folded
        def refuse(*args, **kwargs):
            raise AssertionError("a folded block placed poles")
        with monkeypatch.context() as patch:
            patch.setattr("dsest.synthesis.place_poles", refuse)
            got, trace = self.built(make_system())
        assert trace.eta_folded
        assert not trace.L.any()
        assert trace.L.shape == (trace.A_eta1.shape[0], trace.A_eta2.shape[0])
        for a, b in zip(got, ref):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_worked_example(self, ex_system, monkeypatch):
        matrices = {k: getattr(ex_system, k) for k in "EABCDK"}
        self.assert_same_build_without_place_poles(
            lambda: DescriptorSystem(**matrices), monkeypatch)

    def test_random_draws(self, monkeypatch):
        rng = np.random.default_rng(7)
        folded = 0
        for _ in range(60):
            sys = random_system(rng)
            if not is_partially_causal_detectable(sys).partially_causal_detectable:
                continue
            if not synthesize_estimator(sys)[1].eta_folded:
                continue
            matrices = {k: getattr(sys, k) for k in "EABCDK"}
            self.assert_same_build_without_place_poles(
                lambda: DescriptorSystem(**matrices), monkeypatch)
            folded += 1
        assert folded >= 5


class TestStiffSpectrum:
    def test_slow_decaying_mode_is_estimated(self):
        est, _ = synthesize_estimator(stiff_system(-1e-4))
        assert np.linalg.eigvals(est.N).real.max() < 0

    def test_slow_integrator_refused(self):
        with pytest.raises(SynthesisError,
                           match="no functional ODE estimator exists"):
            synthesize_estimator(stiff_system(0.0))


class TestSplitConditioning:
    """The estimator tracks the decaying coordinates of the finite block in
    an orthogonal Schur basis, so its accuracy does not depend on how close
    the decaying and non-decaying eigenvalues are."""

    def test_close_eigenvalues_keep_the_estimate_exact(self):
        # A0 = [[0, 1, 0], [0, -delta, 0], [0, 0, -1]] in rotated coordinates:
        # the unmeasured modes 0 and -delta have nearly parallel eigenvectors,
        # and z reads the decaying one.
        delta = 1e-4
        P = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
        A0 = np.array([[0.0, 1.0, 0.0], [0.0, -delta, 0.0], [0.0, 0.0, -1.0]])
        sys = DescriptorSystem.from_matrices(
            np.eye(3), P @ A0 @ P.T, P @ np.array([[0.0], [1.0], [1.0]]),
            np.array([[0.0, 0.0, 1.0]]) @ P.T, np.array([[0.0, 1.0, 0.0]]) @ P.T)
        est, trace = synthesize_estimator(sys)
        x0 = np.array([1.0, 2.0, 3.0])
        run = simulate(sys, est, x0, trace.tracked_state(x0),
                       u=InputSignal.sinusoid([1.0], 1.0), T=10.0, dt=0.01)
        assert np.abs(run.e).max() <= 1e-11 * max(1.0, np.abs(run.x).max())


class TestTwoSidedSplit:
    """Plants whose finite block has non-decaying and decaying modes: the
    estimator is built from the decaying Schur coordinates alone and tracks
    z exactly from the tracked initial state."""

    @pytest.mark.parametrize("name", list(SPLIT_PLANTS))
    def test_estimator_tracks_exactly(self, name):
        sys = split_system(name)
        structure = _functional(sys, DEFAULT_TOL).structure
        assert structure.J_f1.shape[0] > 0 and structure.J_f2.shape[0] > 0
        est, trace = synthesize_estimator(sys)
        worst = np.linalg.eigvals(est.N).real.max()
        assert worst < 0
        # Relative to x, not by decay_metrics: the unobserved unstable modes
        # of the rng7-224 plant reach 1e16.
        V = wong_limits(sys.E, sys.A).V_star    # consistent states when u = 0
        x0 = V.basis @ np.random.default_rng(0).standard_normal(V.dim)
        T = min(40.0, 10.0 / -worst)
        run = simulate(sys, est, x0, trace.tracked_state(x0), T=T, dt=T / 400)
        assert np.abs(run.e).max() <= 1e-10 * max(1.0, np.abs(run.x).max())


class TestDegenerateShapes:
    def test_algebraic_functional_needs_no_state(self, sigma_causal_system):
        est, trace = synthesize_estimator(sigma_causal_system)
        assert est.s == 0
        # z = x2 = -u identically; the consistent x0 is (-u'(0), -u(0))
        tr = simulate(sigma_causal_system, est, [-2.0, 0.0], np.zeros(0),
                      u=InputSignal.sinusoid([1.0], 2.0), T=5.0)
        assert np.abs(tr.e).max() < 1e-9

    def test_overdetermined_plant(self):
        E = np.array([[1.0], [0.0]])
        A = np.array([[-1.0], [1.0]])
        B = np.array([[1.0], [-1.0]])
        sys = DescriptorSystem.from_matrices(
            E, A, B, np.zeros((0, 1)), np.array([[1.0]]))
        est, trace = synthesize_estimator(sys)
        tr = simulate(sys, est,
                      [1.0],
                      trace.tracked_state([1.0]) if est.s else np.zeros(0),
                      u=InputSignal.polynomial([[1.0]]), T=5.0)
        assert np.abs(tr.e).max() < 1e-8

    def test_plant_copy_when_nothing_is_measured(self):
        # Stable unmeasured plant: the estimator must simulate it outright.
        A = np.array([[-1.0, 1.0], [0.0, -2.0]])
        sys = DescriptorSystem.from_matrices(
            np.eye(2), A, np.array([[1.0], [0.0]]), np.zeros((0, 2)),
            np.eye(2))
        est, trace = synthesize_estimator(sys)
        assert est.s == 2
        x0 = np.array([2.0, -1.0])
        tr = simulate(sys, est, x0, trace.tracked_state(x0),
                      u=InputSignal.sinusoid([1.0], 1.0), T=10.0)
        assert np.abs(tr.e).max() < 1e-8


class TestRandomProperties:
    def test_order_bounded_and_estimator_sound(self):
        # Also: synthesis refuses exactly when the full analysis says no
        # estimator exists, so the construction's refusal matches the verdict.
        rng = np.random.default_rng(77)
        synthesized = 0
        for _ in range(120):
            sys = random_system(rng, max_dim=4)
            exists = is_partially_causal_detectable(sys).partially_causal_detectable
            try:
                est, trace = synthesize_estimator(sys)
            except SynthesisError as exc:
                refused = "no functional ODE estimator exists" in str(exc)
                assert refused == (not exists), str(exc)
                continue
            assert exists
            synthesized += 1
            assert est.s <= sys.n
            if est.s:
                assert np.linalg.eigvals(est.N).real.max() < 0
        assert synthesized >= 10


class TestAsDesigned:
    """The estimator is the one steps 4-6 design, with no entry re-decided
    afterwards: N is blkdiag(J_f2, A_eta1 - L A_eta2) as computed, so its
    spectrum is that of the blocks, whose stability the ordered Schur split
    and ``place_poles`` each decided once."""

    @staticmethod
    def slowed(i: int) -> DescriptorSystem:
        """Census draw ``i`` with E x 1e3."""
        sys = random_draw(7, i)
        return DescriptorSystem.from_matrices(sys.E * 1e3, sys.A, sys.B, sys.C, sys.K,
                                              D=sys.D)

    @pytest.mark.parametrize("i, worst", [(281, -0.6674), (520, -2.2857)])
    def test_rescaled_states_build_a_stable_estimator(self, i, worst):
        est, _ = synthesize_estimator(census.invariance_system(i, "states 10^+-3"))
        assert np.linalg.eigvals(est.N).real.max() == pytest.approx(worst, abs=1e-4)

    @pytest.mark.parametrize("i", [54, 55, 147, 265])
    def test_slowed_draws_build(self, i):
        est, trace = synthesize_estimator(self.slowed(i))
        assert not trace.eta_folded
        assert np.linalg.eigvals(est.N).real.max() < 0

    def test_spectrum_is_that_of_the_blocks(self):
        sys = self.slowed(10)
        est, trace = synthesize_estimator(sys)
        J_f2 = _functional(sys, DEFAULT_TOL).structure.J_f2
        blocks = np.concatenate([np.linalg.eigvals(J_f2),
                                 np.linalg.eigvals(trace.A_eta1 - trace.L @ trace.A_eta2)])
        np.testing.assert_allclose(np.sort_complex(np.linalg.eigvals(est.N)),
                                   np.sort_complex(blocks), rtol=1e-12, atol=0)
