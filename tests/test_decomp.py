from dataclasses import replace

import numpy as np
import pytest

from dsest import (InputSignal, is_partially_causal_detectable, kalman_controllability,
                   observability_staircase, qkf, simulate, synthesize_estimator)
from dsest.decomp import (KalmanDecomposition, PencilQKF, _qkf_once, certify_kalman,
                          certify_qkf)
from dsest.exceptions import DecompositionError
from dsest.linalg import DEFAULT_TOL

from conftest import (hidden_chain_beside_finite, hidden_kronecker_pencil,
                      hidden_nilpotent_chain, random_pencil, random_system)


def blockdiag_pencil(dec, lam):
    blocks = []
    # degenerate blocks may have zero rows but nonzero columns (eps) or
    # zero columns but nonzero rows (eta); both still occupy space
    if dec.n_eps or dec.m_eps:
        blocks.append(lam * dec.E_eps - dec.A_eps)
    if dec.n_f:
        blocks.append(lam * np.eye(dec.n_f) - dec.J_f)
    if dec.n_sigma:
        blocks.append(lam * dec.J_sigma - np.eye(dec.n_sigma))
    if dec.n_eta or dec.m_eta:
        blocks.append(lam * dec.E_eta - dec.A_eta)
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


class TestQKFCanonical:
    def test_block_sizes(self, ex_system):
        dec = qkf(ex_system.E, ex_system.A)
        assert dec.row_sizes == (0, 3, 1, 0)
        assert dec.col_sizes == (0, 3, 1, 0)
        assert dec.h == 1

    def test_finite_spectrum(self, ex_system):
        dec = qkf(ex_system.E, ex_system.A)
        eigs = sorted(np.real(np.linalg.eigvals(dec.J_f)))
        assert eigs == pytest.approx([-1.0, -1.0, 1.0], abs=1e-8)

    def test_rank_drop_at_finite_eigenvalues(self, ex_system):
        E, A = ex_system.E, ex_system.A
        dec = qkf(E, A)
        generic = np.linalg.matrix_rank(0.437 * E - A)
        for lam in np.linalg.eigvals(dec.J_f):
            assert np.linalg.matrix_rank(lam * E - A, tol=1e-8) < generic


class TestQKFRandom:
    def test_reconstruction_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            E, A = random_pencil(rng)
            dec = qkf(E, A)
            scale = max(1.0, np.abs(E).max(), np.abs(A).max())
            for lam in (0.0, 1.0, -2.5, 0.3 + 1.1j):
                lhs = dec.P @ (lam * E - A) @ dec.Q
                assert np.abs(lhs - blockdiag_pencil(dec, lam)).max() \
                    < 1e-10 * scale

    def test_nilpotency(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            E, A = random_pencil(rng)
            dec = qkf(E, A)
            if dec.n_sigma:
                Jh = np.linalg.matrix_power(dec.J_sigma, dec.h)
                assert np.abs(Jh).max() < 1e-8
                if dec.h > 1:
                    Jh1 = np.linalg.matrix_power(dec.J_sigma, dec.h - 1)
                    assert np.abs(Jh1).max() > 1e-8

    def test_eps_eta_regularity(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            E, A = random_pencil(rng)
            dec = qkf(E, A)
            if dec.n_eps:
                assert np.linalg.matrix_rank(dec.E_eps) == dec.m_eps
            if dec.n_eta:
                assert np.linalg.matrix_rank(dec.E_eta) == dec.n_eta


def hand_form(E_eps=np.zeros((0, 0)), A_eps=np.zeros((0, 0)), J_f=np.zeros((0, 0)),
              J_sigma=np.zeros((0, 0)), E_eta=np.zeros((0, 0)), A_eta=np.zeros((0, 0))):
    """A PencilQKF with P = Q = I, so that the pencil is its blocks."""
    blocks = dict(E_eps=E_eps, A_eps=A_eps, J_f=J_f, J_sigma=J_sigma, E_eta=E_eta,
                  A_eta=A_eta)
    m = E_eps.shape[0] + J_f.shape[0] + J_sigma.shape[0] + E_eta.shape[0]
    n = E_eps.shape[1] + J_f.shape[0] + J_sigma.shape[0] + E_eta.shape[1]
    return PencilQKF(P=np.eye(m), Q=np.eye(n), m_eps=E_eps.shape[0],
                     n_eps=E_eps.shape[1], n_f=J_f.shape[0], n_sigma=J_sigma.shape[0],
                     m_eta=E_eta.shape[0], n_eta=E_eta.shape[1],
                     h=1 if J_sigma.size else 0, **blocks)


class TestQKFCertification:
    """Each check of ``certify_qkf`` on a hand-built form that breaks it
    alone."""

    GOOD = dict(E_eps=np.array([[1.0, 0.0]]), A_eps=np.array([[0.0, 1.0]]),
                J_f=np.array([[-1.0]]), J_sigma=np.zeros((1, 1)),
                E_eta=np.array([[1.0], [0.0]]), A_eta=np.array([[0.0], [1.0]]))

    def test_well_formed_blocks_certify(self):
        form = hand_form(**self.GOOD)
        certify_qkf(form.blocks_E(), form.blocks_A(), form)

    def test_identity(self):
        form = hand_form(**self.GOOD)
        bad = replace(form, P=form.P + 1e-3 * np.ones_like(form.P))
        with pytest.raises(DecompositionError, match="identity fails for E"):
            certify_qkf(form.blocks_E(), form.blocks_A(), bad)

    @pytest.mark.parametrize("blocks, message", [
        (dict(E_eps=np.array([[1.0], [0.0]]), A_eps=np.array([[0.0], [1.0]])),
         "E_eps rank deficient"),
        (dict(E_eta=np.array([[1.0, 0.0]]), A_eta=np.array([[0.0, 1.0]])),
         "E_eta rank deficient"),
        (dict(E_eps=np.array([[0.0, 0.0]]), A_eps=np.array([[1.0, 0.0]])),
         "E_eps rank deficient"),
        (dict(E_eps=np.array([[1.0, 0.0]]), A_eps=np.array([[0.371, 0.0]])),
         "epsilon pencil loses row rank"),
        (dict(E_eta=np.array([[0.0], [0.0]]), A_eta=np.array([[1.0], [0.0]])),
         "E_eta rank deficient"),
        (dict(E_eta=np.array([[1.0], [0.0]]), A_eta=np.array([[0.371], [0.0]])),
         "eta pencil loses column rank"),
        # lambda E - A = [[lambda, 0, -1], [0, lambda - 0.5, 0]].
        (dict(E_eps=np.eye(2, 3), A_eps=np.array([[0.0, 0.0, 1.0], [0.0, 0.5, 0.0]])),
         "epsilon pencil loses row rank"),
        # lambda E - A = [[lambda, 0], [0, lambda - 0.5], [-1, 0]].
        (dict(E_eta=np.eye(3, 2), A_eta=np.array([[0.0, 0.0], [0.0, 0.5], [1.0, 0.0]])),
         "eta pencil loses column rank"),
    ], ids=["m_eps", "m_eta", "E_eps", "eps-pencil", "E_eta", "eta-pencil", "eps-pencil-0.5",
            "eta-pencil-0.5"])
    def test_block_check(self, blocks, message):
        form = hand_form(**{**self.GOOD, **blocks})
        with pytest.raises(DecompositionError, match=f"QKF certification: {message}"):
            certify_qkf(form.blocks_E(), form.blocks_A(), form)


class TestKalmanCertification:
    """Each check of ``certify_kalman`` on a hand-built decomposition with
    S = T = I, so that the triple is its blocks."""

    @staticmethod
    def certify(sizes, E, A, B):
        E, A, B = (np.array(M, dtype=float) for M in (E, A, B))
        m, n = E.shape
        dec = KalmanDecomposition(S=np.eye(m), T=np.eye(n), sizes=sizes, E_blocks=E,
                                  A_blocks=A, B_blocks=B, C_blocks=np.zeros((0, n)))
        certify_kalman(E, A, B, dec, DEFAULT_TOL)

    def test_well_formed_blocks_certify(self):
        # x1' = -x1 + u, x2' = -x2, 0 = x3 (impulsive, no finite mode).
        self.certify(((1, 1), (1, 1), (1, 1)), np.diag([1, 1, 0]),
                     np.diag([-1, -1, 1]), [[1], [0], [0]])

    @pytest.mark.parametrize("sizes, E, A, B, message", [
        (((1, 1), (1, 1), (0, 0)), [[1, 0], [1, 1]], [[0, 0], [0, -1]], [[1], [0]],
         "lower block \\(1,0\\) nonzero"),
        (((1, 1), (1, 1), (0, 0)), np.eye(2), [[0, 0], [0, -1]], [[1], [1]],
         "S B not of the form"),
        (((1, 1), (1, 2), (0, 0)), [[1, 0, 0], [0, 1, 0]], [[0, 0, 0], [0, 0, 1]],
         [[1], [0]], "middle block not square"),
        (((1, 1), (1, 1), (0, 0)), np.diag([1, 0]), np.diag([0, 1]), [[1], [0]],
         "E22 not invertible"),
        (((1, 1), (0, 0), (1, 1)), np.eye(2), np.diag([0, 0.371]), [[1], [0]],
         "trailing pencil loses column rank"),
        (((2, 2), (0, 0), (0, 0)), np.eye(2), np.diag([-1, -2]), [[1], [0]],
         "\\(1,1\\) block is not completely controllable"),
        (((1, 1), (0, 0), (1, 1)), np.eye(2), np.diag([0, 0.5]), [[1], [0]],
         "trailing pencil loses column rank"),
    ], ids=["lower-block", "B", "square", "E22", "trailing-pencil", "controllable",
            "trailing-pencil-0.5"])
    def test_block_check(self, sizes, E, A, B, message):
        with pytest.raises(DecompositionError, match=f"Kalman certification: {message}"):
            self.certify(sizes, E, A, B)


class TestNilpotencyIndex:
    """h is the number of stages of the staircase of J_sigma x' = x."""

    def test_scaled_shift(self):
        for c in (1e-6, 1e-3, 1.0, 1e3):
            for k in range(1, 8):
                assert (c, k, qkf(c * np.eye(k, k=1), np.eye(k)).h) == (c, k, k)

    @pytest.mark.parametrize("k, seed", [(2, 22), (3, 12), (4, 1), (5, 2), (6, 2), (7, 0)])
    def test_hidden_chains_at_large_scale(self, k, seed):
        form = qkf(*hidden_nilpotent_chain(k, 1e6, seed))
        assert form.col_sizes == form.row_sizes == (0, 0, k + max(k - 2, 0), 0)
        assert form.h == k


def assert_spectrum(form, J, rtol):
    """eig(J_f) equals eig(J) as a multiset, to rtol relative."""
    got, want = (np.sort_complex(np.linalg.eigvals(M)) for M in (form.J_f, J))
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestRelaxedRetry:
    def test_retry_recovers_the_form(self):
        E, A, J = hidden_kronecker_pencil(6, 8)
        with pytest.raises(DecompositionError, match=(
                "QKF certification: epsilon pencil loses row rank")):
            _qkf_once(E, A, DEFAULT_TOL)
        form = qkf(E, A)
        assert form.col_sizes == (7, 6, 0, 6)
        assert form.row_sizes == (6, 6, 0, 7)
        assert_spectrum(form, J, 1e-13)

    def test_both_attempts_named_when_both_fail(self):
        E, A, _ = hidden_kronecker_pencil(6, 11)
        with pytest.raises(DecompositionError) as info:
            qkf(E, A)
        message = str(info.value)
        assert message.startswith("QKF failed at rank_rtol=1e-10 (QKF certification: "
                                  "epsilon pencil loses row rank")
        assert ("and at relaxed rank_rtol=1e-09 (QKF certification: epsilon pencil "
                "loses row rank") in message

    def test_svd_failure_in_first_attempt_is_retried(self, monkeypatch, ex_system):
        want = qkf(ex_system.E, ex_system.A)
        calls = []
        def fail_once(*args, _svd=np.linalg.svd, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return _svd(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", fail_once)
        form = qkf(ex_system.E, ex_system.A)
        assert len(calls) > 1
        assert (form.col_sizes, form.row_sizes) == (want.col_sizes, want.row_sizes)


class TestStaircaseConstruction:
    """The QKF of hidden structures, built with no Wong chain."""

    @pytest.mark.parametrize("k, seed", [(4, 5), (10, 6)])
    def test_hidden_kronecker_pencil(self, k, seed):
        E, A, J = hidden_kronecker_pencil(k, seed)
        form = qkf(E, A)
        assert form.row_sizes == (k, k, 0, k + 1)
        assert form.col_sizes == (k + 1, k, 0, k)
        assert_spectrum(form, J, 1e-12)

    def test_chain_beside_a_finite_block(self):
        # Index-4 chains whose E part is 1e3 times the finite block's.
        E, A, J = hidden_chain_beside_finite(4, 1e3, 0)
        form = qkf(E, A)
        assert form.row_sizes == form.col_sizes == (0, 2, 6, 0)
        assert form.h == 4
        assert_spectrum(form, J, 1e-12)

    def test_worked_example_needs_no_wong_chain(self, monkeypatch, ex_system):
        def fail(*args, **kwargs):
            raise AssertionError("Wong chain computed")
        monkeypatch.setattr("dsest.decomp.wong_limits", fail)
        assert is_partially_causal_detectable(ex_system).partially_causal_detectable
        est, trace = synthesize_estimator(ex_system)
        x0 = np.array([1.0, 2.0, 3.0, 0.0])
        run = simulate(ex_system, est, x0, trace.tracked_state(x0),
                       u=InputSignal.zero(ex_system.l), T=1.0, dt=0.1)
        assert np.abs(run.e).max() < 1e-9


class TestStaircase:
    def test_canonical_identity(self, ex_system):
        st = observability_staircase(ex_system.E, ex_system.A, ex_system.B)
        # already in reduced form: transformations are orthogonal and the
        # reduced triple is equivalent to the original
        assert np.allclose(st.U_O @ st.U_O.T, np.eye(st.U_O.shape[0]))
        assert np.allclose(st.V_O @ st.V_O.T, np.eye(st.V_O.shape[0]))

    def test_cascading_fixture(self):
        E = np.diag([1.0, 1.0, 0.0, 0.0])
        A = np.array([[0.0, 1, 0, 0],
                      [0, 0, 1, 0],
                      [1, 0, 0, 0],
                      [0, 0, 0, 1.0]])
        B = np.array([[0.0], [1], [0], [0]])
        st = observability_staircase(E, A, B)
        assert st.k == 3
        assert tuple(st.row_partition) == (1, 1, 2)

    def test_degenerate_pure_algebraic(self):
        E = np.array([[1.0], [0.0]])
        A = np.array([[2.0], [1.0]])
        B = np.zeros((2, 0))
        st = observability_staircase(E, A, B)  # must terminate
        assert st.E_O.shape[1] <= 1

    def test_random_equivalence(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            sys = random_system(rng, max_dim=4)
            st = observability_staircase(sys.E, sys.A, sys.B)
            # transformations are orthogonal
            assert np.allclose(st.U_O @ st.U_O.T, np.eye(st.U_O.shape[0]),
                               atol=1e-10)
            assert np.allclose(st.V_O @ st.V_O.T, np.eye(st.V_O.shape[0]),
                               atol=1e-10)
            # the reduced triple is the leading block of the transformed one
            r0, c0 = st.row_partition[0], st.col_partition[0]
            TE = st.U_O @ sys.E @ st.V_O
            TA = st.U_O @ sys.A @ st.V_O
            TB = st.U_O @ sys.B
            assert np.abs(TE[:r0, :c0] - st.E_O).max(initial=0.0) < 1e-10
            assert np.abs(TA[:r0, :c0] - st.A_O).max(initial=0.0) < 1e-10
            assert np.abs(TB[:r0] - st.B_O).max(initial=0.0) < 1e-10
            # reduced pair has [E_O, B_O] of full row rank
            if r0:
                assert np.linalg.matrix_rank(
                    np.hstack([st.E_O, st.B_O]), tol=1e-10) == r0


class TestKalman:
    def test_canonical_fully_controllable(self, ex_system):
        kd = kalman_controllability(ex_system.E, ex_system.A, ex_system.B,
                                    ex_system.C)
        assert kd.sizes[0] == (4, 4)
        assert kd.sizes[1] == (0, 0)
        assert kd.sizes[2] == (0, 0)

    def test_partially_controllable_fixture(self):
        E = np.eye(4)
        A = np.diag([-1.0, -2.0, -3.0, 1.0])
        B = np.array([[1.0], [1.0], [0.0], [0.0]])
        kd = kalman_controllability(E, A, B, np.zeros((0, 4)))
        assert kd.sizes[0] == (2, 2)
        assert kd.sizes[0][1] + kd.sizes[1][1] + kd.sizes[2][1] == 4

    def test_block_structure_random(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            sys = random_system(rng, max_dim=4)
            try:
                kd = kalman_controllability(sys.E, sys.A, sys.B, sys.C)
            except DecompositionError:
                continue  # ill-conditioned draws may legitimately refuse
            (m1, n1), (m2, n2), (m3, n3) = kd.sizes
            SE = kd.S @ sys.E @ kd.T
            SA = kd.S @ sys.A @ kd.T
            SB = kd.S @ sys.B
            scale = max(1.0, np.abs(sys.E).max(), np.abs(sys.A).max(),
                        np.abs(sys.B).max(initial=0.0))
            # zero patterns below the first block row
            assert np.abs(SE[m1:, :n1]).max(initial=0.0) < 1e-8 * scale
            assert np.abs(SA[m1:, :n1]).max(initial=0.0) < 1e-8 * scale
            assert np.abs(SB[m1:, :]).max(initial=0.0) < 1e-8 * scale
            assert np.abs(SE[m1 + m2:, n1:n1 + n2]).max(initial=0.0) \
                < 1e-8 * scale
