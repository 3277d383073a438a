import numpy as np
import pytest

from dsest import DimensionMismatchError, SynthesisError, qkf
from dsest.linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    as_matrix,
    contains,
    image,
    intersect,
    kernel,
    numeric_rank,
    pencil_finite_eigenvalues,
    place_poles,
    preimage,
    spectral_split,
    subspace_sum,
)

from conftest import apply_map, detectability_pencils, lifted_system, random_pencil

RNG = np.random.default_rng(20260826)


def subspaces_equal(s1: Subspace, s2: Subspace) -> bool:
    return contains(s1, s2) and contains(s2, s1)


class TestNumericRank:
    def test_known_ranks(self):
        assert numeric_rank(np.zeros((3, 4))) == 0
        assert numeric_rank(np.eye(3)) == 3
        assert numeric_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1

    def test_empty(self):
        assert numeric_rank(np.zeros((0, 3))) == 0

    def test_scale_floor_suppresses_noise(self):
        # Without an external scale, a noise-only matrix ranks full; the
        # floor ties the threshold to the magnitude of the parent problem.
        noise = 1e-15 * RNG.standard_normal((3, 3))
        assert numeric_rank(noise) == 3
        assert numeric_rank(noise, scale=1.0) == 0

    def test_rank_rtol_effect(self):
        M = np.diag([1.0, 1e-6])
        assert numeric_rank(M) == 2
        assert numeric_rank(M, Tolerance(rank_rtol=1e-3)) == 1


class TestKernelImage:
    def test_kernel_annihilates(self):
        for _ in range(20):
            M = RNG.standard_normal((RNG.integers(1, 5), RNG.integers(1, 5)))
            ker = kernel(M)
            assert ker.dim == M.shape[1] - numeric_rank(M)
            if ker.dim:
                assert np.abs(M @ ker.basis).max() < 1e-10

    def test_image_dim(self):
        M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        assert image(M).dim == 1


class TestSubspace:
    def test_from_span_orthonormal(self):
        s = Subspace.from_span(np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]]))
        assert s.dim == 1
        assert np.allclose(s.basis.T @ s.basis, np.eye(1))

    def test_complement(self):
        s = Subspace.from_span(np.array([[1.0], [0.0], [0.0]]))
        c = s.complement()
        assert c.dim == 2
        assert np.abs(s.basis.T @ c.basis).max() < 1e-12

    def test_sum_and_intersection(self):
        e1 = Subspace.from_span(np.eye(3)[:, :1])
        e12 = Subspace.from_span(np.eye(3)[:, :2])
        e23 = Subspace.from_span(np.eye(3)[:, 1:])
        assert subspace_sum(e1, e23).dim == 3
        meet = intersect(e12, e23)
        assert meet.dim == 1
        assert contains(meet, Subspace.from_span(np.eye(3)[:, 1:2]))
        assert subspaces_equal(meet, Subspace.from_span(np.eye(3)[:, 1:2]))

    def test_zero_and_full_operands_return_the_other_subspace(self):
        # S + {0} and S ∩ R^n are S itself, with no SVD rotating its basis.
        s = Subspace.from_span(RNG.standard_normal((4, 2)))
        zero, full = Subspace.zero(4), Subspace.full(4)
        assert subspace_sum(s, zero) is s
        assert subspace_sum(zero, s) is s
        assert intersect(s, full) is s
        assert intersect(full, s) is s

    def test_preimage(self):
        # M maps (x1,x2) -> (x1, 0); preimage of span(e2) is ker M = span(e2)
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        s = Subspace.from_span(np.array([[0.0], [1.0]]))
        pre = preimage(M, s)
        assert subspaces_equal(pre, Subspace.from_span(np.array([[0.0], [1.0]])))

    def test_preimage_full(self):
        M = RNG.standard_normal((3, 4))
        pre = preimage(M, Subspace.full(3))
        assert pre.dim == 4

    def test_apply_map(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        s = Subspace.full(2)
        img = apply_map(M, s)
        assert subspaces_equal(img, Subspace.from_span(np.array([[1.0], [0.0]])))

    def test_random_complement_identity(self):
        for _ in range(20):
            n = int(RNG.integers(1, 6))
            k = int(RNG.integers(0, n + 1))
            s = Subspace.from_span(RNG.standard_normal((n, k)))
            assert s.dim + s.complement().dim == n


class TestValidation:
    """The input checks of as_matrix and of Subspace, at their boundaries."""

    @staticmethod
    def basis_with_gram_offset(eps):
        # Columns e1 and e2 + eps e1: B^T B has eps off the diagonal and
        # 1 + eps^2 on it.
        B = np.eye(3)[:, :2].copy()
        B[0, 1] = eps
        return B

    def test_gram_off_diagonal_boundary(self):
        Subspace(self.basis_with_gram_offset(5e-11))
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(self.basis_with_gram_offset(2e-10))

    @pytest.mark.parametrize("delta, accepted", [
        (9e-6, True), (-9e-6, True), (2e-5, False), (-2e-5, False)])
    def test_gram_diagonal_boundary(self, delta, accepted):
        B = np.eye(3)[:, :2].copy()
        B[1, 1] = np.sqrt(1.0 + delta)
        if accepted:
            Subspace(B)
        else:
            with pytest.raises(ValueError, match="orthonormal"):
                Subspace(B)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_is_rejected(self, bad):
        B = np.eye(3)[:, :2].copy()
        B[2, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            Subspace(B)

    def test_int_matrix_becomes_float64(self):
        assert as_matrix(np.array([[1, 2], [3, 4]])).dtype == np.float64
        assert Subspace(np.eye(3, dtype=int)).basis.dtype == np.float64

    def test_float32_and_complex_bases_are_accepted(self):
        H = np.array([[1, 1], [1, -1], [1, 1], [1, -1]], dtype=np.float32) / 2
        assert Subspace(H).basis.dtype == np.float32
        C = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2.0)
        assert Subspace(C).dim == 2
        assert Subspace(C).basis.dtype == np.complex128


    @pytest.mark.parametrize("cols", [np.zeros((3, 0)), np.ones((3, 1))])
    def test_rows_must_match_ambient_dim(self, cols):
        with pytest.raises(DimensionMismatchError, match="ambient_dim"):
            Subspace.from_span(cols, 5)
        with pytest.raises(DimensionMismatchError, match="ambient_dim"):
            Subspace(cols, 5)


class TestFactorConstructor:
    """``Subspace._from_factor``, which builds the subspaces of ``from_span``,
    ``kernel``, ``complement``, ``zero`` and ``full`` without ``as_matrix``,
    still runs the orthonormality test."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0])
    def test_refuses_non_finite_or_non_orthonormal_basis(self, bad):
        B = np.eye(3)[:, :2].copy()
        B[2, 0] = bad
        with pytest.raises(ValueError, match="orthonormal"), \
                np.errstate(invalid="ignore"):     # Inf * 0 in B^T B
            Subspace._from_factor(B, 3)

    def test_span_and_kernel_keep_float32_and_complex(self):
        H = np.array([[1, 1], [1, -1], [1, 1], [1, -1]], dtype=np.float32)
        assert Subspace.from_span(H).basis.dtype == np.float32
        assert kernel(np.diag(np.array([2, 0, 3], dtype=np.float32))).basis.dtype \
            == np.float32
        C = np.array([[1.0, 1j], [1j, -1.0]])
        assert Subspace.from_span(C).basis.dtype == np.complex128
        assert kernel(C).basis.dtype == np.complex128
        assert kernel(np.array([[1, 0, 0]], dtype=np.complex64)).basis.dtype \
            == np.complex64


class TestPencilEigenvalues:
    def test_regular_pencil(self):
        E = np.eye(2)
        A = np.diag([3.0, -2.0])
        lams = pencil_finite_eigenvalues(E, A)
        assert sorted(np.real(lams)) == pytest.approx([-2.0, 3.0])

    def test_singular_pencil_skips_indeterminate(self):
        # nilpotent block contributes no finite eigenvalues
        E = np.array([[0.0, 1.0], [0.0, 0.0]])
        A = np.eye(2)
        assert pencil_finite_eigenvalues(E, A) == []


def assert_same_multiset(ref, got, rtol=1e-8):
    assert len(got) == len(ref)
    rest = list(ref)
    for lam in sorted(got, key=lambda z: (z.real, z.imag)):
        k = int(np.argmin([abs(lam - mu) for mu in rest]))
        assert abs(lam - rest[k]) <= rtol * max(1.0, abs(lam))
        rest.pop(k)


class TestPencilSpectrumMatchesQKF:
    """pencil_finite_eigenvalues is the spectrum of J_f in the quasi-Kronecker
    form, also on the lifted pencils of the half-plane rank-test oracle."""

    def test_random_pencils(self):
        # The draws of criterion 9, on all of which qkf succeeds.
        rng = np.random.default_rng(201)
        for _ in range(200):
            E, A = random_pencil(rng)
            assert_same_multiset(np.linalg.eigvals(qkf(E, A).J_f),
                                 pencil_finite_eigenvalues(E, A))

    def test_lifted_detectability_pencils(self):
        for X, Y in detectability_pencils(lifted_system(5, 3, unobserved=False)):
            assert_same_multiset(np.linalg.eigvals(qkf(X, Y).J_f),
                                 pencil_finite_eigenvalues(X, Y))

    def test_lifted_defective_spectrum(self):
        # Without K, each unobservable mode is a 5-fold defective eigenvalue
        # of the lifted pencil, so roundoff scatters its computed copies by
        # about eps**(1/5); the characteristic polynomial does not scatter
        # and is compared instead.
        (Xk, Yk), (X, Y) = detectability_pencils(lifted_system(5, 3, unobserved=True))
        assert pencil_finite_eigenvalues(Xk, Yk) == []
        ref = np.linalg.eigvals(qkf(X, Y).J_f)
        got = pencil_finite_eigenvalues(X, Y)
        assert len(got) == len(ref) == 10
        poly_ref, poly_got = np.poly(ref), np.poly(got)
        assert np.abs(poly_got - poly_ref).max() <= 1e-8 * np.abs(poly_ref).max()


class TestSpectralSplit:
    def test_split_and_reconstruct(self):
        # Z is orthogonal and Z^T M Z the ordered Schur form: M11 (non-decaying)
        # leads, M22 (decaying) trails, nothing below them; the leading
        # columns of Z span M's non-decaying invariant subspace.
        P = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
        upper = np.array([[2.0, 1.0, 0.0],
                          [0.0, -1.0, 0.5],
                          [0.0, 0.0, -3.0]])
        rotated = P @ np.array([[0.5, 3.0, 1.0, -2.0],
                                [-3.0, 0.5, 0.0, 1.0],
                                [0.0, 0.0, -1.0, 4.0],
                                [0.0, 0.0, 0.0, -2.0]]) @ P.T
        for M, n_plus in ((upper, 1), (rotated, 2)):
            n = M.shape[0]
            Z, M11, M22 = spectral_split(M)
            assert M11.shape == (n_plus, n_plus) and M22.shape == (n - n_plus,) * 2
            assert np.real(np.linalg.eigvals(M11)).min() > 0
            assert np.real(np.linalg.eigvals(M22)).max() < 0
            assert np.abs(Z.T @ Z - np.eye(n)).max() <= 1e-15 * n
            T = Z.T @ M @ Z
            tol = 1e-12 * np.abs(M).max()
            assert np.abs(T[:n_plus, :n_plus] - M11).max() <= tol
            assert np.abs(T[n_plus:, n_plus:] - M22).max() <= tol
            assert np.abs(T[n_plus:, :n_plus]).max() <= tol
            assert np.abs(M @ Z[:, :n_plus] - Z[:, :n_plus] @ M11).max() <= tol

    @pytest.mark.parametrize("seed", [14, 25, 30, 37, 38])
    def test_edge_of_band_beside_large_coupling_splits(self, seed):
        # A decaying eigenvalue on the edge of the roundoff band beside a
        # large coupling: its computed eigenvalue and its Schur diagonal
        # entry can fall on different sides of the band.  The ordered Schur
        # form alone decides, so the split is made, and it is an invariant
        # one.
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        T = np.triu(50 * rng.standard_normal((3, 3)), 1) \
            + np.diag([-512 * np.finfo(float).eps, -1.0, -0.5])
        M = Q @ T @ Q.T
        Z, M11, M22 = spectral_split(M)
        assert M11.shape == (1, 1) and M22.shape == (2, 2)
        assert np.abs(Z.T @ Z - np.eye(3)).max() <= 1e-15 * 3
        norm = np.linalg.norm(M)
        assert np.abs((Z.T @ M @ Z)[1:, :1]).max() <= 1e-12 * norm
        assert np.linalg.norm(M @ Z[:, :1] - Z[:, :1] @ M11) <= 1e-12 * norm

    def test_all_stable_shortcut(self):
        M = np.diag([-1.0, -2.0])
        T, M_plus, M_minus = spectral_split(M)
        assert M_plus.shape == (0, 0)
        assert np.allclose(T, np.eye(2))
        assert np.allclose(M_minus, M)

    def test_roundoff_eigenvalue_counts_as_non_decaying(self):
        # -1e-14 is within roundoff of the axis: it goes to M_plus instead
        # of making the split refuse.
        T, M_plus, M_minus = spectral_split(np.diag([-1e-14, -1.0]))
        assert M_plus.shape == (1, 1) and M_minus.shape == (1, 1)
        assert abs(M_plus[0, 0] + 1e-14) < 1e-16

    def test_slow_mode_beside_a_fast_one_decays(self):
        # The band is a few hundred ulps of |M|_F, about 1e6, so -1e-4 is
        # decaying.
        c, s = np.cos(0.7), np.sin(0.7)
        Q = np.array([[c, -s], [s, c]])
        T, M_plus, M_minus = spectral_split(Q @ np.diag([-1e6, -1e-4]) @ Q.T)
        assert M_plus.shape == (0, 0) and M_minus.shape == (2, 2)


class TestPlacePoles:
    def test_places_left_of_margin(self):
        A1 = np.array([[3.0, 1.0], [0.0, 1.0]])
        A2 = np.eye(2)
        L = place_poles(A1, A2, target_margin=0.5)
        eigs = np.linalg.eigvals(A1 - L @ A2)
        assert np.real(eigs).max() < -0.5 + 1e-9

    def test_wide_measurement(self):
        A1 = np.array([[0.0, 1.0], [2.0, 0.0]])
        A2 = np.array([[1.0, 0.0]])
        L = place_poles(A1, A2, target_margin=0.5)
        assert np.real(np.linalg.eigvals(A1 - L @ A2)).max() < -0.5 + 1e-9

    def test_undetectable_mode_refused(self):
        # The mode at 1 does not reach A2, so no gain moves it.
        with pytest.raises(SynthesisError):
            place_poles(np.diag([1.0, -3.0]), np.array([[0.0, 1.0]]), target_margin=0.5)
