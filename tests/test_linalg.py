import numpy as np
import pytest

from dsest import qkf
from dsest.linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    apply_map,
    contains,
    image,
    intersect,
    kernel,
    numeric_rank,
    pencil_finite_eigenvalues,
    place_poles,
    preimage,
    pseudo_inverse,
    spectral_split,
    subspace_sum,
    subspaces_equal,
)

from conftest import detectability_pencils, lifted_system, random_pencil

RNG = np.random.default_rng(20260826)


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

    def test_pseudo_inverse(self):
        M = RNG.standard_normal((4, 2))
        assert np.allclose(pseudo_inverse(M) @ M, np.eye(2), atol=1e-12)


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
        M = np.array([[2.0, 1.0, 0.0],
                      [0.0, -1.0, 0.5],
                      [0.0, 0.0, -3.0]])
        T, M_plus, M_minus = spectral_split(M)
        assert M_plus.shape == (1, 1) and M_minus.shape == (2, 2)
        assert np.real(np.linalg.eigvals(M_plus)).min() > 0
        assert np.real(np.linalg.eigvals(M_minus)).max() < 0
        rebuilt = T @ np.block([
            [M_plus, np.zeros((1, 2))],
            [np.zeros((2, 1)), M_minus]]) @ np.linalg.inv(T)
        assert np.abs(rebuilt - M).max() < 1e-9

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
        # The band is a few hundred ulps of the spectral radius 1e6, so
        # -1e-4 is decaying.
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
