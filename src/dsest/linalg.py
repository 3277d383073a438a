"""Tolerance-aware dense linear algebra: numeric rank, subspace algebra,
pencil spectra, spectral splitting, and pole placement.

Everything downstream (decompositions, property tests, synthesis) is built on
the primitives in this module.  All matrices are plain ``numpy.ndarray``
objects; subspaces carry an orthonormal basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import (
    DimensionMismatchError,
    IllConditionedSplitError,
    SynthesisError,
)

# Absolute residual threshold for subspace membership / containment checks.
# Bases are orthonormal, so residuals are scale-free.
SUBSPACE_ATOL = 1e-8

# Threshold (relative to the data scale) below which a consistency residual
# (x0 constraints; the synthesis blocks K_eps, K_f1, K_sigma J_sigma) is zero.
CONSISTENCY_ATOL = 1e-8


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used throughout the toolkit.

    rank_rtol: relative SVD threshold; a singular value counts towards the
        rank when it exceeds ``max(m, n) * sigma_max * rank_rtol``.
    eig_stability_margin: half-plane boundary for "unstable" classification,
        i.e. an eigenvalue is treated as non-decaying when Re >= -margin.
    synthesis_margin: required decay rate of placed estimator poles.
    """

    rank_rtol: float = 1e-10
    eig_stability_margin: float = 0.0
    synthesis_margin: float = 0.5

    def __post_init__(self):
        if self.rank_rtol <= 0:
            raise ValueError("rank_rtol must be positive")
        if self.eig_stability_margin < 0:
            raise ValueError("eig_stability_margin must be >= 0")
        if self.synthesis_margin <= 0:
            raise ValueError("synthesis_margin must be positive")

    def relaxed(self, factor: float = 10.0) -> "Tolerance":
        return Tolerance(self.rank_rtol * factor, self.eig_stability_margin,
                         self.synthesis_margin)


DEFAULT_TOL = Tolerance()


def as_matrix(a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate and coerce ``a`` to a float (or complex) 2-D array.

    Rejects NaN/Inf entries and, when given, enforces the expected shape.
    """
    m = np.asarray(a)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.issubdtype(m.dtype, np.inexact):
        m = m.astype(float)
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    if rows is not None and m.shape[0] != rows:
        raise DimensionMismatchError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionMismatchError(f"expected {cols} cols, got {m.shape[1]}")
    return m


def _snap_roundoff(M, rel: float = 1e-12) -> np.ndarray:
    """Zero out entries at pure-roundoff level relative to the largest entry.

    Products T (block form) T^+ of decomposition bases leave ~1e-16 entries
    where the exact result is zero; a coupling that small from a fast mode
    or a large output into a bounded state ruins long-horizon accuracy.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return M
    out = M.copy()
    out[np.abs(out) < rel * np.abs(M).max()] = 0.0
    return out


def _svd_threshold(s: np.ndarray, shape: tuple[int, int], tol: Tolerance,
                   scale: float = 0.0) -> float:
    if s.size == 0:
        return 0.0
    return max(shape) * max(s[0], scale) * tol.rank_rtol


def numeric_rank(M, tol: Tolerance = DEFAULT_TOL, scale: float = 0.0) -> int:
    """Number of singular values above the scaled threshold; 0 for empty/zero.

    `scale` sets a floor for the reference magnitude.  It must be supplied
    when M is a sub-block of a larger computation and may consist entirely of
    roundoff noise; a purely relative threshold would count that noise as
    full rank.
    """
    M = as_matrix(M)
    if min(M.shape) == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > _svd_threshold(s, M.shape, tol, scale)))


def pseudo_inverse(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse via SVD with the shared rank tolerance."""
    M = as_matrix(M)
    if min(M.shape) == 0:
        return np.zeros((M.shape[1], M.shape[0]))
    u, s, vh = np.linalg.svd(M, full_matrices=False)
    thr = _svd_threshold(s, M.shape, tol)
    inv = np.where(s > thr, 1.0 / np.where(s > thr, s, 1.0), 0.0)
    return (vh.conj().T * inv) @ u.conj().T


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A linear subspace of R^ambient_dim, stored as an orthonormal basis.

    The zero subspace has a basis with zero columns.  Instances are
    immutable; all operations return new subspaces.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, basis: np.ndarray, ambient_dim: int | None = None):
        basis = as_matrix(basis)
        if ambient_dim is None:
            ambient_dim = basis.shape[0]
        if basis.shape[0] != ambient_dim:
            raise DimensionMismatchError("basis rows do not match ambient_dim")
        d = basis.shape[1]
        if d and not np.allclose(basis.conj().T @ basis, np.eye(d), atol=1e-10):
            raise ValueError("basis columns must be orthonormal")
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *args):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0)), ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(np.eye(ambient_dim), ambient_dim)

    @classmethod
    def from_span(cls, cols, ambient_dim: int | None = None,
                  tol: Tolerance = DEFAULT_TOL, scale: float = 0.0) -> "Subspace":
        """Orthonormalize an arbitrary (possibly rank-deficient) spanning set.

        See numeric_rank for the meaning of `scale`.
        """
        cols = as_matrix(cols)
        if ambient_dim is None:
            ambient_dim = cols.shape[0]
        if cols.shape[1] == 0 or cols.shape[0] == 0:
            return cls(np.zeros((ambient_dim, 0)), ambient_dim)
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        r = int(np.count_nonzero(s > _svd_threshold(s, cols.shape, tol, scale)))
        return cls(u[:, :r], ambient_dim)

    def complement(self) -> "Subspace":
        """Orthogonal complement in the ambient space."""
        if self.dim == 0:
            return Subspace.full(self.ambient_dim)
        u, _, _ = np.linalg.svd(self.basis, full_matrices=True)
        return Subspace(u[:, self.dim:], self.ambient_dim)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def kernel(M, tol: Tolerance = DEFAULT_TOL, scale: float = 0.0) -> Subspace:
    """Null space of M as a Subspace of R^cols.

    See numeric_rank for the meaning of `scale`.
    """
    M = as_matrix(M)
    m, n = M.shape
    if m == 0 or n == 0:
        return Subspace.full(n) if n else Subspace.zero(0)
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    r = int(np.count_nonzero(s > _svd_threshold(s, M.shape, tol, scale)))
    return Subspace(vh[r:, :].conj().T, n)


def image(M, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Column space of M as a Subspace of R^rows."""
    M = as_matrix(M)
    return Subspace.from_span(M, M.shape[0], tol)


def subspace_sum(s1: Subspace, s2: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatchError("subspace sum: ambient dimensions differ")
    return Subspace.from_span(np.hstack([s1.basis, s2.basis]), s1.ambient_dim, tol)


def intersect(s1: Subspace, s2: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Intersection via the null space of the stacked bases."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatchError("intersect: ambient dimensions differ")
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.zero(s1.ambient_dim)
    null = kernel(np.hstack([s1.basis, -s2.basis]), tol)
    if null.dim == 0:
        return Subspace.zero(s1.ambient_dim)
    return Subspace.from_span(s1.basis @ null.basis[:s1.dim, :], s1.ambient_dim, tol)


def preimage(M, s: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Preimage M^{-1}(S) = { v : M v in S }, a subspace of the column space.

    Computed as ker(Z M) for any Z with ker Z = S; we use the orthogonal
    complement basis of S transposed.
    """
    M = as_matrix(M)
    if M.shape[0] != s.ambient_dim:
        raise DimensionMismatchError("preimage: S must live in the row space of M")
    if s.dim == s.ambient_dim:
        return Subspace.full(M.shape[1])
    Z = s.complement().basis.conj().T
    # Z is orthonormal, so the natural magnitude of Z @ M is that of M; a
    # purely relative kernel threshold would count roundoff rows (which occur
    # when im M is nearly contained in S) as nonzero.
    return kernel(Z @ M, tol, scale=float(np.abs(M).max(initial=0.0)))


def contains(s_big: Subspace, s_small: Subspace, atol: float = SUBSPACE_ATOL) -> bool:
    """True when every basis vector of s_small lies in s_big (within atol)."""
    if s_big.ambient_dim != s_small.ambient_dim:
        raise DimensionMismatchError("contains: ambient dimensions differ")
    if s_small.dim == 0:
        return True
    if s_big.dim == 0:
        return bool(np.linalg.norm(s_small.basis) <= atol)
    resid = s_small.basis - s_big.basis @ (s_big.basis.conj().T @ s_small.basis)
    return bool(np.linalg.norm(resid, axis=0).max() <= atol)


def subspaces_equal(s1: Subspace, s2: Subspace, atol: float = SUBSPACE_ATOL) -> bool:
    return contains(s1, s2, atol) and contains(s2, s1, atol)


def apply_map(M, s: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Image M(S) of a subspace under a linear map."""
    M = as_matrix(M)
    if M.shape[1] != s.ambient_dim:
        raise DimensionMismatchError("apply_map: dimension mismatch")
    # The basis is orthonormal, so columns of M @ basis smaller than roundoff
    # relative to |M| are images of (near-)kernel directions and must not
    # count as extra dimensions.
    return Subspace.from_span(M @ s.basis, M.shape[0], tol,
                              scale=float(np.abs(M).max(initial=0.0)))


# ---------------------------------------------------------------------------
# Pencil spectra, spectral splitting, pole placement
# ---------------------------------------------------------------------------

def pencil_finite_eigenvalues(E, A, tol: Tolerance = DEFAULT_TOL) -> list[complex]:
    """Finite generalized eigenvalues of the (possibly rectangular) pencil
    lambda*E - A: the spectrum of J_f in its quasi-Kronecker form."""
    from .decomp import qkf  # local import: decomp builds on this module

    return [complex(v) for v in np.linalg.eigvals(qkf(E, A, tol).J_f)]


def _non_decaying(re, tol: Tolerance, radius: float):
    """Re lambda >= -eig_stability_margin - 512 eps max(1, radius): real parts
    ``re`` from a spectrum of spectral radius ``radius`` that lie within
    roundoff of the boundary count as non-decaying (spectral_split's rule).
    """
    return re >= -tol.eig_stability_margin - 512 * np.finfo(float).eps * max(1.0, radius)


def spectral_split(M, tol: Tolerance = DEFAULT_TOL):
    """Similarity T with T^{-1} M T = blkdiag(M_plus, M_minus).

    M_plus collects the non-decaying eigenvalues (_non_decaying with the
    spectral radius of M: Re >= -eig_stability_margin, or within roundoff of
    it), M_minus the strictly decaying rest.  Raises IllConditionedSplitError
    when the ordered Schur form selects a different cluster than that
    classification.
    """
    M = as_matrix(M)
    n = M.shape[0]
    if M.shape[1] != n:
        raise DimensionMismatchError("spectral_split requires a square matrix")
    if n == 0:
        return np.eye(0), np.zeros((0, 0)), np.zeros((0, 0))

    eigs = np.linalg.eigvals(M)
    radius = float(np.max(np.abs(eigs)))
    n_plus = int(np.count_nonzero(_non_decaying(eigs.real, tol, radius)))
    if n_plus == 0:
        return np.eye(n), np.zeros((0, 0)), M.copy()
    if n_plus == n:
        return np.eye(n), M.copy(), np.zeros((0, 0))

    T_schur, Z, sdim = scipy.linalg.schur(
        M, output="real", sort=lambda x, y=None: _non_decaying(np.real(x), tol, radius))
    if sdim != n_plus:
        raise IllConditionedSplitError(
            "ordered Schur selected a different cluster size than the "
            "eigenvalue classification; split is ill-conditioned")
    M11 = T_schur[:sdim, :sdim]
    M12 = T_schur[:sdim, sdim:]
    M22 = T_schur[sdim:, sdim:]
    # Sylvester block-diagonalization: M11 X - X M22 = -M12.
    X = scipy.linalg.solve_sylvester(M11, -M22, -M12)
    S = np.eye(n)
    S[:sdim, sdim:] = X
    return Z @ S, M11, M22


def place_poles(A1, A2, target_margin: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Gain L with all eigenvalues of A1 - L @ A2 left of -target_margin.

    Requires the detectability-type condition rank [lambda I - A1; A2] = s
    for every eigenvalue lambda of A1 with Re(lambda) >= -target_margin.
    Solved by a stabilizing Riccati construction on the shifted dual pair.
    """
    A1 = as_matrix(A1)
    A2 = as_matrix(A2)
    s = A1.shape[0]
    if A1.shape[1] != s:
        raise DimensionMismatchError("A1 must be square")
    q = A2.shape[0]
    if A2.shape[1] != s:
        raise DimensionMismatchError("A2 must have as many columns as A1")
    if s == 0:
        return np.zeros((0, q))

    eigs = np.linalg.eigvals(A1)
    slack = eigs[eigs.real >= -target_margin]
    for lam in slack:
        test = np.vstack([lam * np.eye(s) - A1, A2])
        if numeric_rank(test, tol) < s:
            raise SynthesisError(
                f"pole placement precondition violated: mode lambda={lam} with "
                f"Re >= {-target_margin} is not detectable from A2")
    if slack.size == 0:
        return np.zeros((s, q))

    A_shift = A1 + target_margin * np.eye(s)
    try:
        X = scipy.linalg.solve_continuous_are(
            A_shift.T, A2.T, np.eye(s), np.eye(q))
    except Exception as exc:  # scipy raises LinAlgError or ValueError
        raise SynthesisError(f"stabilizing Riccati solve failed: {exc}") from exc
    L = X @ A2.T

    closed = np.linalg.eigvals(A1 - L @ A2)
    if not np.all(closed.real < -target_margin + 1e-12):
        raise SynthesisError(
            f"pole placement postcondition failed: spectrum {closed}")
    return L
