"""Tolerance-aware dense linear algebra: numeric rank, subspace algebra,
pencil spectra, spectral splitting, and pole placement.

Everything downstream (decompositions, property tests, synthesis) is built on
the primitives in this module.  All matrices are plain ``numpy.ndarray``
objects; subspaces carry an orthonormal basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DecompositionError, DimensionMismatchError, SynthesisError

# Threshold for subspace containment and for K vanishing on a subspace (per
# row, relative); bases are orthonormal, so residuals are scale-free.
SUBSPACE_ATOL = 1e-8

# Threshold (relative to the data scale) below which the residual of an x0
# consistency constraint is zero.
CONSISTENCY_ATOL = 1e-8


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used throughout the toolkit; all must be finite.

    rank_rtol: relative SVD threshold; a singular value counts towards the
        rank when it exceeds ``max(m, n) * sigma_max * rank_rtol``.
    synthesis_margin: required decay rate of placed estimator poles.
    """

    rank_rtol: float = 1e-10
    synthesis_margin: float = 0.5

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.rank_rtol <= 0:
            raise ValueError("rank_rtol must be positive")
        if self.synthesis_margin <= 0:
            raise ValueError("synthesis_margin must be positive")

    def relaxed(self) -> "Tolerance":
        """rank_rtol 10x looser.  Nothing in ``dsest`` calls it; it stays
        while the benchmark's tracer (``perfbench/tracer.py``) names it, and
        leaves with that tracer change (ROADMAP item 2)."""
        return Tolerance(self.rank_rtol * 10.0, self.synthesis_margin)


DEFAULT_TOL = Tolerance()


def as_matrix(a, rows: int | None = None, cols: int | None = None,
              name: str = "matrix") -> np.ndarray:
    """Validate and coerce ``a`` to a float (or complex) 2-D array; a float
    array comes back unchanged.

    Rejects NaN/Inf entries and, when given, enforces the expected shape;
    each message names the matrix.
    """
    m = np.asarray(a)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D {name}, got ndim={m.ndim}")
    if m.dtype.kind not in "fc":    # not inexact: coerce to float
        m = m.astype(float)
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} entries must be finite (no NaN/Inf)")
    want = (m.shape[0] if rows is None else rows, m.shape[1] if cols is None else cols)
    if m.shape != want:
        raise DimensionMismatchError(f"shape mismatch: {name} is {m.shape[0]}x"
                                     f"{m.shape[1]}, expected {want[0]}x{want[1]}")
    return m


def _float64(M: np.ndarray, name: str) -> np.ndarray:
    """A validated real matrix as float64 (``M`` itself when it is float64);
    a complex one is refused, naming it."""
    if M.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got complex entries")
    return M.astype(np.float64, copy=False)


def _snap_roundoff(M) -> np.ndarray:
    """Zero out entries below 1e-12 times the largest entry: pure roundoff.

    Products T (block form) T^+ of decomposition bases leave ~1e-16 entries
    where the exact result is zero; a coupling that small from a fast mode
    or a large output into a bounded state ruins long-horizon accuracy.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return M
    out = M.copy()
    out[np.abs(out) < 1e-12 * np.abs(M).max()] = 0.0
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


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A linear subspace of R^ambient_dim, stored as an orthonormal basis.

    Orthonormal means np.allclose(B^H B, I, rtol=1e-5, atol=1e-10), NaN
    failing.  The zero subspace has a basis with zero columns.  Instances
    are immutable; all operations return new subspaces.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, basis: np.ndarray, ambient_dim: int | None = None):
        basis = as_matrix(basis)
        if ambient_dim is None:
            ambient_dim = basis.shape[0]
        if basis.shape[0] != ambient_dim:
            raise DimensionMismatchError("basis rows do not match ambient_dim")
        self._set(basis, ambient_dim)

    def _set(self, basis: np.ndarray, ambient_dim: int) -> None:
        """Store ``basis`` after the orthonormality test, which a NaN or Inf
        entry also fails."""
        d = basis.shape[1]
        if d:   # dev = |B^H B - I|; max(dev) <= atol spares the exact test
            dev = (basis.conj().T if basis.dtype.kind == "c" else basis.T) @ basis
            dev.ravel()[::d + 1] -= 1.0
            dev = np.abs(dev)
            if not (dev.max() <= 1e-10 or (dev <= 1e-10 + 1e-5 * np.eye(d)).all()):
                raise ValueError("basis columns must be orthonormal")
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "basis", basis)

    @classmethod
    def _from_factor(cls, basis: np.ndarray, ambient_dim: int) -> "Subspace":
        """A subspace whose basis is columns of an SVD factor (or ``zeros`` /
        ``eye``): an inexact 2-D array with ``ambient_dim`` rows, which
        ``__init__`` would only re-check."""
        space = cls.__new__(cls)
        space._set(basis, ambient_dim)
        return space

    def __setattr__(self, *args):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._from_factor(np.zeros((ambient_dim, 0)), ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._from_factor(np.eye(ambient_dim), ambient_dim)

    @classmethod
    def from_span(cls, cols, ambient_dim: int | None = None,
                  tol: Tolerance = DEFAULT_TOL, scale: float = 0.0) -> "Subspace":
        """Orthonormalize an arbitrary (possibly rank-deficient) spanning set.

        See numeric_rank for the meaning of `scale`.
        """
        cols = as_matrix(cols)
        if ambient_dim is None:
            ambient_dim = cols.shape[0]
        if cols.shape[0] != ambient_dim:
            raise DimensionMismatchError("basis rows do not match ambient_dim")
        if cols.shape[1] == 0 or cols.shape[0] == 0:
            return cls.zero(ambient_dim)
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        r = int(np.count_nonzero(s > _svd_threshold(s, cols.shape, tol, scale)))
        return cls._from_factor(u[:, :r], ambient_dim)

    def complement(self) -> "Subspace":
        """Orthogonal complement in the ambient space."""
        if self.dim == 0:
            return Subspace.full(self.ambient_dim)
        u, _, _ = np.linalg.svd(self.basis, full_matrices=True)
        return Subspace._from_factor(u[:, self.dim:], self.ambient_dim)

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
    return Subspace._from_factor(vh[r:, :].conj().T, n)


def image(M, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Column space of M as a Subspace of R^rows."""
    return Subspace.from_span(M, tol=tol)


def subspace_sum(s1: Subspace, s2: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatchError("subspace sum: ambient dimensions differ")
    if s1.dim == 0 or s2.dim == 0:     # S + {0} = S, basis and all
        return s2 if s1.dim == 0 else s1
    return Subspace.from_span(np.hstack([s1.basis, s2.basis]), s1.ambient_dim, tol)


def intersect(s1: Subspace, s2: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Intersection via the null space of the stacked bases."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatchError("intersect: ambient dimensions differ")
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.zero(s1.ambient_dim)
    if s1.dim == s1.ambient_dim or s2.dim == s2.ambient_dim:    # S ∩ R^n = S
        return s2 if s1.dim == s1.ambient_dim else s1
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
    return _preimage(M, s, tol, _scale(M))


def _scale(M: np.ndarray) -> float:
    """max |M_ij|, 0 for an empty M: the kernel threshold floor of
    ``_preimage`` and ``_apply_map``."""
    return float(np.abs(M).max(initial=0.0))


def _preimage(M: np.ndarray, s: Subspace, tol: Tolerance, scale: float) -> Subspace:
    """``preimage`` of a validated M whose rows match S, with scale
    ``_scale(M)``."""
    if s.dim == s.ambient_dim:
        return Subspace.full(M.shape[1])
    Z = s.complement().basis.conj().T
    # Z is orthonormal, so the natural magnitude of Z @ M is that of M; a
    # purely relative kernel threshold would count roundoff rows (which occur
    # when im M is nearly contained in S) as nonzero.
    return kernel(Z @ M, tol, scale=scale)


def contains(s_big: Subspace, s_small: Subspace) -> bool:
    """True when every basis vector of s_small lies in s_big (within
    SUBSPACE_ATOL)."""
    if s_big.ambient_dim != s_small.ambient_dim:
        raise DimensionMismatchError("contains: ambient dimensions differ")
    if s_small.dim == 0:
        return True
    if s_big.dim == 0:
        return bool(np.linalg.norm(s_small.basis) <= SUBSPACE_ATOL)
    resid = s_small.basis - s_big.basis @ (s_big.basis.conj().T @ s_small.basis)
    return bool(np.linalg.norm(resid, axis=0).max() <= SUBSPACE_ATOL)


def _apply_map(M: np.ndarray, s: Subspace, tol: Tolerance, scale: float) -> Subspace:
    """Image M(S) of a subspace under a validated M whose columns match S,
    with scale ``_scale(M)``."""
    # The basis is orthonormal, so columns of M @ basis smaller than roundoff
    # relative to |M| are images of (near-)kernel directions and must not
    # count as extra dimensions.
    return Subspace.from_span(M @ s.basis, M.shape[0], tol, scale=scale)


# ---------------------------------------------------------------------------
# Pencil spectra, spectral splitting, pole placement
# ---------------------------------------------------------------------------

def pencil_finite_eigenvalues(E, A, tol: Tolerance = DEFAULT_TOL) -> list[complex]:
    """Finite generalized eigenvalues of the (possibly rectangular) pencil
    lambda*E - A: the spectrum of J_f in its quasi-Kronecker form."""
    from .decomp import qkf  # local import: decomp builds on this module

    return [complex(v) for v in np.linalg.eigvals(qkf(E, A, tol).J_f)]


def spectral_split(M):
    """Ordered real Schur split Z^T M Z = [[M11, *], [0, M22]], Z orthogonal.

    The real Schur form of M decides the split: M11 collects the diagonal
    blocks with Re lambda >= -512 eps max(1, |M|_F) (non-decaying, or within
    the Schur form's roundoff of the imaginary axis), M22 the strictly
    decaying rest.  With k the order of M11, Z[:, :k] spans the non-decaying
    invariant subspace of M, and the trailing coordinates Z[:, k:]^T x of
    x' = M x evolve on their own under M22.  Returns (Z, M11, M22), or
    raises DecompositionError when LAPACK's reordering fails.
    """
    # Imported here, not at module load, where it is most of the time of
    # `import dsest`: every analysis splits a spectrum, simulation never does.
    import scipy.linalg
    M = as_matrix(M)
    n = M.shape[0]
    if M.shape[1] != n:
        raise DimensionMismatchError("spectral_split requires a square matrix")
    if n == 0:
        return np.eye(0), np.zeros((0, 0)), np.zeros((0, 0))

    # The band is a multiple of the ordered Schur form's backward error,
    # which scales with |M| (Bai & Demmel, Linear Algebra Appl. 186, 1993).
    band = -512 * np.finfo(float).eps * max(1.0, float(np.linalg.norm(M)))
    try:
        T, Z, k = scipy.linalg.schur(M, output="real", check_finite=False,
                                     sort=lambda x, y=None: np.real(x) >= band)
    except np.linalg.LinAlgError as exc:   # the reordering lost its sort to roundoff
        raise DecompositionError(
            f"spectral split of a {n} x {n} matrix with |M|_F = "
            f"{np.linalg.norm(M):.3e} failed ({exc})") from exc
    if k == 0:
        return np.eye(n), np.zeros((0, 0)), M.copy()
    if k == n:
        return np.eye(n), M.copy(), np.zeros((0, 0))
    return Z, T[:k, :k], T[k:, k:]


def place_poles(A1, A2, target_margin: float) -> np.ndarray:
    """Gain L with all eigenvalues of A1 - L @ A2 left of -target_margin.

    Solved by a stabilizing Riccati construction on the shifted dual pair;
    refuses (``SynthesisError``) when the Riccati solve or its postcondition
    fails.
    """
    A1 = as_matrix(A1)
    A2 = as_matrix(A2)
    s = A1.shape[0]
    if A1.shape[1] != s:
        raise DimensionMismatchError("A1 must be square")
    q = A2.shape[0]
    if A2.shape[1] != s:
        raise DimensionMismatchError("A2 must have as many columns as A1")
    if s == 0 or np.all(np.linalg.eigvals(A1).real < -target_margin):
        return np.zeros((s, q))

    import scipy.linalg  # not at module load; see spectral_split
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
