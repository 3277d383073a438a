"""Pencil and system decompositions.

* quasi-Kronecker form of a rectangular pencil lambda*E - A, split into the
  underdetermined (epsilon), finite-dynamics (f), nilpotent (sigma) and
  overdetermined (eta) blocks;
* the observability-type staircase reduction of a triple (E, A, B);
* the Kalman controllability decomposition of (E, A, B, C).

All three are certified against their structural invariants after
construction; on failure the computation is retried once with a 10x relaxed
rank tolerance before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DecompositionError, DimensionMismatchError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    apply_map,
    as_matrix,
    contains,
    image,
    intersect,
    kernel,
    numeric_rank,
    subspace_sum,
)
from .wong import wong_limits

# Fixed generic sample points for polynomial-identity and normal-rank checks.
SAMPLE_LAMBDAS = (0.371, -1.298, 2.903, 0.447 + 0.911j)


def _residual_scale(*mats) -> float:
    return max([1.0] + [float(np.linalg.norm(M)) for M in mats if M.size])


def _complement_within(inner: Subspace, outer: Subspace,
                       tol: Tolerance) -> np.ndarray:
    """Orthonormal basis completing `inner` to `outer` (within outer).

    With orthonormal inputs the projected basis has singular values near 1
    (complement directions) or near 0 (inner directions), so a fixed 0.5
    cutoff separates them regardless of roundoff in a fully-projected-away
    matrix.
    """
    if inner.dim == 0:
        return outer.basis
    proj = outer.basis - inner.basis @ (inner.basis.T @ outer.basis)
    if proj.shape[1] == 0:
        return proj
    u, s, _ = np.linalg.svd(proj, full_matrices=False)
    keep = int(np.count_nonzero(s > 0.5))
    if not np.all((s > 0.9) | (s < 0.1)):
        raise DecompositionError(
            "subspace complement: ambiguous singular values "
            f"{np.array2string(s, precision=3)}")
    return u[:, :keep]


# ---------------------------------------------------------------------------
# Quasi-Kronecker form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PencilQKF:
    """Transformation pair and blocks of P (lambda E - A) Q = blkdiag(...)."""

    P: np.ndarray
    Q: np.ndarray
    m_eps: int
    n_eps: int
    n_f: int
    n_sigma: int
    m_eta: int
    n_eta: int
    E_eps: np.ndarray
    A_eps: np.ndarray
    J_f: np.ndarray
    J_sigma: np.ndarray
    E_eta: np.ndarray
    A_eta: np.ndarray
    h: int

    @property
    def row_sizes(self) -> tuple[int, int, int, int]:
        return (self.m_eps, self.n_f, self.n_sigma, self.m_eta)

    @property
    def col_sizes(self) -> tuple[int, int, int, int]:
        return (self.n_eps, self.n_f, self.n_sigma, self.n_eta)

    def split_left(self, M) -> list[np.ndarray]:
        """Row blocks of P @ M in (eps, f, sigma, eta) order."""
        PM = self.P @ as_matrix(M, rows=self.P.shape[1])
        out, r0 = [], 0
        for r in self.row_sizes:
            out.append(PM[r0:r0 + r, :])
            r0 += r
        return out

    def split_right(self, M) -> list[np.ndarray]:
        """Column blocks of M @ Q in (eps, f, sigma, eta) order."""
        MQ = as_matrix(M, cols=self.Q.shape[0]) @ self.Q
        out, c0 = [], 0
        for c in self.col_sizes:
            out.append(MQ[:, c0:c0 + c])
            c0 += c
        return out

    def blocks_E(self) -> np.ndarray:
        return _blkdiag(self.E_eps, np.eye(self.n_f), self.J_sigma, self.E_eta)

    def blocks_A(self) -> np.ndarray:
        return _blkdiag(self.A_eps, self.J_f, np.eye(self.n_sigma), self.A_eta)


def _blkdiag(*blocks) -> np.ndarray:
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def _solve_coupling(Eii, Aii, Ejj, Ajj, Eij, Aij):
    """Solve Eii Y + X Ejj = -Eij and Aii Y + X Ajj = -Aij for (X, Y).

    Least-squares on the vectorized system; the theory guarantees
    solvability for every block pair that occurs in the QKF, so a large
    residual signals a failed decomposition.
    """
    ri, ci = Eii.shape
    rj, cj = Ejj.shape
    nx, ny = ri * rj, ci * cj
    # Unknowns [vec(X); vec(Y)] in column-major order.
    rows = 2 * ri * cj
    Msys = np.zeros((rows, nx + ny))
    Msys[:ri * cj, :nx] = np.kron(Ejj.T, np.eye(ri))
    Msys[:ri * cj, nx:] = np.kron(np.eye(cj), Eii)
    Msys[ri * cj:, :nx] = np.kron(Ajj.T, np.eye(ri))
    Msys[ri * cj:, nx:] = np.kron(np.eye(cj), Aii)
    rhs = -np.concatenate([Eij.flatten(order="F"), Aij.flatten(order="F")])
    sol, *_ = np.linalg.lstsq(Msys, rhs, rcond=None)
    resid = np.linalg.norm(Msys @ sol - rhs)
    X = sol[:nx].reshape((ri, rj), order="F")
    Y = sol[nx:].reshape((ci, cj), order="F")
    return X, Y, resid


def _offsets(sizes):
    out = [0]
    for s in sizes:
        out.append(out[-1] + s)
    return out


@dataclass
class _TriangularForm:
    """P (lambda E - A) Q = lambda TE - TA, block upper triangular.

    Row and column blocks run (eps, f, sigma, eta).  The blocks below the
    diagonal and the (f, sigma), (sigma, f) blocks are zero up to roundoff;
    the couplings above the diagonal are what separates this pre-form from
    the QKF.  The diagonal blocks, and so the finite spectrum, are already
    those of the QKF.
    """

    P: np.ndarray
    Q: np.ndarray
    TE: np.ndarray
    TA: np.ndarray
    row_sizes: list[int]
    col_sizes: list[int]

    def blk(self, M, i, j) -> np.ndarray:
        ro, co = _offsets(self.row_sizes), _offsets(self.col_sizes)
        return M[ro[i]:ro[i + 1], co[j]:co[j + 1]]


def _structural_zero(i: int, j: int) -> bool:
    return i > j or (i, j) in ((1, 2), (2, 1))


def _triangular_form(E: np.ndarray, A: np.ndarray, tol: Tolerance) -> _TriangularForm:
    """The QKF pre-form from the Wong limits, with its structural zeros checked."""
    m, n = E.shape
    lim = wong_limits(E, A, None, None, tol)
    V, W = lim.V_star, lim.W_star
    R = intersect(V, W, tol)
    VW = subspace_sum(V, W, tol)

    C_eps = R.basis
    C_f = _complement_within(R, V, tol)
    C_sig = _complement_within(R, W, tol)
    C_eta = VW.complement().basis
    col_sizes = [C_eps.shape[1], C_f.shape[1], C_sig.shape[1], C_eta.shape[1]]
    Q = np.hstack([C_eps, C_f, C_sig, C_eta])
    if Q.shape != (n, n) or numeric_rank(Q, tol) < n:
        raise DecompositionError("QKF: column splitting is not a basis of R^n")

    data_scale = _residual_scale(E, A)
    span = lambda cols: Subspace.from_span(cols, m, tol, scale=data_scale)
    M1 = subspace_sum(span(E @ C_eps), span(A @ C_eps), tol)
    M2 = subspace_sum(M1, subspace_sum(span(E @ C_f), span(A @ C_f), tol), tol)
    M3 = subspace_sum(M1, subspace_sum(span(E @ C_sig), span(A @ C_sig), tol), tol)
    M23 = subspace_sum(M2, M3, tol)

    R_eps = M1.basis
    R_f = _complement_within(M1, M2, tol)
    R_sig = _complement_within(M1, M3, tol)
    R_eta = M23.complement().basis
    row_sizes = [R_eps.shape[1], R_f.shape[1], R_sig.shape[1], R_eta.shape[1]]
    Pl = np.hstack([R_eps, R_f, R_sig, R_eta])
    if Pl.shape != (m, m) or numeric_rank(Pl, tol) < m:
        raise DecompositionError("QKF: row splitting is not a basis of R^m")
    P = np.linalg.inv(Pl)

    # Square regular blocks must come out square.
    if row_sizes[1] != col_sizes[1] or row_sizes[2] != col_sizes[2]:
        raise DecompositionError(
            f"QKF: non-square regular blocks (rows {row_sizes}, cols {col_sizes})")

    tri = _TriangularForm(P=P, Q=Q, TE=P @ E @ Q, TA=P @ A @ Q,
                          row_sizes=row_sizes, col_sizes=col_sizes)
    for i in range(4):
        for j in range(4):
            if _structural_zero(i, j):
                r = max(np.linalg.norm(tri.blk(tri.TE, i, j)),
                        np.linalg.norm(tri.blk(tri.TA, i, j)))
                if r > 1e-7 * data_scale:
                    raise DecompositionError(
                        f"QKF: block ({i},{j}) not zero (residual {r:.2e})")
    return tri


def _remove_couplings(tri: _TriangularForm, scale: float) -> None:
    """Zero the couplings above the diagonal of `tri` in place, bottom row
    block first so that zeroed blocks are never touched again."""
    m, n = tri.P.shape[0], tri.Q.shape[0]
    ro, co = _offsets(tri.row_sizes), _offsets(tri.col_sizes)
    for (i, j) in ((2, 3), (1, 3), (0, 1), (0, 2), (0, 3)):
        if tri.row_sizes[i] * tri.col_sizes[j] == 0:
            continue
        TE, TA = tri.TE, tri.TA
        X, Y, resid = _solve_coupling(
            tri.blk(TE, i, i), tri.blk(TA, i, i), tri.blk(TE, j, j),
            tri.blk(TA, j, j), tri.blk(TE, i, j), tri.blk(TA, i, j))
        if resid > 1e-7 * scale:
            raise DecompositionError(
                f"QKF: coupling ({i},{j}) not removable (residual {resid:.2e})")
        Srow = np.eye(m)
        Srow[ro[i]:ro[i + 1], ro[j]:ro[j + 1]] = X
        Scol = np.eye(n)
        Scol[co[i]:co[i + 1], co[j]:co[j + 1]] = Y
        tri.P = Srow @ tri.P
        tri.Q = tri.Q @ Scol
        tri.TE = Srow @ TE @ Scol
        tri.TA = Srow @ TA @ Scol


def _normalized(tri: _TriangularForm, tol: Tolerance) -> PencilQKF:
    """Scale the f rows of `tri` to E_f = I and the sigma rows to A_sigma = I
    (in place), and return its diagonal blocks as a PencilQKF with the
    transformations of `tri`."""
    ro = _offsets(tri.row_sizes)
    n_f, n_sig = tri.row_sizes[1], tri.row_sizes[2]
    E_f = tri.blk(tri.TE, 1, 1)
    if n_f and numeric_rank(E_f, tol) < n_f:
        raise DecompositionError("QKF: finite block has singular E part")
    A_sig = tri.blk(tri.TA, 2, 2)
    if n_sig and numeric_rank(A_sig, tol) < n_sig:
        raise DecompositionError("QKF: nilpotent block has singular A part")
    for b, D in ((1, E_f), (2, A_sig)):
        if tri.row_sizes[b]:
            W = np.linalg.inv(D)
            for M in (tri.P, tri.TA, tri.TE):
                M[ro[b]:ro[b + 1], :] = W @ M[ro[b]:ro[b + 1], :]

    J_sigma = tri.blk(tri.TE, 2, 2)
    h = 0
    if n_sig:
        # Nilpotency shows as a drastic drop of ||J^k|| relative to the
        # previous power; an absolute bound in ||J||^k balloons for large
        # blocks and misdetects the index.
        power = np.eye(n_sig)
        for k in range(1, n_sig + 1):
            prev_norm = max(1.0, np.linalg.norm(power))
            power = power @ J_sigma
            if np.linalg.norm(power) <= 1e-8 * prev_norm:
                h = k
                break
        else:
            raise DecompositionError("QKF: sigma block is not nilpotent")

    blk = tri.blk
    return PencilQKF(
        P=tri.P, Q=tri.Q,
        m_eps=tri.row_sizes[0], n_eps=tri.col_sizes[0],
        n_f=n_f, n_sigma=n_sig,
        m_eta=tri.row_sizes[3], n_eta=tri.col_sizes[3],
        E_eps=blk(tri.TE, 0, 0), A_eps=blk(tri.TA, 0, 0),
        J_f=blk(tri.TA, 1, 1), J_sigma=J_sigma,
        E_eta=blk(tri.TE, 3, 3), A_eta=blk(tri.TA, 3, 3),
        h=h)


def _qkf_once(E: np.ndarray, A: np.ndarray, tol: Tolerance) -> PencilQKF:
    tri = _triangular_form(E, A, tol)
    _remove_couplings(tri, _residual_scale(E, A))
    form = _normalized(tri, tol)
    certify_qkf(E, A, form, tol)
    return form


def certify_qkf(E, A, form: PencilQKF, tol: Tolerance = DEFAULT_TOL) -> None:
    """Check every PencilQKF invariant; raise DecompositionError otherwise."""
    m, n = E.shape
    if (form.m_eps + form.n_f + form.n_sigma + form.m_eta != m
            or form.n_eps + form.n_f + form.n_sigma + form.n_eta != n):
        raise DecompositionError("QKF certification: block sizes do not sum up")
    scale = _residual_scale(E, A)
    TE, TA = form.blocks_E(), form.blocks_A()
    for lam in SAMPLE_LAMBDAS:
        r = np.linalg.norm(form.P @ (lam * E - A) @ form.Q - (lam * TE - TA))
        if r > 1e-7 * scale * max(1.0, abs(lam)):
            raise DecompositionError(
                f"QKF certification: identity fails at lambda={lam} (residual {r:.2e})")
    if form.m_eps > form.n_eps:
        raise DecompositionError("QKF certification: m_eps > n_eps")
    if form.m_eta < form.n_eta:
        raise DecompositionError("QKF certification: m_eta < n_eta")
    if form.m_eps:
        if numeric_rank(form.E_eps, tol) < form.m_eps:
            raise DecompositionError("QKF certification: E_eps rank deficient")
        for lam in SAMPLE_LAMBDAS:
            if numeric_rank(lam * form.E_eps - form.A_eps, tol) < form.m_eps:
                raise DecompositionError(
                    "QKF certification: epsilon pencil loses row rank")
    if form.n_eta:
        if numeric_rank(form.E_eta, tol) < form.n_eta:
            raise DecompositionError("QKF certification: E_eta rank deficient")
    if form.m_eta:
        for lam in SAMPLE_LAMBDAS:
            if numeric_rank(lam * form.E_eta - form.A_eta, tol) < form.n_eta:
                raise DecompositionError(
                    "QKF certification: eta pencil loses column rank")
    if form.n_sigma:
        prev = np.linalg.matrix_power(form.J_sigma, form.h - 1) \
            if form.h > 1 else np.eye(form.n_sigma)
        power = prev @ form.J_sigma
        if np.linalg.norm(power) > 1e-6 * max(1.0, np.linalg.norm(prev)):
            raise DecompositionError("QKF certification: J_sigma^h != 0")
        if form.h > 1 and np.linalg.norm(prev) <= 1e-10:
            raise DecompositionError("QKF certification: J_sigma^(h-1) == 0")
    elif form.h != 0:
        raise DecompositionError("QKF certification: h must be 0 when n_sigma = 0")


def qkf(E, A, tol: Tolerance = DEFAULT_TOL) -> PencilQKF:
    """Quasi-Kronecker form of the pencil lambda*E - A.

    Constructed from the Wong limits of the pencil; retried once with a
    relaxed rank tolerance when certification fails at the requested one.
    """
    E = as_matrix(E)
    A = as_matrix(A, rows=E.shape[0], cols=E.shape[1])
    return _with_relaxed_retry("QKF", _qkf_once, E, A, tol=tol)


def _with_relaxed_retry(what: str, once, *args, tol: Tolerance):
    """once(*args, tol), retried once at tol.relaxed() on DecompositionError."""
    try:
        return once(*args, tol)
    except DecompositionError as first:
        relaxed = tol.relaxed()
        try:
            return once(*args, relaxed)
        except DecompositionError as second:
            raise DecompositionError(
                f"{what} failed at rank_rtol={tol.rank_rtol:g} ({first}) and at "
                f"relaxed rank_rtol={relaxed.rank_rtol:g} ({second})") from second


# ---------------------------------------------------------------------------
# Observability-type staircase
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StaircaseDecomposition:
    """Orthogonal staircase reduction of (E, A, B).

    Row blocks of U_O E V_O run top-to-bottom as (reduced, stage k-1, ...,
    stage 1); column blocks of V_O left-to-right likewise.  The reduced
    triple (E_O, A_O, B_O) has [E_O, B_O] of full row rank, and every
    eliminated stage contributes a full-column-rank block A_i.
    """

    U_O: np.ndarray
    V_O: np.ndarray
    k: int
    row_partition: tuple[int, ...]   # (rows of E_O, d_{k-1}, ..., d_1)
    col_partition: tuple[int, ...]   # (cols of E_O, c_{k-1}, ..., c_1)
    E_O: np.ndarray
    A_O: np.ndarray
    B_O: np.ndarray
    stage_blocks: tuple[np.ndarray, ...] = field(repr=False)  # (A_1, ..., A_{k-1})

    def split_columns(self, M) -> list[np.ndarray]:
        """Conformal column partition of M @ V_O, e.g. C -> [C_O, C_{k-1}, ..., C_1]."""
        MV = as_matrix(M, cols=self.V_O.shape[0]) @ self.V_O
        out, c0 = [], 0
        for c in self.col_partition:
            out.append(MV[:, c0:c0 + c])
            c0 += c
        return out


def observability_staircase(E, A, B, tol: Tolerance = DEFAULT_TOL) -> StaircaseDecomposition:
    """Staircase reduction isolating the algebraically-forced variables.

    Repeatedly: a left orthogonal transform splits the rows of
    [E_cur, B_cur] into a full-row-rank part and pure algebraic constraints
    0 = A_i x; a right orthogonal transform compresses A_i to full column
    rank, eliminating the constrained variables.  Terminates when
    [E_cur, B_cur] has full row rank.
    """
    E = as_matrix(E)
    A = as_matrix(A, rows=E.shape[0], cols=E.shape[1])
    m, n = E.shape
    B = as_matrix(B, rows=m)

    U = np.eye(m)
    V = np.eye(n)
    TE, TA, TB = E.astype(float).copy(), A.astype(float).copy(), B.astype(float).copy()
    mr, nc = m, n
    stages: list[tuple[int, int, np.ndarray]] = []
    # Sub-blocks of the transformed system may be pure roundoff; rank
    # decisions must be relative to the size of the original data.
    scale = _residual_scale(E, A, B)

    # Each stage removes at least one row, so m + 1 iterations always suffice.
    for _ in range(m + 1):
        EB = np.hstack([TE[:mr, :nc], TB[:mr, :]])
        q = numeric_rank(EB, tol, scale=scale)
        d = mr - q
        if d == 0:
            break
        left_null = kernel(EB.T, tol, scale=scale)   # left null space of [E, B]
        if left_null.dim != d:
            raise DecompositionError("staircase: inconsistent left null space")
        Ui = np.vstack([left_null.complement().basis.T, left_null.basis.T])
        TE[:mr, :] = Ui @ TE[:mr, :]
        TA[:mr, :] = Ui @ TA[:mr, :]
        TB[:mr, :] = Ui @ TB[:mr, :]
        U[:mr, :] = Ui @ U[:mr, :]

        A_bot = TA[q:mr, :nc]
        ker_bot = kernel(A_bot, tol, scale=scale)
        c = nc - ker_bot.dim
        Vi = np.hstack([ker_bot.basis, ker_bot.complement().basis])
        TE[:, :nc] = TE[:, :nc] @ Vi
        TA[:, :nc] = TA[:, :nc] @ Vi
        V[:, :nc] = V[:, :nc] @ Vi
        stages.append((d, c, TA[q:mr, nc - c:nc].copy()))
        mr, nc = q, nc - c
    else:
        raise DecompositionError("staircase: did not terminate")

    row_partition = (mr,) + tuple(d for d, _, _ in reversed(stages))
    col_partition = (nc,) + tuple(c for _, c, _ in reversed(stages))
    return StaircaseDecomposition(
        U_O=U, V_O=V, k=len(stages) + 1,
        row_partition=row_partition, col_partition=col_partition,
        E_O=TE[:mr, :nc].copy(), A_O=TA[:mr, :nc].copy(), B_O=TB[:mr, :].copy(),
        stage_blocks=tuple(blk for _, _, blk in stages))


# ---------------------------------------------------------------------------
# Kalman controllability decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KalmanDecomposition:
    S: np.ndarray
    T: np.ndarray
    sizes: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    E_blocks: np.ndarray = field(repr=False)   # S E T
    A_blocks: np.ndarray = field(repr=False)   # S A T
    B_blocks: np.ndarray = field(repr=False)   # S B
    C_blocks: np.ndarray = field(repr=False)   # C T

    @property
    def controllable_part(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(E11, A11, B1, C1) of the completely controllable subsystem."""
        m1, n1 = self.sizes[0]
        return (self.E_blocks[:m1, :n1], self.A_blocks[:m1, :n1],
                self.B_blocks[:m1, :], self.C_blocks[:, :n1])

    def functional_part(self, K) -> np.ndarray:
        """K restricted to the controllable coordinates (K_11 = (K T)[:, :n1])."""
        n1 = self.sizes[0][1]
        return (as_matrix(K, cols=self.T.shape[0]) @ self.T)[:, :n1]


def _kalman_once(E, A, B, C, tol: Tolerance, limits=None) -> KalmanDecomposition:
    """One attempt at tol; ``limits`` is wong_limits(E, A, B, None, tol) when
    the caller already holds it."""
    m, n = E.shape
    lim = wong_limits(E, A, B, None, tol) if limits is None else limits
    V, W = lim.V_star, lim.W_star
    R = intersect(V, W, tol)

    T1 = R.basis
    T2 = _complement_within(R, V, tol)
    T3 = V.complement().basis
    T = np.hstack([T1, T2, T3])

    data_scale = _residual_scale(E, A, B)
    span = lambda cols: Subspace.from_span(cols, m, tol, scale=data_scale)
    M1 = subspace_sum(subspace_sum(span(E @ T1), span(A @ T1), tol),
                      image(B, tol), tol)
    M2 = subspace_sum(M1, subspace_sum(span(E @ T2), span(A @ T2), tol), tol)
    S1 = M1.basis
    S2 = _complement_within(M1, M2, tol)
    S3 = M2.complement().basis
    S = np.hstack([S1, S2, S3]).T

    sizes = ((S1.shape[1], T1.shape[1]),
             (S2.shape[1], T2.shape[1]),
             (S3.shape[1], T3.shape[1]))
    dec = KalmanDecomposition(
        S=S, T=T, sizes=sizes,
        E_blocks=S @ E @ T, A_blocks=S @ A @ T,
        B_blocks=S @ B, C_blocks=C @ T)
    certify_kalman(E, A, B, dec, tol)
    return dec


def certify_kalman(E, A, B, dec: KalmanDecomposition, tol: Tolerance) -> None:
    scale = _residual_scale(E, A, B)
    (m1, n1), (m2, n2), (m3, n3) = dec.sizes
    rows = [0, m1, m1 + m2, m1 + m2 + m3]
    cols = [0, n1, n1 + n2, n1 + n2 + n3]
    for M in (dec.E_blocks, dec.A_blocks):
        for i in range(1, 3):
            for j in range(i):
                r = np.linalg.norm(M[rows[i]:rows[i + 1], cols[j]:cols[j + 1]])
                if r > 1e-7 * scale:
                    raise DecompositionError(
                        f"Kalman certification: lower block ({i},{j}) nonzero")
    if np.linalg.norm(dec.B_blocks[rows[1]:, :]) > 1e-7 * scale:
        raise DecompositionError("Kalman certification: S B not of the form [B1;0;0]")
    if m2 != n2:
        raise DecompositionError("Kalman certification: middle block not square")
    E22 = dec.E_blocks[rows[1]:rows[2], cols[1]:cols[2]]
    if m2 and numeric_rank(E22, tol) < m2:
        raise DecompositionError("Kalman certification: E22 not invertible")
    E33 = dec.E_blocks[rows[2]:, cols[2]:]
    A33 = dec.A_blocks[rows[2]:, cols[2]:]
    for lam in SAMPLE_LAMBDAS:
        if n3 and numeric_rank(lam * E33 - A33, tol) < n3:
            raise DecompositionError(
                "Kalman certification: trailing pencil loses column rank")
    E11, A11, B1, _ = dec.controllable_part
    sub = wong_limits(E11, A11, B1, None, tol)
    ctrl = intersect(sub.V_star, sub.W_star, tol)
    if ctrl.dim != n1:
        raise DecompositionError(
            "Kalman certification: (1,1) block is not completely controllable")


def kalman_controllability(E, A, B, C, tol: Tolerance = DEFAULT_TOL) -> KalmanDecomposition:
    """Kalman-type controllability decomposition of (E, A, B, C)."""
    E = as_matrix(E)
    A = as_matrix(A, rows=E.shape[0], cols=E.shape[1])
    B = as_matrix(B, rows=E.shape[0])
    C = as_matrix(C, cols=E.shape[1])
    return _with_relaxed_retry("Kalman decomposition", _kalman_once, E, A, B, C, tol=tol)
