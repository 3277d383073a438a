"""Pencil and system decompositions.

* quasi-Kronecker form of a rectangular pencil lambda*E - A, split into the
  underdetermined (epsilon), finite-dynamics (f), nilpotent (sigma) and
  overdetermined (eta) blocks;
* the observability-type staircase reduction of a triple (E, A, B);
* the Kalman controllability decomposition of (E, A, B, C).

The staircase is the one structural primitive: each stage is one pair of
orthogonal transforms, read from the SVDs that decide its ranks.  Three
staircases with no inputs build the quasi-Kronecker form, as in GUPTRI
(Demmel & Kagstrom, ACM TOMS 19, 1993), and further ones certify its
structure: whether a pencil keeps full column rank at every complex lambda,
and the nilpotency index h, as a stage count.  The Kalman decomposition is
built from bases adapted to Wong limits.  Both decompositions are certified
against their structural invariants after construction; on failure the
computation is retried once with a 10x relaxed rank tolerance before giving
up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .exceptions import DecompositionError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _svd_threshold,
    as_matrix,
    image,
    intersect,
    numeric_rank,
    subspace_sum,
)
from .wong import wong_limits


def _residual_scale(*mats) -> float:
    return max([1.0] + [float(np.linalg.norm(M)) for M in mats if M.size])


def _complement_within(inner: Subspace, outer: Subspace) -> np.ndarray:
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


def _adapted_bases(inner: Subspace, outer: Subspace) -> list[np.ndarray]:
    """Orthonormal bases adapted to inner <= outer: inner, outer beyond
    inner, then the orthogonal complement of outer."""
    return [inner.basis, _complement_within(inner, outer), outer.complement().basis]


def _pencil_image(E, A, cols: np.ndarray, tol: Tolerance, scale: float) -> Subspace:
    """E im(cols) + A im(cols), with rank decisions relative to `scale`."""
    span = lambda M: Subspace.from_span(M, E.shape[0], tol, scale=scale)
    return subspace_sum(span(E @ cols), span(A @ cols), tol)


# ---------------------------------------------------------------------------
# Quasi-Kronecker form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PencilQKF:
    """Transformation pair and blocks of P (lambda E - A) Q = blkdiag(...).

    ``qkf`` builds it in one pass: three orthogonal staircases bring the
    pencil to block upper triangular form with the QKF's diagonal blocks,
    block row and column operations remove the couplings above the diagonal,
    and the f and sigma rows are scaled to E_f = I and A_sigma = I.
    """

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
        return _split(self.P @ as_matrix(M, rows=self.P.shape[1]), self.row_sizes, 0)

    def split_right(self, M) -> list[np.ndarray]:
        """Column blocks of M @ Q in (eps, f, sigma, eta) order."""
        return _split(as_matrix(M, cols=self.Q.shape[0]) @ self.Q, self.col_sizes, 1)

    def eta_normalization(self) -> np.ndarray:
        """Row operation U with U @ E_eta = [I; 0], from one SVD of E_eta:
        its leading rows are E_eta's pseudo-inverse, its trailing rows an
        orthonormal basis of the left null space, which expose the
        overdetermined block's algebraic equations."""
        n = self.n_eta
        U = np.eye(self.m_eta)
        if n:
            u, s, vt = np.linalg.svd(self.E_eta, full_matrices=True)
            U[:n] = (vt.T / s) @ u[:, :n].T
            U[n:] = u[:, n:].T
        return U

    def blocks_E(self) -> np.ndarray:
        return _blkdiag(self.E_eps, np.eye(self.n_f), self.J_sigma, self.E_eta)

    def blocks_A(self) -> np.ndarray:
        return _blkdiag(self.A_eps, self.J_f, np.eye(self.n_sigma), self.A_eta)


def _offsets(sizes) -> list[int]:
    """Where each block of the given sizes starts, then the total size."""
    return [0, *accumulate(sizes)]


def _split(M: np.ndarray, sizes, axis: int) -> list[np.ndarray]:
    """Consecutive blocks of M of the given sizes along ``axis`` (0 or 1)."""
    o = _offsets(sizes)
    return [M[o[k]:o[k + 1]] if axis == 0 else M[:, o[k]:o[k + 1]]
            for k in range(len(sizes))]


def _blkdiag(*blocks) -> np.ndarray:
    ro = _offsets(b.shape[0] for b in blocks)
    co = _offsets(b.shape[1] for b in blocks)
    out = np.zeros((ro[-1], co[-1]))
    for k, b in enumerate(blocks):
        out[ro[k]:ro[k + 1], co[k]:co[k + 1]] = b
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


def _transposed_split(E: np.ndarray, A: np.ndarray, tol: Tolerance):
    """Orthogonal L and R with L (lambda E - A) R = [[elim, *], [0, kept]]
    from the staircase of E^T x' = A^T x, transposed back: ``kept`` is the
    part whose transpose carries solutions, ``elim`` the part the staircase
    eliminates.  Returns (L, R, rows of elim, columns of elim)."""
    st = observability_staircase(E.T, A.T, np.zeros((E.shape[1], 0)), tol)
    r, c = st.row_partition[0], st.col_partition[0]
    L = np.vstack([st.V_O.T[c:], st.V_O.T[:c]])
    R = np.hstack([st.U_O.T[:, r:], st.U_O.T[:, :r]])
    return L, R, E.shape[0] - c, E.shape[1] - r


def _qkf_once(E: np.ndarray, A: np.ndarray, tol: Tolerance) -> PencilQKF:
    """The QKF in one pass, certified.

    Three staircases give P (lambda E - A) Q = lambda TE - TA block upper
    triangular with P and Q orthogonal, rows and columns in (eps, f, sigma,
    eta) order: the pre-form, whose diagonal blocks (and so the finite
    spectrum) are already those of the QKF.  The staircase of E x' = A x
    keeps the eps and f columns, which carry its solutions, and eliminates
    sigma and eta; the staircases of the two transposed diagonal parts then
    split eps from f and sigma from eta.  The couplings above the diagonal
    are removed by block row and column operations, the f rows scaled to
    E_f = I and the sigma rows to A_sigma = I; then the nilpotency index is
    read off the staircase of J_sigma x' = x and the form certified.
    """
    m, n = E.shape
    st = observability_staircase(E, A, np.zeros((m, 0)), tol)
    m1, n1 = st.row_partition[0], st.col_partition[0]
    TE, TA = st.U_O @ E @ st.V_O, st.U_O @ A @ st.V_O
    L1, R1, m_eps, n_eps = _transposed_split(TE[:m1, :n1], TA[:m1, :n1], tol)
    L2, R2, m_sig, n_sig = _transposed_split(TE[m1:, n1:], TA[m1:, n1:], tol)
    # The order of the f coordinates is free; reversed, the worked example's
    # estimator comes out as tests/data/reference_estimator.json.
    L1[m_eps:], R1[:, n_eps:] = L1[m_eps:][::-1], R1[:, n_eps:][:, ::-1]
    row_sizes = [m_eps, m1 - m_eps, m_sig, m - m1 - m_sig]
    col_sizes = [n_eps, n1 - n_eps, n_sig, n - n1 - n_sig]
    # Square regular blocks must come out square.
    if row_sizes[1] != col_sizes[1] or row_sizes[2] != col_sizes[2]:
        raise DecompositionError(
            f"QKF: non-square regular blocks (rows {row_sizes}, cols {col_sizes})")
    P = _blkdiag(L1, L2) @ st.U_O
    Q = st.V_O @ _blkdiag(R1, R2)
    ro, co = _offsets(row_sizes), _offsets(col_sizes)
    R = [slice(ro[k], ro[k + 1]) for k in range(4)]
    C = [slice(co[k], co[k + 1]) for k in range(4)]

    TE, TA = P @ E @ Q, P @ A @ Q
    scale = _residual_scale(E, A)
    # Bottom row block first, left to right within a row, so that a zeroed
    # coupling is never touched again.
    for (i, j) in ((2, 3), (1, 2), (1, 3), (0, 1), (0, 2), (0, 3)):
        if row_sizes[i] * col_sizes[j] == 0:
            continue
        X, Y, resid = _solve_coupling(TE[R[i], C[i]], TA[R[i], C[i]], TE[R[j], C[j]],
                                      TA[R[j], C[j]], TE[R[i], C[j]], TA[R[i], C[j]])
        if resid > 1e-7 * scale:
            raise DecompositionError(
                f"QKF: coupling ({i},{j}) not removable (residual {resid:.2e})")
        for M in (P, TE, TA):
            M[R[i]] += X @ M[R[j]]
        for M in (Q, TE, TA):
            M[:, C[j]] += M[:, C[i]] @ Y

    # The staircases decided that E_f and A_sigma are invertible.
    for b, D in ((1, TE[R[1], C[1]]), (2, TA[R[2], C[2]])):
        if row_sizes[b]:
            D_inv = np.linalg.inv(D)
            for M in (P, TA, TE):
                M[R[b]] = D_inv @ M[R[b]]

    J_sigma = TE[R[2], C[2]]
    h = 0
    if n_sig:
        # J_sigma x' = x has only x = 0 exactly when J_sigma is nilpotent,
        # and each stage of the staircase removes one power of J_sigma.
        st = observability_staircase(J_sigma, np.eye(n_sig), np.zeros((n_sig, 0)), tol)
        if st.E_O.shape[1]:
            raise DecompositionError("QKF: sigma block is not nilpotent")
        h = st.k - 1

    form = PencilQKF(
        P=P, Q=Q, m_eps=m_eps, n_eps=n_eps, n_f=row_sizes[1], n_sigma=n_sig,
        m_eta=row_sizes[3], n_eta=col_sizes[3],
        E_eps=TE[R[0], C[0]], A_eps=TA[R[0], C[0]], J_f=TA[R[1], C[1]],
        J_sigma=J_sigma, E_eta=TE[R[3], C[3]], A_eta=TA[R[3], C[3]], h=h)
    certify_qkf(E, A, form, tol)
    return form


def certify_qkf(E, A, form: PencilQKF, tol: Tolerance = DEFAULT_TOL) -> None:
    """Check the PencilQKF invariants that its construction does not fix;
    raise DecompositionError otherwise.  P E Q and P A Q must equal the
    blocks; E_eps (E_eta) must have full row (column) rank, which bounds the
    block sizes, and the staircase must find that the epsilon (eta) pencil
    keeps that rank at every complex lambda."""
    scale = _residual_scale(E, A)
    for name, M, T in (("E", E, form.blocks_E()), ("A", A, form.blocks_A())):
        r = np.linalg.norm(form.P @ M @ form.Q - T)
        if r > 1e-7 * scale:
            raise DecompositionError(
                f"QKF certification: identity fails for {name} (residual {r:.2e})")
    if form.m_eps:
        if numeric_rank(form.E_eps, tol) < form.m_eps:
            raise DecompositionError("QKF certification: E_eps rank deficient")
        if not _full_column_rank_everywhere(form.E_eps.T, form.A_eps.T, tol):
            raise DecompositionError("QKF certification: epsilon pencil loses row rank")
    if form.n_eta:
        if numeric_rank(form.E_eta, tol) < form.n_eta:
            raise DecompositionError("QKF certification: E_eta rank deficient")
        if not _full_column_rank_everywhere(form.E_eta, form.A_eta, tol):
            raise DecompositionError("QKF certification: eta pencil loses column rank")


def qkf(E, A, tol: Tolerance = DEFAULT_TOL) -> PencilQKF:
    """Quasi-Kronecker form of the pencil lambda*E - A.

    Constructed in one pass (see ``PencilQKF``) from three staircases of the
    pencil; retried once with a relaxed rank tolerance when construction or
    certification fails at the requested one.
    """
    E = as_matrix(E)
    A = as_matrix(A, rows=E.shape[0], cols=E.shape[1])
    return _with_relaxed_retry("QKF", _qkf_once, E, A, tol=tol)


def _with_relaxed_retry(what: str, once, *args, tol: Tolerance):
    """once(*args, tol), retried once at tol.relaxed() on DecompositionError
    or on numpy's LinAlgError (an SVD that does not converge)."""
    failed = (DecompositionError, np.linalg.LinAlgError)

    def reason(exc):
        return str(exc) if isinstance(exc, DecompositionError) \
            else f"{type(exc).__name__}: {exc}"

    try:
        return once(*args, tol)
    except failed as first:
        relaxed = tol.relaxed()
        try:
            return once(*args, relaxed)
        except failed as second:
            raise DecompositionError(
                f"{what} failed at rank_rtol={tol.rank_rtol:g} ({reason(first)}) "
                f"and at relaxed rank_rtol={relaxed.rank_rtol:g} "
                f"({reason(second)})") from second


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

    def split_columns(self, M) -> list[np.ndarray]:
        """Conformal column partition of M @ V_O, e.g. C -> [C_O, C_{k-1}, ..., C_1]."""
        return _split(as_matrix(M, cols=self.V_O.shape[0]) @ self.V_O,
                      self.col_partition, 1)


def _rank_and_vh(M: np.ndarray, tol: Tolerance, scale: float) -> tuple[int, np.ndarray]:
    """Rank of M at ``kernel``'s threshold and the Vh of M's full SVD, whose
    leading rank rows span the row space of M and the rest its null space;
    (0, I) for an empty or zero M, as numpy gives, without calling LAPACK."""
    if not M.any():
        return 0, np.eye(M.shape[1])
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    return int(np.count_nonzero(s > _svd_threshold(s, M.shape, tol, scale))), vh


def observability_staircase(E, A, B, tol: Tolerance = DEFAULT_TOL) -> StaircaseDecomposition:
    """Staircase reduction isolating the algebraically-forced variables.

    Repeatedly: the left null space of [E_cur, B_cur], of dimension d,
    gives a left orthogonal transform that splits its rows into a
    full-row-rank part and d pure algebraic constraints 0 = A_i x; a right
    orthogonal transform compresses A_i to full column rank, eliminating the
    constrained variables.  Terminates when d = 0, that is when
    [E_cur, B_cur] has full row rank.
    """
    E = as_matrix(E)
    A = as_matrix(A, rows=E.shape[0], cols=E.shape[1])
    m, n = E.shape
    B = as_matrix(B, rows=m)

    U = np.eye(m)
    V = np.eye(n)
    TE, TA, TB = E.astype(float), A.astype(float), B.astype(float)
    mr, nc = m, n
    stages: list[tuple[int, int]] = []
    # Sub-blocks of the transformed system may be pure roundoff; rank
    # decisions must be relative to the size of the original data, with no
    # floor, so that they read the same at every scale of the data.
    scale = max(float(np.linalg.norm(M)) for M in (E, A, B))

    # Each stage removes at least one row, so m + 1 iterations always suffice.
    for _ in range(m + 1):
        # Rows of Ui: the row space of [E, B], then its left null space.
        q, Ui = _rank_and_vh(np.hstack([TE[:mr, :nc], TB[:mr, :]]).T, tol, scale)
        d = mr - q
        if d == 0:
            break
        TE[:mr, :] = Ui @ TE[:mr, :]
        TA[:mr, :] = Ui @ TA[:mr, :]
        TB[:mr, :] = Ui @ TB[:mr, :]
        U[:mr, :] = Ui @ U[:mr, :]

        # Columns of Vi: the null space of A_i, then its row space.
        c, Vh = _rank_and_vh(TA[q:mr, :nc], tol, scale)
        Vi = np.vstack([Vh[c:], Vh[:c]]).T
        TE[:, :nc] = TE[:, :nc] @ Vi
        TA[:, :nc] = TA[:, :nc] @ Vi
        V[:, :nc] = V[:, :nc] @ Vi
        stages.append((d, c))
        mr, nc = q, nc - c
    else:
        raise DecompositionError("staircase: did not terminate")

    row_partition = (mr,) + tuple(d for d, _ in reversed(stages))
    col_partition = (nc,) + tuple(c for _, c in reversed(stages))
    return StaircaseDecomposition(
        U_O=U, V_O=V, k=len(stages) + 1,
        row_partition=row_partition, col_partition=col_partition,
        E_O=TE[:mr, :nc].copy(), A_O=TA[:mr, :nc].copy(), B_O=TB[:mr, :].copy())


def _full_column_rank_everywhere(E, A, tol: Tolerance) -> bool:
    """Whether lambda E - A has full column rank at every complex lambda,
    that is whether E x' = A x has only the solution x = 0: the staircase
    with no inputs then eliminates every column."""
    return not observability_staircase(E, A, np.zeros((E.shape[0], 0)), tol).E_O.shape[1]


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


def _kalman_once(E, A, B, C, tol: Tolerance) -> KalmanDecomposition:
    lim = wong_limits(E, A, B, None, tol)
    V, W = lim.V_star, lim.W_star
    cols = _adapted_bases(intersect(V, W, tol), V)
    T = np.hstack(cols)

    scale = _residual_scale(E, A, B)
    M1 = subspace_sum(_pencil_image(E, A, cols[0], tol, scale), image(B, tol), tol)
    rows = _adapted_bases(M1, subspace_sum(M1, _pencil_image(E, A, cols[1], tol, scale), tol))
    S = np.hstack(rows).T

    sizes = tuple((r.shape[1], c.shape[1]) for r, c in zip(rows, cols))
    dec = KalmanDecomposition(
        S=S, T=T, sizes=sizes,
        E_blocks=S @ E @ T, A_blocks=S @ A @ T,
        B_blocks=S @ B, C_blocks=C @ T)
    certify_kalman(E, A, B, dec, tol)
    return dec


def certify_kalman(E, A, B, dec: KalmanDecomposition, tol: Tolerance) -> None:
    scale = _residual_scale(E, A, B)
    (m1, n1), (m2, n2), (_, n3) = dec.sizes
    rows, cols = (_offsets(sizes) for sizes in zip(*dec.sizes))
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
    if n3 and not _full_column_rank_everywhere(E33, A33, tol):
        raise DecompositionError("Kalman certification: trailing pencil loses column rank")
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
