"""Property analysis for rectangular descriptor systems.

Decides, for a system E x' = A x + B u, y = C x + D u, z = K x:

* partial impulse observability of z with respect to the measurement;
* partial detectability (rank test over the closed right half-plane);
* partial causality (z expressible without input derivatives);
* partial causal detectability, the existence criterion for an ODE
  functional estimator, together with a five-way cross-check of the
  equivalent characterizations.

All tests are algebraic rank / subspace-inclusion computations on
block-Toeplitz matrices built from the system data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatchError
from .decomp import _kalman_once, _with_relaxed_retry
from .linalg import (
    DEFAULT_TOL,
    SUBSPACE_ATOL,
    Subspace,
    Tolerance,
    _non_decaying,
    as_matrix,
    image,
    intersect,
    kernel,
    numeric_rank,
    pencil_finite_eigenvalues,
    preimage,
)
from .wong import wong_limits

# Fixed generic sample points (right half-plane) for normal-rank decisions.
GENERIC_LAMBDAS = (0.537, 1.931, 0.271 + 1.413j, 2.089 - 0.667j, 0.913 + 0.377j)


@dataclass(frozen=True)
class DescriptorSystem:
    """System data E x' = A x + B u, y = C x + D u, z = K x."""

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        E = as_matrix(self.E)
        m, n = E.shape
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "A", as_matrix(self.A, rows=m, cols=n))
        B = as_matrix(self.B, rows=m)
        object.__setattr__(self, "B", B)
        C = as_matrix(self.C, cols=n)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", as_matrix(self.D, rows=C.shape[0],
                                                cols=B.shape[1]))
        K = as_matrix(self.K, cols=n)
        object.__setattr__(self, "K", K)
        if K.shape[0] > n:
            raise DimensionMismatchError(
                f"functional dimension r={K.shape[0]} exceeds state dimension n={n}")

    @property
    def m(self) -> int:
        return self.E.shape[0]

    @property
    def n(self) -> int:
        return self.E.shape[1]

    @property
    def l(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def r(self) -> int:
        return self.K.shape[0]

    @classmethod
    def from_matrices(cls, E, A, B, C, K, D=None) -> "DescriptorSystem":
        E = as_matrix(E)
        B = as_matrix(B, rows=E.shape[0])
        C = as_matrix(C, cols=E.shape[1])
        if D is None:
            D = np.zeros((C.shape[0], B.shape[1]))
        return cls(E=E, A=A, B=B, C=C, D=D, K=K)


def _toeplitz_F(E: np.ndarray, A: np.ndarray, k: int) -> np.ndarray:
    """k x k block-bidiagonal Toeplitz matrix: E on the diagonal, A above it."""
    m, n = E.shape
    out = np.zeros((k * m, k * n))
    for i in range(k):
        out[i * m:(i + 1) * m, i * n:(i + 1) * n] = E
        if i + 1 < k:
            out[i * m:(i + 1) * m, (i + 1) * n:(i + 2) * n] = A
    return out


def build_F(E, A, k: int):
    """Block-Toeplitz matrix with k+1 diagonal E blocks and k superdiagonal A blocks."""
    E = as_matrix(E)
    A = as_matrix(A, rows=E.shape[0], cols=E.shape[1])
    if k < 1:
        raise ValueError("depth k must be >= 1")
    return _toeplitz_F(E, A, k + 1)


def build_F_K(E, A, K, k: int):
    """build_F with a trailing row block [0, K, 0, ..., 0] (K under the
    second block column)."""
    F = build_F(E, A, k)
    n = F.shape[1] // (k + 1)
    K = as_matrix(K, cols=n)
    row = np.zeros((K.shape[0], F.shape[1]))
    row[:, n:2 * n] = K
    return np.vstack([F, row])


@dataclass(frozen=True)
class StackedSystem:
    """Derived block matrices used by the causal-detectability rank tests.

    E_bar/A_bar/B_bar stack the output equation into the dynamics; the
    remaining members are the corner-block matrices appearing next to the
    Toeplitz matrices in the rank criteria.
    """

    sys: DescriptorSystem
    E_bar: np.ndarray = field(init=False)
    A_bar: np.ndarray = field(init=False)
    B_bar: np.ndarray = field(init=False)
    script_E: np.ndarray = field(init=False)
    script_A: np.ndarray = field(init=False)
    corner_A: np.ndarray = field(init=False)     # A in the lowest-left block
    corner_A1: np.ndarray = field(init=False)    # [0; ...; 0; A]
    wide_C: np.ndarray = field(init=False)       # [C, 0, ..., 0]
    wide_K: np.ndarray = field(init=False)       # [K, 0, ..., 0]

    def __post_init__(self):
        s = self.sys
        m, n, l, p = s.m, s.n, s.l, s.p
        object.__setattr__(self, "E_bar", np.vstack([s.E, np.zeros((p, n))]))
        object.__setattr__(self, "A_bar", np.vstack([s.A, s.C]))
        object.__setattr__(self, "B_bar", np.block(
            [[s.B, np.zeros((m, p))], [s.D, -np.eye(p)]]))
        object.__setattr__(self, "script_E", np.hstack([s.E, np.zeros((m, l))]))
        object.__setattr__(self, "script_A", np.hstack([s.A, s.B]))
        cA = np.zeros((n * m, n * n))
        cA[(n - 1) * m:, :n] = s.A
        object.__setattr__(self, "corner_A", cA)
        cA1 = np.zeros((n * m, n))
        cA1[(n - 1) * m:, :] = s.A
        object.__setattr__(self, "corner_A1", cA1)
        wC = np.zeros((p, n * n))
        wC[:, :n] = s.C
        object.__setattr__(self, "wide_C", wC)
        wK = np.zeros((s.r, n * n))
        wK[:, :n] = s.K
        object.__setattr__(self, "wide_K", wK)

    def F_script(self) -> np.ndarray:
        return _toeplitz_F(self.script_E, self.script_A, self.sys.n)

    def F_plain(self) -> np.ndarray:
        return _toeplitz_F(self.sys.E, self.sys.A, self.sys.n)

    def F_stacked(self) -> np.ndarray:
        return _toeplitz_F(self.E_bar, self.A_bar, self.sys.n)


@dataclass(frozen=True)
class AnalysisReport:
    partially_impulse_observable: bool
    partially_detectable: bool
    detectability_evidence: tuple   # (lambda, rank_with_K, rank_without_K) rows
    partially_causal: bool
    causality_ranks: tuple          # the two ranks of the causality criterion
    causality_assumption_ok: bool   # normal-rank assumption behind necessity
    partially_causal_detectable: bool
    characterization_votes: tuple   # five equivalent criteria
    diagnostics: dict


# ---------------------------------------------------------------------------
# Individual properties
# ---------------------------------------------------------------------------

def _inclusion_in_kernel(space: Subspace, K: np.ndarray) -> bool:
    """space subseteq ker K, evaluated on the orthonormal basis."""
    if space.dim == 0 or K.shape[0] == 0:
        return True
    resid = np.linalg.norm(K @ space.basis, 2)
    return bool(resid <= SUBSPACE_ATOL * max(1.0, np.linalg.norm(K, 2)))


def _impulse_observable_triple(E, A, C, K, tol: Tolerance, W=None) -> bool:
    """W intersect A^{-1}(im E) subseteq ker K, where W = W*_{E,A,0,C}."""
    E = as_matrix(E)
    A = as_matrix(A, rows=E.shape[0], cols=E.shape[1])
    if E.shape[1] == 0:
        return True
    if W is None:
        W = wong_limits(E, A, None, C, tol).W_star
    pre = preimage(A, image(E, tol), tol)
    return _inclusion_in_kernel(intersect(W, pre, tol), as_matrix(K, cols=E.shape[1]))


def is_partially_impulse_observable(sys: DescriptorSystem,
                                    tol: Tolerance = DEFAULT_TOL) -> bool:
    return _impulse_observable_triple(sys.E, sys.A, sys.C, sys.K, tol)


def detectability_matrices(sys: DescriptorSystem, lam: complex):
    """The two block matrices of the half-plane rank test, evaluated at lam.

    Both stack n diagonal copies of (lam E_bar - A_bar) with E_bar on the
    subdiagonal; the first additionally carries K under the last block
    column.
    """
    return _detectability_matrices(StackedSystem(sys), lam)


def _detectability_matrices(st: StackedSystem, lam: complex):
    sys = st.sys
    n = sys.n
    mb = st.E_bar.shape[0]
    block = lam * st.E_bar - st.A_bar
    right = np.zeros((n * mb, n * n), dtype=complex)
    for i in range(n):
        right[i * mb:(i + 1) * mb, i * n:(i + 1) * n] = block
        if i > 0:
            right[i * mb:(i + 1) * mb, (i - 1) * n:i * n] = st.E_bar
    krow = np.zeros((sys.r, n * n), dtype=complex)
    krow[:, (n - 1) * n:] = sys.K
    return np.vstack([right, krow]), right


def _detect_candidate_lambdas(sys: DescriptorSystem, tol: Tolerance,
                              st=None) -> list[complex]:
    """Finite points where either rank-test matrix can drop below normal rank."""
    st = StackedSystem(sys) if st is None else st
    with_K, without_K = _detectability_matrices(st, 1.0)
    base_K, base = _detectability_matrices(st, 0.0)
    cands: list[complex] = []
    for M1, M0 in ((with_K, base_K), (without_K, base)):
        X = np.real(M1 - M0)   # coefficient of lambda
        Y = np.real(M0)
        cands.extend(pencil_finite_eigenvalues(X, -Y, tol))
    return cands


def is_partially_detectable(sys: DescriptorSystem,
                            tol: Tolerance = DEFAULT_TOL):
    """Half-plane rank equality; returns (verdict, evidence rows).

    Rank functions of a pencil are constant away from finitely many points,
    so the quantifier over the closed right half-plane reduces to the
    pencil's finite eigenvalues there plus generic samples for the normal
    rank.
    """
    return _half_plane_test(StackedSystem(sys), tol)


def _half_plane_test(st: StackedSystem, tol: Tolerance):
    cands = _detect_candidate_lambdas(st.sys, tol, st)
    radius = max((abs(lam) for lam in cands), default=0.0)
    lams = list(GENERIC_LAMBDAS) + [lam for lam in cands
                                    if _non_decaying(lam.real, tol, radius)]
    evidence = []
    for lam in lams:
        with_K, without_K = _detectability_matrices(st, lam)
        evidence.append((complex(lam), numeric_rank(with_K, tol),
                         numeric_rank(without_K, tol)))
    return all(r1 == r0 for _, r1, r0 in evidence), tuple(evidence)


def is_partially_causal(E, A, B, K, tol: Tolerance = DEFAULT_TOL):
    """Rank test for z = K x containing no input derivatives.

    Returns (verdict, (rank_without_K, rank_with_K), assumption_ok).  When
    the normal-rank assumption fails the verdict is still the sufficient
    direction; callers should surface the caveat.
    """
    return _causal_test(E, A, B, K, tol)


def _causal_test(E, A, B, K, tol: Tolerance, F_pl=None):
    """is_partially_causal; F_pl is the depth-n Toeplitz matrix of (E, A)."""
    sys = DescriptorSystem.from_matrices(E, A, B, np.zeros((0, as_matrix(E).shape[1])), K)
    st = StackedSystem(sys)
    F_sc = st.F_script()
    if F_pl is None:
        F_pl = st.F_plain()
    top = np.hstack([F_sc, st.corner_A])
    bottom = np.hstack([np.zeros((F_pl.shape[0], F_sc.shape[1])), F_pl])
    L = np.vstack([top, bottom])
    krow = np.hstack([np.zeros((sys.r, F_sc.shape[1])), st.wide_K])
    r0 = numeric_rank(L, tol)
    r1 = numeric_rank(np.vstack([L, krow]), tol)

    # normal-rank assumption: appending K must not raise the pencil's rank
    assumption_ok = True
    for lam in GENERIC_LAMBDAS:
        pencil = lam * sys.E - sys.A
        if numeric_rank(np.vstack([pencil, sys.K.astype(complex)]), tol) \
                != numeric_rank(pencil, tol):
            assumption_ok = False
            break
    return bool(r0 == r1), (r0, r1), assumption_ok


def _causal_ranks(st: StackedSystem, F_sc, F_bar, tol: Tolerance):
    """The stacked rank pair (with K, without K) whose equality is criterion (i)."""
    sys = st.sys
    cols_left = F_sc.shape[1]
    zero = lambda rows: np.zeros((rows, cols_left))
    without_K = np.vstack([
        np.hstack([F_sc, st.corner_A]),
        np.hstack([zero(sys.p), st.wide_C]),
        np.hstack([zero(F_bar.shape[0]), F_bar]),
    ])
    with_K = np.vstack([without_K,
                        np.hstack([zero(sys.r), st.wide_K])])
    return numeric_rank(with_K, tol), numeric_rank(without_K, tol)


def _lift(sys: DescriptorSystem):
    """StackedSystem(sys), its F_script() and its F_stacked()."""
    st = StackedSystem(sys)
    return st, st.F_script(), st.F_stacked()


def characterization_suite(sys: DescriptorSystem,
                           tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Five equivalent formulations of the causal part of the criterion.

    (1) stacked rank equality; (2) block-subspace inclusion; (3) Wong-limit
    inclusion through the lifted preimage; (4) Wong-limit inclusion through
    the plain preimage; (5) impulse observability of the completely
    controllable part.  They must agree; disagreement indicates numerical
    trouble and is surfaced by the test suite.
    """
    lifted = _lift(sys)
    r1, r0 = _causal_ranks(*lifted, tol)
    W_star = wong_limits(sys.E, sys.A, None, sys.C, tol).W_star
    return _votes(lifted, r1 == r0, W_star, tol)


def _votes(lifted, vote1: bool, W_star: Subspace, tol: Tolerance) -> tuple:
    """characterization_suite, given vote 1 and W*_{E,A,0,C}."""
    st, F_sc, F_bar = lifted
    sys = st.sys
    imF = image(F_sc, tol)
    space2 = intersect(
        intersect(preimage(st.corner_A, imF, tol), kernel(st.wide_C, tol), tol),
        kernel(F_bar, tol), tol)
    vote2 = _inclusion_in_kernel(space2, st.wide_K)

    space3 = intersect(preimage(st.corner_A1, imF, tol), W_star, tol)
    vote3 = _inclusion_in_kernel(space3, sys.K)

    # V^{n-1} of (E, A, B, 0), read from the limits the Kalman
    # decomposition of vote 5 is built on.
    lim = wong_limits(sys.E, sys.A, sys.B, None, tol)
    V_pre = lim.V_chain[min(sys.n - 1, len(lim.V_chain) - 1)]
    EV = Subspace.from_span(sys.E @ V_pre.basis, sys.m, tol,
                            scale=float(np.linalg.norm(sys.E)) or 1.0)
    space4 = intersect(preimage(sys.A, EV, tol), W_star, tol)
    vote4 = _inclusion_in_kernel(space4, sys.K)

    kd = _with_relaxed_retry(
        "Kalman decomposition",
        lambda E, A, B, C, t: _kalman_once(E, A, B, C, t, lim if t is tol else None),
        sys.E, sys.A, sys.B, sys.C, tol=tol)
    E11, A11, _, C11 = kd.controllable_part
    K11 = kd.functional_part(sys.K)
    vote5 = _impulse_observable_triple(E11, A11, C11, K11, tol)

    return (bool(vote1), vote2, vote3, vote4, vote5)


def is_partially_causal_detectable(sys: DescriptorSystem,
                                   tol: Tolerance = DEFAULT_TOL) -> AnalysisReport:
    """Full property analysis.  The headline verdict, half-plane
    detectability plus criterion (i), holds exactly when a functional ODE
    estimator exists.

    The lifted matrices and W*_{E,A,0,C} are built once and shared by all tests.
    """
    st, _, F_bar = lifted = _lift(sys)
    detectable, evidence = _half_plane_test(st, tol)
    r1, r0 = _causal_ranks(*lifted, tol)
    W_star = wong_limits(sys.E, sys.A, None, sys.C, tol).W_star
    votes = _votes(lifted, r1 == r0, W_star, tol)
    causal, causal_ranks, assumption_ok = _causal_test(
        st.E_bar, st.A_bar, st.B_bar, sys.K, tol, F_pl=F_bar)
    impulse = _impulse_observable_triple(sys.E, sys.A, sys.C, sys.K, tol, W=W_star)

    s_probe = 1.0 * sys.E - sys.A
    sv = np.linalg.svd(s_probe, compute_uv=False) if s_probe.size else np.array([1.0])
    cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else float("inf")

    return AnalysisReport(
        partially_impulse_observable=impulse,
        partially_detectable=detectable,
        detectability_evidence=evidence,
        partially_causal=causal,
        causality_ranks=causal_ranks,
        causality_assumption_ok=assumption_ok,
        partially_causal_detectable=detectable and r1 == r0,
        characterization_votes=votes,
        diagnostics={
            "rank_rtol": tol.rank_rtol,
            "eig_stability_margin": tol.eig_stability_margin,
            "pencil_condition_at_1": cond,
        },
    )
