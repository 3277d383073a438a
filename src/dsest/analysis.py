"""Property analysis for rectangular descriptor systems.

Decides, for a system E x' = A x + B u, y = C x + D u, z = K x:

* partial causal detectability, the existence criterion for an ODE
  functional estimator, and partial detectability, both in the state
  dimension n from one structure (``_structure``): the observability
  staircase of (E, A, B), the quasi-Kronecker form of the
  measurement-stacked pencil ([E_O; 0], [A_O; C_O]) and the spectral split
  of its finite block J_f.  The criterion is K_eps = 0 (the functional
  reads no free-block variable), K_sigma J_sigma = 0 (no input derivative)
  and K_f1 = 0 (no non-decaying mode that the measurement misses);
  detectability alone drops the middle condition.  Synthesis continues
  from the same structure, so verdict and construction cannot disagree;
* partial impulse observability of z with respect to the measurement;
* partial causality (z expressible without input derivatives) and the
  five-way cross-check of its equivalent characterizations, as rank and
  subspace-inclusion computations on block-Toeplitz matrices built from
  the system data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatchError
from .decomp import (PencilQKF, StaircaseDecomposition, _kalman_once,
                     _with_relaxed_retry, observability_staircase, qkf)
from .linalg import (
    CONSISTENCY_ATOL,
    DEFAULT_TOL,
    SUBSPACE_ATOL,
    Subspace,
    Tolerance,
    as_matrix,
    image,
    intersect,
    kernel,
    numeric_rank,
    preimage,
    spectral_split,
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
    block_checks: tuple             # (condition, residual, threshold) rows
    partially_causal: bool
    causality_ranks: tuple          # the two ranks of the causality criterion
    causality_assumption_ok: bool   # normal-rank assumption behind necessity
    partially_causal_detectable: bool
    characterization_votes: tuple   # five equivalent criteria
    diagnostics: dict


@dataclass(frozen=True)
class _Structure:
    """The n-dimensional data that decides the existence criterion.

    Synthesis steps 1-3: the staircase of (E, A, B), the QKF of the stacked
    pencil ([E_O; 0], [A_O; C_O]) with K_O split conformally, and the
    similarity U1 splitting J_f into its non-decaying part J_f1 and its
    decaying part J_f2.  ``checks`` holds the three block conditions as
    (condition, residual, threshold) rows; a row holds when its residual is
    within its threshold.
    """

    staircase: StaircaseDecomposition
    form: PencilQKF
    K_eps: np.ndarray
    K_f: np.ndarray
    K_sigma: np.ndarray
    K_eta: np.ndarray
    U1: np.ndarray
    J_f1: np.ndarray
    J_f2: np.ndarray
    K_f1: np.ndarray
    K_f2: np.ndarray
    checks: tuple


def _structure(sys: DescriptorSystem, tol: Tolerance) -> _Structure:
    # Step 1: staircase; only the leading block carries nonzero trajectories.
    st = observability_staircase(sys.E, sys.A, sys.B, tol)
    C_O = st.split_columns(sys.C)[0]
    K_O = st.split_columns(sys.K)[0]
    n_O = st.col_partition[0]

    # Step 2: stack the measurement into the pencil and bring it to QKF.
    form = qkf(np.vstack([st.E_O, np.zeros((sys.p, n_O))]),
               np.vstack([st.A_O, C_O]), tol)
    K_eps, K_f, K_sigma, K_eta = form.split_right(K_O)

    # Step 3: split the finite block into non-decaying / decaying parts.
    U1, J_f1, J_f2 = spectral_split(form.J_f, tol)
    K_f_split = K_f @ U1
    n_f1 = J_f1.shape[0]
    K_f1, K_f2 = K_f_split[:, :n_f1], K_f_split[:, n_f1:]

    threshold = CONSISTENCY_ATOL * max(1.0, float(np.linalg.norm(sys.K)))
    checks = tuple(
        (condition, float(np.linalg.norm(block)), threshold)
        for condition, block in (
            ("the functional depends on the free block", K_eps),
            ("the functional depends on input derivatives", K_sigma @ form.J_sigma),
            ("the functional depends on a non-decaying undetected mode", K_f1)))
    return _Structure(staircase=st, form=form, K_eps=K_eps, K_f=K_f,
                      K_sigma=K_sigma, K_eta=K_eta, U1=U1, J_f1=J_f1, J_f2=J_f2,
                      K_f1=K_f1, K_f2=K_f2, checks=checks)


def _holds(row) -> bool:
    _, residual, threshold = row
    return residual <= threshold


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


def is_partially_detectable(sys: DescriptorSystem,
                            tol: Tolerance = DEFAULT_TOL):
    """Partial detectability; returns (verdict, rows).

    The rows are the free-block and non-decaying-mode checks of
    ``_structure``; detectability holds when both residuals are within
    their thresholds.
    """
    free, _, mode = _structure(sys, tol).checks
    return _holds(free) and _holds(mode), (free, mode)


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
    """Full property analysis.  The headline verdict, the three block checks
    of ``_structure``, holds exactly when a functional ODE estimator exists.

    The lifted matrices and W*_{E,A,0,C} of the remaining tests are built
    once and shared by them.
    """
    structure = _structure(sys, tol)
    free, _, mode = structure.checks
    st, _, F_bar = lifted = _lift(sys)
    r1, r0 = _causal_ranks(*lifted, tol)
    W_star = wong_limits(sys.E, sys.A, None, sys.C, tol).W_star
    votes = _votes(lifted, r1 == r0, W_star, tol)
    causal, causal_ranks, assumption_ok = _causal_test(
        st.E_bar, st.A_bar, st.B_bar, sys.K, tol, F_pl=F_bar)
    impulse = _impulse_observable_triple(sys.E, sys.A, sys.C, sys.K, tol, W=W_star)

    s_probe = 1.0 * sys.E - sys.A
    sv = np.linalg.svd(s_probe, compute_uv=False) if s_probe.size else np.array([1.0])
    cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else float("inf")
    modes = np.linalg.eigvals(structure.J_f1)

    return AnalysisReport(
        partially_impulse_observable=impulse,
        partially_detectable=_holds(free) and _holds(mode),
        block_checks=structure.checks,
        partially_causal=causal,
        causality_ranks=causal_ranks,
        causality_assumption_ok=assumption_ok,
        partially_causal_detectable=all(map(_holds, structure.checks)),
        characterization_votes=votes,
        diagnostics={
            "rank_rtol": tol.rank_rtol,
            "eig_stability_margin": tol.eig_stability_margin,
            "pencil_condition_at_1": cond,
            "non_decaying_modes": [[float(v.real), float(v.imag)] for v in modes],
        },
    )
