"""Property analysis for rectangular descriptor systems.

Decides, for a system E x' = A x + B u, y = C x + D u, z = K x:

* partial causal detectability, the existence criterion for an ODE
  functional estimator, and partial detectability, both in the state
  dimension n from one structure (``_Structure``): the observability
  staircase of (E, A, B), the quasi-Kronecker form of the
  measurement-stacked pencil ([E_O; 0], [A_O; C_O]) and the spectral split
  of its finite block J_f.  The criterion is K_eps = 0 (the functional
  reads no free-block variable), K_sigma J_sigma = 0 (no input derivative)
  and K_f1 = 0 (no non-decaying mode that the measurement misses);
  detectability alone drops the middle condition.  Each says that K vanishes
  on a plant-only subspace, tested as everywhere here by ``_residual``, the
  largest relative residual of a row of K, so no threshold reads K's scale.
  These decompositions and subspaces do not read K: they are built once per
  plant (E, A, B, C, D) and tolerance, kept in a memo that every live system
  with equal plant data shares (``_plant``), and each system adds only K's
  blocks and the three residual rows.  Synthesis continues from the
  structure the verdict was read from, so the two cannot disagree;
* partial causality (z expressible without input derivatives), the first
  two of those conditions, read from the same structure;
* partial impulse observability of z with respect to the measurement,
  whose subspace W* intersect A^{-1}(im E) is kept in the same memo.  The
  verdict does not read it: a report computes it when it is first read.

The five-way cross-check of the causal part is one function,
``characterization_suite``: rank and subspace-inclusion computations on
the n^2-sized block-Toeplitz matrices of ``_toeplitz_F``, and for vote 5
the controllable part of ``kalman_controllability``.  It decides nothing,
and no verdict or report runs it.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from dataclasses import InitVar, dataclass, field
from functools import cached_property, partial

import numpy as np

from .exceptions import DimensionMismatchError
from .decomp import (PencilQKF, StaircaseDecomposition, _split, kalman_controllability,
                     observability_staircase, qkf)
from .linalg import (
    DEFAULT_TOL,
    SUBSPACE_ATOL,
    Subspace,
    Tolerance,
    _float64,
    as_matrix,
    image,
    intersect,
    kernel,
    numeric_rank,
    preimage,
    spectral_split,
)
from .wong import _W_star, wong_limits


@dataclass(frozen=True, eq=False)
class DescriptorSystem:
    """System data E x' = A x + B u, y = C x + D u, z = K x: read-only
    C-order float64 copies; a complex matrix is refused.

    Equality is identity.  Systems with equal plant data share one ``_Plant``
    memo while one of them lives.
    """

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    K: np.ndarray
    _plant: _Plant | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        E = as_matrix(self.E, name="E")
        m, n = E.shape
        A = as_matrix(self.A, m, n, name="A")
        B = as_matrix(self.B, rows=m, name="B")
        C = as_matrix(self.C, cols=n, name="C")
        D = as_matrix(self.D, C.shape[0], B.shape[1], name="D")
        K = as_matrix(self.K, cols=n, name="K")
        if K.shape[0] > n:
            raise DimensionMismatchError(
                f"functional dimension r={K.shape[0]} exceeds state dimension n={n}")
        for name, value in zip("EABCDK", (E, A, B, C, D, K)):
            value = np.array(_float64(value, name), order="C")
            value.flags.writeable = False
            object.__setattr__(self, name, value)

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
        if D is None:
            D = np.zeros((as_matrix(C, name="C").shape[0], as_matrix(B, name="B").shape[1]))
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
class AnalysisReport:
    """Result of ``is_partially_causal_detectable``.

    ``partially_causal_detectable`` (all three rows), ``partially_causal``
    (rows 1 and 2) and ``partially_detectable`` (rows 1 and 3) are read from
    the block checks of ``_functional``.  ``partially_impulse_observable``
    is ``is_partially_impulse_observable``, computed when first read (the
    verdict does not read it), so an error in it surfaces at that read; the
    report keeps the plant memo and K for it, not the system.
    """

    partially_causal: bool
    partially_detectable: bool
    block_checks: tuple             # (condition, residual, threshold) rows
    partially_causal_detectable: bool
    diagnostics: dict
    impulse_observable: InitVar[Callable[[], bool]]

    def __post_init__(self, impulse_observable):
        object.__setattr__(self, "_impulse", impulse_observable)

    @cached_property
    def partially_impulse_observable(self) -> bool:
        return self._impulse()


class _Plant:
    """The plant (E, A, B, C, D) of every live system whose plant matrices
    have these bytes, shapes and dtypes, and what was built from it without
    reading K.

    ``built(build, tol)`` runs ``build(plant, tol)`` once per build and
    tolerance.  Each build is a deterministic function of the plant and the
    tolerance, so every system reads the bits it would have built alone.
    Arrays that reach a caller are read-only.  A ``_Plant`` refers to no
    system, so ``_PLANTS`` drops it once the last system using it is gone.
    """

    __slots__ = ("E", "A", "B", "C", "D", "_built", "__weakref__")

    def __init__(self, E, A, B, C, D):
        self.E, self.A, self.B, self.C, self.D = E, A, B, C, D
        self._built = {}

    def built(self, build, tol: Tolerance):
        key = (build, tol)
        if key not in self._built:
            self._built[key] = build(self, tol)
        return self._built[key]


_PLANTS = weakref.WeakValueDictionary()


def _plant(sys: DescriptorSystem) -> _Plant:
    """The plant memo ``sys`` shares, looked up on first use."""
    if sys._plant is None:
        mats = (sys.E, sys.A, sys.B, sys.C, sys.D)
        key = tuple((X.shape, X.dtype.str, X.tobytes()) for X in mats)
        plant = _PLANTS.get(key)
        if plant is None:
            plant = _PLANTS[key] = _Plant(*mats)
        object.__setattr__(sys, "_plant", plant)
    return sys._plant


def _read_only(obj):
    """``obj`` with its array fields made read-only, as every system of a
    plant receives it."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return obj


@dataclass(frozen=True)
class _Structure:
    """The n-dimensional data that decides the existence criterion, built
    from the plant alone.

    Synthesis steps 1-3: the staircase of (E, A, B), the QKF of the stacked
    pencil ([E_O; 0], [A_O; C_O]), and the orthogonal basis U1 of J_f's
    ordered real Schur form, which alone decides the split: its non-decaying
    part J_f1, with eigenvalues ``modes``, leads and its decaying part J_f2
    trails.  ``obstructions`` are orthonormal bases, in x, of what K must
    vanish on: the free block, im V_O1 Q_sigma J_sigma and the f1 modes.
    """

    staircase: StaircaseDecomposition
    form: PencilQKF
    U1: np.ndarray
    J_f1: np.ndarray
    J_f2: np.ndarray
    modes: np.ndarray
    obstructions: tuple


def _build_structure(plant: _Plant, tol: Tolerance) -> _Structure:
    # Step 1: staircase; only the leading block carries nonzero trajectories.
    st = _read_only(observability_staircase(plant.E, plant.A, plant.B, tol))
    C_O = st.split_columns(plant.C)[0]
    n_O = st.col_partition[0]

    # Step 2: stack the measurement into the pencil and bring it to QKF.
    form = _read_only(qkf(np.vstack([st.E_O, np.zeros((plant.C.shape[0], n_O))]),
                          np.vstack([st.A_O, C_O]), tol))

    # Step 3: split the finite block into non-decaying / decaying parts.
    U1, J_f1, J_f2 = spectral_split(form.J_f)

    # Step 4: orthonormal bases of what K must vanish on; no coupling touches
    # Q's eps columns, and J_sigma's rank is decided at V_O1 Q_sigma's scale.
    W_eps, W_f, W_sigma, _ = _split(st.V_O[:, :n_O] @ form.Q, form.col_sizes, 1)
    W_sigma = Subspace.from_span(W_sigma @ form.J_sigma, tol=tol,
                                 scale=float(np.linalg.norm(W_sigma))).basis
    W_f1 = W_f @ U1[:, :J_f1.shape[0]]
    W_f1 = np.linalg.qr(W_f1)[0] if W_f1.size else W_f1
    return _Structure(staircase=st, form=form, U1=U1, J_f1=J_f1, J_f2=J_f2,
                      modes=np.linalg.eigvals(J_f1), obstructions=(W_eps, W_sigma, W_f1))


@dataclass(frozen=True)
class _Functional:
    """K in the coordinates of its plant's ``_Structure``: the blocks
    synthesis reads, and the three block conditions as (condition, residual,
    threshold) rows; a row holds when its residual is within its threshold.
    """

    structure: _Structure
    K_sigma: np.ndarray
    K_eta: np.ndarray
    K_f2: np.ndarray
    checks: tuple


def _functional(sys: DescriptorSystem, tol: Tolerance) -> _Functional:
    structure = _plant(sys).built(_build_structure, tol)
    K_O = structure.staircase.split_columns(sys.K)[0]
    _, K_f, K_sigma, K_eta = structure.form.split_right(K_O)
    K_f2 = (K_f @ structure.U1)[:, structure.J_f1.shape[0]:]
    checks = tuple(
        (f"the functional depends on {what}", _residual(sys.K, W), SUBSPACE_ATOL)
        for what, W in zip(("the free block", "input derivatives",
                            "a non-decaying undetected mode"), structure.obstructions))
    return _Functional(structure=structure, K_sigma=K_sigma, K_eta=K_eta,
                       K_f2=K_f2, checks=checks)


def _residual(K: np.ndarray, W: np.ndarray) -> float:
    """max ||K_i W|| / ||K_i|| over the nonzero rows K_i of K, W orthonormal:
    a sine in [0, 1], which no scaling of a row of K changes."""
    if not W.size:
        return 0.0
    norms = np.linalg.norm(K, axis=1)
    ratios = np.linalg.norm(K @ W, axis=1) / np.where(norms > 0, norms, np.inf)
    return min(1.0, float(ratios.max(initial=0.0)))     # 1 + eps is roundoff


def _holds(row) -> bool:
    _, residual, threshold = row
    return residual <= threshold


# ---------------------------------------------------------------------------
# Individual properties
# ---------------------------------------------------------------------------

def _inclusion_in_kernel(space: Subspace, K: np.ndarray) -> bool:
    """space subseteq ker K, by ``_residual`` on the orthonormal basis."""
    return _residual(K, space.basis) <= SUBSPACE_ATOL


def _impulse_space(E, A, C, tol: Tolerance) -> Subspace:
    """W intersect A^{-1}(im E), where W = W*_{E,A,0,C}: z = K x is impulse
    observable when this lies in ker K.  The matrices are a plant's, or
    blocks of its Kalman decomposition."""
    W = _W_star(E, A, C, tol)
    return intersect(W, preimage(A, image(E, tol), tol), tol)


def _plant_impulse_space(plant: _Plant, tol: Tolerance) -> Subspace:
    return _impulse_space(plant.E, plant.A, plant.C, tol)


def _impulse_observable(plant: _Plant, K: np.ndarray, tol: Tolerance) -> bool:
    return _inclusion_in_kernel(plant.built(_plant_impulse_space, tol), K)


def is_partially_impulse_observable(sys: DescriptorSystem,
                                    tol: Tolerance = DEFAULT_TOL) -> bool:
    return _impulse_observable(_plant(sys), sys.K, tol)


def is_partially_detectable(sys: DescriptorSystem,
                            tol: Tolerance = DEFAULT_TOL):
    """Partial detectability; returns (verdict, rows).

    The rows are the free-block and non-decaying-mode checks of
    ``_functional``; detectability holds when both residuals are within
    their thresholds.
    """
    free, _, mode = _functional(sys, tol).checks
    return _holds(free) and _holds(mode), (free, mode)


def is_partially_causal(E, A, B, K, tol: Tolerance = DEFAULT_TOL):
    """Partial causality of the plant E x' = A x + B u, z = K x, with no
    measurement; returns (verdict, rows).

    The rows are the free-block and input-derivative checks of
    ``_functional``; z = K x contains no input derivatives when both
    residuals are within their thresholds.
    """
    plant = DescriptorSystem.from_matrices(
        E, A, B, np.zeros((0, as_matrix(E).shape[1])), K)
    free, derivative, _ = _functional(plant, tol).checks
    return _holds(free) and _holds(derivative), (free, derivative)


def characterization_suite(sys: DescriptorSystem,
                           tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Five equivalent formulations of the causal part of the criterion.

    (1) stacked rank equality; (2) block-subspace inclusion; (3) Wong-limit
    inclusion through the lifted preimage; (4) Wong-limit inclusion through
    the plain preimage; (5) impulse observability of the completely
    controllable part.  They must agree; disagreement indicates numerical
    trouble and is surfaced by the test suite.
    """
    m, n, l, p = sys.m, sys.n, sys.l, sys.p
    # Toeplitz matrices of [E 0] / [A B] and of the measurement-stacked
    # pencil [E; 0] / [A; C]; A sits in the lowest-left block of the corner
    # matrices, C and K in the first block of the wide ones.
    F_sc = _toeplitz_F(np.hstack([sys.E, np.zeros((m, l))]),
                       np.hstack([sys.A, sys.B]), n)
    F_bar = _toeplitz_F(np.vstack([sys.E, np.zeros((p, n))]),
                        np.vstack([sys.A, sys.C]), n)
    corner_A1 = np.zeros((n * m, n))
    corner_A1[(n - 1) * m:] = sys.A
    corner_A = np.hstack([corner_A1, np.zeros((n * m, n * n - n))])
    wide_C = np.hstack([sys.C, np.zeros((p, n * n - n))])
    wide_K = np.hstack([sys.K, np.zeros((sys.r, n * n - n))])

    zero = lambda rows: np.zeros((rows, F_sc.shape[1]))
    without_K = np.vstack([
        np.hstack([F_sc, corner_A]),
        np.hstack([zero(p), wide_C]),
        np.hstack([zero(F_bar.shape[0]), F_bar]),
    ])
    with_K = np.vstack([without_K, np.hstack([zero(sys.r), wide_K])])
    vote1 = numeric_rank(with_K, tol) == numeric_rank(without_K, tol)

    imF = image(F_sc, tol)
    space2 = intersect(
        intersect(preimage(corner_A, imF, tol), kernel(wide_C, tol), tol),
        kernel(F_bar, tol), tol)
    vote2 = _inclusion_in_kernel(space2, wide_K)

    W_star = _W_star(sys.E, sys.A, sys.C, tol)
    space3 = intersect(preimage(corner_A1, imF, tol), W_star, tol)
    vote3 = _inclusion_in_kernel(space3, sys.K)

    # V^{n-1} of (E, A, B, 0).
    lim = wong_limits(sys.E, sys.A, sys.B, None, tol)
    V_pre = lim.V_chain[min(n - 1, len(lim.V_chain) - 1)]
    EV = Subspace.from_span(sys.E @ V_pre.basis, m, tol,
                            scale=float(np.linalg.norm(sys.E)) or 1.0)
    space4 = intersect(preimage(sys.A, EV, tol), W_star, tol)
    vote4 = _inclusion_in_kernel(space4, sys.K)

    kd = kalman_controllability(sys.E, sys.A, sys.B, sys.C, tol)
    E11, A11, _, C11 = kd.controllable_part
    vote5 = _inclusion_in_kernel(_impulse_space(E11, A11, C11, tol),
                                 kd.functional_part(sys.K))

    return (bool(vote1), vote2, vote3, vote4, vote5)


def is_partially_causal_detectable(sys: DescriptorSystem,
                                   tol: Tolerance = DEFAULT_TOL) -> AnalysisReport:
    """Full property analysis.  The headline verdict, the three block checks
    of ``_functional``, holds exactly when a functional ODE estimator exists.
    """
    functional = _functional(sys, tol)
    free, derivative, mode = functional.checks

    return AnalysisReport(
        partially_causal=_holds(free) and _holds(derivative),
        partially_detectable=_holds(free) and _holds(mode),
        block_checks=functional.checks,
        partially_causal_detectable=all(map(_holds, functional.checks)),
        diagnostics={
            "rank_rtol": tol.rank_rtol,
            "non_decaying_modes": [[float(v.real), float(v.imag)]
                                   for v in functional.structure.modes],
        },
        impulse_observable=partial(_impulse_observable, _plant(sys), sys.K, tol),
    )
