"""Shared fixtures: canonical example systems and random-system generators."""

import gc

import numpy as np
import pytest
import scipy.linalg

from dsest import (DescriptorSystem, DimensionMismatchError, EstimatorRealization,
                   is_partially_causal_detectable)
from dsest.linalg import (DEFAULT_TOL, Subspace, Tolerance, _apply_map, _scale, as_matrix,
                          pencil_finite_eigenvalues)


def apply_map(M, s: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Image M(S) of a subspace under a linear map, as the Wong chains
    take it."""
    M = as_matrix(M)
    if M.shape[1] != s.ambient_dim:
        raise DimensionMismatchError("apply_map: dimension mismatch")
    return _apply_map(M, s, tol, _scale(M))


@pytest.fixture
def fresh_plants():
    """Frees the systems earlier tests left in reference cycles, so that the
    systems of this test share no plant memo with them and build their own
    decompositions.  A CliRunner result or an exception's traceback keeps
    the frames that hold a system alive until the cycle collector runs."""
    gc.collect()


@pytest.fixture
def ex_system() -> DescriptorSystem:
    """Worked 4-state example: one unstable measured mode, two stable modes
    carrying the functional, and one purely algebraic state."""
    E = np.diag([1.0, 1.0, 1.0, 0.0])
    A = np.array([[1.0, 0, 0, 0],
                  [0, -1.0, 1.0, 0],
                  [0, 0, -1.0, 0],
                  [0, 0, 0, 1.0]])
    B = np.ones((4, 1))
    C = np.array([[1.0, 0, 0, 0]])
    K = np.ones((1, 4))
    return DescriptorSystem.from_matrices(E, A, B, C, K)


@pytest.fixture
def ex_reference_estimator() -> EstimatorRealization:
    """Hand-derived order-2 estimator for ex_system (the reference
    realization with the algebraic state folded into the feedthrough)."""
    return EstimatorRealization(
        N=np.array([[-1.0, 1.0], [0.0, -1.0]]),
        H=np.array([[1.0, 0.0], [1.0, 0.0]]),
        R=np.array([[1.0, 1.0]]),
        M=np.array([[-1.0, 1.0]]))


@pytest.fixture
def sigma_violating_system() -> DescriptorSystem:
    """Nilpotent block feeding the functional through an input derivative:
    0 = x2 + u forces x1 = x2' = -u', so z = x1 is non-causal."""
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    A = np.eye(2)
    B = np.array([[0.0], [1.0]])
    C = np.zeros((0, 2))
    K = np.array([[1.0, 0.0]])
    return DescriptorSystem.from_matrices(E, A, B, C, K)


@pytest.fixture
def sigma_causal_system() -> DescriptorSystem:
    """Same pencil but the functional reads the causal component x2."""
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    A = np.eye(2)
    B = np.array([[0.0], [1.0]])
    C = np.zeros((0, 2))
    K = np.array([[0.0, 1.0]])
    return DescriptorSystem.from_matrices(E, A, B, C, K)


# Systems whose undetected mode is an integrator: the lifted detectability
# pencil returns it a roundoff distance left of the imaginary axis
# (-5.6e-17 and -1.1e-17 +- 3.0e-9j).  Draw 117 of random_system(
# default_rng(77), max_dim=4) and draw 563 of random_system(default_rng(11)).
NEAR_AXIS_SYSTEMS = {
    "rng77-117": dict(E=[[-3.0, 0.0]], A=[[0.0, -2.0]], B=[[2.0, 2.0]],
                      C=[[0.0, 3.0]], D=[[3.0, -3.0]],
                      K=[[-2.0, 1.0], [-3.0, -3.0]]),
    "rng11-563": dict(E=[[-1.0, 3.0]], A=[[2.0, 3.0]], B=np.zeros((1, 0)),
                      C=[[-2.0, -3.0]], D=np.zeros((1, 0)),
                      K=[[2.0, -2.0], [0.0, 2.0]]),
}


@pytest.fixture(params=sorted(NEAR_AXIS_SYSTEMS))
def near_axis_system(request) -> DescriptorSystem:
    """An unmeasured integrator that the functional reads: no estimator."""
    return DescriptorSystem.from_matrices(**NEAR_AXIS_SYSTEMS[request.param])


def stiff_system(slow: float) -> DescriptorSystem:
    """x' = A x with modes -1e6 and ``slow`` in rotated coordinates, nothing
    measured, and z the slow mode: an estimator exists iff slow < 0."""
    c, s = np.cos(0.7), np.sin(0.7)
    Q = np.array([[c, -s], [s, c]])
    return DescriptorSystem.from_matrices(
        np.eye(2), Q @ np.diag([-1e6, slow]) @ Q.T, np.zeros((2, 0)),
        np.zeros((0, 2)), np.array([[0.0, 1.0]]) @ Q.T)


def random_system(rng: np.random.Generator, max_dim: int = 5,
                  entry_range: int = 3) -> DescriptorSystem:
    """Random integer-entry rectangular descriptor system."""
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    l = int(rng.integers(0, 3))
    p = int(rng.integers(0, 3))
    r = int(rng.integers(1, n + 1))
    def mat(a, b):
        return rng.integers(-entry_range, entry_range + 1, (a, b)).astype(float)
    return DescriptorSystem.from_matrices(
        mat(m, n), mat(m, n), mat(m, l), mat(p, n), mat(r, n), D=mat(p, l))


def random_draw(seed: int, index: int) -> DescriptorSystem:
    """Draw ``index`` (counted from 0) of random_system(default_rng(seed))."""
    rng = np.random.default_rng(seed)
    return [random_system(rng) for _ in range(index + 1)][index]


def badly_scaled_draw_161() -> DescriptorSystem:
    """Draw 161 of random_system(default_rng(7)), 3 x 5, with its state
    columns rescaled by factors from 1.2e-5 to 6.3e3.  Its stacked finite
    block J_f has |J_f|_F = 1.6e8 and eigenvalues -1.50 and 0.106 +- 0.275i,
    and LAPACK's reordering of J_f's real Schur form fails its sort to
    roundoff."""
    sys = random_draw(7, 161)
    T = np.array([3.55307218e-03, 1.24284146e-05, 6.32682205e+03, 7.65929964e+01,
                  1.96313194e-05])
    return DescriptorSystem.from_matrices(sys.E * T, sys.A * T, sys.B, sys.C * T,
                                          sys.K * T, D=sys.D)


def random_pencil(rng: np.random.Generator, max_dim: int = 4,
                  entry_range: int = 3):
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    E = rng.integers(-entry_range, entry_range + 1, (m, n)).astype(float)
    A = rng.integers(-entry_range, entry_range + 1, (m, n)).astype(float)
    return E, A


def hidden_kronecker_pencil(k: int, seed: int, orthogonal: bool = False):
    """P blkdiag(L_k, I_k, L_k^T) Q and P blkdiag(L_k', J, L_k'^T) Q: an
    epsilon block, a k x k finite block J and an eta block, each of size k,
    hidden by Gaussian P and Q, or with ``orthogonal`` by the Q factors of
    the same Gaussian draws.  Returns (E, A, J)."""
    rng = np.random.default_rng([k, seed])
    L_E, L_A = np.eye(k, k + 1), np.eye(k, k + 1, 1)
    J = rng.standard_normal((k, k))
    P, Q = (rng.standard_normal((3 * k + 1, 3 * k + 1)) for _ in range(2))
    if orthogonal:
        P, Q = np.linalg.qr(P)[0], np.linalg.qr(Q)[0]
    E = P @ scipy.linalg.block_diag(L_E, np.eye(k), L_E.T) @ Q
    A = P @ scipy.linalg.block_diag(L_A, J, L_A.T) @ Q
    return E, A, J


def hidden_nilpotent_chain(k: int, c: float, seed: int):
    """P blkdiag(c N_k, c N_{k-2}) Q and P Q, with N_j the j x j upper
    shift: two nilpotent chains of lengths k and k - 2, so of index k,
    hidden by Gaussian P and Q.  Returns (E, A)."""
    rng = np.random.default_rng([k, seed])
    j = max(k - 2, 0)
    P, Q = (rng.standard_normal((k + j, k + j)) for _ in range(2))
    E = P @ scipy.linalg.block_diag(c * np.eye(k, k=1), c * np.eye(j, k=1)) @ Q
    return E, P @ Q


def hidden_chain_beside_finite(k: int, c: float, seed: int):
    """P blkdiag(c N_k, c N_{k-2}, I_2) Q and P blkdiag(I, I, J) Q: the two
    nilpotent chains of ``hidden_nilpotent_chain`` beside a finite 2 x 2
    block J, all hidden by Gaussian P and Q.  Returns (E, A, J)."""
    rng = np.random.default_rng([k, seed, 2])
    j = max(k - 2, 0)
    J = rng.standard_normal((2, 2))
    P, Q = (rng.standard_normal((k + j + 2, k + j + 2)) for _ in range(2))
    E = P @ scipy.linalg.block_diag(c * np.eye(k, k=1), c * np.eye(j, k=1), np.eye(2)) @ Q
    A = P @ scipy.linalg.block_diag(np.eye(k + j), J) @ Q
    return E, A, J


def lifted_system(n: int, seed: int, unobserved: bool = False) -> DescriptorSystem:
    """n x n system with E = diag(1, ..., 1, 0, 0), A = randn - 2I and two
    Gaussian inputs, outputs and functionals (the sweep rule of the
    benchmark, drawn in the same order).  With `unobserved`, states 0 and 1
    neither reach the outputs nor the other states, so both eigenvalues of
    A[:2, :2] are unobservable modes."""
    rng = np.random.default_rng(seed)
    E = np.diag([1.0] * (n - 2) + [0.0, 0.0])
    A = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
    B = rng.standard_normal((n, 2))
    C = rng.standard_normal((2, n))
    K = rng.standard_normal((2, n))
    if unobserved:
        A[2:, :2] = 0.0
        C[:, :2] = 0.0
    return DescriptorSystem.from_matrices(E, A, B, C, K)


# Plants whose stacked finite block J_f has both non-decaying and decaying
# modes, so that synthesis reads both halves of its Schur basis, by name:
# draws of random_system, then lifted systems with their unobserved block.
SPLIT_PLANTS = {
    **{f"rng{seed}-{index}": (random_draw, (seed, index))
       for seed, index in ((7, 224), (11, 526), (11, 542), (13, 442))},
    **{f"lifted-{n}-{seed}": (lifted_system, (n, seed, True))
       for n, seed in ((4, 3), (4, 6), (5, 3), (5, 6), (6, 3), (6, 6), (8, 3),
                       (12, 3), (12, 5), (12, 9), (16, 6))},
}


def split_system(name: str) -> DescriptorSystem:
    """The plant ``name`` of SPLIT_PLANTS with K a Gaussian mix of the unit
    functionals whose verdict is Y."""
    build, args = SPLIT_PLANTS[name]
    plant = build(*args)
    with_K = lambda K: DescriptorSystem.from_matrices(
        plant.E, plant.A, plant.B, plant.C, K, D=plant.D)
    rows = np.eye(plant.n)
    ys = [j for j in range(plant.n) if is_partially_causal_detectable(
        with_K(rows[[j]])).partially_causal_detectable]
    return with_K(np.random.default_rng(len(ys)).standard_normal((2, len(ys)))
                  @ rows[ys])


# -- the lifted half-plane rank test, an independent oracle for the
# -- n-dimensional detectability checks of the analysis

def detectability_matrices(sys: DescriptorSystem, lam: complex):
    """The two block matrices of the half-plane rank test, evaluated at lam.

    Both stack n diagonal copies of (lam E_bar - A_bar), E_bar = [E; 0] and
    A_bar = [A; C], with E_bar on the subdiagonal; the first additionally
    carries K under the last block column.  Detectability holds when their
    ranks agree at every lam of the closed right half-plane.
    """
    n = sys.n
    E_bar = np.vstack([sys.E, np.zeros((sys.p, n))])
    A_bar = np.vstack([sys.A, sys.C])
    mb = E_bar.shape[0]
    right = np.zeros((n * mb, n * n), dtype=complex)
    for i in range(n):
        right[i * mb:(i + 1) * mb, i * n:(i + 1) * n] = lam * E_bar - A_bar
        if i > 0:
            right[i * mb:(i + 1) * mb, (i - 1) * n:i * n] = E_bar
    krow = np.zeros((sys.r, n * n), dtype=complex)
    krow[:, (n - 1) * n:] = sys.K
    return np.vstack([right, krow]), right


def detectability_pencils(sys: DescriptorSystem) -> list:
    """(X, -Y) of lambda*X + Y for both half-plane rank-test matrices."""
    return [(np.real(M1 - M0), -np.real(M0))
            for M1, M0 in zip(detectability_matrices(sys, 1.0),
                              detectability_matrices(sys, 0.0))]


def detect_candidate_lambdas(sys: DescriptorSystem) -> list:
    """Finite points where either rank-test matrix can drop below normal rank."""
    return [lam for X, Y in detectability_pencils(sys)
            for lam in pencil_finite_eigenvalues(X, Y)]
