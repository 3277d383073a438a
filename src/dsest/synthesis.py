"""Functional ODE estimator synthesis.

Given a partially causal detectable system, constructs matrices (N, H, R, M)
such that

    w' = N w + H (u; y),    zhat = R w + M (u; y)

satisfies zhat(t) - z(t) -> 0 along every plant trajectory.  The pipeline:

1. staircase reduction of (E, A, B), dropping the algebraically-zero stages;
2. quasi-Kronecker form of the measurement-stacked pencil ([E_O; 0], [A_O; C_O]);
3. spectral separation of the finite block into decaying / non-decaying parts;
4. row normalization of the overdetermined block to ([I; 0], [A1; A2]);
5. stabilizing gain L for the overdetermined dynamics, unless folded (L = 0);
6. assembly, with the overdetermined state folded into the feedthrough M
   whenever the algebraic rows determine it uniquely from (u; y).

Steps 1-3 are ``analysis._Structure``, read by the analysis verdict too.
Its block conditions on K (``analysis._functional``), K_eps = 0,
K_sigma J_sigma = 0 and K_f1 = 0 (the functional reads neither the free
block, nor input derivatives, nor a non-decaying undetected mode), are the
paper's existence criterion in dimension n, so synthesis refuses on the
first that fails.  Only R and M read K: the structure and the rest of steps
4-6 (``_PlantEstimator``) are built once per plant and tolerance, in the
memo every system with that plant shares (``analysis._plant``).

A ``SynthesisTrace`` is returned with the estimator: the decompositions it
came from, the overdetermined block and its gain, and the map of plant
states into estimator coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import SynthesisError
from .analysis import (DescriptorSystem, _build_structure, _functional, _holds,
                       _plant, _read_only)
from .decomp import PencilQKF, StaircaseDecomposition, _split
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _float64,
    as_matrix,
    place_poles,
    _svd_threshold,
)


@dataclass(frozen=True, eq=False)
class EstimatorRealization:
    """w' = N w + H (u; y), zhat = R w + M (u; y); equality is identity.

    The blocks are stored as float64 (a float64 block as given); a complex
    block is refused."""

    N: np.ndarray
    H: np.ndarray
    R: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        s = as_matrix(self.N, name="estimator N").shape[0]
        N = as_matrix(self.N, s, s, name="estimator N")
        H = as_matrix(self.H, rows=s, name="estimator H")
        R = as_matrix(self.R, cols=s, name="estimator R")
        M = as_matrix(self.M, R.shape[0], H.shape[1], name="estimator M")
        for name, X in zip("NHRM", (N, H, R, M)):
            object.__setattr__(self, name, _float64(X, f"estimator {name}"))

    @property
    def s(self) -> int:
        return self.N.shape[0]


@dataclass(frozen=True)
class SynthesisTrace:
    """What a synthesis was built from, and how plant states map into it.

    Every system with the same plant shares one trace; its arrays are
    read-only."""

    staircase: StaircaseDecomposition
    stacked_qkf: PencilQKF
    A_eta1: np.ndarray              # normalized overdetermined block ([I; 0], [A1; A2])
    A_eta2: np.ndarray
    L: np.ndarray                   # stabilizing gain (step 5); 0 when folded
    eta_folded: bool                # overdetermined state resolved algebraically
    state_map: np.ndarray = field(repr=False)  # rows mapping full x -> (x_f2; x_eta)

    def tracked_state(self, x0) -> np.ndarray:
        """Coordinates of x that the estimator state w tracks."""
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.size != self.state_map.shape[1]:
            raise ValueError(
                f"expected a state of dimension {self.state_map.shape[1]}")
        return self.state_map @ x0


@dataclass(frozen=True)
class _PlantEstimator:
    """Steps 4-6 as far as they do not read K: the estimator's N and H, the
    plant factors of its feedthrough M (``G_eta`` resolves a folded x_eta
    from (u; y), else None), and the trace."""

    B_sigma: np.ndarray
    G_eta: np.ndarray | None
    N: np.ndarray
    H: np.ndarray
    trace: SynthesisTrace


def _build_plant_estimator(plant, tol: Tolerance) -> _PlantEstimator:
    structure = plant.built(_build_structure, tol)
    st, form = structure.staircase, structure.form
    J_f2 = structure.J_f2
    p = plant.C.shape[0]
    n_O = st.col_partition[0]

    B_bar = np.block([[st.B_O, np.zeros((st.E_O.shape[0], p))],
                      [plant.D, -np.eye(p)]])
    _, B_f, B_sigma, B_eta = form.split_left(B_bar)
    # The decaying Schur coordinates U_f2^T x_f evolve on their own under J_f2.
    U_f2 = structure.U1[:, structure.J_f1.shape[0]:]
    B_f2 = U_f2.T @ B_f

    # Step 4: normalize the overdetermined block to ([I; 0], [A1; A2]).
    n_eta, m_eta = form.n_eta, form.m_eta
    U2 = form.eta_normalization()
    A_eta_n = U2 @ form.A_eta
    B_eta_n = U2 @ B_eta
    A_eta1, A_eta2 = A_eta_n[:n_eta, :], A_eta_n[n_eta:, :]
    B_eta1, B_eta2 = B_eta_n[:n_eta, :], B_eta_n[n_eta:, :]

    # Steps 5 and 6 with algebraic folding: when the constraint rows
    # determine x_eta uniquely from (u; y), resolve it into the feedthrough
    # instead of carrying a dynamic state; only a dynamic x_eta needs the
    # stabilizing gain L.  One thin SVD decides the fold and gives the
    # pseudo-inverse of A_eta2, whose singular values then all count.
    fold = False
    if n_eta and A_eta2.shape[0]:
        u, s, vh = np.linalg.svd(A_eta2, full_matrices=False)
        fold = np.count_nonzero(s > _svd_threshold(s, A_eta2.shape, tol)) == n_eta
    if fold:
        L = np.zeros((n_eta, m_eta - n_eta))
        G_eta = -((vh.T * (1.0 / s)) @ u.T) @ B_eta2
        N, H = J_f2, B_f2
    else:
        L = place_poles(A_eta1, A_eta2, tol.synthesis_margin)
        G_eta = None
        N = np.block([
            [J_f2, np.zeros((J_f2.shape[0], n_eta))],
            [np.zeros((n_eta, J_f2.shape[0])), A_eta1 - L @ A_eta2]])
        H = np.vstack([B_f2, B_eta1 - L @ B_eta2])
    # N is stable as computed: the ordered Schur split decided J_f2's
    # spectrum and place_poles' postcondition A_eta1 - L A_eta2's.

    # Rows mapping a full plant state x to the tracked coordinates
    # (x_f2; x_eta): undo the staircase and the QKF column transform, then
    # take the decaying Schur coordinates of x_f.
    _, f_rows, _, eta_rows = _split(np.linalg.inv(form.Q), form.col_sizes, 0)
    f2_rows = U_f2.T @ f_rows
    sel = f2_rows if fold else np.vstack([f2_rows, eta_rows])
    state_map = sel @ st.V_O.T[:n_O, :]

    trace = _read_only(SynthesisTrace(
        staircase=st, stacked_qkf=form, A_eta1=A_eta1, A_eta2=A_eta2,
        L=L, eta_folded=fold, state_map=state_map))
    return _PlantEstimator(B_sigma=B_sigma, G_eta=G_eta, N=N, H=H, trace=trace)


def synthesize_estimator(sys: DescriptorSystem,
                         tol: Tolerance = DEFAULT_TOL):
    """Construct a functional estimator; refuse when none can exist.

    Continues from the structure an analysis at ``tol`` read its verdict
    from.  Returns (EstimatorRealization, SynthesisTrace).
    """
    functional = _functional(sys, tol)
    for row in functional.checks:
        if not _holds(row):
            condition, residual, _ = row
            raise SynthesisError(f"no functional ODE estimator exists: {condition} "
                                 f"(residual {residual:.2e})")
    part = _plant(sys).built(_build_plant_estimator, tol)

    # Only the output map R and the feedthrough M read K.
    K_sigma, K_eta, K_f2 = functional.K_sigma, functional.K_eta, functional.K_f2
    M = -K_sigma @ part.B_sigma if part.B_sigma.shape[0] \
        else np.zeros((sys.r, sys.l + sys.p))
    if part.trace.eta_folded:
        M = M + K_eta @ part.G_eta
        R = K_f2
    else:
        R = np.hstack([K_f2, K_eta])
    est = EstimatorRealization(N=part.N.copy(), H=part.H.copy(), R=R, M=M)
    return est, part.trace
