"""Functional ODE estimator synthesis.

Given a partially causal detectable system, constructs matrices (N, H, R, M)
such that

    w' = N w + H (u; y),    zhat = R w + M (u; y)

satisfies zhat(t) - z(t) -> 0 along every plant trajectory.  The pipeline:

1. staircase reduction of (E, A, B), dropping the algebraically-zero stages;
2. quasi-Kronecker form of the measurement-stacked pencil ([E_O; 0], [A_O; C_O]);
3. spectral separation of the finite block into decaying / non-decaying parts;
4. row normalization of the overdetermined block to ([I; 0], [A1; A2]);
5. stabilizing gain L for the overdetermined dynamics;
6. assembly, with the overdetermined state folded into the feedthrough M
   whenever the algebraic rows determine it uniquely from (u; y).

Steps 1-3 are ``analysis._structure``, which the analysis verdict reads
too.  Its block conditions, K_eps = 0, K_sigma J_sigma = 0 and K_f1 = 0
(the functional reads neither the free block, nor input derivatives, nor a
non-decaying undetected mode), are the paper's existence criterion in
dimension n, so synthesis refuses on the first that fails.

A full intermediate trace is returned for audit and for mapping plant states
into estimator coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import SynthesisError
from .analysis import DescriptorSystem, _holds, _structure
from .decomp import PencilQKF, StaircaseDecomposition, _blkdiag
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    numeric_rank,
    place_poles,
    pseudo_inverse,
    _snap_roundoff,
)


@dataclass(frozen=True)
class EstimatorRealization:
    """w' = N w + H (u; y), zhat = R w + M (u; y)."""

    N: np.ndarray
    H: np.ndarray
    R: np.ndarray
    M: np.ndarray

    @property
    def s(self) -> int:
        return self.N.shape[0]


@dataclass(frozen=True)
class SynthesisTrace:
    """Every intermediate artifact of the synthesis pipeline."""

    staircase: StaircaseDecomposition
    stacked_qkf: PencilQKF
    U1: np.ndarray                  # finite-block similarity
    J_f1: np.ndarray                # non-decaying finite part (must be unobserved by K)
    J_f2: np.ndarray                # decaying finite part
    B_f1: np.ndarray
    B_f2: np.ndarray
    K_f1: np.ndarray
    K_f2: np.ndarray
    U2: np.ndarray                  # overdetermined-block row normalization
    A_eta1: np.ndarray
    A_eta2: np.ndarray
    B_eta1: np.ndarray
    B_eta2: np.ndarray
    K_eps: np.ndarray
    K_f: np.ndarray
    K_sigma: np.ndarray
    K_eta: np.ndarray
    B_eps: np.ndarray
    B_sigma: np.ndarray
    L: np.ndarray                   # stabilizing gain (step 5)
    eta_folded: bool                # overdetermined state resolved algebraically
    eta_fold: np.ndarray            # x_eta = eta_fold @ (u; y) when folded
    state_map: np.ndarray = field(repr=False)  # rows mapping full x -> (x_f2; x_eta)

    def tracked_state(self, x0) -> np.ndarray:
        """Coordinates of x that the estimator state w tracks."""
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.size != self.state_map.shape[1]:
            raise ValueError(
                f"expected a state of dimension {self.state_map.shape[1]}")
        return self.state_map @ x0


def synthesize_estimator(sys: DescriptorSystem,
                         tol: Tolerance = DEFAULT_TOL):
    """Construct a functional estimator; refuse when none can exist.

    Returns (EstimatorRealization, SynthesisTrace).
    """
    n, p, l, r = sys.n, sys.p, sys.l, sys.r

    # Steps 1-3 and the existence criterion.
    structure = _structure(sys, tol)
    for row in structure.checks:
        if not _holds(row):
            condition, residual, _ = row
            raise SynthesisError(f"no functional ODE estimator exists: {condition} "
                                 f"(residual {residual:.2e})")
    st, form = structure.staircase, structure.form
    U1, J_f1, J_f2 = structure.U1, structure.J_f1, structure.J_f2
    K_eps, K_f, K_sigma, K_eta = (structure.K_eps, structure.K_f,
                                  structure.K_sigma, structure.K_eta)
    K_f1, K_f2 = structure.K_f1, structure.K_f2
    n_O = st.col_partition[0]

    B_bar = np.block([[st.B_O, np.zeros((st.E_O.shape[0], p))],
                      [sys.D, -np.eye(p)]])
    B_eps, B_f, B_sigma, B_eta = form.split_left(B_bar)
    n_f1 = J_f1.shape[0]
    B_f_split = np.linalg.inv(U1) @ B_f
    B_f1, B_f2 = B_f_split[:n_f1, :], B_f_split[n_f1:, :]

    # Step 4: normalize the overdetermined block to ([I; 0], [A1; A2]).
    n_eta, m_eta = form.n_eta, form.m_eta
    if n_eta:
        u_svd, s_svd, vt_svd = np.linalg.svd(form.E_eta, full_matrices=True)
        if s_svd[n_eta - 1] <= 0:
            raise SynthesisError("overdetermined block lost column rank")
        U2 = np.zeros((m_eta, m_eta))
        U2[:n_eta, :] = (vt_svd.T / s_svd) @ u_svd[:, :n_eta].T
        U2[n_eta:, :] = u_svd[:, n_eta:].T
    else:
        U2 = np.eye(m_eta)
    A_eta_n = U2 @ form.A_eta
    B_eta_n = U2 @ B_eta
    A_eta1, A_eta2 = A_eta_n[:n_eta, :], A_eta_n[n_eta:, :]
    B_eta1, B_eta2 = B_eta_n[:n_eta, :], B_eta_n[n_eta:, :]

    # Step 5: stabilizing gain for the overdetermined dynamics.
    L = place_poles(A_eta1, A_eta2, tol.synthesis_margin, tol)

    # Step 6 with algebraic folding: when the constraint rows determine
    # x_eta uniquely from (u; y), resolve it into the feedthrough instead of
    # carrying a dynamic state.
    M = -K_sigma @ B_sigma if form.n_sigma else np.zeros((r, l + p))
    fold = (n_eta > 0 and numeric_rank(A_eta2, tol) == n_eta)
    if fold:
        eta_fold = -pseudo_inverse(A_eta2, tol) @ B_eta2
        M = M + K_eta @ eta_fold
        N = J_f2
        H = B_f2
        R = K_f2
    else:
        eta_fold = np.zeros((n_eta, l + p))
        N = np.block([
            [J_f2, np.zeros((J_f2.shape[0], n_eta))],
            [np.zeros((n_eta, J_f2.shape[0])), A_eta1 - L @ A_eta2]])
        H = np.vstack([B_f2, B_eta1 - L @ B_eta2])
        R = np.hstack([K_f2, K_eta])

    # The realization matrices are products of decomposition bases with
    # their (pseudo)inverses, so entries that vanish in exact arithmetic
    # come out at roundoff level.  Restore those exact zeros: a ~1e-16
    # residual coupling from a large measured output into w would otherwise
    # ruin long-horizon accuracy of the estimate.
    N, H, R, M = (_snap_roundoff(X) for X in (N, H, R, M))
    est = EstimatorRealization(N=N, H=H, R=R, M=M)
    if est.s:
        worst = float(np.max(np.real(np.linalg.eigvals(est.N))))
        if worst >= 0:
            raise SynthesisError(
                f"assembled estimator is not strictly stable (max Re = {worst:.3e})")
    if est.s > n:
        raise SynthesisError("estimator order exceeds the plant order")

    # Rows mapping a full plant state x to the tracked coordinates
    # (x_f2; x_eta): undo the staircase, the QKF column transform, and the
    # finite-block similarity.
    Q_tilde = form.Q @ _blkdiag(np.eye(form.n_eps), U1,
                                np.eye(form.n_sigma), np.eye(n_eta))
    sel = np.zeros((J_f2.shape[0] + (0 if fold else n_eta), n_O))
    inv_rows = np.linalg.inv(Q_tilde)
    f2_start = form.n_eps + n_f1
    sel[:J_f2.shape[0], :] = inv_rows[f2_start:f2_start + J_f2.shape[0], :]
    if not fold:
        eta_start = form.n_eps + form.n_f + form.n_sigma
        sel[J_f2.shape[0]:, :] = inv_rows[eta_start:eta_start + n_eta, :]
    state_map = sel @ st.V_O.T[:n_O, :]

    trace = SynthesisTrace(
        staircase=st, stacked_qkf=form,
        U1=U1, J_f1=J_f1, J_f2=J_f2, B_f1=B_f1, B_f2=B_f2,
        K_f1=K_f1, K_f2=K_f2,
        U2=U2, A_eta1=A_eta1, A_eta2=A_eta2, B_eta1=B_eta1, B_eta2=B_eta2,
        K_eps=K_eps, K_f=K_f, K_sigma=K_sigma, K_eta=K_eta,
        B_eps=B_eps, B_sigma=B_sigma,
        L=L, eta_folded=fold, eta_fold=eta_fold, state_map=state_map)
    return est, trace
