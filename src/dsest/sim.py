"""Trajectory generation for descriptor plants and ODE estimators.

A rectangular pencil decomposes into four kinds of blocks; each solves
differently:

* underdetermined block -- an ODE in part of its coordinates, the remaining
  coordinates are genuinely free and must be *chosen* (they parameterize the
  solution set),
* finite block -- a plain linear ODE,
* nilpotent block -- purely algebraic, the state is a finite sum of input
  derivatives,
* overdetermined block -- an ODE plus algebraic consistency rows that the
  trajectory must satisfy identically.

Dynamic parts are integrated with fixed-step classical RK4; algebraic parts
are evaluated exactly from analytic input derivatives.  ``solve_plant`` and
``simulate`` share ``_run``, which makes one RK4 pass: of the plant's
dynamic part, or of the joint plant-plus-estimator system, whose estimator
rows read the plant state through H_y C.  The input jet, the free signal and
the algebraic part of x are each evaluated once, into one table on the RK4
stage times (``_stage_times``) that the x0 checks, the forcing table of the
pass and the output grid read.  That pass and ``run_estimator`` step through
one kernel, ``_rk4``, which allocates no array per step: slopes and stage
arguments live in preallocated rows, with the bits of the textbook step.  A
pass that overflows is refused at that step.  The plant's block machinery
(``_PlantSolver``) is built once per plant and tolerance, in the memo that
analysis and synthesis share.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analysis import DescriptorSystem, _plant
from .decomp import _blkdiag, _split, qkf
from .exceptions import SimulationError
from .linalg import CONSISTENCY_ATOL, DEFAULT_TOL, Tolerance
from .signals import InputSignal
from .synthesis import EstimatorRealization

DEFAULT_HORIZON = 30.0
DEFAULT_DT = 1e-3


@dataclass
class SimulationTrace:
    """Uniformly sampled trajectory data.

    Arrays are (dim, n_samples); estimator fields are None for plant-only
    runs.  ``e = zhat - z``.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    w: Optional[np.ndarray] = None
    zhat: Optional[np.ndarray] = None
    e: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.t.ndim != 1 or len(self.t) < 2:
            raise SimulationError("trace needs at least two samples")
        if np.any(np.diff(self.t) <= 0):
            raise SimulationError("time grid must be strictly increasing")
        for name in ("x", "y", "z", "w", "zhat", "e"):
            arr = getattr(self, name)
            if arr is not None and not np.all(np.isfinite(arr)):
                raise SimulationError(f"non-finite samples in {name}")


def _time_grid(T: float, dt: float) -> np.ndarray:
    if not (0 < T < math.inf and 0 < dt < math.inf):
        raise SimulationError(f"T and dt must be finite and positive, got T={T}, dt={dt}")
    # Refuse a step count that overflows or whose stage times (16 B a step) exceed memory.
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") \
        if hasattr(os, "sysconf") else np.iinfo(np.intp).max
    if not 16 * (T / dt) <= memory:
        raise SimulationError(f"T/dt = {T / dt:.3g} steps do not fit in memory "
                              f"(T={T}, dt={dt})")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        n_steps = max(1, math.ceil(T / dt - 1e-12))
    return np.arange(n_steps + 1) * dt


def _initial_state(v, name: str, size: int, what: str) -> np.ndarray:
    """``v`` as a float vector of ``size`` finite entries; ``what`` names
    the dimension it must match."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (size,):
        raise SimulationError(f"{name} has length {v.size}, {what} is {size}")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise SimulationError(f"{name} entries must be finite, entry {bad[0]} "
                              f"is {v[bad[0]]}")
    return v


def _as_signal(u, dim: int) -> InputSignal:
    if u is None:
        return InputSignal.zero(dim)
    if not isinstance(u, InputSignal):
        raise SimulationError("input must be an InputSignal (closed form)")
    if u.dim != dim:
        raise SimulationError(f"input has {u.dim} components, plant needs {dim}")
    return u


class _PlantSolver:
    """Block-wise solution machinery for E x' = A x + B u.

    The pencil decomposition identifies which degrees of freedom are
    dynamic, algebraic, and free; the dynamic ODE is re-expressed in the
    original state coordinates (X' = F X + ...).

    The certified QKF fixes the block sizes: the free block is normalized
    at the rank m_eps that the certification checked, the overdetermined
    block by ``eta_normalization``, and Q_v has full column rank.  The x0
    checks scale with E, A, x0 and the input term of each constraint, so
    rescaling B does not move them.
    """

    def __init__(self, plant, tol: Tolerance = DEFAULT_TOL):
        # ``plant`` is a system or its plant memo; only E, A and B are read,
        # and none is kept, so the memo refers to no system.
        self.n = plant.E.shape[1]
        self.dec = dec = qkf(plant.E, plant.A, tol)
        B_eps, B_f, B_sigma, B_eta = dec.split_left(plant.B)
        self.scale = max(1.0, max((np.abs(M).max() if M.size else 0.0)
                                  for M in (plant.E, plant.A)))

        # Underdetermined block: column operation Z so that E_eps @ Z = [I 0],
        # from one SVD U S V^T of E_eps at its certified rank m_eps:
        # Z = [V1 S^-1 U^T, V2] and Z^-1 = [E_eps; V2^T].  The columns V2 span
        # the free directions.
        me = dec.m_eps
        u, s, vt = np.linalg.svd(dec.E_eps)
        Z = np.hstack([(vt[:me].T / s) @ u.T, vt[me:].T])
        self.Zinv = np.vstack([dec.E_eps, vt[me:]])
        AZ = dec.A_eps @ Z
        self.n_free = dec.n_eps - me

        # Overdetermined block: row operation U so that U @ E_eta = [I; 0];
        # the trailing rows of U expose the algebraic consistency equations.
        neta = dec.n_eta
        U = dec.eta_normalization()
        A_eta_dyn, self.A_eta_alg = np.split(U @ dec.A_eta, [neta])
        B_eta_dyn, self.B_eta_alg = np.split(U @ B_eta, [neta])

        # Nilpotent block: x_sigma(t) = -sum_i J^i B u^(i)(t).
        self.sigma_coeffs = []
        Ji = np.eye(dec.n_sigma)
        for _ in range(dec.h if dec.n_sigma else 0):
            self.sigma_coeffs.append(-Ji @ B_sigma)
            Ji = dec.J_sigma @ Ji

        # Dynamic state v = (driven part of eps-block, finite block,
        # eta-block) in decomposed coordinates; X = Q_v v is its image in
        # original coordinates.  All runtime matrices are formed as
        # basis-sandwiched products so that the decomposition's internal
        # rotations cancel.
        Q_eps, Q_f, Q_sig, Q_eta = _split(dec.Q, dec.col_sizes, 1)
        self.Q_v = np.hstack([Q_eps @ Z[:, :me], Q_f, Q_eta])
        D_v = _blkdiag(AZ[:, :me], dec.J_f, A_eta_dyn)
        B_v = np.vstack([B_eps, B_f, B_eta_dyn])
        C_free = np.vstack([AZ[:, me:], np.zeros((dec.n_f + neta, self.n_free))])
        # Q_v is columns of the invertible Q [Z 0; 0 I], so its pseudo-inverse
        # is R^-1 Q^T of one QR, with no rank to decide.
        q, r = np.linalg.qr(self.Q_v)
        Qv_pinv = np.linalg.solve(r, q.T)
        self.F = self.Q_v @ D_v @ Qv_pinv
        self.Gu = self.Q_v @ B_v
        self.Gfree = self.Q_v @ C_free
        self.free_map = Q_eps @ Z[:, me:]
        self.sigma_maps = [Q_sig @ c for c in self.sigma_coeffs]
        # Algebraic consistency rows of the eta-block, expressed on X.
        self.R_alg = self.A_eta_alg @ Qv_pinv[me + dec.n_f:]

    def initial_dynamic_state(self, x0: np.ndarray, u0: list, eps_signal):
        """Split a full x(0) into dynamic state + free signal, checking the
        algebraic constraints against ``u0``, the input and each derivative
        the nilpotent block reads at t = 0.  Returns (v0, free_signal_callable)."""
        x0 = _initial_state(x0, "x0", self.n, "plant state dimension")
        xi0 = np.linalg.solve(self.dec.Q, x0)
        xi_eps, xi_f, xi_sig, xi_eta = _split(xi0, self.dec.col_sizes, 0)

        def atol(drive):    # B enters through the input term ``drive`` alone
            return CONSISTENCY_ATOL * self.scale * max(
                1.0, np.abs(x0).max(), np.abs(drive).max(initial=0.0))

        if xi_sig.size:
            expected = np.zeros(xi_sig.shape)   # the nilpotent-block state at t = 0
            for coeff, ui in zip(self.sigma_coeffs, u0):
                if coeff.size:
                    expected += coeff @ ui
            gap = np.abs(xi_sig - expected)
            if gap.max() > atol(expected):
                raise SimulationError(
                    "inconsistent initial state: nilpotent algebraic "
                    f"constraint violated by {gap.max():.3e} "
                    f"(component {int(gap.argmax())} of the nilpotent block)")
        if self.A_eta_alg.shape[0]:     # also when the block has no columns
            drive = self.B_eta_alg @ u0[0]
            res = self.A_eta_alg @ xi_eta + drive
            if np.abs(res).max() > atol(drive):
                row = int(np.abs(res).argmax())
                raise SimulationError(
                    "inconsistent initial state: overdetermined-block "
                    f"algebraic row {row} has residual {np.abs(res).max():.3e}")

        zeta1_0, zeta2_0 = np.split(self.Zinv @ xi_eps, [self.dec.m_eps])
        free = eps_signal
        if eps_signal is None:
            def free(t):
                return np.multiply.outer(zeta2_0, np.ones_like(t))
        elif not callable(eps_signal):
            raise SimulationError("eps_signal must be callable")

        return self.Q_v @ np.concatenate([zeta1_0, xi_f, xi_eta]), free

    def eta_residual(self, X: np.ndarray, u_samples: np.ndarray) -> float:
        res = self.R_alg @ X + self.B_eta_alg @ u_samples
        return float(np.abs(res).max()) if res.size else 0.0


def _stage_times(t: np.ndarray) -> np.ndarray:
    """The times at which ``_rk4`` samples the right-hand side on grid t.
    Entry 2k is t_k and entry 2k+1 the midpoint t_k + h/2 of step k, with the
    step's own arithmetic; the last stage's time t_k + h is t_{k+1} exactly,
    as h = t_{k+1} - t_k is exact when t_{k+1} <= 2 t_k (Sterbenz), as on
    every ``_time_grid``."""
    times = np.empty(2 * len(t) - 1)
    times[0::2] = t
    times[1::2] = t[:-1] + (t[1:] - t[:-1]) / 2
    return times


def _stacked(M: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """M @ r for every row r of ``rows``, each by its own matrix-vector
    product, as one stage makes it; one matrix-matrix product ``M @ rows.T``
    may associate its sums differently."""
    return (M @ np.ascontiguousarray(rows)[:, :, None])[:, :, 0]


def _rk4(M: np.ndarray, g: np.ndarray, v0: np.ndarray, t: np.ndarray,
         names: tuple) -> np.ndarray:
    """Classical fixed-step RK4 of v' = M v + g on a uniform grid; returns
    (dim, len(t)).  Stages 1-4 of step k add rows 2k, 2k+1, 2k+1 and 2k+2 of
    the table g (the times of ``_stage_times``) to M v.

    The loop allocates no array: the slopes, stage arguments and new states
    are written into preallocated rows, and every row is a view drawn lazily
    from ``zip``.  Each operation is the one of the textbook step, so the
    bits are those of ``v + h/6 * (((k1 + 2 k2) + 2 k3) + k4)``.

    An overflow or invalid operation raises ``SimulationError`` at the step
    where it happens, naming ``names[i]`` for the first coordinate i that the
    step made non-finite, and the step's time."""
    steps = len(t) - 1
    # zip stops at its shortest input, so a short table would end the run early.
    if len(g) < 2 * steps + 1:
        raise ValueError(f"forcing too short for {steps} steps")
    # Zeros, not garbage, where an overflowing step has not written yet.
    out = np.zeros((len(t), v0.size))
    out[0] = v0
    K, args = np.zeros((4, v0.size)), np.zeros((3, v0.size))
    k1, k2, k3, k4 = K
    a2, a3, a4 = args
    mid = K[1:3]
    h = t[1:] - t[:-1]
    dot, mul, add_rows = M.dot, np.multiply, np.add.reduce
    try:
        with np.errstate(over="raise", invalid="raise"):
            for v, v_next, g1, g2, g4, tk, hk, h2, h6 in zip(
                    out, out[1:], g[0::2], g[1::2], g[2::2], t, h, h / 2, h / 6):
                dot(v, out=k1)
                k1 += g1
                mul(k1, h2, a2)
                a2 += v
                dot(a2, out=k2)
                k2 += g2
                mul(k2, h2, a3)
                a3 += v
                dot(a3, out=k3)
                k3 += g2
                mul(k3, hk, a4)
                a4 += v
                dot(a4, out=k4)
                k4 += g4
                mid *= 2
                add_rows(K, axis=0, out=v_next)
                v_next *= h6
                v_next += v
    except FloatingPointError:
        bad = ~np.isfinite(np.vstack([K, args, v_next])).all(axis=0)
        raise SimulationError(f"{names[bad.argmax()]} overflows in the RK4 "
                              f"step from t = {tk:.6g}") from None
    # Callers read C-ordered (dim, len(t)) arrays; a matrix product's last
    # bits can follow the layout of its operand.
    return np.ascontiguousarray(out.T)


def _run(sys: DescriptorSystem, x0, u: InputSignal, T: float, dt: float,
         tol: Tolerance, eps_signal, est: Optional[EstimatorRealization] = None,
         w0: Optional[np.ndarray] = None) -> SimulationTrace:
    """One RK4 pass: of the dynamic part X of the plant, X' = F X + g, or,
    when ``est`` is given, of the joint system
    (X, w)' = [[F, 0], [H_y C, N]] (X, w) + g.  The estimator rows of g are
    (H_u + H_y D) u + H_y C alg, so that with x = X + alg the estimator reads
    H (u; C x + D u)."""
    t = _time_grid(T, dt)
    solver = _plant(sys).built(_PlantSolver, tol)
    times = _stage_times(t)
    jet = [u.eval(times, order=i) for i in range(max(1, len(solver.sigma_maps)))]
    rows = [ui.T for ui in jet]             # rows[i][j]: order i at time j
    X0, free = solver.initial_dynamic_state(x0, [r[0] for r in rows], eps_signal)
    g = _stacked(solver.Gu, rows[0])
    terms = [(smap, r) for smap, r in zip(solver.sigma_maps, rows) if smap.size]
    if solver.n_free:
        free_rows = np.asarray(free(times), dtype=float).T
        if free_rows.shape != (len(times), solver.n_free):
            raise SimulationError(f"free-part signal has shape {free_rows.T.shape} on "
                                  f"{len(times)} stage times, expected "
                                  f"({solver.n_free}, {len(times)})")
        g += _stacked(solver.Gfree, free_rows)
        terms.append((solver.free_map, free_rows))
    alg = np.zeros((len(rows[0]), sys.n))
    for M, r in terms:                  # sigma terms, then the free term,
        alg += _stacked(M, r)           # one product per time as a stage makes it
    M, v0, names = solver.F, X0, ("x",) * sys.n
    if est is not None:
        Hu, Hy = est.H[:, :sys.l], est.H[:, sys.l:]
        HyC = Hy @ sys.C
        M = np.block([[M, np.zeros((sys.n, est.s))], [HyC, est.N]])
        g = np.hstack([g, _stacked(Hu + Hy @ sys.D, rows[0]) + _stacked(HyC, alg)])
        v0, names = np.concatenate([X0, w0]), names + ("w",) * est.s
    X, w = np.split(_rk4(M, g, v0, t, names), [sys.n])
    x = X + alg[0::2].T
    u_samples = jet[0][:, 0::2]
    y = sys.C @ x + sys.D @ u_samples
    est_fields = {} if est is None else dict(
        w=w, zhat=est.R @ w + est.M @ np.vstack([u_samples, y]),
        e=estimation_error(sys, est, x, u_samples, w))
    return SimulationTrace(
        t=t, x=x, y=y, z=sys.K @ x, **est_fields,
        meta={"dt": dt, "T": t[-1], "integrator_order": 4,
              "eta_residual_max": solver.eta_residual(X, u_samples),
              "block_dims": solver.dec.col_sizes})


def solve_plant(sys: DescriptorSystem, x0, u: Optional[InputSignal] = None,
                T: float = DEFAULT_HORIZON, dt: float = DEFAULT_DT,
                tol: Tolerance = DEFAULT_TOL,
                eps_signal=None) -> SimulationTrace:
    """Simulate E x' = A x + B u from a consistent initial state.

    ``eps_signal`` chooses the free component of an underdetermined block;
    the default holds it constant at its initial value, which keeps x(0)
    exactly as supplied.  A callable ``eps_signal`` is called once, on the
    array of RK4 stage times (t_k and the step midpoints), and must return
    one row per free component.
    """
    return _run(sys, x0, _as_signal(u, sys.l), T, dt, tol, eps_signal)


def estimation_error(sys: DescriptorSystem, est: EstimatorRealization,
                     x: np.ndarray, u_samples: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
    """Estimation error zhat - z evaluated in compensated form.

    Forming zhat and z separately and subtracting loses precision whenever
    the plant has large (e.g. unstable) modes that the estimator cancels
    through the measured output.  Expanding zhat - z = R w + M_u u +
    (M_y C - K) x + M_y D u performs that cancellation exactly in the
    coefficient matrix, so the result stays accurate even when z itself is
    huge.
    """
    Mu, My = est.M[:, :sys.l], est.M[:, sys.l:]
    e = est.R @ w + (My @ sys.C - sys.K) @ x
    if u_samples.size:
        e = e + (Mu + My @ sys.D) @ u_samples
    return e


def run_estimator(est: EstimatorRealization, t: np.ndarray,
                  u_samples: np.ndarray, y_samples: np.ndarray,
                  w0) -> tuple[np.ndarray, np.ndarray]:
    """Integrate w' = N w + H (u; y) on sampled inputs; returns (w, zhat).

    Midpoint input values are averaged from the neighbouring samples; the
    stage inputs are laid out as the times of ``_stage_times``.
    """
    t = np.asarray(t, dtype=float)
    u_samples = np.atleast_2d(np.asarray(u_samples, dtype=float))
    y_samples = np.atleast_2d(np.asarray(y_samples, dtype=float))
    if u_samples.shape[1] != len(t) or y_samples.shape[1] != len(t):
        raise SimulationError("sampling grids of u, y, t do not match")
    v = np.vstack([u_samples, y_samples])
    if v.shape[0] != est.H.shape[1]:
        raise SimulationError(
            f"estimator expects {est.H.shape[1]} input+output channels, "
            f"got {v.shape[0]}")
    w0 = _initial_state(w0, "w0", est.s, "estimator order")
    stages = np.empty((2 * len(t) - 1, v.shape[0]))
    stages[0::2] = v.T
    stages[1::2] = ((v[:, :-1] + v[:, 1:]) / 2).T
    w = _rk4(est.N, _stacked(est.H, stages), w0, t, ("w",) * est.s)
    return w, est.R @ w + est.M @ v


def simulate(sys: DescriptorSystem, est: EstimatorRealization, x0, w0,
             u: Optional[InputSignal] = None, T: float = DEFAULT_HORIZON,
             dt: float = DEFAULT_DT, tol: Tolerance = DEFAULT_TOL,
             eps_signal=None) -> SimulationTrace:
    """Joint plant + estimator simulation: RK4 of the joint system.

    The estimator sees exact plant outputs at every RK4 stage, so the
    combined scheme keeps full fourth-order accuracy.  ``eps_signal`` is as
    in ``solve_plant``: called once, on the RK4 stage times.
    """
    u = _as_signal(u, sys.l)
    w0 = _initial_state(w0, "w0", est.s, "estimator order")
    if est.H.shape[1] != sys.l + sys.p or est.R.shape[0] != sys.r:
        raise SimulationError(
            f"estimator H is {est.H.shape[0]}x{est.H.shape[1]} and R is "
            f"{est.R.shape[0]}x{est.R.shape[1]}; the plant needs H with l + p = "
            f"{sys.l + sys.p} columns and R with r = {sys.r} rows")
    return _run(sys, x0, u, T, dt, tol, eps_signal, est, w0)


@dataclass(frozen=True)
class DecayMetrics:
    sup_tail: np.ndarray          # sup over [t, T] of the error norm
    fitted_rate: Optional[float]  # least-squares exponent over the final half
    convergent: bool
    verdict: str


def decay_metrics(trace: SimulationTrace) -> DecayMetrics:
    """Tail supremum and fitted exponential decay rate of the error."""
    if trace.e is None:
        raise SimulationError("trace has no error signal")
    enorm = np.linalg.norm(trace.e, axis=0)
    sup_tail = np.maximum.accumulate(enorm[::-1])[::-1]
    peak = sup_tail[0]
    if peak == 0.0:
        return DecayMetrics(sup_tail, None, True, "convergent (error identically zero)")

    half = len(trace.t) // 2
    tt, vv = trace.t[half:], sup_tail[half:]
    floor = max(1e-14, 1e-13 * peak)
    mask = vv > floor
    rate = None
    if mask.sum() >= 2 and np.ptp(tt[mask]) > 0:
        slope, _ = np.polyfit(tt[mask], np.log(vv[mask]), 1)
        rate = float(slope)

    final = sup_tail[-1]
    convergent = bool(final <= max(1e-6, 1e-6 * peak)
                      or (rate is not None and rate < -1e-2
                          and final < 1e-2 * peak))
    verdict = "convergent" if convergent else "not convergent"
    return DecayMetrics(sup_tail, rate, convergent, verdict)
