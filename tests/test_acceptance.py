"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion; run with
``pytest -v`` (the configured ``-rA`` summary shows the lines for passing
tests too).
"""

import time

import numpy as np
import pytest
import sympy
from click.testing import CliRunner

from dsest import (
    DescriptorSystem,
    EstimatorRealization,
    InputSignal,
    SynthesisError,
    build_F,
    build_F_K,
    characterization_suite,
    is_partially_causal_detectable,
    kalman_controllability,
    numeric_rank,
    observability_staircase,
    qkf,
    simulate,
    synthesize_estimator,
)
from dsest import io as dsio
from dsest.cli import main as cli_main
from dsest.exceptions import DecompositionError

from conftest import random_pencil, random_system
from test_analysis import TestFullStateRegression
from test_decomp import blockdiag_pencil


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def ramp():
    return InputSignal.polynomial([[0.0, 1.0]])


class TestAcceptance:
    def test_criterion_01_worked_example_verdict(self, ex_system):
        start = time.perf_counter()
        report = is_partially_causal_detectable(ex_system)
        elapsed = time.perf_counter() - start
        votes = characterization_suite(ex_system)
        ok = (report.partially_causal_detectable
              and len(votes) == 5 and all(votes) and elapsed < 1.0)
        _verdict(1, ok,
                 f"verdict={report.partially_causal_detectable}, "
                 f"votes={tuple(bool(v) for v in votes)}, "
                 f"runtime={elapsed * 1e3:.1f} ms")

    def test_criterion_02_worked_example_synthesis(self, ex_system,
                                                   ex_reference_estimator):
        est, trace = synthesize_estimator(ex_system)
        eigs = np.linalg.eigvals(est.N)
        eig_dev = np.abs(np.sort_complex(eigs) - (-1.0)).max()
        # Map the reference estimator state onto the synthesized one through
        # the similarity of the two observable pairs (R, N), then compare
        # simulated zhat on the tracking-run trajectory.
        ref = ex_reference_estimator
        O_a = np.vstack([ref.R, ref.R @ ref.N])
        O_b = np.vstack([est.R, est.R @ est.N])
        S = np.linalg.solve(O_b, O_a)
        x0 = np.array([1.0, 2.0, 3.0, 0.0])
        tr_a = simulate(ex_system, ref, x0, [4.0, 5.0], u=ramp())
        tr_b = simulate(ex_system, est, x0, S @ np.array([4.0, 5.0]),
                        u=ramp())
        zhat_dev = np.abs(tr_a.zhat - tr_b.zhat).max()
        ok = est.s == 2 and trace.eta_folded and eig_dev < 1e-8 \
            and zhat_dev < 1e-6
        _verdict(2, ok, f"s={est.s}, eta_folded={trace.eta_folded}, "
                 f"max|eig+1|={eig_dev:.2e}, max|zhat_a-zhat_b|={zhat_dev:.2e}")

    def test_criterion_03_tracking_run(self, ex_system,
                                       ex_reference_estimator):
        tr = simulate(ex_system, ex_reference_estimator,
                      [1.0, 2.0, 3.0, 0.0], [4.0, 5.0], u=ramp(),
                      T=30.0, dt=1e-3)
        ref = (4 + 2 * tr.t) * np.exp(-tr.t)
        dev = np.abs(tr.e[0] - ref).max()
        e25 = np.linalg.norm(tr.e[:, tr.t >= 25.0][:, 0])
        ok = dev < 1e-6 and e25 < 1e-8
        _verdict(3, ok, f"max|e-(4+2t)exp(-t)|={dev:.2e}, |e(25)|={e25:.2e}")

    def test_criterion_04_sign_change_run(self, ex_system,
                                          ex_reference_estimator):
        tr = simulate(ex_system, ex_reference_estimator,
                      [1.0, 2.0, 3.0, 0.0], [4.0, 2.0], u=ramp(),
                      T=30.0, dt=1e-3)
        ref = (1 - tr.t) * np.exp(-tr.t)
        dev = np.abs(tr.e[0] - ref).max()
        e0_dev = abs(tr.e[0, 0] - 1.0)
        sign = np.sign(tr.e[0])
        crossings = tr.t[1:][sign[1:] * sign[:-1] < 0]
        dt = tr.t[1] - tr.t[0]
        cross_ok = len(crossings) == 1 \
            and abs(crossings[0] - 1.0) <= dt * (1 + 1e-9)
        ok = dev < 1e-6 and e0_dev < 1e-9 and cross_ok
        _verdict(4, ok, f"max|e-(1-t)exp(-t)|={dev:.2e}, |e(0)-1|={e0_dev:.2e}, "
                 f"crossings={np.round(crossings, 6)}")

    def test_criterion_05_nonexistence_witness(self, ex_system,
                                               ex_reference_estimator):
        # w(0) = 0 gives zhat(0) = z(0) = 0 for this autonomous start
        tr = simulate(ex_system, ex_reference_estimator,
                      [0.0, -1.0, 1.0, 0.0], [0.0, 0.0], T=10.0, dt=1e-3)
        assert abs(tr.z[0, 0]) < 1e-12 and abs(tr.zhat[0, 0]) < 1e-12
        peak = np.abs(tr.z - tr.zhat)[0, 1:].max()
        dev = abs(peak - np.exp(-1.0))
        _verdict(5, dev < 1e-6,
                 f"max(0,10] |z-zhat|={peak:.9f}, |peak-exp(-1)|={dev:.2e}")

    def test_criterion_06_characterization_consensus(self):
        rng = np.random.default_rng(7)
        disagreements = 0
        for _ in range(500):
            sys_ = random_system(rng)
            votes = characterization_suite(sys_)
            if len(set(bool(v) for v in votes)) != 1:
                disagreements += 1
        _verdict(6, disagreements == 0,
                 f"500 random systems, {disagreements} disagreements")

    def test_criterion_07_rank_equivalence_oracle(self):
        rng = np.random.default_rng(202)
        mismatches = 0
        for _ in range(200):
            E, A = random_pencil(rng)
            n = E.shape[1]
            K = rng.integers(-3, 4, (int(rng.integers(1, n + 1)), n)) \
                .astype(float)
            # integer data: exact ranks, immune to stacking ill-conditioning
            rank_eq = (sympy.Matrix(build_F(E, A, n).astype(int)).rank()
                       == sympy.Matrix(build_F_K(E, A, K, n).astype(int))
                       .rank())
            dec = qkf(E, A)
            K_eps, _, K_sigma, _ = dec.split_right(K)
            cond = (np.abs(K_eps).max(initial=0.0) < 1e-9
                    and np.abs(K_sigma @ dec.J_sigma).max(initial=0.0) < 1e-9)
            if rank_eq != cond:
                mismatches += 1
        _verdict(7, mismatches == 0,
                 f"200 random pencils, {mismatches} mismatches")

    def test_criterion_08_necessity_probe(self, tmp_path,
                                          sigma_violating_system):
        # synthesis must refuse, end to end through the CLI (exit code 2)
        path = tmp_path / "sigma_violating.json"
        dsio.save_system(str(path), sigma_violating_system, name="sigma")
        res = CliRunner().invoke(cli_main, [
            "synth", str(path), "-o", str(tmp_path / "est.json")])
        refusal_ok = res.exit_code == 2

        # probe input sin(t^2)/t (grid shifted by 1 to avoid t = 0): every
        # candidate estimator with decaying R exp(Nt) keeps a large error
        u = InputSignal.probe(1, 1)
        x0 = np.array([-u.eval(np.array([0.0]), order=1)[0, 0],
                       -u.eval(np.array([0.0]))[0, 0]])
        candidates = [
            EstimatorRealization(N=np.array([[-1.0]]), H=np.array([[1.0]]),
                                 R=np.array([[1.0]]), M=np.array([[0.0]])),
            EstimatorRealization(N=np.array([[-3.0]]), H=np.array([[2.0]]),
                                 R=np.array([[-1.0]]), M=np.array([[1.0]])),
            EstimatorRealization(N=np.diag([-1.0, -2.0]),
                                 H=np.array([[1.0], [1.0]]),
                                 R=np.array([[1.0, -1.0]]),
                                 M=np.array([[0.0]])),
        ]
        tails = []
        for est in candidates:
            tr = simulate(sigma_violating_system, est, x0,
                          np.zeros(est.s), u=u, T=30.0, dt=1e-3)
            window = (tr.t >= 10.0)
            tails.append(np.abs(tr.e[0, window]).max())
        probe_ok = min(tails) > 0.1
        _verdict(8, refusal_ok and probe_ok,
                 f"synth exit={res.exit_code}, "
                 f"min sup-tail over candidates={min(tails):.3f}")

    def test_criterion_09_decomposition_invariants(self):
        rng = np.random.default_rng(201)
        worst = 0.0
        for _ in range(200):
            E, A = random_pencil(rng)
            dec = qkf(E, A)
            scale = max(1.0, np.abs(E).max(), np.abs(A).max())
            for lam in (0.0, 1.0, -2.5, 0.3 + 1.1j):
                resid = np.abs(dec.P @ (lam * E - A) @ dec.Q
                               - blockdiag_pencil(dec, lam)).max() / scale
                worst = max(worst, resid)
            if dec.n_sigma:
                assert np.abs(np.linalg.matrix_power(
                    dec.J_sigma, dec.h)).max() < 1e-10

        rng = np.random.default_rng(301)
        for _ in range(200):
            sys_ = random_system(rng, max_dim=4)
            st = observability_staircase(sys_.E, sys_.A, sys_.B)
            scale = max(1.0, np.abs(sys_.E).max(), np.abs(sys_.A).max())
            r0, c0 = st.row_partition[0], st.col_partition[0]
            TE = st.U_O @ sys_.E @ st.V_O
            TA = st.U_O @ sys_.A @ st.V_O
            TB = st.U_O @ sys_.B
            r = max(np.abs(TE[:r0, :c0] - st.E_O).max(initial=0.0),
                    np.abs(TA[:r0, :c0] - st.A_O).max(initial=0.0),
                    np.abs(TB[:r0] - st.B_O).max(initial=0.0)) / scale
            worst = max(worst, r)

        rng = np.random.default_rng(203)
        checked = 0
        for _ in range(400):
            if checked == 200:
                break
            sys_ = random_system(rng, max_dim=4)
            try:
                kd = kalman_controllability(sys_.E, sys_.A, sys_.B, sys_.C)
            except DecompositionError:
                continue
            checked += 1
            (m1, n1), (m2, n2), _ = kd.sizes
            SE = kd.S @ sys_.E @ kd.T
            SA = kd.S @ sys_.A @ kd.T
            SB = kd.S @ sys_.B
            scale = max(1.0, np.abs(sys_.E).max(), np.abs(sys_.A).max(),
                        np.abs(sys_.B).max(initial=0.0))
            r = max(np.abs(SE[m1:, :n1]).max(initial=0.0),
                    np.abs(SA[m1:, :n1]).max(initial=0.0),
                    np.abs(SB[m1:, :]).max(initial=0.0),
                    np.abs(SE[m1 + m2:, n1:n1 + n2]).max(initial=0.0)) / scale
            worst = max(worst, r)
        ok = worst < 1e-10 and checked == 200
        _verdict(9, ok, f"200 instances per decomposition, "
                 f"worst residual={worst:.2e}")

    def test_criterion_10_full_state_regression(self):
        rng = np.random.default_rng(103)
        mismatches = 0
        for _ in range(100):
            base = random_system(rng, max_dim=4)
            sys_ = DescriptorSystem.from_matrices(
                base.E, base.A, base.B, base.C, np.eye(base.n), D=base.D)
            mine = is_partially_causal_detectable(sys_) \
                .partially_causal_detectable
            ref = TestFullStateRegression.classical_causal_detectability(sys_)
            if mine != ref:
                mismatches += 1
        _verdict(10, mismatches == 0,
                 f"100 random full-state systems, {mismatches} mismatches")
