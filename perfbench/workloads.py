"""The three workloads: their ops, the per-op checks, and the reference record.

Every workload is a closed loop with one client: the next op starts when
the previous one has finished.  ``make_workload`` builds a workload's
inputs, ``run_op`` times one op, and ``check`` runs the untimed per-op
checks after the timed phase.  An op outcome is a code letter:

    Y  affirmative verdict, estimator built     N  negative verdict or refusal
    F  failed: uncaught exception, CLI exit 1 or traceback, or a
       SynthesisError after an affirmative verdict

A completed op whose output fails a check is "wrong", and its letter is
written in lower case.  ``reference.json`` holds the letter every pool op
had at the baseline; an op that was clean there (Y or N) must keep its
letter, otherwise the run is not correct.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "tests", "data")
WORK = os.path.join(HERE, "out", "work")
REFERENCE = os.path.join(HERE, "reference.json")

SYSTEM = os.path.join(DATA, "example_system.json")
REF_ESTIMATOR = os.path.join(DATA, "reference_estimator.json")
CLI_COMMANDS = ("analyze", "synth", "simulate", "report")


def cli_args(command: str, index: int) -> list[str]:
    """Arguments of the README session's `dsest <command>`; every simulate op
    writes its own trace so that each one is checked."""
    out = os.path.join(WORK, f"{command}-{index}")
    return {
        "analyze": ["analyze", SYSTEM, "--json-out", out + ".json", "--md-out", out + ".md"],
        "synth": ["synth", SYSTEM, "-o", out + ".json"],
        "simulate": ["simulate", SYSTEM, REF_ESTIMATOR, "--x0", "1,2,3,0",
                     "--w0", "4,5", "--input", "poly:0,1", "--tf", "30",
                     "--dt", "0.001", "--out", out + ".csv", "--svg", out + ".svg"],
        "report": ["report", SYSTEM],
    }[command]


CLOSED_FORM_ATOL = 1e-6

# Nominal wall time of one round at the baseline (2-core x86 machine, one
# OpenBLAS thread).  The number of rounds a run makes is
# round(--seconds / ROUND_S), fixed before any timing, so the timed phase
# does the same work on every commit and only its duration changes.
ROUND_S = {"worked-cli": 7.0, "decide-lifted": 14.0, "decide-rescaled": 28.0}

# Short convergence run of a synthesized estimator: horizon 10 time
# constants of its slowest pole, at most SIM_MAX_T, in SIM_STEPS RK4 steps.
SIM_STEPS = 400
SIM_MAX_T = 40.0


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def source_present() -> bool:
    return all(os.path.isfile(p) for p in (
        os.path.join(SRC, "dsest", "__init__.py"), SYSTEM, REF_ESTIMATOR))


@dataclass
class Op:
    key: tuple            # (n, pool index, form), or (command, index) for the CLI
    latency_s: float = 0.0
    code: str = ""        # Y / N / F, lower case once a check fails
    error: str = ""
    result: object = None  # what the checks need; dropped after them
    reasons: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code == "F"

    @property
    def wrong(self) -> bool:
        return not self.failed and self.code.islower()

    def mark_wrong(self, reason: str) -> None:
        self.code = self.code.lower()
        self.reasons.append(reason)


# ---------------------------------------------------------------------------
# decide-lifted and decide-rescaled
# ---------------------------------------------------------------------------

class DecideWorkload:
    """Library analysis, then synthesis when the verdict is affirmative:
    the work behind `dsest report`."""

    def __init__(self, name: str, seed: int, rounds: int):
        import numpy as np
        import dsest
        self.np, self.dsest = np, dsest
        self.inputs = []            # (key, DescriptorSystem)
        if name == "decide-lifted":
            pools = {n: gen.lifted_pool(n) for n in gen.LIFTED_POOL}
            for n, i in gen.lifted_inputs(seed, rounds):
                self.inputs.append(((n, i, "drawn"), self._system(pools[n][i])))
        else:
            pool = gen.rescaled_pool()
            for i, form in gen.rescaled_inputs(seed, rounds):
                mats = gen.rescaled_forms(pool[i])[form]
                self.inputs.append(((0, i, form), self._system(mats)))

    def _system(self, mats: dict):
        return self.dsest.DescriptorSystem.from_matrices(**mats)

    def warm_up(self) -> None:
        mats = gen.lifted_matrices(self.np.random.default_rng(0), 4)
        self.run_op(((), self._system(mats)))

    def run_op(self, item) -> Op:
        key, system = item
        op = Op(key)
        dsest = self.dsest
        t0 = time.perf_counter()
        try:
            report = dsest.is_partially_causal_detectable(system)
            if report.partially_causal_detectable:
                est, trace = dsest.synthesize_estimator(system)
                op.code, op.result = "Y", (system, est, trace)
            else:
                op.code = "N"
        except Exception as exc:    # any escape is a failed op, never a crash
            op.code, op.error = "F", type(exc).__name__
        op.latency_s = time.perf_counter() - t0
        return op

    def check(self, ops: list[Op]) -> None:
        drawn = {op.key[:2]: op for op in ops if op.key[2] == "drawn"}
        for op in ops:
            if op.failed:
                continue
            base = drawn.get(op.key[:2])
            if base is not op and base is not None and not base.failed \
                    and base.code.upper() != op.code.upper():
                op.mark_wrong(f"verdict differs from the as-drawn system ({base.code})")
            if op.result is not None:
                system, est, trace = op.result
                # The E*1e3 form runs 1000x slower, beyond a short run; the
                # K*1e-4 form has the dynamics of the as-drawn estimator.
                reason = self._check_estimator(system, est, trace, op.key,
                                               simulate=op.key[2] == "drawn")
                if reason:
                    op.mark_wrong(reason)
                op.result = None

    def _check_estimator(self, system, est, trace, key, simulate: bool) -> str:
        np, dsest = self.np, self.dsest
        worst = float(np.max(np.linalg.eigvals(est.N).real)) if est.s else -math.inf
        if worst >= 0:
            return f"estimator N is not Hurwitz (max Re = {worst:.3g})"
        if not simulate:
            return ""
        # Consistent x0 of E x' = A x (u = 0) lie in the Wong limit V*.
        rng = np.random.default_rng([key[0], key[1], 1])
        V = dsest.wong_limits(system.E, system.A).V_star
        x0 = V.basis @ rng.standard_normal(V.dim)
        w0 = trace.tracked_state(x0) + rng.standard_normal(est.s)
        T = min(SIM_MAX_T, 10.0 / -worst) if est.s else 1.0
        try:
            run = dsest.simulate(system, est, x0, w0,
                                 u=dsest.InputSignal.zero(system.l),
                                 T=T, dt=T / SIM_STEPS)
        except dsest.DsestError as exc:
            return f"short simulation raised {type(exc).__name__}"
        if not dsest.decay_metrics(run).convergent:
            return "estimation error does not decay in the short simulation"
        return ""


# ---------------------------------------------------------------------------
# worked-cli
# ---------------------------------------------------------------------------

class CliWorkload:
    """`python -m dsest.cli` on the worked example, cycling through the four
    README commands.  With ``in_process`` (the traced run) the commands go
    through the click entry point in this process instead."""

    def __init__(self, seed: int, rounds: int, in_process: bool = False):
        os.makedirs(WORK, exist_ok=True)
        for stale in os.listdir(WORK):
            os.remove(os.path.join(WORK, stale))
        start = seed % len(CLI_COMMANDS)
        cycle = CLI_COMMANDS[start:] + CLI_COMMANDS[:start]
        self.inputs = [((name, k), cli_args(name, k))
                       for k, name in enumerate(cycle * rounds)]
        self.in_process = in_process
        self.peak_rss_kb = 0
        self.env = dict(os.environ, PYTHONPATH=SRC)
        if in_process:
            from dsest import cli
            self.cli = cli

    def warm_up(self) -> None:
        self.run_op((("analyze", -1), cli_args("analyze", -1)))

    def run_op(self, item) -> Op:
        key, args = item
        op = Op(key)
        t0 = time.perf_counter()
        if self.in_process:
            code, stderr = self._invoke(args), ""
        else:
            code, stderr = self._spawn(args)
        op.latency_s = time.perf_counter() - t0
        if code == 1 or "Traceback" in stderr:
            op.code, op.error = "F", f"exit {code}"
        else:
            op.code = "Y" if code == 0 else "N"
        return op

    def _spawn(self, args) -> tuple[int, str]:
        err_path = os.path.join(WORK, "stderr.txt")
        with open(os.devnull, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "dsest.cli", *args],
                                    stdout=out, stderr=err, cwd=ROOT, env=self.env)
            # wait4 reaps the child and returns its own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            return proc.returncode, fh.read()

    def _invoke(self, args) -> int:
        import contextlib
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            try:
                self.cli.main.main(args=list(args), prog_name="dsest",
                                   standalone_mode=False)
            except SystemExit as exc:
                return int(exc.code or 0)
            except Exception:       # an uncaught error is a failed op
                return 1
        return 0

    def check(self, ops: list[Op]) -> None:
        """Every command exits 0, and every simulated error follows the
        closed form e(t) = (4 + 2t) exp(-t) of the worked example."""
        for op in ops:
            if op.failed:
                continue
            if op.code != "Y":
                op.mark_wrong(f"`dsest {op.key[0]}` did not exit 0")
            if op.key[0] == "simulate":
                csv_path = cli_args("simulate", op.key[1])[-3]
                reason = closed_form_deviation(csv_path)
                if reason:
                    op.mark_wrong(reason)


def closed_form_deviation(path: str) -> str:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        worst = max(abs(float(r["e1"]) - (4 + 2 * float(r["t"])) * math.exp(-float(r["t"])))
                    for r in rows)
    except (OSError, KeyError, ValueError) as exc:
        return f"trace CSV unreadable: {exc}"
    if len(rows) != 30001 or not worst <= CLOSED_FORM_ATOL:
        return f"e1 deviates from (4+2t)exp(-t) by {worst:.3g} over {len(rows)} rows"
    return ""


def make_workload(name: str, seed: int, rounds: int, in_process: bool = False):
    if name == "worked-cli":
        return CliWorkload(seed, rounds, in_process)
    return DecideWorkload(name, seed, rounds)


# ---------------------------------------------------------------------------
# reference record
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def reference_code(reference: dict, workload: str, key: tuple) -> str | None:
    if workload == "decide-lifted":
        n, i, _ = key
        return reference[workload][str(n)][i]
    if workload == "decide-rescaled":
        _, i, form = key
        return reference[workload][form][i]
    return None


def guard(reference: dict, workload: str, ops: list[Op]) -> int:
    """Mark every op that was clean at the baseline and is not now; return
    how many there are."""
    regressions = 0
    for op in ops:
        ref = reference_code(reference, workload, op.key)
        if ref in ("Y", "N") and op.code != ref:
            regressions += 1
            if not op.failed and not op.wrong:
                op.mark_wrong(f"baseline outcome was {ref}")
    return regressions
