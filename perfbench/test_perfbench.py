"""Tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest perfbench/test_perfbench.py
"""

import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import record_reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def digest(wl) -> str:
    h = hashlib.sha256()
    for key, system in wl.inputs:
        h.update(repr(key).encode())
        for name in "EABCDK":
            h.update(getattr(system, name).tobytes())
    return h.hexdigest()


def small(name, seed=5, ops=24):
    wl = workloads.DecideWorkload(name, seed, 1)
    wl.inputs = wl.inputs[:ops]
    return wl


def wrapped_now():
    return [f"{owner}.{attr}" for owner, attr, value in tracer.target_attributes()
            if hasattr(value, "perfbench_span")]


def test_same_seed_same_systems_other_seed_different():
    for name in ("decide-lifted", "decide-rescaled"):
        first = digest(workloads.DecideWorkload(name, 3, 2))
        assert first == digest(workloads.DecideWorkload(name, 3, 2))
        assert first != digest(workloads.DecideWorkload(name, 4, 2))


def test_reference_reproduces_seed_7_census():
    forms = workloads.load_reference()["decide-rescaled"]
    got = record_reference.census(forms)
    assert (got["affirmative"], got["negative"]) == (192, 108)
    assert got["E*1e3"] == {"failures": 60, "flips": 1}
    assert got["K*1e-4"] == {"failures": 2, "flips": 0}


class Probe:
    """Workload stand-in that records which wrappers are in place during its op."""

    def __init__(self):
        self.inputs = [None]
        self.seen = None

    def run_op(self, _item):
        self.seen = wrapped_now()
        return workloads.Op(("probe",), code="N")


def test_untraced_run_installs_no_wrapper():
    probe = Probe()
    run.timed_phase(probe)
    assert probe.seen == []


def test_traced_run_removes_its_wrappers():
    import dsest.cli  # noqa: F401  (its command callbacks are wrapped too)
    before = [(owner, attr, value) for owner, attr, value in tracer.target_attributes()]
    probe = Probe()
    run.timed_phase(probe, tracer.Tracer())
    assert len(probe.seen) == len(before)
    assert wrapped_now() == []
    for (owner, attr, value) in before:
        assert getattr(owner, attr) is value


def test_two_traced_runs_give_identical_counts():
    counts = []
    for _ in range(2):
        spans = tracer.Tracer()
        ops, _ = run.timed_phase(small("decide-rescaled"), spans)
        metrics = spans.metrics(cli_import_s=0.0)
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] != "s"
                       and k != "sim.steps_per_s"})
        assert [op.code for op in ops] == [op.code for op in
                                           run.timed_phase(small("decide-rescaled"))[0]]
    assert counts[0] == counts[1]
    assert counts[0]["analysis.verdicts_per_op"] == 2.0
    assert counts[0]["linalg.svd.calls"] > 0


def test_tail_has_ten_ops_beyond_it():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)
