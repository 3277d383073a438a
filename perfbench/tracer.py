"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions that bound each dsest
layer, plus ``numpy.linalg.svd``/``lstsq``, with wrappers that record a span
(name, parent span, op, start, end) for every call.  Each function is
replaced on every ``dsest.*`` module that holds a reference to it, so calls
made through ``from .linalg import numeric_rank`` are seen too.
``Tracer.uninstall`` puts every original back.  Spans stay in memory in
flat arrays and are written once, by ``Tracer.save``, when the run ends.

A layer's self time is its span time minus the time of its direct child
spans, so which functions are wrapped decides what "self" means: the list
below is exactly the set of boundaries the per-layer metrics name.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# metric prefix -> (module, attribute path)
TARGETS = {
    "linalg.numeric_rank": ("dsest.linalg", "numeric_rank"),
    "linalg.pencil_finite_eigenvalues": ("dsest.linalg", "pencil_finite_eigenvalues"),
    "linalg.spectral_split": ("dsest.linalg", "spectral_split"),
    "linalg.place_poles": ("dsest.linalg", "place_poles"),
    "linalg.Tolerance.relaxed": ("dsest.linalg", "Tolerance.relaxed"),
    "linalg.svd": ("numpy.linalg", "svd"),
    "linalg.lstsq": ("numpy.linalg", "lstsq"),
    "wong.wong_limits": ("dsest.wong", "wong_limits"),
    "wong.wong_V_at": ("dsest.wong", "wong_V_at"),
    "decomp.qkf": ("dsest.decomp", "qkf"),
    "decomp.kalman_controllability": ("dsest.decomp", "kalman_controllability"),
    "decomp.observability_staircase": ("dsest.decomp", "observability_staircase"),
    "analysis.is_partially_causal_detectable":
        ("dsest.analysis", "is_partially_causal_detectable"),
    "analysis.is_partially_detectable": ("dsest.analysis", "is_partially_detectable"),
    "analysis.characterization_suite": ("dsest.analysis", "characterization_suite"),
    "analysis.is_partially_causal": ("dsest.analysis", "is_partially_causal"),
    "analysis.is_partially_impulse_observable":
        ("dsest.analysis", "is_partially_impulse_observable"),
    "synthesis.synthesize_estimator": ("dsest.synthesis", "synthesize_estimator"),
    "signals.InputSignal.eval": ("dsest.signals", "InputSignal.eval"),
    "sim.simulate": ("dsest.sim", "simulate"),
    "sim.decay_metrics": ("dsest.sim", "decay_metrics"),
    "io.load_system": ("dsest.io", "load_system"),
    "io.write_trace_csv": ("dsest.io", "write_trace_csv"),
    "io.write_trace_svg": ("dsest.io", "write_trace_svg"),
}
CLI_COMMAND = "cli.command"     # the callback of every `dsest` subcommand
SIZED = ("linalg.svd", "linalg.lstsq")      # record the largest matrix
FALLIBLE = ("decomp.qkf", "decomp.kalman_controllability")
VERDICT = "analysis.is_partially_causal_detectable"
SYNTH = "synthesis.synthesize_estimator"

# Per-layer metrics of a traced run, in BENCHMARK.json order.
PER_LAYER = [
    ("linalg.lstsq.calls", "count"), ("linalg.lstsq.self_s", "s"),
    ("linalg.lstsq.max_elems", "count"), ("decomp.qkf.self_s", "s"),
    ("linalg.pencil_finite_eigenvalues.self_s", "s"),
    ("linalg.svd.calls", "count"), ("linalg.svd.self_s", "s"),
    ("linalg.svd.max_elems", "count"), ("linalg.numeric_rank.calls", "count"),
    ("linalg.numeric_rank.self_s", "s"),
    ("analysis.is_partially_causal_detectable.calls", "count"),
    ("analysis.verdicts_per_op", "1/op"), ("wong.wong_limits.calls", "count"),
    ("wong.wong_V_at.calls", "count"), ("decomp.qkf.calls", "count"),
    ("decomp.kalman_controllability.calls", "count"),
    ("decomp.observability_staircase.calls", "count"),
    ("linalg.Tolerance.relaxed.calls", "count"), ("decomp.qkf.failures", "count"),
    ("decomp.kalman_controllability.failures", "count"),
    ("synthesis.refusals", "count"),
    ("analysis.is_partially_detectable.self_s", "s"),
    ("analysis.characterization_suite.self_s", "s"),
    ("analysis.is_partially_causal.self_s", "s"),
    ("analysis.is_partially_impulse_observable.self_s", "s"),
    ("synthesis.synthesize_estimator.self_s", "s"),
    ("linalg.spectral_split.self_s", "s"), ("linalg.place_poles.self_s", "s"),
    ("wong.wong_limits.self_s", "s"),
    ("sim.simulate.self_s", "s"), ("sim.rk4_steps", "count"),
    ("sim.steps_per_s", "1/s"), ("signals.InputSignal.eval.calls", "count"),
    ("signals.InputSignal.eval.self_s", "s"), ("sim.decay_metrics.self_s", "s"),
    ("cli.import_s", "s"), ("cli.command.self_s", "s"),
    ("io.load_system.self_s", "s"), ("io.write_trace_csv.self_s", "s"),
    ("io.write_trace_svg.self_s", "s"),
]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def target_attributes():
    """(owner, attribute, current value) of every place a wrapper goes."""
    out = []
    for module, path in TARGETS.values():
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        out.append((owner, attr, original))
        if owner.__name__.startswith("dsest") and "." not in path:
            for name, mod in list(sys.modules.items()):
                if (name == "dsest" or name.startswith("dsest.")) and mod is not owner:
                    for other, value in vars(mod).items():
                        if value is original:
                            out.append((mod, other, value))
    cli = sys.modules.get("dsest.cli")
    if cli is not None:
        out += [(cmd, "callback", cmd.callback) for cmd in cli.main.commands.values()]
    return out


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []     # [span index, child time]
        self._op = -1
        self._saved: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.failures: dict[str, int] = {}
        self.max_elems: dict[str, int] = {}
        self.refusals = 0
        self.rk4_steps = 0
        self._op_verdicts = 0
        self._op_synth = False
        self.verdicts_at_synthesis: list[int] = []

    # -- ops ---------------------------------------------------------------
    def begin_op(self, index: int) -> None:
        self._op = index
        self._op_verdicts = 0
        self._op_synth = False

    def end_op(self) -> None:
        if self._op_synth:
            self.verdicts_at_synthesis.append(self._op_verdicts)
        self._op = -1

    # -- spans -------------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self
        ident = self._ids.setdefault(name, len(self._ids))
        if ident == len(self.names):
            self.names.append(name)

        def wrapper(*args, **kwargs):
            if name in SIZED and args:
                elems = int(np.size(args[0]))
                if elems > tracer.max_elems.get(name, 0):
                    tracer.max_elems[name] = elems
            if name == VERDICT:
                tracer._op_verdicts += 1
            elif name == SYNTH:
                tracer._op_synth = True
            index = len(tracer.start)
            tracer.name_id.append(ident)
            tracer.parent.append(tracer._stack[-1][0] if tracer._stack else -1)
            tracer.op.append(tracer._op)
            tracer.end.append(0.0)
            frame = [index, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.failures[name] = tracer.failures.get(name, 0) + 1
                if name == SYNTH and type(exc).__name__ == "SynthesisError":
                    tracer.refusals += 1
                raise
            finally:
                t1 = time.perf_counter()
                tracer.end[index] = t1
                tracer._stack.pop()
                span = t1 - t0
                if tracer._stack:
                    tracer._stack[-1][1] += span
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + span - frame[1]
                tracer.total_s[name] = tracer.total_s.get(name, 0.0) + span
            if name == "sim.simulate":
                tracer.rk4_steps += len(result.t) - 1
            return result

        wrapper.perfbench_span = name
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        names = {id(getattr(*_resolve(m, p))): key for key, (m, p) in TARGETS.items()}
        for owner, attr, value in target_attributes():
            name = names.get(id(value), CLI_COMMAND)
            if id(value) not in wrappers:
                wrappers[id(value)] = self._wrap(name, value)
            self._saved.append((owner, attr, value))
            setattr(owner, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------
    def metrics(self, cli_import_s: float) -> dict:
        sim_s = self.total_s.get("sim.simulate", 0.0)
        values = {f"{key}.calls": self.calls.get(key, 0) for key in TARGETS}
        values.update({f"{key}.self_s": self.self_s.get(key, 0.0)
                       for key in (*TARGETS, CLI_COMMAND)})
        values.update({f"{key}.max_elems": self.max_elems.get(key, 0) for key in SIZED})
        values.update({f"{key}.failures": self.failures.get(key, 0) for key in FALLIBLE})
        values.update({
            "analysis.verdicts_per_op": (
                sum(self.verdicts_at_synthesis) / len(self.verdicts_at_synthesis)
                if self.verdicts_at_synthesis else 0.0),
            "synthesis.refusals": self.refusals,
            "sim.rk4_steps": self.rk4_steps,
            "sim.steps_per_s": self.rk4_steps / sim_s if sim_s else 0.0,
            "cli.import_s": cli_import_s,
        })
        return {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER}

    def save(self, path: str) -> None:
        """Write every span: name, parent span, op, start and end times."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
