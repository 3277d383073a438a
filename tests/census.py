"""Same-bits census: one SHA-256 per kind of result on seeded systems.

Run from the repository root as

    PYTHONPATH=src python tests/census.py

A change that keeps the bits of every result prints the same lines as its
parent; to compare, run this file against each tree's ``src``.  The systems
are draws 0-599 of ``random_system(default_rng(7))`` and ``lifted_system(n,
seed)`` with and without its unobserved block, each in three forms: as
drawn, with E x 1e3 and with K x 1e-4.  The three forms of one draw are
alive together, so a plant shared between them is shared here too.  Each
form is analysed and then, whatever the verdict, synthesized; every
estimator built runs a 400-step ``simulate`` from a consistent x0.

The digests cover:

* reports: the verdict and the ``report_to_dict`` JSON (or the error text);
* refusals: the text of every error synthesis raises;
* estimators: (N, H, R, M) and the trace's ``state_map`` and L;
* traces: t, x, y, z, w, zhat, e and meta of each simulation (or its error);
* split: (N, H, R, M) and ``state_map`` of the estimators of the plants whose
  finite block has non-decaying and decaying modes (``conftest.SPLIT_PLANTS``,
  K a mix of the functionals an estimator exists for).

With ``--cli`` it prints a census of the ``dsest`` command instead:

    PYTHONPATH=src python tests/census.py --cli

It runs a fixed list of invocations in process, through click's
``CliRunner`` with ``DSEST_*`` unset, each in a fresh directory that holds
the worked example as ``system.json`` and ``estimator.json`` and any file
the case adds, so every path in a message is relative.  The list holds the
README's four commands on the worked example (``simulate`` with ``--tf
0.05``) and every malformed-input case of ``tests/test_cli.py``.  Each line
is the SHA-256 of one invocation's exit code, output (stdout and stderr)
and the bytes of every file it wrote, by relative path; the last line is
one hash over all of them.

With ``--pools`` it prints a census of the benchmark's two decide pools
instead:

    PYTHONPATH=src python tests/census.py --pools

It loads ``perfbench/gen.py`` and ``perfbench/workloads.py`` from their
files, as ``tests/test_benchmark_targets.py`` loads the tracer, and runs
every op of the ``decide-lifted`` pool (every system of every n) and of the
``decide-rescaled`` pool (every form of every draw, the three forms of one
draw alive together) as the workload's op does: the analysis, then
synthesis when the verdict is affirmative.  An op's letter is Y, N, or F
when either step raises.  Then the workload's own untimed checks run
(``DecideWorkload.check``: the letter agrees with the as-drawn form's, the
estimator's N is Hurwitz, and a short simulation of the as-drawn form
decays), and an op whose check fails gets its letter in lower case.  Per
pool it prints one SHA-256 over each op's key, letter before the checks,
block-check residuals and thresholds, and the estimator's (N, H, R, M) or
the error's text; then the letter counts, the number of wrong ops and
their keys.

With ``--dump FILE`` it prints the results census and also writes every
result it covers to ``FILE`` (``.npz``): per system the letter (Y, N, or F
when the analysis raised), the block-check residuals, the estimator's (N, H,
R, M), ``state_map`` and L, and the trace's arrays, each result replaced by
its error's text where one was raised; and the split plants' estimators.
``--compare OLD NEW`` reads two such files, written by two trees:

    PYTHONPATH=<parent>/src python tests/census.py --dump old.npz
    PYTHONPATH=src python tests/census.py --dump new.npz
    PYTHONPATH=src python tests/census.py --compare old.npz new.npz

It prints the letters and refusal texts that changed, then per kind
(reports, estimators, traces, split) how many of the results that both
trees hold moved and the worst relative change among them, and the count
and keys of the results that only one tree holds (a trace of an estimator
that only one tree built).  For the moved traces that both trees ran, it
also prints per array (x, y, z, w, zhat, e) the worst max-abs change
relative to the larger max |.|, and the traces whose decay verdict
(``decay_metrics``) changed.  A change of an estimator's state basis moves
its arrays by a relative change up to 2, so for the moved estimators that
both trees built, the split plants' too, it also prints per form how many
changed their transfer function R (sI - N)^-1 H + M at s = 0.5, 2j and
1 + 1j or the sorted eigenvalues of N beyond 1e-12, the worst change of
each, and how many new N are not Hurwitz.

With ``--invariance`` it prints, per transform of ``TRANSFORMS`` (orthogonal
P and Q; all matrices x 1e3 and x 1e-3; E x 1e-3; C and D x 1e-6; K x 1e6;
E x 1e3; K x 1e-9; row 0 of K x 1e-9; all matrices x 1e-9 and x 1e-12), how
many of the 600 random draws
change their letter (Y, N, F when the analysis raises a ``DsestError``, X
when it raises anything else, y for a Y that synthesis refuses) and the
kinds of change, then how many change the report's partial impulse
observability, which the letter does not read, and last the draw numbers of
every change between an affirmative letter (Y, y) and N:

    PYTHONPATH=src python tests/census.py --invariance

``tests/test_analysis.py`` asserts that every transform in ``HOLDING``, all
but E x 1e3, all x 1e-9 and all x 1e-12, changes neither on draws 0-59.  Then it prints the same for ``UNIT_TRANSFORMS``,
changes of units that no test asserts yet (ROADMAP item 15): ``diag(10^U)``,
U uniform in [-s, s] and drawn per draw, on the state columns, the equation
rows, the output rows, the input columns, and all four together, at s = 3
and s = 5.

With ``--kronecker`` it prints what ``qkf`` makes of pencils whose
structure is known by construction, as counts of right forms, wrong forms
(block sizes), wrong nilpotency index h and refusals:

    PYTHONPATH=src python tests/census.py --kronecker

one line per k = 2-12 for ``hidden_kronecker_pencil(k, seed)``, seeds 0-39,
hidden by Gaussian and then by orthogonal P and Q, and one line per scale
c = 1e-6, 1e-3, 1, 1e3 and 1e6 for ``hidden_nilpotent_chain(k, c, seed)``
and then for ``hidden_chain_beside_finite(k, c, seed)``, k = 1-7 and seeds
0-29.

This is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import collections
import functools
import hashlib
import importlib.util
import json
import math
import os
import sys

import numpy as np
from click.testing import CliRunner

import dsest
from conftest import (SPLIT_PLANTS, hidden_chain_beside_finite, hidden_kronecker_pencil,
                      hidden_nilpotent_chain, lifted_system, random_draw, random_system,
                      split_system)
from dsest.cli import main as dsest_main
from dsest.io import report_to_dict

RANDOM_DRAWS = 600
RANDOM_SEED = 7
LIFTED = [(n, seed) for n in (4, 5, 6, 8, 12) for seed in range(4)]
SIM_STEPS = 400
SIM_MAX_T = 40.0


def forms(sys):
    """The as-drawn system, its E x 1e3 form and its K x 1e-4 form."""
    scaled = lambda E, K: dsest.DescriptorSystem.from_matrices(
        E, sys.A, sys.B, sys.C, K, D=sys.D)
    return [("drawn", sys), ("E*1e3", scaled(sys.E * 1e3, sys.K)),
            ("K*1e-4", scaled(sys.E, sys.K * 1e-4))]


def systems():
    rng = np.random.default_rng(RANDOM_SEED)
    for i in range(RANDOM_DRAWS):
        yield f"random-{RANDOM_SEED}-{i}", random_system(rng)
    for n, seed in LIFTED:
        for unobserved in (False, True):
            yield f"lifted-{n}-{seed}-{unobserved}", lifted_system(n, seed, unobserved)


def _arrays(digest, *arrays) -> None:
    for X in arrays:
        X = np.asarray(X)
        digest.update(repr((X.shape, X.dtype.str)).encode())
        digest.update(np.ascontiguousarray(X).tobytes())


def _error(exc: Exception) -> bytes:
    return f"{type(exc).__name__}: {exc}".encode()


def _keep(records: dict, kind: str, key: str, *values) -> None:
    """Store one result of ``kind`` for system ``key``: its arrays, or an
    error's text."""
    for i, value in enumerate(values):
        records[f"{kind}:{key}:{i}"] = np.asarray(value)


def _simulate(digest, records: dict, key: str, sys, est, trace) -> None:
    """The workload's short convergence run: x0 in V*, w0 the tracked state
    plus noise, 10 time constants of the slowest pole in SIM_STEPS steps."""
    rng = np.random.default_rng(list(key.encode()))
    worst = float(np.max(np.linalg.eigvals(est.N).real)) if est.s else -math.inf
    V = dsest.wong_limits(sys.E, sys.A).V_star
    x0 = V.basis @ rng.standard_normal(V.dim)
    w0 = trace.tracked_state(x0) + rng.standard_normal(est.s)
    T = min(SIM_MAX_T, 10.0 / -worst) if est.s else 1.0
    try:
        run = dsest.simulate(sys, est, x0, w0, u=dsest.InputSignal.zero(sys.l),
                             T=T, dt=T / SIM_STEPS)
    except dsest.DsestError as exc:
        digest.update(_error(exc))
        _keep(records, "traces", key, _error(exc).decode())
        return
    arrays = (run.t, run.x, run.y, run.z, run.w, run.zhat, run.e)
    _arrays(digest, *arrays)
    digest.update(json.dumps(run.meta, sort_keys=True, default=str).encode())
    _keep(records, "traces", key, *arrays)


def results_census() -> dict:
    """Print the digests and return every result by name (see ``_keep``)."""
    digests = {name: hashlib.sha256()
               for name in ("reports", "refusals", "estimators", "traces")}
    counts = {"systems": 0, "built": 0, "refused": 0, "analysis raised": 0}
    records = {}
    for name, drawn in systems():
        for form, sys in forms(drawn):
            key = f"{name}/{form}"
            counts["systems"] += 1
            for digest in digests.values():
                digest.update(key.encode())
            try:
                report = dsest.is_partially_causal_detectable(sys)
                digests["reports"].update(json.dumps(
                    [report.partially_causal_detectable, report_to_dict(report)],
                    sort_keys=True).encode())
                _keep(records, "letters", key, "Y" if report.partially_causal_detectable
                      else "N")
                _keep(records, "reports", key, [float(r) for _, r, _ in report.block_checks])
            except dsest.DsestError as exc:
                counts["analysis raised"] += 1
                digests["reports"].update(_error(exc))
                _keep(records, "letters", key, "F")
                _keep(records, "reports", key, _error(exc).decode())
            try:
                est, trace = dsest.synthesize_estimator(sys)
            except dsest.DsestError as exc:
                counts["refused"] += 1
                digests["refusals"].update(_error(exc))
                _keep(records, "estimators", key, _error(exc).decode())
                continue
            counts["built"] += 1
            _arrays(digests["estimators"], est.N, est.H, est.R, est.M,
                    trace.state_map, trace.L)
            _keep(records, "estimators", key, est.N, est.H, est.R, est.M,
                  trace.state_map, trace.L)
            _simulate(digests["traces"], records, key, sys, est, trace)
    digests["split"] = hashlib.sha256()
    for name in SPLIT_PLANTS:
        est, trace = dsest.synthesize_estimator(split_system(name))
        digests["split"].update(name.encode())
        _arrays(digests["split"], est.N, est.H, est.R, est.M, trace.state_map)
        _keep(records, "split", name, est.N, est.H, est.R, est.M, trace.state_map)
    print(", ".join(f"{k} {v}" for k, v in counts.items()))
    for name, digest in digests.items():
        print(f"{name:<10} {digest.hexdigest()}")
    return records


def _load_results(path: str) -> dict:
    """{(kind, key): [array, ...]} of a ``--dump`` file."""
    results = collections.defaultdict(list)
    with np.load(path) as fh:
        for name in sorted(fh.files, key=lambda name: int(name.rsplit(":", 1)[1])):
            kind, key, _ = name.split(":")
            results[kind, key].append(fh[name])
    return results


def _text(record: list) -> str | None:
    """The error text (or letter) that ``record`` holds, None for arrays."""
    return str(record[0]) if record and record[0].dtype.kind == "U" else None


def _relative_change(old: list, new: list) -> float:
    """Largest |new - old| / max(1, |old|, |new|) over the arrays of one
    result, in the Frobenius norm (an array of roundoff, such as a zero
    residual, changes by its absolute change): 0 for equal bits, inf for a
    changed text or shape."""
    if len(old) != len(new):
        return math.inf
    worst = 0.0
    for a, b in zip(old, new):
        if a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes():
            continue
        if a.shape != b.shape or "U" in (a.dtype.kind, b.dtype.kind):
            return math.inf
        worst = max(worst, float(np.linalg.norm(b - a)
                                 / max(1.0, np.linalg.norm(a), np.linalg.norm(b))))
    return worst


def compare(old_path: str, new_path: str) -> None:
    """Print what moved between two ``--dump`` files: the changed letters
    and refusal texts, then per kind of result the number whose bits moved
    and the worst relative change (``_relative_change``) among them."""
    old, new = _load_results(old_path), _load_results(new_path)
    idents = sorted(old.keys() | new.keys())
    for kind, what in (("letters", "letters changed"),
                       ("estimators", "refusal texts changed")):
        changed = [(key, _text(old.get((k, key), [])), _text(new.get((k, key), [])))
                   for k, key in idents if k == kind]
        changed = [c for c in changed if c[1] != c[2]]
        print(f"{what} {len(changed)}")
        for key, a, b in changed:
            print(f"  {key}: {a} -> {b}")
    for kind in ("reports", "estimators", "traces", "split"):
        keys = [key for k, key in idents if k == kind]
        alone = {side: [key for key in keys if (kind, key) not in other]
                 for side, other in (("old", new), ("new", old))}
        keys = [key for key in keys if (kind, key) in old and (kind, key) in new]
        moved = {key: c for key in keys
                 if (c := _relative_change(old[kind, key], new[kind, key]))}
        line = f"{kind:<10} moved {len(moved)} of {len(keys)}"
        if moved:
            worst = max(moved, key=moved.get)
            line += f", worst relative change {moved[worst]:.2g} at {worst}"
        print(line)
        for side, only in alone.items():
            if only:
                print(f"  only in {side} {len(only)}: {' '.join(only)}")
        both = {key: (old[kind, key], new[kind, key]) for key in moved
                if None is _text(old[kind, key]) is _text(new[kind, key])}
        if kind in ("estimators", "split"):
            _compare_realizations(both)
        elif kind == "traces":
            _compare_traces(both)


TRACE_ARRAYS = ("t", "x", "y", "z", "w", "zhat", "e")    # as ``_simulate`` keeps them


def _compare_traces(moved: dict) -> None:
    """For the ``moved`` traces that both trees ran: per array but t, the
    worst max |new - old| / max(|old|, |new|) and where (inf for a changed
    shape); then the traces whose decay verdict changed.  Over all arrays
    at once, the worst is a run whose error cancels to roundoff."""
    worst, verdicts = {}, []
    for key, (old, new) in moved.items():
        for name, a, b in zip(TRACE_ARRAYS[1:], old[1:], new[1:]):
            scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
            change = (math.inf if a.shape != b.shape
                      else float(np.abs(b - a).max() / scale) if scale else 0.0)
            if change >= worst.get(name, (-1.0,))[0]:
                worst[name] = change, key
        before, after = (dsest.decay_metrics(dsest.SimulationTrace(*arrays)).verdict
                         for arrays in (old, new))
        if before != after:
            verdicts.append(f"    {key}: {before} -> {after}")
    if worst:
        print("  " + "; ".join(f"{name} {change:.2g} at {key}"
                               for name, (change, key) in worst.items()))
    print(f"  decay verdicts changed {len(verdicts)}", *verdicts, sep="\n")


TRANSFER_POINTS = (0.5, 2j, 1 + 1j)


def _transfer(N, H, R, M) -> np.ndarray:
    """R (sI - N)^-1 H + M at each of TRANSFER_POINTS, stacked: the same
    for every basis of the estimator state."""
    return np.stack([R @ np.linalg.solve(s * np.eye(len(N)) - N, H) + M
                     for s in TRANSFER_POINTS])


def _compare_realizations(moved: dict) -> None:
    """Per form (``split`` for the split plants), how many of the ``moved``
    estimators, built by both trees, changed their transfer function or
    their sorted spectrum beyond 1e-12 (relative, as ``_relative_change``),
    the worst of each, and how many new N are not Hurwitz.  A change of the
    state basis moves neither."""
    by_form = collections.defaultdict(dict)
    for key, (old, new) in moved.items():
        spectra = [np.sort_complex(np.linalg.eigvals(N)) for N in (old[0], new[0])]
        by_form[key.partition("/")[2] or "split"][key] = (
            _relative_change([_transfer(*old[:4])], [_transfer(*new[:4])]),
            _relative_change(spectra[:1], spectra[1:]),
            bool((spectra[1].real >= 0).any()))
    for form, changes in sorted(by_form.items()):
        line = f"  {form:<7} moved {len(changes)}"
        for i, what in enumerate(("transfer", "spectrum")):
            worst = max(changes, key=lambda key: changes[key][i])
            line += (f"; {what} beyond 1e-12 "
                     f"{sum(c[i] > 1e-12 for c in changes.values())}, "
                     f"worst {changes[worst][i]:.2g} at {worst}")
        print(line + f"; not Hurwitz {sum(c[2] for c in changes.values())}")


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
with open(os.path.join(DATA, "example_system.json")) as _fh:
    SYSTEM = json.load(_fh)
with open(os.path.join(DATA, "reference_estimator.json")) as _fh:
    ESTIMATOR = json.load(_fh)
# x' = -x, z = x: a plant without inputs or outputs, and its estimator.
NO_INPUT = {"l0.json": json.dumps({"E": [[1]], "A": [[-1]], "B": [[]], "C": [],
                                   "D": [], "K": [[1]]}),
            "l0est.json": json.dumps({"N": [[-1]], "H": [[]], "R": [[1]], "M": [[]]})}


def _with(base: dict, **fields) -> str:
    return json.dumps({**base, **fields})


def _with_entry(base: dict, key: str, literal: str) -> str:
    """``base`` with entry (0, 0) of matrix ``key`` written as ``literal``."""
    doc = json.loads(json.dumps(base))
    doc[key][0][0] = "@entry@"
    return json.dumps(doc).replace('"@entry@"', literal)


def _tolerance(value) -> dict:
    return {"system.json": _with(SYSTEM, tolerance={"rank_rtol": value})}


def _sim_args(*extra, x0="1,2,3,0", w0="4,5", grid=("--tf", "1", "--dt", "0.1"),
              files=("system.json", "estimator.json")) -> list:
    """argv of a ``dsest simulate`` that writes t.csv."""
    return ["simulate", *files, "--x0", x0, "--w0", w0, *grid, "--out", "t.csv",
            *extra]


def cli_cases() -> list:
    """(name, argv, environment, {relative path: text}) of every invocation."""
    nan_file = ('{"E": [[1]], "A": [[1]], "B": [[]], "C": [], "D": [], "K": [[1]], '
                '"tolerance": {"synthesis_margin": NaN}}')
    huge = json.dumps(SYSTEM)[:-1] + ', "tolerance": {"rank_rtol": 1' + "0" * 5000 + "}}"
    shape = {"E": [[1.0, 0.0]], "A": [[1.0, 0.0]], "B": [[1.0]], "C": [], "D": [],
             "K": [[1.0, 0.0, 0.0]]}
    cases = [
        ("readme-analyze", ["analyze", "system.json", "--json-out", "report.json",
                            "--md-out", "report.md"], {}, {}),
        ("readme-synth", ["synth", "system.json", "-o", "est.json"], {}, {}),
        ("readme-simulate", _sim_args("--input", "poly:0,1", "--svg", "trace.svg",
                                      grid=("--tf", "0.05", "--dt", "0.001")), {}, {}),
        ("readme-report", ["report", "system.json"], {}, {}),
        ("usage-no-arguments", [], {}, {}),
        ("usage-main-option", ["--nope"], {}, {}),
        ("usage-command", ["bogus"], {}, {}),
        ("usage-argument", ["analyze"], {}, {}),
        ("usage-option", ["analyze", "--nope", "system.json"], {}, {}),
        ("usage-value", ["simulate", "system.json", "estimator.json", "--tf", "abc"],
         {}, {}),
        ("flag-rank-rtol-negative", ["analyze", "system.json", "--rank-rtol", "-1"],
         {}, {}),
        ("flag-margin-zero", ["analyze", "system.json", "--margin", "0"], {}, {}),
        ("flag-rank-rtol-nan", ["analyze", "system.json", "--rank-rtol", "nan"], {}, {}),
        ("flag-margin-inf", ["analyze", "system.json", "--margin", "inf"], {}, {}),
        ("env-margin-text", ["analyze", "system.json"], {"DSEST_MARGIN": "abc"}, {}),
        ("env-rank-rtol-text", ["analyze", "system.json"], {"DSEST_RANK_RTOL": "abc"},
         {}),
        ("env-margin-nan", ["analyze", "system.json"], {"DSEST_MARGIN": "nan"}, {}),
        ("env-margin-negative", ["analyze", "system.json"], {"DSEST_MARGIN": "-1"}, {}),
        ("env-rank-rtol-inf", ["analyze", "system.json"], {"DSEST_RANK_RTOL": "inf"},
         {}),
        ("flag-over-env-nan-margin", ["analyze", "system.json", "--margin", "0.5"],
         {"DSEST_MARGIN": "nan"}, {}),
        ("synth-env-nan-margin", ["synth", "system.json", "-o", "est.json"],
         {"DSEST_MARGIN": "nan"}, {}),
        ("file-nan-margin", ["analyze", "system.json"], {}, {"system.json": nan_file}),
        ("file-unknown-key", ["analyze", "system.json"], {},
         {"system.json": _with(SYSTEM, tolerance={"eig_stability_margin": 0.1})}),
        ("file-rank-rtol-zero", ["analyze", "system.json"], {}, _tolerance(0)),
        ("file-zero-under-flag", ["analyze", "system.json", "--rank-rtol", "1e-10"],
         {}, _tolerance(0)),
        ("file-zero-under-env", ["analyze", "system.json"],
         {"DSEST_RANK_RTOL": "1e-10"}, _tolerance(0)),
        ("file-beyond-float-range", ["analyze", "system.json"], {},
         _tolerance(10 ** 400)),
        ("file-beyond-parser-limit", ["analyze", "system.json"], {},
         {"system.json": huge}),
        ("missing-matrices", ["analyze", "system.json"], {},
         {"system.json": '{"name": "x"}'}),
        ("shape-mismatch", ["analyze", "system.json"], {},
         {"system.json": json.dumps(shape)}),
    ]
    for command, out in (("analyze", "--json-out"), ("synth", "-o")):
        for shown, value in (("null", None), ("list", [1e-10]),
                             ("object", {"value": 1e-10}), ("true", True)):
            cases.append((f"file-{shown}-{command}", [command, "system.json", out,
                                                      "out.json"], {}, _tolerance(value)))
    for key, literal in (("D", "true"), ("K", '"1"'), ("A", "1e400"), ("A", "NaN"),
                         ("E", "1" + "0" * 400)):
        cases.append((f"entry-{key}-{literal[:8]}", ["analyze", "system.json"], {},
                      {"system.json": _with_entry(SYSTEM, key, literal)}))
    cases.append(("entry-estimator-N", _sim_args(), {},
                  {"estimator.json": _with_entry(ESTIMATOR, "N", "true")}))
    for shown, value in (("null", None), ("number", 7), ("list", ["a"])):
        cases.append((f"name-{shown}-analyze", ["analyze", "system.json"], {},
                      {"system.json": _with(SYSTEM, name=value)}))
        cases.append((f"name-{shown}-simulate", _sim_args(), {},
                      {"estimator.json": _with(ESTIMATOR, name=value)}))
    for flag, value in (("--dt", "0"), ("--dt", "nan"), ("--tf", "inf"), ("--tf", "0"),
                        ("--tf", "-1")):
        grid = {"--tf": "1", "--dt": "0.1", flag: value}
        cases.append((f"grid{flag}={value}",
                      _sim_args(grid=[a for kv in grid.items() for a in kv]), {}, {}))
    cases += [
        ("grid-too-many-steps", _sim_args(grid=("--tf", "1e300")), {}, {}),
        ("x0-nan", _sim_args(x0="nan,2,3,0"), {}, {}),
        ("w0-inf", _sim_args(w0="inf,5"), {}, {}),
        ("x0-overflow", _sim_args(x0="1e308,2,3,0", grid=("--tf", "1")), {}, {}),
        ("w0-overflow", _sim_args(w0="1e308,5", grid=("--tf", "1")), {}, {}),
        ("x0-inconsistent", _sim_args("--input", "poly:0,1", x0="1,2,3,9"), {}, {}),
        ("x0-empty-field", _sim_args(x0="1,2,,3,0"), {}, {}),
        ("x0-trailing-comma", _sim_args(x0="1,2,3,0,"), {}, {}),
        ("w0-empty-field", _sim_args(w0=",4,5"), {}, {}),
        ("estimator-H", _sim_args(), {}, {"estimator.json": _with(
            ESTIMATOR, H=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], M=[[-1.0, 1.0, 0.0]])}),
        ("estimator-M", _sim_args(), {},
         {"estimator.json": _with(ESTIMATOR, M=[[-1.0, 1.0], [0.0, 0.0]])}),
    ]
    for name, args in (("json-out", ["analyze", "system.json", "--json-out"]),
                       ("md-out", ["analyze", "system.json", "--md-out"]),
                       ("synth", ["synth", "system.json", "-o"]),
                       ("report", ["report", "system.json", "--out"]),
                       ("simulate", _sim_args("--out"))):
        cases.append((f"unwritable-{name}", [*args, "missing/out"], {}, {}))
    for shown, order in (("string", "x"), ("null", None), ("list", [1]),
                         ("fraction", 1.5), ("boolean", True)):
        cases.append((f"order-{shown}", _sim_args(), {},
                      {"estimator.json": _with(ESTIMATOR, s=order)}))
    for spec in ("probe:1.5", "probe:-1", "probe:1,0", "probe:2,-0.5", "zero;zero",
                 "ramp:1", "zero:5", "poly:1,", "sin:x,2"):
        cases.append((f"input-{spec}", _sim_args("--input", spec), {}, {}))
    for spec in ("zero", "sin:1,2"):
        cases.append((f"no-input-plant-{spec}", _sim_args(
            "--input", spec, x0="1", w0="0", files=tuple(NO_INPUT)), {}, NO_INPUT))
    return cases


def _run(runner: CliRunner, argv: list, env: dict, files: dict) -> bytes:
    """Exit code, output and written files of one invocation, as bytes."""
    inputs = {"system.json": json.dumps(SYSTEM), "estimator.json": json.dumps(ESTIMATOR),
              **files}
    with runner.isolated_filesystem():
        for path, text in inputs.items():
            with open(path, "w") as fh:
                fh.write(text)
        res = runner.invoke(dsest_main, argv, env={"DSEST_RANK_RTOL": None,
                                                   "DSEST_MARGIN": None, **env})
        crashed = ("" if res.exception is None or isinstance(res.exception, SystemExit)
                   else type(res.exception).__name__)
        record = [repr((res.exit_code, crashed, res.output)).encode()]
        for path in sorted(os.listdir(".")):
            with open(path, "rb") as fh:
                data = fh.read()
            if path not in inputs or data != inputs[path].encode():
                record += [path.encode(), data]
    return b"\0".join(record)


def cli_census() -> None:
    runner, overall = CliRunner(), hashlib.sha256()
    for name, argv, env, files in cli_cases():
        digest = hashlib.sha256(_run(runner, argv, env, files)).hexdigest()
        overall.update(digest.encode())
        print(f"{digest}  {name}")
    print(f"{overall.hexdigest()}  all")


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name: str):
    """``perfbench/<name>.py``, loaded from its file as module ``name``
    (``workloads`` imports ``gen`` by that name)."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(PERFBENCH, f"{name}.py"))
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """``perfbench/workloads.py`` and the ``gen`` module it imports."""
    _load("gen")
    return _load("workloads")


def pool_systems(gen):
    """(pool name, [(key, matrices)]) of both decide pools, keyed as the
    workloads key their ops."""
    lifted = [((n, i, "drawn"), mats) for n in gen.LIFTED_POOL
              for i, mats in enumerate(gen.lifted_pool(n))]
    rescaled = [((0, i, form), mats) for i, drawn in enumerate(gen.rescaled_pool())
                for form, mats in gen.rescaled_forms(drawn).items()]
    return [("decide-lifted", lifted), ("decide-rescaled", rescaled)]


def pool_census() -> None:
    workloads = load_workloads()
    for pool, items in pool_systems(workloads.gen):
        digest, ops = hashlib.sha256(), []
        systems = [(key, dsest.DescriptorSystem.from_matrices(**mats))
                   for key, mats in items]
        for key, sys in systems:
            digest.update(repr(key).encode())
            op = workloads.Op(key)
            try:
                report = dsest.is_partially_causal_detectable(sys)
                digest.update(repr([(c, float(r), float(t))
                                    for c, r, t in report.block_checks]).encode())
                op.code = "Y" if report.partially_causal_detectable else "N"
                if op.code == "Y":
                    est, trace = dsest.synthesize_estimator(sys)
                    _arrays(digest, est.N, est.H, est.R, est.M)
                    op.result = (sys, est, trace)
            except Exception as exc:   # the workload counts any escape as F
                op.code = "F"
                digest.update(_error(exc))
            digest.update(op.code.encode())
            ops.append(op)
        workloads.DecideWorkload(pool, 1, 1).check(ops)   # a one-round workload's check
        letters = collections.Counter(op.code for op in ops)
        wrong = [op.key for op in ops if op.wrong]
        counts = ", ".join(f"{k} {letters[k]}" for k in "YNFyn")
        print(f"{pool:<16} {digest.hexdigest()}  {counts}; wrong {len(wrong)}"
              + "".join(f" {key}" for key in wrong))


def _orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    """A Haar-distributed k x k orthogonal matrix."""
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def _rotated(sys, rng):
    P, Q = _orthogonal(rng, sys.E.shape[0]), _orthogonal(rng, sys.n)
    return dict(E=P @ sys.E @ Q, A=P @ sys.A @ Q, B=P @ sys.B, C=sys.C @ Q,
                K=sys.K @ Q)


# Transforms that ought not to move a letter: name -> the changed matrices
# of a system, under a seeded generator.  All but the last three hold today:
# E x 1e3 refuses some Y (ROADMAP item 6), and so do all x 1e-9 and all
# x 1e-12.
TRANSFORMS = {
    "orthogonal P, Q": _rotated,
    "all x1e3": lambda sys, rng: {k: 1e3 * getattr(sys, k) for k in "EABCDK"},
    "all x1e-3": lambda sys, rng: {k: 1e-3 * getattr(sys, k) for k in "EABCDK"},
    "E x1e-3": lambda sys, rng: dict(E=1e-3 * sys.E),
    "C, D x1e-6": lambda sys, rng: dict(C=1e-6 * sys.C, D=1e-6 * sys.D),
    "K x1e6": lambda sys, rng: dict(K=1e6 * sys.K),
    "E x1e3": lambda sys, rng: dict(E=1e3 * sys.E),
    "K x1e-9": lambda sys, rng: dict(K=1e-9 * sys.K),
    "K row 0 x1e-9": lambda sys, rng: dict(K=np.vstack([1e-9 * sys.K[:1], sys.K[1:]])),
    "all x1e-9": lambda sys, rng: {k: 1e-9 * getattr(sys, k) for k in "EABCDK"},
    "all x1e-12": lambda sys, rng: {k: 1e-12 * getattr(sys, k) for k in "EABCDK"},
}
HOLDING = [name for name in TRANSFORMS if name not in ("E x1e3", "all x1e-9", "all x1e-12")]


def _units(sys, rng, s: int, parts: str) -> dict:
    """The system in other units: diag(10^U), U uniform in [-s, s], on the
    state columns (x), the equation rows (e), the output rows (y) and the
    input columns (u) named in ``parts``."""
    factor = lambda k, on: 10.0 ** rng.uniform(-s, s, k) if on else np.ones(k)
    T, S = factor(sys.n, "x" in parts), factor(sys.E.shape[0], "e" in parts)
    Sy, Su = factor(sys.C.shape[0], "y" in parts), factor(sys.l, "u" in parts)
    return dict(E=S[:, None] * sys.E * T, A=S[:, None] * sys.A * T,
                B=S[:, None] * sys.B * Su, C=Sy[:, None] * sys.C * T,
                D=Sy[:, None] * sys.D * Su, K=sys.K * T)


# Changes of units (ROADMAP item 15), printed but not asserted.  Their factors
# come, in this order, from the per-draw generator after those of TRANSFORMS.
UNIT_TRANSFORMS = {
    f"{what} 10^+-{s}": functools.partial(_units, s=s, parts=parts)
    for s in (3, 5)
    for what, parts in (("states", "x"), ("equations", "e"), ("outputs", "y"),
                        ("inputs", "u"), ("all four", "xeyu"))
}


def outcome(sys) -> tuple[str, bool | None]:
    """The letter (Y, N, F when the analysis raises a ``DsestError``, X when
    a step raises anything else, y for a Y that synthesis refuses) and the
    report's ``partially_impulse_observable`` (None when the analysis or
    that read raises), which the letter does not read."""
    try:
        try:
            report = dsest.is_partially_causal_detectable(sys)
        except dsest.DsestError:
            return "F", None
        try:
            impulse = report.partially_impulse_observable
        except dsest.DsestError:
            impulse = None
        if not report.partially_causal_detectable:
            return "N", impulse
        try:
            dsest.synthesize_estimator(sys)
        except dsest.DsestError:
            return "y", impulse
        return "Y", impulse
    except Exception:
        return "X", None


def transformed(sys, i: int, names: list) -> dict:
    """{name: draw ``i`` (``sys``) under that transform}.  The transforms of
    one draw share its generator, so each one's factors depend on the
    transforms that ``names`` puts before it."""
    transforms = {**TRANSFORMS, **UNIT_TRANSFORMS}
    rng = np.random.default_rng([RANDOM_SEED, i])
    out = {}
    for name in names:
        mats = {k: getattr(sys, k) for k in "EABCDK"}
        mats.update(transforms[name](sys, rng))
        out[name] = dsest.DescriptorSystem.from_matrices(**mats)
    return out


def invariance_system(i: int, name: str):
    """Draw ``i`` under the transform ``name``, as ``--invariance`` builds it."""
    return transformed(random_draw(RANDOM_SEED, i), i, [*TRANSFORMS, *UNIT_TRANSFORMS])[name]


def _swaps_verdict(old: str, new: str) -> bool:
    """Whether a letter change turns an affirmative answer into N or back."""
    return old in "YyN" and new in "YyN" and (old == "N") != (new == "N")


def invariance_changes(draws: int, names: list, swaps: dict | None = None) -> dict:
    """{transform name: Counter of "old->new" letter changes and "impulse
    old->new" changes of partial impulse observability} over the first
    ``draws`` census draws, for the transforms ``names``.  When given,
    ``swaps`` collects {name: [(draw, "old->new")]} of the changes between
    an affirmative letter and N."""
    changes = {name: collections.Counter() for name in names}
    rng = np.random.default_rng(RANDOM_SEED)
    for i in range(draws):
        sys = random_system(rng)
        base, base_impulse = outcome(sys)
        for name, other in transformed(sys, i, names).items():
            new, impulse = outcome(other)
            if new != base:
                changes[name][f"{base}->{new}"] += 1
            if swaps is not None and _swaps_verdict(base, new):
                swaps.setdefault(name, []).append((i, f"{base}->{new}"))
            if impulse != base_impulse:
                changes[name][f"impulse {base_impulse}->{impulse}"] += 1
    return changes


def invariance_census() -> None:
    names = [*TRANSFORMS, *UNIT_TRANSFORMS]
    swaps = {}
    for name, counts in invariance_changes(RANDOM_DRAWS, names, swaps).items():
        kinds = sorted(counts.items())
        letters = [(kind, n) for kind, n in kinds if not kind.startswith("impulse")]
        impulse = [(kind[len("impulse "):], n) for kind, n in kinds
                   if kind.startswith("impulse")]
        print(f"{name:<22} changed {sum(n for _, n in letters)}"
              + "".join(f", {kind} {n}" for kind, n in letters)
              + f"; impulse observable changed {sum(n for _, n in impulse)}"
              + "".join(f", {kind} {n}" for kind, n in impulse)
              + "; swapped" + ("".join(f" #{i} {kind}" for i, kind in swaps[name])
                               if name in swaps else " none"))


KRONECKER_KS = range(2, 13)
KRONECKER_SEEDS = 40
CHAIN_SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
CHAIN_KS = range(1, 8)
CHAIN_SEEDS = 30


def _qkf_outcome(E, A, rows: tuple, cols: tuple, h: int) -> str:
    """What ``qkf(E, A)`` makes of a pencil of known block sizes and index h:
    "right", "wrong form" (block sizes), "wrong h" or "refused"."""
    try:
        form = dsest.qkf(E, A)
    except dsest.DsestError:
        return "refused"
    if (form.row_sizes, form.col_sizes) != (rows, cols):
        return "wrong form"
    return "right" if form.h == h else "wrong h"


def kronecker_census() -> None:
    for orthogonal, what in ((False, "hidden"), (True, "orthogonal")):
        for k in KRONECKER_KS:
            counts = collections.Counter(
                _qkf_outcome(*hidden_kronecker_pencil(k, seed, orthogonal)[:2],
                             (k, k, 0, k + 1), (k + 1, k, 0, k), 0)
                for seed in range(KRONECKER_SEEDS))
            print(f"{what} L+J+L^T k={k:<2}  " + ", ".join(
                f"{kind} {counts[kind]}" for kind in ("right", "wrong form", "refused")))
    for finite, what in ((0, "nilpotent chains"), (2, "chains + 2x2 J")):
        for c in CHAIN_SCALES:
            counts = collections.Counter()
            for k in CHAIN_KS:
                sizes = (0, finite, k + max(k - 2, 0), 0)
                counts.update(
                    _qkf_outcome(*(hidden_chain_beside_finite(k, c, seed)[:2] if finite
                                   else hidden_nilpotent_chain(k, c, seed)), sizes, sizes, k)
                    for seed in range(CHAIN_SEEDS))
            print(f"{what} c={c:<6g}  " + ", ".join(
                f"{kind} {counts[kind]}" for kind in ("right", "wrong form", "wrong h",
                                                      "refused")))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--cli", action="store_true",
                      help="census of the dsest command instead of the results")
    mode.add_argument("--pools", action="store_true",
                      help="census of the benchmark's decide pools instead")
    mode.add_argument("--invariance", action="store_true",
                      help="letter changes under each transform instead")
    mode.add_argument("--kronecker", action="store_true",
                      help="QKF outcomes on hidden Kronecker pencils instead")
    mode.add_argument("--dump", metavar="FILE",
                      help="also write every result of the results census to FILE (.npz)")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                      help="print what moved between two --dump files")
    args = parser.parse_args()
    if args.cli:
        cli_census()
    elif args.pools:
        pool_census()
    elif args.invariance:
        invariance_census()
    elif args.kronecker:
        kronecker_census()
    elif args.compare:
        compare(*args.compare)
    else:
        records = results_census()
        if args.dump:
            np.savez(args.dump, **records)
