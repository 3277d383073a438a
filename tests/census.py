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
* traces: t, x, y, z, w, zhat, e and meta of each simulation (or its error).

This is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

import dsest
from conftest import lifted_system, random_system
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


def _simulate(digest, key: str, sys, est, trace) -> None:
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
        return
    _arrays(digest, run.t, run.x, run.y, run.z, run.w, run.zhat, run.e)
    digest.update(json.dumps(run.meta, sort_keys=True, default=str).encode())


def main() -> None:
    digests = {name: hashlib.sha256()
               for name in ("reports", "refusals", "estimators", "traces")}
    counts = {"systems": 0, "built": 0, "refused": 0, "analysis raised": 0}
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
            except dsest.DsestError as exc:
                counts["analysis raised"] += 1
                digests["reports"].update(_error(exc))
            try:
                est, trace = dsest.synthesize_estimator(sys)
            except dsest.DsestError as exc:
                counts["refused"] += 1
                digests["refusals"].update(_error(exc))
                continue
            counts["built"] += 1
            _arrays(digests["estimators"], est.N, est.H, est.R, est.M,
                    trace.state_map, trace.L)
            _simulate(digests["traces"], key, sys, est, trace)
    print(", ".join(f"{k} {v}" for k, v in counts.items()))
    for name, digest in digests.items():
        print(f"{name:<10} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
