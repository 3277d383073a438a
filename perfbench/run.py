"""dsest benchmark: three seeded workloads, seven end-to-end metrics, and a
traced run for the per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide-lifted --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25 --tag parent

The first form runs one workload and prints, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  It also writes a result file with the environment record
under ``perfbench/out/``.  The second form runs every workload, untraced and
traced, prints all metrics as a table and writes
``perfbench/out/BENCH_<tag>.json``.  See BASELINE.md for the metric
definitions and the first measured numbers.
"""

from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()     # setup_s runs from here to the end of the warm-up

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("worked-cli", "decide-lifted", "decide-rescaled")
SETUP_SAMPLES = 3               # setup_s is the median of this many set-ups
# Ops that must lie beyond the tail percentile.
TAIL_BEYOND = 10


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is imported.  One thread is
    within nproc on any machine and is the steadier choice: with two
    threads the ops of decide-rescaled ran 8 % slower on a 2-core machine,
    and their tail latency moved with the load on the other core."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile that has at least
    TAIL_BEYOND ops beyond it; the maximum when there are too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def median(values):
    import statistics
    return statistics.median(values)


def environment(args, ops: int, rounds: int) -> dict:
    import hashlib
    import platform
    import subprocess
    from importlib import metadata
    import workloads

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=workloads.ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and os.path.samefile(lines[0], workloads.ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(workloads.SRC, "dsest")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "sympy": version("sympy"), "click": version("click"),
        "machine": platform.machine(), "cpu": _cpu_model(),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "ops": ops,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def setup_probes(args, count: int) -> list[float]:
    """Set-up time of ``count`` fresh interpreters that do what this run did
    before its first timed op."""
    import json
    import subprocess
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
            capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def cli_import_s(samples: int = 3) -> float:
    """Fresh-interpreter `import dsest.cli` minus bare interpreter start."""
    import subprocess
    import workloads
    env = dict(os.environ, PYTHONPATH=workloads.SRC)

    def timed(code):
        runs = []
        for _ in range(samples):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           timeout=120)
            runs.append(time.perf_counter() - t0)
        return median(runs)

    bare = timed("pass")
    return timed("import dsest.cli") - bare


def timed_phase(wl, spans=None):
    """Run every op of the workload back to back; with a tracer, every op is
    traced and the wrappers are removed afterwards."""
    ops = []
    if spans:
        spans.install()
    try:
        t0 = time.perf_counter()
        for index, item in enumerate(wl.inputs):
            if spans:
                spans.begin_op(index)
            ops.append(wl.run_op(item))
            if spans:
                spans.end_op()
        wall_s = time.perf_counter() - t0
    finally:
        if spans:
            spans.uninstall()
    return ops, wall_s


def run_workload(args) -> dict:
    """One run; returns the result record (the last stdout line is its
    ``summary``)."""
    import resource
    import workloads
    import tracer as tracing

    rounds = workloads.rounds_for(args.workload, args.seconds)
    traced = bool(args.trace)
    wl = workloads.make_workload(args.workload, args.seed, rounds, in_process=traced)
    wl.warm_up()
    setup_s = time.perf_counter() - START
    if args.setup_probe:
        return {"summary": {"setup_s": setup_s}}

    spans = None
    if traced:
        # The same ops untraced first, in the same process, as the base of
        # the tracing overhead (the untraced worked-cli run spawns processes).
        _, plain_wall_s = timed_phase(wl)
        spans = tracing.Tracer()
    ops, wall_s = timed_phase(wl, spans)
    if args.workload == "worked-cli" and not traced:
        peak_rss_mb = wl.peak_rss_kb / 1024
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wl.check(ops)
    reference = workloads.load_reference()
    regressions = workloads.guard(reference, args.workload, ops)

    attempted = len(ops)
    failed = sum(op.failed for op in ops)
    completed = attempted - failed
    wrong = sum(op.wrong for op in ops)
    latencies = [op.latency_s for op in ops]
    tail_s, tail_pct = tail(latencies)
    fail_share = failed / attempted
    wrong_share = wrong / completed if completed else 1.0

    record = {"environment": environment(args, attempted, rounds),
              "wall_s": wall_s, "regressions": regressions,
              "fail_share": fail_share, "wrong_share": wrong_share,
              "tail_percentile": tail_pct, "op_samples": attempted,
              "ops": [[*op.key, op.code, op.latency_s] for op in ops],
              "errors": _tally(op.error for op in ops if op.error),
              "wrong_reasons": _tally(r for op in ops for r in op.reasons)}
    if traced:
        metrics = spans.metrics(cli_import_s())
        os.makedirs(OUT, exist_ok=True)
        spans.save(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz"))
        record["span_count"] = len(spans.start)
        record["tracing_overhead_s"] = wall_s - plain_wall_s
    else:
        setups = [setup_s] + setup_probes(args, SETUP_SAMPLES - 1)
        record["setup_samples"] = setups
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_s": {"value": median(latencies), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "ok_share": {"value": 1.0 - fail_share, "unit": "1"},
            "right_share": {"value": 1.0 - wrong_share, "unit": "1"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record["summary"] = {"correct": regressions == 0, "attempted": attempted,
                         "failed": failed, "metrics": metrics}
    return record


def _tally(items) -> dict:
    out: dict = {}
    for item in items:
        out[item] = out.get(item, 0) + 1
    return out


def result_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")


def print_table(rows) -> None:
    """rows: (workload, record) pairs."""
    for workload, record in rows:
        s = record["summary"]
        print(f"== {workload}  trace={record['environment']['trace']}  "
              f"ops={s['attempted']}  failed={s['failed']}  correct={s['correct']}")
        for name, m in s["metrics"].items():
            print(f"   {name:<48} {m['value']:>14.6g} {m['unit']}")
        if not record["environment"]["trace"]:
            print(f"   {'fail_share':<48} {record['fail_share']:>14.6g} 1")
            print(f"   {'wrong_share':<48} {record['wrong_share']:>14.6g} 1")
            print(f"   op_tail_s is the p{record['tail_percentile']:.4g} latency "
                  f"of {record['op_samples']} ops")
        elif "tracing_overhead_s" in record:
            print(f"   tracing overhead (traced - untraced wall_s): "
                  f"{record['tracing_overhead_s']:.4g} s")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    import json
    import subprocess
    rows, failed = [], False
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], stdout=subprocess.DEVNULL, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} trace={trace} exited {proc.returncode}")
                failed = True
                continue
            with open(result_path(workload, args.seed, trace)) as fh:
                rows.append((workload, json.load(fh)))
    print_table(rows)
    bench = os.path.join(OUT, f"BENCH_{args.tag}.json")
    with open(bench, "w") as fh:
        json.dump({wl: {f"trace{r['environment']['trace']}": r
                        for w, r in rows if w == wl} for wl in WORKLOADS}, fh, indent=1)
    print(f"wrote {bench}")
    return 1 if failed else 0


def main(argv=None) -> int:
    import argparse
    import json
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", default="run", help="BENCH_<tag>.json name (--all)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")

    pin_blas_threads()
    sys.path.insert(0, HERE)
    import workloads
    if not workloads.source_present():
        print("perfbench: run from the root of a dsest checkout "
              "(src/dsest and tests/data are missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, workloads.SRC)

    record = run_workload(args)
    if args.setup_probe:
        print(json.dumps(record["summary"]))
        return 0
    os.makedirs(OUT, exist_ok=True)
    with open(result_path(args.workload, args.seed, args.trace), "w") as fh:
        json.dump(record, fh, indent=1)
    print_table([(args.workload, record)])
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
