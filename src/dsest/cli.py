"""Command-line interface: analyze, synth, simulate, report.

Exit codes: 0 = success / affirmative verdict, 2 = negative verdict,
1 = usage or input error, or a toolkit error such as a decomposition that
could not be certified.  An input error is an ``InputFormatError`` raised
where the value is read; ``_Main`` prints every toolkit error, and an
output file that cannot be written, once: "error: ...", never a traceback.
"""

from __future__ import annotations

import os
import sys as _sys

import click
import numpy as np

from . import io as dsio
from .analysis import is_partially_causal_detectable
from .exceptions import DsestError, SynthesisError
from .linalg import Tolerance
from .sim import decay_metrics, simulate
from .signals import InputSignal
from .synthesis import synthesize_estimator

EXIT_NEGATIVE = 2
EXIT_INPUT = 1


def _effective_tolerance(file_tol: dict | None, rank_rtol: float | None,
                         margin: float | None, path: str) -> Tolerance:
    """The tolerance layers in order, the system file at ``path`` first, as
    ``dsio.resolve_tolerance`` reads them: a later layer wins."""
    settings = (("DSEST_RANK_RTOL", "rank_rtol", os.environ.get("DSEST_RANK_RTOL")),
                ("DSEST_MARGIN", "synthesis_margin", os.environ.get("DSEST_MARGIN")),
                ("--rank-rtol", "rank_rtol", rank_rtol),
                ("--margin", "synthesis_margin", margin))
    return dsio.resolve_tolerance([(path, file_tol or {})] + [
        (source, {key: value}) for source, key, value in settings if value is not None])


def _load_system(path: str, rank_rtol, margin):
    sys_, name, file_tol = dsio.load_system(path)
    return sys_, name, _effective_tolerance(file_tol, rank_rtol, margin, path)


def _parse_vector(text: str, what: str) -> np.ndarray:
    """Comma-separated numbers with no empty field; blank text is the empty vector."""
    try:
        return np.array([float(v) for v in text.split(",")] if text.strip() else [])
    except ValueError:
        raise dsio.InputFormatError(f"could not parse {what}: {text!r}") from None


def parse_input_spec(spec: str, dim: int) -> InputSignal:
    """Parse an input descriptor into an InputSignal.

    Channels are separated by ';'.  Per channel:
      zero                  -- identically zero
      poly:c0,c1,...        -- polynomial with ascending coefficients
      sin:amp,freq[,phase]  -- sinusoid
      probe:s[,shift]       -- decaying chirp sin((t+shift)^2)/(t+shift)^s
    A single 'zero' covers all channels; any other spec has one per input.
    """
    spec = spec.strip()
    if spec == "zero":
        return InputSignal.zero(dim)
    chunks = [c.strip() for c in spec.split(";")]
    if len(chunks) != dim:
        raise dsio.InputFormatError(
            f"input spec has {len(chunks)} channel(s), the plant has {dim}")
    signals = []
    for chunk in chunks:
        kind, _, args = chunk.partition(":")
        try:
            vals = [float(v) for v in args.split(",")] if args else []
        except ValueError as exc:
            raise dsio.InputFormatError(f"{chunk!r}: {exc}") from None
        if kind == "zero":
            if args:
                raise dsio.InputFormatError(f"zero takes no arguments: {chunk!r}")
            signals.append(InputSignal.zero(1))
        elif kind == "poly":
            signals.append(InputSignal.polynomial([vals or [0.0]]))
        elif kind == "sin":
            if len(vals) not in (2, 3):
                raise dsio.InputFormatError(f"sin needs amp,freq[,phase]: {chunk!r}")
            signals.append(InputSignal.sinusoid([vals[0]], vals[1],
                                                vals[2] if len(vals) == 3 else 0.0))
        elif kind == "probe":
            if len(vals) not in (1, 2):
                raise dsio.InputFormatError(f"probe needs s[,shift]: {chunk!r}")
            shift = vals[1] if len(vals) == 2 else 1.0
            try:
                signals.append(InputSignal.probe(vals[0], 1, shift=shift))
            except ValueError as exc:
                raise dsio.InputFormatError(f"{chunk!r}: {exc}") from None
        else:
            raise dsio.InputFormatError(f"unknown input kind {kind!r}")
    return InputSignal.stack(signals)


class _Main(click.Group):
    """Every DsestError or OSError (an output file that cannot be written)
    ends a command with "error: ..." and exit code 1; a usage error keeps
    click's message and exits 1 too, not click's 2."""

    def parse_args(self, ctx, args):
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:     # no command, or a bad main option
            exc.exit_code = EXIT_INPUT
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_INPUT
            raise
        except (DsestError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            _sys.exit(EXIT_INPUT)


@click.group(cls=_Main)
def main():
    """Analysis, estimator synthesis, and simulation for rectangular
    linear descriptor systems E x' = A x + B u, y = C x + D u, z = K x."""


_rank_opt = click.option("--rank-rtol", type=float, default=None,
                         help="Relative rank-decision tolerance.")
_margin_opt = click.option("--margin", type=float, default=None,
                           help="Minimum decay rate for synthesized dynamics.")


@main.command()
@click.argument("system", type=click.Path())
@_rank_opt
@_margin_opt
@click.option("--json-out", type=click.Path(), default=None,
              help="Write the machine-readable report here.")
@click.option("--md-out", type=click.Path(), default=None,
              help="Write the Markdown report here.")
def analyze(system, rank_rtol, margin, json_out, md_out):
    """Decide partial causal detectability of the functional z = K x."""
    sys_, name, tol = _load_system(system, rank_rtol, margin)
    report = is_partially_causal_detectable(sys_, tol)
    if json_out:
        dsio.write_json(json_out, dsio.report_to_dict(report))
    md = dsio.render_report_markdown(name, report)
    if md_out:
        with open(md_out, "w") as fh:
            fh.write(md)
    click.echo(md)
    _sys.exit(0 if report.partially_causal_detectable else EXIT_NEGATIVE)


@main.command()
@click.argument("system", type=click.Path())
@click.option("--out", "-o", type=click.Path(), required=True,
              help="Output estimator file (JSON).")
@_rank_opt
@_margin_opt
def synth(system, out, rank_rtol, margin):
    """Synthesize a functional ODE estimator w' = N w + H(u;y),
    zhat = R w + M(u;y)."""
    sys_, name, tol = _load_system(system, rank_rtol, margin)
    try:
        est, trace = synthesize_estimator(sys_, tol)
    except SynthesisError as exc:
        click.echo(f"refused: {exc}", err=True)
        _sys.exit(EXIT_NEGATIVE)
    eigs = np.linalg.eigvals(est.N) if est.s else np.zeros(0)
    summary = {
        "order": est.s,
        "eta_state_folded": bool(trace.eta_folded),
        "estimator_eigenvalues": [f"{v.real:.12g}{v.imag:+.12g}j" for v in eigs],
        "staircase_stages": int(trace.staircase.k),
        "stacked_block_columns": list(trace.stacked_qkf.col_sizes),
    }
    dsio.save_estimator(out, est, name=f"{name}-estimator", summary=summary)
    click.echo(f"wrote estimator of order s = {est.s} to {out}")
    for k, v in summary.items():
        click.echo(f"  {k}: {v}")


@main.command()
@click.argument("system", type=click.Path())
@click.argument("estimator", type=click.Path())
@click.option("--x0", required=True, help="Initial plant state, comma-separated.")
@click.option("--w0", required=True, help="Initial estimator state, comma-separated.")
@click.option("--input", "input_spec", default="zero",
              help="Input signal spec (see `dsest simulate --help`). "
                   "Channels separated by ';': zero | poly:c0,c1,... | "
                   "sin:amp,freq[,phase] | probe:s[,shift].")
@click.option("--tf", type=float, default=30.0, help="Horizon.")
@click.option("--dt", type=float, default=1e-3, help="Fixed RK4 step.")
@click.option("--out", type=click.Path(), required=True, help="Output CSV.")
@click.option("--svg", type=click.Path(), default=None,
              help="Optional SVG line plot.")
@_rank_opt
def simulate_cmd(system, estimator, x0, w0, input_spec, tf, dt, out, svg,
                 rank_rtol):
    """Simulate plant and estimator jointly; export t, z, zhat, e as CSV."""
    sys_, name, tol = _load_system(system, rank_rtol, None)
    est, _ = dsio.load_estimator(estimator)
    x0v = _parse_vector(x0, "--x0")
    w0v = _parse_vector(w0, "--w0")
    u = parse_input_spec(input_spec, sys_.l)
    trace = simulate(sys_, est, x0v, w0v, u, T=tf, dt=dt, tol=tol)
    dsio.write_trace_csv(out, trace)
    if svg:
        dsio.write_trace_svg(svg, trace, title=name)
    metrics = decay_metrics(trace)
    rate = "n/a" if metrics.fitted_rate is None else f"{metrics.fitted_rate:.6g}"
    click.echo(f"wrote {out} ({len(trace.t)} samples)")
    click.echo(f"decay verdict: {metrics.verdict}; fitted rate: {rate}; "
               f"final tail sup: {metrics.sup_tail[-1]:.6g}")
    _sys.exit(0 if metrics.convergent else EXIT_NEGATIVE)


main.add_command(simulate_cmd, name="simulate")


@main.command()
@click.argument("system", type=click.Path())
@click.option("--out", type=click.Path(), default=None,
              help="Write the Markdown report here (default: stdout).")
@_rank_opt
@_margin_opt
def report(system, out, rank_rtol, margin):
    """Full report: analysis verdict plus synthesis summary when possible."""
    sys_, name, tol = _load_system(system, rank_rtol, margin)
    rep = is_partially_causal_detectable(sys_, tol)
    summary = None
    if rep.partially_causal_detectable:
        try:
            est, trace = synthesize_estimator(sys_, tol)
            eigs = np.linalg.eigvals(est.N) if est.s else np.zeros(0)
            summary = {
                "order": est.s,
                "eta_state_folded": bool(trace.eta_folded),
                "estimator_eigenvalues":
                    ", ".join(f"{v.real:.6g}{v.imag:+.6g}j" for v in eigs) or "none",
            }
        except DsestError as exc:
            summary = {"synthesis_failed": str(exc)}
    md = dsio.render_report_markdown(name, rep, synthesis_summary=summary)
    if out:
        with open(out, "w") as fh:
            fh.write(md)
    else:
        click.echo(md)
    _sys.exit(0 if rep.partially_causal_detectable else EXIT_NEGATIVE)


if __name__ == "__main__":
    main()
