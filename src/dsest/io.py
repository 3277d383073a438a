"""File formats: JSON system/estimator files, JSON/Markdown reports,
CSV traces, a dependency-free SVG line plot, and ``resolve_tolerance``, the
one reader of tolerance settings from a file, the environment or the flags."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from .analysis import AnalysisReport, DescriptorSystem
from .exceptions import DsestError
from .linalg import DEFAULT_TOL, Tolerance
from .sim import SimulationTrace
from .synthesis import EstimatorRealization


class InputFormatError(DsestError, ValueError):
    """Malformed or inconsistent input: a file, a variable or an option."""


_MATRIX_KEYS = ("E", "A", "B", "C", "D", "K")


def _shown(v) -> str:
    """A JSON value as written, cut to 24 characters."""
    shown = json.dumps(v)
    return shown if len(shown) <= 24 else shown[:20] + "..."


def _as_matrix_field(doc: dict, key: str, path: str) -> np.ndarray:
    if key not in doc:
        raise InputFormatError(f"{path}: missing matrix '{key}'")
    raw = doc[key]
    if not isinstance(raw, list) or any(not isinstance(r, list) for r in raw):
        raise InputFormatError(
            f"{path}: matrix '{key}' must be an array of arrays (row-major)")
    widths = {len(r) for r in raw}
    if len(widths) > 1:
        raise InputFormatError(f"{path}: matrix '{key}' has ragged rows")
    for i, row in enumerate(raw):
        for j, v in enumerate(row):
            # Not a bool or string; NaN, infinity and huge integers fail the bound.
            if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
                raise InputFormatError(
                    f"{path}: matrix '{key}' entry ({i}, {j}) must be a finite "
                    f"number, got {_shown(v)}")
    M = np.array(raw, dtype=float)
    if M.ndim == 1:  # zero rows
        M = M.reshape(0, 0)
    return M


def _read_json_object(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") \
            from None
    except ValueError as exc:   # an integer literal beyond Python's digit limit
        raise InputFormatError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: top level must be a JSON object")
    return doc


def _name_field(doc: dict, path: str, default: str) -> str:
    name = doc.get("name", default)
    if not isinstance(name, str):
        raise InputFormatError(f"{path}: 'name' must be a string, got {_shown(name)}")
    return name


def write_json(path: str, doc: dict) -> None:
    """``doc`` as indented JSON with a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def resolve_tolerance(layers) -> Tolerance:
    """The tolerance that ``(source, {key: value})`` layers set, earliest
    first.  Each layer may set only ``rank_rtol`` and ``synthesis_margin``,
    each to a number; the last layer that sets a key wins, and only the
    winners are range-checked.  Each refusal names its layer's source."""
    def refused(source, why):
        return InputFormatError(f"{source}: invalid tolerance: {why}")
    chosen = {}
    for source, values in layers:
        unknown = set(values) - {"rank_rtol", "synthesis_margin"}
        if unknown:
            raise InputFormatError(f"{source}: unknown tolerance keys: {sorted(unknown)}")
        for key, value in values.items():
            if value is None or isinstance(value, (bool, list, dict)):
                raise refused(source, f"{key} must be a number, got {json.dumps(value)}")
            try:
                chosen[key] = source, float(value)  # a numeric string is its number
            except OverflowError:
                raise refused(source, f"{key} must be finite, got an integer beyond "
                                      "the float range") from None
            except ValueError as exc:
                raise refused(source, exc) from None
    tol = DEFAULT_TOL
    for key, (source, value) in chosen.items():
        try:
            tol = replace(tol, **{key: value})
        except ValueError as exc:
            raise refused(source, exc) from None
    return tol


def load_system(path: str) -> tuple[DescriptorSystem, str, Optional[dict]]:
    """Load a SystemFile; returns (system, name, tolerance-override dict)."""
    doc = _read_json_object(path)
    E, A, B, C, D, K = (_as_matrix_field(doc, k, path) for k in _MATRIX_KEYS)
    # JSON [] carries no width: C or K without rows reads n columns, and an
    # empty D is zero.  DescriptorSystem checks every shape.
    n = E.shape[1]
    if C.shape[0] == 0:
        C = C.reshape(0, n)
    if K.shape[0] == 0:
        K = K.reshape(0, n)
    if D.size == 0:
        D = np.zeros((C.shape[0], B.shape[1]))
    try:
        sys_ = DescriptorSystem(E=E, A=A, B=B, C=C, D=D, K=K)
    except DsestError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    name = _name_field(doc, path, "unnamed")
    tol_doc = doc.get("tolerance")
    if tol_doc is not None and not isinstance(tol_doc, dict):
        raise InputFormatError(f"{path}: 'tolerance' must be an object")
    return sys_, name, tol_doc


def _matrix_to_lists(M: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(M)] \
        if M.size else [[] for _ in range(M.shape[0])]


def save_system(path: str, sys_: DescriptorSystem, name: str = "unnamed",
                tolerance: Optional[dict] = None) -> None:
    doc = {"name": name}
    for key, M in zip(_MATRIX_KEYS,
                      (sys_.E, sys_.A, sys_.B, sys_.C, sys_.D, sys_.K)):
        doc[key] = _matrix_to_lists(M)
    if tolerance:
        doc["tolerance"] = tolerance
    write_json(path, doc)


def save_estimator(path: str, est: EstimatorRealization,
                   name: str = "estimator",
                   summary: Optional[dict] = None) -> None:
    doc = {
        "name": name, "s": est.s,
        "N": _matrix_to_lists(est.N), "H": _matrix_to_lists(est.H),
        "R": _matrix_to_lists(est.R), "M": _matrix_to_lists(est.M),
    }
    if summary:
        doc["synthesis_summary"] = summary
    write_json(path, doc)


def load_estimator(path: str) -> tuple[EstimatorRealization, str]:
    doc = _read_json_object(path)
    N, H, R, M = (_as_matrix_field(doc, key, path) for key in "NHRM")
    s = N.shape[0]
    if "s" in doc and (type(doc["s"]) not in (int, float) or doc["s"] != s):
        raise InputFormatError(f"{path}: 's' must equal the {s} rows of N, "
                               f"got {_shown(doc['s'])}")
    # A matrix with no rows is saved as [], which carries no width: R (empty
    # functional) has s columns, H (order 0) the columns of M, and M (empty
    # functional) the columns of H.  EstimatorRealization checks every shape.
    if R.shape[0] == 0:
        R = R.reshape(0, s)
    if H.shape[0] == 0:
        H = H.reshape(0, M.shape[1])
    if M.shape[0] == 0:
        M = M.reshape(0, H.shape[1])
    try:
        est = EstimatorRealization(N=N, H=H, R=R, M=M)
    except DsestError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    return est, _name_field(doc, path, "estimator")


# -- reports -----------------------------------------------------------------

def report_to_dict(report: AnalysisReport) -> dict:
    return {
        "partially_impulse_observable": bool(report.partially_impulse_observable),
        "partially_detectable": bool(report.partially_detectable),
        "block_checks": [
            {"condition": condition, "residual": float(residual),
             "threshold": float(threshold)}
            for condition, residual, threshold in report.block_checks],
        "partially_causal": bool(report.partially_causal),
        "partially_causal_detectable": bool(report.partially_causal_detectable),
        "diagnostics": dict(report.diagnostics),
    }


def render_report_markdown(name: str, report: AnalysisReport,
                           synthesis_summary: Optional[dict] = None) -> str:
    r = report
    lines = [f"# Analysis report: {name}", ""]
    lines.append(f"- partially causal detectable: **{r.partially_causal_detectable}**")
    lines.append(f"- partially detectable: {r.partially_detectable}")
    lines.append(f"- partially causal: {r.partially_causal}")
    lines.append(f"- partially impulse observable: {r.partially_impulse_observable}")
    lines.append("")
    lines.append("## Block checks on the stacked quasi-Kronecker form")
    for condition, residual, threshold in r.block_checks:
        lines.append(f"- {condition}: {'yes' if residual > threshold else 'no'} "
                     f"(residual {residual:.3g}, threshold {threshold:.3g})")
    modes = r.diagnostics["non_decaying_modes"]
    if modes:
        lines.append("- non-decaying modes of the finite block: " + ", ".join(
            f"{re:.6g}" if abs(im) < 1e-12 else f"{re:.6g}{im:+.6g}j"
            for re, im in modes))
    if synthesis_summary:
        lines.append("")
        lines.append("## Synthesis summary")
        for k, v in synthesis_summary.items():
            lines.append(f"- {k}: {v}")
    lines.append("")
    return "\n".join(lines)


# -- trace export -------------------------------------------------------------

def write_trace_csv(path: str, trace: SimulationTrace) -> None:
    """CSV with t first, then z, zhat, e columns (one per component)."""
    blocks = [(name, rows) for name, rows in
              (("z", trace.z), ("zhat", trace.zhat), ("e", trace.e)) if rows is not None]
    header = ["t"] + [f"{name}{i + 1}" for name, rows in blocks for i in range(len(rows))]
    line = ",".join(["%.12g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for values in np.column_stack([trace.t, *(r for _, rows in blocks for r in rows)]):
            fh.write(line % tuple(values.tolist()))


def _polyline(ts, vs, x0, y0, w, h, tmin, tmax, vmin, vmax) -> str:
    span_t = (tmax - tmin) or 1.0
    span_v = (vmax - vmin) or 1.0
    pts = []
    for t, v in zip(ts, vs):
        px = x0 + (t - tmin) / span_t * w
        py = y0 + h - (v - vmin) / span_v * h
        pts.append(f"{px:.2f},{py:.2f}")
    return " ".join(pts)


def write_trace_svg(path: str, trace: SimulationTrace,
                    title: str = "trace") -> None:
    """Single-file SVG: z, zhat components and the error norm versus time."""
    width, height, pad = 900, 480, 60
    w, h = width - 2 * pad, height - 2 * pad
    series = []
    colors = ("#1f77b4", "#2ca02c", "#9467bd", "#8c564b")
    for i, row in enumerate(trace.z):
        series.append((f"z{i+1}", row, colors[i % len(colors)], "4,0"))
    if trace.zhat is not None:
        for i, row in enumerate(trace.zhat):
            series.append((f"zhat{i+1}", row, "#ff7f0e", "6,4"))
    if trace.e is not None and trace.e.shape[0]:
        series.append(("|e|", np.linalg.norm(trace.e, axis=0), "#d62728", "2,2"))
    if not series:
        series = [("empty", np.zeros(len(trace.t)), "#000000", "4,0")]
    # subsample for file size
    step = max(1, len(trace.t) // 2000)
    ts = trace.t[::step]
    vmin = min(float(np.min(s[1])) for s in series)
    vmax = max(float(np.max(s[1])) for s in series)
    tmin, tmax = float(ts[0]), float(ts[-1])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{pad}" y="30" font-size="16">{title}</text>',
        f'<rect x="{pad}" y="{pad}" width="{w}" height="{h}" fill="none" '
        f'stroke="#999"/>',
        f'<text x="{pad}" y="{height - 20}" font-size="12">t: {tmin:g} .. '
        f'{tmax:g}</text>',
        f'<text x="{pad}" y="{pad - 8}" font-size="12">value: {vmin:g} .. '
        f'{vmax:g}</text>',
    ]
    legend_y = 44
    for name, vals, color, dash in series:
        pts = _polyline(ts, vals[::step], pad, pad, w, h, tmin, tmax, vmin, vmax)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5" stroke-dasharray="{dash}"/>')
        parts.append(f'<text x="{width - 160}" y="{legend_y}" font-size="12" '
                     f'fill="{color}">{name}</text>')
        legend_y += 16
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
