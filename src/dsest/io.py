"""File formats: JSON system/estimator files, JSON/Markdown reports,
CSV traces, and a dependency-free SVG line plot."""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .analysis import AnalysisReport, DescriptorSystem
from .exceptions import DsestError
from .linalg import DEFAULT_TOL, Tolerance
from .sim import DecayMetrics, SimulationTrace
from .synthesis import EstimatorRealization


class InputFormatError(DsestError):
    """Malformed or inconsistent input file."""


_MATRIX_KEYS = ("E", "A", "B", "C", "D", "K")


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
    try:
        M = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{path}: matrix '{key}': {exc}") from None
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
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: top level must be a JSON object")
    return doc


def tolerance_from_dict(doc: Optional[dict],
                        base: Tolerance = DEFAULT_TOL) -> Tolerance:
    if not doc:
        return base
    allowed = {"rank_rtol", "eig_stability_margin", "synthesis_margin"}
    unknown = set(doc) - allowed
    if unknown:
        raise InputFormatError(f"unknown tolerance keys: {sorted(unknown)}")
    kwargs = {k: base.__dict__[k] for k in allowed}
    kwargs.update({k: float(v) for k, v in doc.items()})
    return Tolerance(**kwargs)


def load_system(path: str) -> tuple[DescriptorSystem, str, Optional[dict]]:
    """Load a SystemFile; returns (system, name, tolerance-override dict)."""
    doc = _read_json_object(path)
    mats = {k: _as_matrix_field(doc, k, path) for k in _MATRIX_KEYS}
    E, A, B, C, D, K = (mats[k] for k in _MATRIX_KEYS)
    m, n = E.shape
    if A.shape != (m, n):
        raise InputFormatError(
            f"{path}: shape mismatch E vs A ({m}x{n} vs "
            f"{A.shape[0]}x{A.shape[1]})")
    if B.shape[0] != m:
        raise InputFormatError(
            f"{path}: shape mismatch E vs B ({m} vs {B.shape[0]} rows)")
    if C.shape[1] != n and C.size:
        raise InputFormatError(
            f"{path}: shape mismatch E vs C ({n} vs {C.shape[1]} columns)")
    if C.shape[1] != n:
        C = C.reshape(0, n)
    if D.size == 0:
        D = np.zeros((C.shape[0], B.shape[1]))
    if D.shape != (C.shape[0], B.shape[1]):
        raise InputFormatError(
            f"{path}: shape mismatch D ({D.shape[0]}x{D.shape[1]}, expected "
            f"{C.shape[0]}x{B.shape[1]})")
    if K.shape[1] != n and K.size:
        raise InputFormatError(
            f"{path}: shape mismatch E vs K ({n} vs {K.shape[1]} columns)")
    if K.shape[1] != n:
        K = K.reshape(0, n)
    try:
        sys_ = DescriptorSystem(E=E, A=A, B=B, C=C, D=D, K=K)
    except DsestError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    name = doc.get("name", "unnamed")
    tol_doc = doc.get("tolerance")
    if tol_doc is not None and not isinstance(tol_doc, dict):
        raise InputFormatError(f"{path}: 'tolerance' must be an object")
    return sys_, str(name), tol_doc


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
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


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
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_estimator(path: str) -> tuple[EstimatorRealization, str]:
    doc = _read_json_object(path)
    mats = {key: _as_matrix_field(doc, key, path) for key in ("N", "H", "R", "M")}
    s = int(doc.get("s", mats["N"].shape[0]))
    if mats["N"].shape != (s, s):
        raise InputFormatError(f"{path}: N must be {s}x{s}")
    # A matrix with no rows is saved as [], which carries no width: R (empty
    # functional) has s columns, H (order 0) the columns of M, and M (empty
    # functional) the columns of H.
    if mats["R"].shape[0] == 0:
        mats["R"] = mats["R"].reshape(0, s)
    if mats["H"].shape[0] != s or mats["R"].shape[1] != s:
        raise InputFormatError(f"{path}: H/R shapes inconsistent with s={s}")
    if s == 0:
        mats["H"] = mats["H"].reshape(0, mats["M"].shape[1])
    if mats["M"].shape[0] == 0:
        mats["M"] = mats["M"].reshape(0, mats["H"].shape[1])
    if mats["M"].shape != (mats["R"].shape[0], mats["H"].shape[1]):
        raise InputFormatError(
            f"{path}: M is {mats['M'].shape[0]}x{mats['M'].shape[1]}, expected "
            f"{mats['R'].shape[0]}x{mats['H'].shape[1]} (rows of R x columns of H)")
    try:
        est = EstimatorRealization(N=mats["N"], H=mats["H"],
                                   R=mats["R"], M=mats["M"])
    except DsestError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    return est, str(doc.get("name", "estimator"))


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
        "causality_ranks": [int(r) for r in report.causality_ranks],
        "causality_assumption_ok": bool(report.causality_assumption_ok),
        "partially_causal_detectable": bool(report.partially_causal_detectable),
        "characterization_votes": [bool(v) for v in report.characterization_votes],
        "diagnostics": dict(report.diagnostics),
    }


_VOTE_NAMES = (
    "block rank test",
    "kernel-chain inclusion",
    "reachability-restricted inclusion",
    "one-step geometric inclusion",
    "controllable-part impulse observability",
)


def render_report_markdown(name: str, report: AnalysisReport,
                           decay: Optional[DecayMetrics] = None,
                           synthesis_summary: Optional[dict] = None) -> str:
    r = report
    lines = [f"# Analysis report: {name}", ""]
    lines.append(f"- partially causal detectable: **{r.partially_causal_detectable}**")
    lines.append(f"- partially detectable: {r.partially_detectable}")
    lines.append(f"- partially causal (stacked): {r.partially_causal} "
                 f"(ranks {r.causality_ranks[0]} vs {r.causality_ranks[1]}, "
                 f"normal-rank assumption ok: {r.causality_assumption_ok})")
    lines.append(f"- partially impulse observable: {r.partially_impulse_observable}")
    lines.append("")
    lines.append("## Equivalent characterizations")
    for nm, vote in zip(_VOTE_NAMES, r.characterization_votes):
        lines.append(f"- {nm}: {vote}")
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
    if decay is not None:
        lines.append("")
        lines.append("## Error decay")
        lines.append(f"- verdict: {decay.verdict}")
        rate = "n/a" if decay.fitted_rate is None else f"{decay.fitted_rate:.6g}"
        lines.append(f"- fitted exponential rate: {rate}")
        lines.append(f"- final tail supremum: {decay.sup_tail[-1]:.6g}")
    lines.append("")
    return "\n".join(lines)


# -- trace export -------------------------------------------------------------

def write_trace_csv(path: str, trace: SimulationTrace) -> None:
    """CSV with t first, then z, zhat, e columns (one per component)."""
    r = trace.z.shape[0]
    header = ["t"]
    header += [f"z{i+1}" for i in range(r)]
    if trace.zhat is not None:
        header += [f"zhat{i+1}" for i in range(r)]
    if trace.e is not None:
        header += [f"e{i+1}" for i in range(r)]
    cols = [trace.t, *trace.z]
    if trace.zhat is not None:
        cols += list(trace.zhat)
    if trace.e is not None:
        cols += list(trace.e)
    data = np.column_stack(cols) if cols else np.zeros((len(trace.t), 0))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in data:
            fh.write(",".join(format(v, ".12g") for v in row) + "\r\n")


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
