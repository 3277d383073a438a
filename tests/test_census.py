"""``tests/census.py --compare`` on two small ``--dump`` files."""

import numpy as np

import census


def _estimator(pole: float) -> list:
    """(N, H, R, M, state_map, L) of a one-state estimator."""
    return [[[pole]], [[1.0]], [[1.0]], [[0.0]], [[1.0]], np.zeros((1, 0))]


def _trace(scale: float) -> list:
    """(t, x, y, z, w, zhat, e) of a run whose error decays."""
    t = np.linspace(0.0, 10.0, 50)
    decay = scale * np.exp(-t)[None, :]
    return [t, decay, decay, decay, 2 * decay, 2 * decay, decay]


def _dump(path, built: dict) -> str:
    """A dump of two Y systems, "a" and "b", with the estimators and traces
    of ``built`` ({key: (estimator, trace)}); a key not in it is refused."""
    records = {}
    for key in ("a/drawn", "b/drawn"):
        census._keep(records, "letters", key, "Y")
        if key not in built:
            census._keep(records, "estimators", key, "SynthesisError: refused")
            continue
        estimator, trace = built[key]
        census._keep(records, "estimators", key, *estimator)
        census._keep(records, "traces", key, *trace)
    np.savez(path, **records)
    return str(path)


def test_compare_reports_a_trace_that_one_side_lacks(tmp_path, capsys):
    old = _dump(tmp_path / "old.npz", {"a/drawn": (_estimator(-1.0), _trace(1.0))})
    new = _dump(tmp_path / "new.npz", {"a/drawn": (_estimator(-1.0), _trace(1.0 + 1e-9)),
                                       "b/drawn": (_estimator(-2.0), _trace(1.0))})
    census.compare(old, new)
    lines = capsys.readouterr().out.splitlines()
    assert "letters changed 0" in lines
    assert "  b/drawn: SynthesisError: refused -> None" in lines
    assert "estimators moved 1 of 2, worst relative change inf at b/drawn" in lines
    traces = lines.index(next(line for line in lines if line.startswith("traces")))
    assert lines[traces].startswith("traces     moved 1 of 1,")
    assert lines[traces + 1] == "  only in new 1: b/drawn"
    assert "  decay verdicts changed 0" in lines[traces:]
    assert not any(line.startswith("  only in old") for line in lines)
