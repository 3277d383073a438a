import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from dsest import DecompositionError, DescriptorSystem, Tolerance
from dsest import io as dsio
from dsest.cli import main, parse_input_spec, _effective_tolerance

from conftest import random_system

DATA = os.path.join(os.path.dirname(__file__), "data")
SYSTEM_JSON = os.path.join(DATA, "example_system.json")
ESTIMATOR_JSON = os.path.join(DATA, "reference_estimator.json")
GOLDEN_CSV = os.path.join(DATA, "golden_trace.csv")


@pytest.fixture
def runner():
    return CliRunner()


class TestSystemFileRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path, ex_system):
        path = tmp_path / "sys.json"
        dsio.save_system(str(path), ex_system, name="rt")
        loaded, name, tol = dsio.load_system(str(path))
        assert name == "rt"
        for field in ("E", "A", "B", "C", "D", "K"):
            orig = getattr(ex_system, field)
            again = getattr(loaded, field)
            assert orig.shape == again.shape
            assert np.array_equal(orig, again)

    def test_estimator_round_trip(self, tmp_path, ex_reference_estimator):
        path = tmp_path / "est.json"
        dsio.save_estimator(str(path), ex_reference_estimator, name="rt",
                            summary={"order": 2})
        est, name = dsio.load_estimator(str(path))
        for field in ("N", "H", "R", "M"):
            assert np.array_equal(getattr(ex_reference_estimator, field),
                                  getattr(est, field))

    def test_missing_field_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "E": [[1.0]]}))
        with pytest.raises(dsio.InputFormatError):
            dsio.load_system(str(path))

    def test_shape_mismatch_is_input_error(self, tmp_path):
        doc = {"name": "x", "E": [[1.0, 0.0]], "A": [[1.0]],
               "B": [[1.0]], "C": [[1.0]], "D": [[0.0]], "K": [[1.0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(dsio.InputFormatError, match="shape mismatch"):
            dsio.load_system(str(path))


class TestInputSpecs:
    def test_poly_sin_probe_zero(self):
        u = parse_input_spec("poly:1,2;sin:3,4;zero;probe:2", 4)
        t = np.linspace(0.1, 2.0, 7)
        vals = u.eval(t)
        assert np.allclose(vals[0], 1 + 2 * t)
        assert np.allclose(vals[1], 3 * np.sin(4 * t))
        assert np.allclose(vals[2], 0.0)
        assert np.allclose(vals[3], np.sin((t + 1) ** 2) / (t + 1) ** 2)

    def test_channel_count_checked(self):
        with pytest.raises(ValueError):
            parse_input_spec("zero;zero", 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_input_spec("ramp:1", 1)


class TestToleranceLayers:
    def test_flags_beat_env_beat_file(self, monkeypatch):
        monkeypatch.setenv("DSEST_RANK_RTOL", "1e-7")
        monkeypatch.setenv("DSEST_MARGIN", "0.25")
        tol = _effective_tolerance({"rank_rtol": 1e-5}, None, None)
        assert tol.rank_rtol == 1e-7
        assert tol.synthesis_margin == 0.25
        tol = _effective_tolerance({"rank_rtol": 1e-5}, 1e-9, 0.75)
        assert tol.rank_rtol == 1e-9
        assert tol.synthesis_margin == 0.75

    def test_file_tolerances_apply_without_env(self, monkeypatch):
        monkeypatch.delenv("DSEST_RANK_RTOL", raising=False)
        monkeypatch.delenv("DSEST_MARGIN", raising=False)
        tol = _effective_tolerance({"rank_rtol": 1e-5}, None, None)
        assert tol.rank_rtol == 1e-5


class TestAnalyzeCommand:
    def test_affirmative_exit_zero(self, runner, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(main, ["analyze", SYSTEM_JSON,
                                   "--json-out", str(out)])
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["partially_causal_detectable"] is True

    def test_negative_exit_two(self, runner, tmp_path, sigma_violating_system):
        path = tmp_path / "sys.json"
        dsio.save_system(str(path), sigma_violating_system, name="neg")
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 2

    def test_malformed_exit_one(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"name\": \"x\"}")
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 1


class TestSynthCommand:
    def test_writes_estimator(self, runner, tmp_path):
        out = tmp_path / "est.json"
        res = runner.invoke(main, ["synth", SYSTEM_JSON, "-o", str(out)])
        assert res.exit_code == 0
        est, _ = dsio.load_estimator(str(out))
        assert est.s == 2
        assert "order s = 2" in res.output

    def test_refusal_exit_two(self, runner, tmp_path, sigma_violating_system):
        path = tmp_path / "sys.json"
        dsio.save_system(str(path), sigma_violating_system, name="neg")
        res = runner.invoke(main, ["synth", str(path),
                                   "-o", str(tmp_path / "est.json")])
        assert res.exit_code == 2


class TestSimulateCommand:
    def test_golden_csv(self, runner, tmp_path):
        out = tmp_path / "trace.csv"
        res = runner.invoke(main, [
            "simulate", SYSTEM_JSON, ESTIMATOR_JSON,
            "--x0", "1,2,3,0", "--w0", "4,5", "--input", "poly:0,1",
            "--tf", "2", "--dt", "0.01", "--out", str(out)])
        # horizon 2 is too short for the decay verdict, so exit code is 2
        assert res.exit_code == 2
        golden = np.genfromtxt(GOLDEN_CSV, delimiter=",", names=True)
        fresh = np.genfromtxt(str(out), delimiter=",", names=True)
        assert golden.dtype.names == fresh.dtype.names == ("t", "z1", "zhat1", "e1")
        for col in golden.dtype.names:
            assert np.abs(golden[col] - fresh[col]).max() < 1e-9

    def test_csv_shape_and_line_endings(self, runner, tmp_path):
        out = tmp_path / "trace.csv"
        runner.invoke(main, [
            "simulate", SYSTEM_JSON, ESTIMATOR_JSON,
            "--x0", "1,2,3,0", "--w0", "4,5", "--input", "poly:0,1",
            "--tf", "1", "--dt", "0.1", "--out", str(out)])
        raw = out.read_bytes()
        assert raw.count(b"\r\n") == 12  # header + 11 samples
        assert raw.startswith(b"t,")

    def test_convergent_exit_zero_and_svg(self, runner, tmp_path):
        out = tmp_path / "trace.csv"
        svg = tmp_path / "trace.svg"
        res = runner.invoke(main, [
            "simulate", SYSTEM_JSON, ESTIMATOR_JSON,
            "--x0", "1,2,3,0", "--w0", "4,5", "--input", "poly:0,1",
            "--tf", "30", "--dt", "0.01", "--out", str(out),
            "--svg", str(svg)])
        assert res.exit_code == 0
        assert "decay verdict" in res.output
        text = svg.read_text()
        assert text.lstrip().startswith("<svg") or "<svg" in text
        assert "<polyline" in text

    def test_inconsistent_x0_exit_one(self, runner, tmp_path):
        res = runner.invoke(main, [
            "simulate", SYSTEM_JSON, ESTIMATOR_JSON,
            "--x0", "1,2,3,9", "--w0", "4,5", "--input", "poly:0,1",
            "--tf", "1", "--dt", "0.1", "--out", str(tmp_path / "t.csv")])
        assert res.exit_code == 1

    @pytest.mark.parametrize("fields, message", [
        # A consistent file, but H and M must be 2 columns wide (l + p = 2)
        # on the worked example: simulate rejects it before integrating.
        ({"H": [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], "M": [[-1.0, 1.0, 0.0]]},
         "estimator H is 2x3"),
        # M must have the rows of R and the columns of H: the loader rejects it.
        ({"M": [[-1.0, 1.0], [0.0, 0.0]]}, "M is 2x2, expected 1x2"),
    ])
    def test_malformed_estimator_exit_one(self, runner, tmp_path, fields, message):
        with open(ESTIMATOR_JSON) as fh:
            doc = json.load(fh)
        doc.update(fields)
        bad = tmp_path / "est.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "t.csv"
        res = runner.invoke(main, [
            "simulate", SYSTEM_JSON, str(bad),
            "--x0", "1,2,3,0", "--w0", "4,5", "--input", "poly:0,1",
            "--tf", "1", "--dt", "0.1", "--out", str(out)])
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert "error:" in res.output and message in res.output
        assert not out.exists()

    def test_order_zero_estimator_file_round_trip(self, runner, tmp_path,
                                                  sigma_causal_system):
        system = tmp_path / "sys.json"
        est_path = tmp_path / "est.json"
        dsio.save_system(str(system), sigma_causal_system)
        assert runner.invoke(main, ["synth", str(system), "-o", str(est_path)]) \
            .exit_code == 0
        res = runner.invoke(main, [
            "simulate", str(system), str(est_path), "--x0", "-2,0", "--w0", "",
            "--input", "sin:1,2", "--tf", "1", "--dt", "0.1",
            "--out", str(tmp_path / "t.csv")])
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.exit_code == 0, res.output

    def test_empty_functional_estimator_file_round_trip(self, runner, tmp_path):
        with open(SYSTEM_JSON) as fh:
            doc = json.load(fh)
        doc["K"] = []
        system = tmp_path / "sys.json"
        system.write_text(json.dumps(doc))
        est_path = tmp_path / "est.json"
        assert runner.invoke(main, ["synth", str(system), "-o", str(est_path)]) \
            .exit_code == 0
        res = runner.invoke(main, [
            "simulate", str(system), str(est_path), "--x0", "1,2,3,0",
            "--w0", "0,0", "--input", "poly:0,1", "--tf", "1", "--dt", "0.1",
            "--out", str(tmp_path / "t.csv")])
        assert res.exit_code == 0, res.output


class TestReportCommand:
    def test_report_includes_synthesis_summary(self, runner):
        res = runner.invoke(main, ["report", SYSTEM_JSON])
        assert res.exit_code == 0
        assert "order" in res.output


class TestToolkitErrors:
    def test_slow_time_scale_decides(self, runner, tmp_path):
        # Draw 470 of random_system(default_rng(7)) with E x 1e3: the verdict
        # is the as-drawn "no".
        rng = np.random.default_rng(7)
        base = [random_system(rng) for _ in range(471)][470]
        path = tmp_path / "sys.json"
        dsio.save_system(str(path), DescriptorSystem.from_matrices(
            base.E * 1e3, base.A, base.B, base.C, base.K, D=base.D))
        res = runner.invoke(main, ["analyze", str(path)])
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code == 2, res.output

    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_decomposition_error_is_reported_not_raised(self, runner, monkeypatch,
                                                        command):
        def fail(*args, **kwargs):
            raise DecompositionError("QKF failed")
        monkeypatch.setattr("dsest.cli.is_partially_causal_detectable", fail)
        res = runner.invoke(main, [command, SYSTEM_JSON])
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert "error: QKF failed" in res.output
