import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import dsest
from dsest import DecompositionError, DescriptorSystem, Tolerance
from dsest import io as dsio
from dsest.cli import main, parse_input_spec, _effective_tolerance

from conftest import random_system
from test_decomp import hidden_kronecker_pencil

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

    def test_shape_message_names_the_matrix_under_the_path(self, tmp_path):
        doc = {"E": [[1.0, 0.0]], "A": [[1.0, 0.0]], "B": [[1.0]],
               "C": [], "D": [], "K": [[1.0, 0.0, 0.0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(dsio.InputFormatError) as info:
            dsio.load_system(str(path))
        assert str(info.value) == f"{path}: shape mismatch: K is 1x3, expected 1x2"


class TestUsageErrors:
    # Exit code 2 means "no estimator exists"; a usage error must not read so.
    @pytest.mark.parametrize("args, message", [
        ([], "Usage:"),
        (["--nope"], "No such option '--nope'"),
        (["bogus"], "No such command 'bogus'"),
        (["analyze"], "Missing argument 'SYSTEM'"),
        (["analyze", "--nope", SYSTEM_JSON], "No such option '--nope'"),
        (["simulate", SYSTEM_JSON, ESTIMATOR_JSON, "--tf", "abc"],
         "Invalid value for '--tf'"),
    ], ids=["no-arguments", "main-option", "command", "argument", "option",
            "value"])
    def test_usage_error_exit_one(self, runner, args, message):
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert message in res.output


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

    @pytest.mark.parametrize("spec", [
        "probe:1.5",        # non-integer s
        "probe:-1",         # negative s
        "probe:1,0",        # singular at t = 0
        "probe:2,-0.5",     # singular at t = 0.5
    ])
    def test_bad_probe_is_input_error(self, runner, tmp_path, spec):
        res = runner.invoke(main, [
            "simulate", SYSTEM_JSON, ESTIMATOR_JSON,
            "--x0", "1,2,3,0", "--w0", "4,5", "--input", spec,
            "--tf", "1", "--dt", "0.1", "--out", str(tmp_path / "trace.csv")])
        assert res.exit_code == 1
        assert "error:" in res.output and spec in res.output
        assert not (tmp_path / "trace.csv").exists()


class TestNoSympyAtRuntime:
    def test_cli_import_does_not_load_sympy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(dsest.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import dsest.cli, sys; assert 'sympy' not in sys.modules"
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr


class TestNoScipyAtImport:
    def test_cli_import_does_not_load_scipy(self):
        # Only spectral splitting and pole placement need scipy; `dsest
        # simulate` calls neither.
        src = os.path.dirname(os.path.dirname(os.path.abspath(dsest.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import dsest.cli, sys; "
                "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr


class TestToleranceLayers:
    def test_flags_beat_env_beat_file(self, monkeypatch):
        monkeypatch.setenv("DSEST_RANK_RTOL", "1e-7")
        monkeypatch.setenv("DSEST_MARGIN", "0.25")
        tol = _effective_tolerance({"rank_rtol": 1e-5}, None, None, "sys.json")
        assert tol.rank_rtol == 1e-7
        assert tol.synthesis_margin == 0.25
        tol = _effective_tolerance({"rank_rtol": 1e-5}, 1e-9, 0.75, "sys.json")
        assert tol.rank_rtol == 1e-9
        assert tol.synthesis_margin == 0.75

    def test_file_tolerances_apply_without_env(self, monkeypatch):
        monkeypatch.delenv("DSEST_RANK_RTOL", raising=False)
        monkeypatch.delenv("DSEST_MARGIN", raising=False)
        tol = _effective_tolerance({"rank_rtol": 1e-5}, None, None, "sys.json")
        assert tol.rank_rtol == 1e-5

    def test_file_numeric_string_is_a_number(self, monkeypatch):
        monkeypatch.delenv("DSEST_RANK_RTOL", raising=False)
        monkeypatch.delenv("DSEST_MARGIN", raising=False)
        tol = _effective_tolerance({"rank_rtol": "1e-5"}, None, None, "sys.json")
        assert tol.rank_rtol == 1e-5


class TestInvalidTolerance:
    @pytest.mark.parametrize("args, env, source", [
        (["--rank-rtol", "-1"], {}, "--rank-rtol"),
        (["--margin", "0"], {}, "--margin"),
        ([], {"DSEST_MARGIN": "abc"}, "DSEST_MARGIN"),
        ([], {"DSEST_RANK_RTOL": "abc"}, "DSEST_RANK_RTOL"),
        ([], {"DSEST_MARGIN": "nan"}, "DSEST_MARGIN"),
        ([], {"DSEST_RANK_RTOL": "inf"}, "DSEST_RANK_RTOL"),
        (["--rank-rtol", "nan"], {}, "--rank-rtol"),
    ], ids=["rank-rtol-negative", "margin-zero", "env-margin-text",
            "env-rank-rtol-text", "env-margin-nan", "env-rank-rtol-inf",
            "rank-rtol-nan"])
    def test_is_input_error(self, runner, args, env, source):
        env = {"DSEST_RANK_RTOL": None, "DSEST_MARGIN": None, **env}
        res = runner.invoke(main, ["analyze", SYSTEM_JSON, *args], env=env)
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert f"error: {source}: invalid tolerance" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("source, args, env, message", [
        ("file", [], {}, "invalid tolerance: rank_rtol must be positive"),
        ("DSEST_RANK_RTOL", [], {"DSEST_RANK_RTOL": "abc"},
         "invalid tolerance: could not convert string to float: 'abc'"),
        ("DSEST_MARGIN", [], {"DSEST_MARGIN": "-1"},
         "invalid tolerance: synthesis_margin must be positive"),
        ("--rank-rtol", ["--rank-rtol", "nan"], {},
         "invalid tolerance: rank_rtol must be finite, got nan"),
        ("--margin", ["--margin", "inf"], {},
         "invalid tolerance: synthesis_margin must be finite, got inf"),
    ])
    def test_message_names_its_source(self, runner, tmp_path, source, args, env,
                                      message):
        path = self.with_file_rank_rtol(tmp_path, 0 if source == "file" else 1e-10)
        env = {"DSEST_RANK_RTOL": None, "DSEST_MARGIN": None, **env}
        res = runner.invoke(main, ["analyze", path, *args], env=env)
        assert res.exit_code == 1
        shown = path if source == "file" else source
        assert res.output.strip() == f"error: {shown}: {message}"

    def test_later_layer_overrides_an_out_of_range_value(self, runner):
        res = runner.invoke(main, ["analyze", SYSTEM_JSON, "--margin", "0.5"],
                            env={"DSEST_RANK_RTOL": None, "DSEST_MARGIN": "nan"})
        assert res.exit_code == 0
        assert "Traceback" not in res.output

    def test_env_nan_margin_stops_synth(self, runner, tmp_path):
        # A NaN margin used to skip pole placement without a word.
        out = tmp_path / "est.json"
        res = runner.invoke(main, ["synth", SYSTEM_JSON, "-o", str(out)],
                            env={"DSEST_RANK_RTOL": None, "DSEST_MARGIN": "nan"})
        assert res.exit_code == 1
        assert "synthesis_margin must be finite" in res.output
        assert not out.exists()

    def test_nan_in_system_file(self, runner, tmp_path):
        # x' = x, z = x with no output: an unstable mode read by the
        # functional.  json reads the NaN; the file must not get past it.
        path = tmp_path / "sys.json"
        path.write_text('{"E": [[1]], "A": [[1]], "B": [[]], "C": [], "D": [],'
                        ' "K": [[1]], "tolerance": {"synthesis_margin": NaN}}')
        res = runner.invoke(main, ["analyze", str(path)],
                            env={"DSEST_RANK_RTOL": None, "DSEST_MARGIN": None})
        assert res.exit_code == 1
        assert (f"error: {path}: invalid tolerance: synthesis_margin must be "
                "finite") in res.output
        assert "Traceback" not in res.output

    def test_stability_margin_is_not_a_setting(self, runner, tmp_path):
        # Non-decaying means Re >= 0 in any time unit; no file may move it.
        with open(SYSTEM_JSON) as fh:
            doc = json.load(fh)
        doc["tolerance"] = {"eig_stability_margin": 0.1}
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, ["analyze", str(path)],
                            env={"DSEST_RANK_RTOL": None, "DSEST_MARGIN": None})
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert (f"error: {path}: unknown tolerance keys: ['eig_stability_margin']"
                in res.output)

    @staticmethod
    def with_file_rank_rtol(tmp_path, value) -> str:
        with open(SYSTEM_JSON) as fh:
            doc = json.load(fh)
        doc["tolerance"] = {"rank_rtol": value}
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("command", ["analyze", "synth"])
    @pytest.mark.parametrize("value, shown", [
        (None, "null"), ([1e-10], "[1e-10]"), ({"value": 1e-10}, '{"value": 1e-10}'),
        (True, "true"),
    ], ids=["null", "list", "object", "true"])
    def test_file_value_not_a_number(self, runner, tmp_path, command, value, shown):
        out = tmp_path / "out.json"
        args = ["--json-out", str(out)] if command == "analyze" else ["-o", str(out)]
        path = self.with_file_rank_rtol(tmp_path, value)
        res = runner.invoke(main, [command, path, *args],
                            env={"DSEST_RANK_RTOL": None, "DSEST_MARGIN": None})
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert (f"error: {path}: invalid tolerance: rank_rtol must be a number, "
                f"got {shown}") in res.output
        assert "Traceback" not in res.output
        assert not out.exists()

    def test_file_integer_beyond_float_range(self, runner, tmp_path):
        path = self.with_file_rank_rtol(tmp_path, 10 ** 400)
        res = runner.invoke(main, ["analyze", path],
                            env={"DSEST_RANK_RTOL": None, "DSEST_MARGIN": None})
        assert res.exit_code == 1
        assert (f"error: {path}: invalid tolerance: rank_rtol must be finite, "
                "got an integer beyond the float range") in res.output
        assert "Traceback" not in res.output

    def test_file_integer_beyond_parser_limit(self, runner, tmp_path):
        # json refuses to parse an integer literal of more than 4,300 digits.
        path = tmp_path / "sys.json"
        self.with_file_rank_rtol(tmp_path, 0)
        path.write_text(path.read_text().replace('"rank_rtol": 0',
                                                 '"rank_rtol": 1' + "0" * 5000))
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 1
        assert "error: " in res.output and "Exceeds the limit" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("field", ["rank_rtol", "synthesis_margin"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_library_refuses_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Tolerance(**{field: value})


class TestToleranceRule:
    """One rule for the file, DSEST_* and flag layers, in that order: every
    layer is checked for unknown keys and non-numbers, the last layer that
    sets a key wins, and only the winner is range-checked."""

    ENV = {"rank_rtol": "DSEST_RANK_RTOL", "synthesis_margin": "DSEST_MARGIN"}
    FLAG = {"rank_rtol": "--rank-rtol", "synthesis_margin": "--margin"}

    def analyze(self, runner, tmp_path, layers):
        """``dsest analyze`` on the worked example with ``(layer, key, value)``
        settings; returns the system file's path and the result."""
        with open(SYSTEM_JSON) as fh:
            doc = json.load(fh)
        doc["tolerance"] = {}
        args, env = [], {"DSEST_RANK_RTOL": None, "DSEST_MARGIN": None}
        for layer, key, value in layers:
            if layer == "file":
                doc["tolerance"][key] = value
            elif layer == "env":
                env[self.ENV[key]] = value
            else:
                args += [self.FLAG[key], value]
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        return str(path), runner.invoke(main, ["analyze", str(path), *args], env=env)

    @pytest.mark.parametrize("key, bad, good", [
        ("rank_rtol", 0, "1e-10"), ("synthesis_margin", -1, "0.5")])
    @pytest.mark.parametrize("earlier, later", [
        ("file", "env"), ("file", "flag"), ("env", "flag")])
    def test_later_layer_overrides_an_out_of_range_value(
            self, runner, tmp_path, earlier, later, key, bad, good):
        bad = bad if earlier == "file" else str(bad)
        _, res = self.analyze(runner, tmp_path, [(earlier, key, bad), (later, key, good)])
        assert res.exit_code == 0, res.output

    def test_out_of_range_winner_is_named(self, runner, tmp_path):
        _, res = self.analyze(runner, tmp_path, [
            ("file", "rank_rtol", 0), ("env", "rank_rtol", "-1")])
        assert res.exit_code == 1
        assert res.output == ("error: DSEST_RANK_RTOL: invalid tolerance: "
                              "rank_rtol must be positive\n")

    @pytest.mark.parametrize("layer, value, why", [
        ("file", None, "rank_rtol must be a number, got null"),
        ("file", True, "rank_rtol must be a number, got true"),
        ("file", "abc", "could not convert string to float: 'abc'"),
        ("env", "null", "could not convert string to float: 'null'"),
        ("env", "true", "could not convert string to float: 'true'"),
        ("env", "abc", "could not convert string to float: 'abc'"),
    ])
    def test_non_number_refused_under_a_later_value(self, runner, tmp_path,
                                                    layer, value, why):
        path, res = self.analyze(runner, tmp_path, [
            (layer, "rank_rtol", value), ("flag", "rank_rtol", "1e-10")])
        assert res.exit_code == 1
        source = path if layer == "file" else "DSEST_RANK_RTOL"
        assert res.output == f"error: {source}: invalid tolerance: {why}\n"

    def test_unknown_file_key_refused_under_both_flags(self, runner, tmp_path):
        path, res = self.analyze(runner, tmp_path, [
            ("file", "rank_tol", 1e-10), ("flag", "rank_rtol", "1e-10"),
            ("flag", "synthesis_margin", "0.5")])
        assert res.exit_code == 1
        assert res.output == f"error: {path}: unknown tolerance keys: ['rank_tol']\n"


class TestMatrixEntries:
    """A matrix entry must be a finite JSON number within the float range."""

    @staticmethod
    def with_entry(tmp_path, source, key, literal) -> str:
        with open(source) as fh:
            doc = json.load(fh)
        doc[key][0][0] = "@entry@"
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc).replace('"@entry@"', literal))
        return str(path)

    @pytest.mark.parametrize("key, literal, shown", [
        ("D", "true", "true"), ("K", '"1"', '"1"'), ("A", "1e400", "Infinity"),
        ("A", "NaN", "NaN"), ("E", "1" + "0" * 400, "1" + "0" * 19 + "..."),
    ], ids=["true", "numeric-string", "1e400", "NaN", "400-digit-integer"])
    def test_analyze_refuses(self, runner, tmp_path, key, literal, shown):
        path = self.with_entry(tmp_path, SYSTEM_JSON, key, literal)
        res = runner.invoke(main, ["analyze", path])
        assert res.exit_code == 1
        assert (f"error: {path}: matrix '{key}' entry (0, 0) must be a finite "
                f"number, got {shown}") in res.output
        assert "Traceback" not in res.output

    def test_simulate_refuses_estimator_entry(self, runner, tmp_path):
        est = self.with_entry(tmp_path, ESTIMATOR_JSON, "N", "true")
        out = tmp_path / "t.csv"
        res = runner.invoke(main, [
            "simulate", SYSTEM_JSON, est, "--x0", "1,2,3,0", "--w0", "4,5",
            "--tf", "1", "--dt", "0.1", "--out", str(out)])
        assert res.exit_code == 1
        assert f"error: {est}: matrix 'N' entry (0, 0) must be a finite number, " \
            "got true" in res.output
        assert not out.exists()

    def test_numbers_are_read(self, runner, tmp_path):
        path = self.with_entry(tmp_path, SYSTEM_JSON, "E", "1")
        system, _, _ = dsio.load_system(path)
        reference, _, _ = dsio.load_system(SYSTEM_JSON)
        assert np.array_equal(system.E, reference.E)


class TestFileNames:
    """A "name" in a system or estimator file must be a JSON string."""

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("value, shown", [
        (None, "null"), (7, "7"), (["a"], '["a"]')], ids=["null", "number", "list"])
    def test_name_must_be_a_string(self, runner, tmp_path, command, value, shown):
        # analyze reads the system file's name, simulate the estimator file's.
        source = SYSTEM_JSON if command == "analyze" else ESTIMATOR_JSON
        with open(source) as fh:
            doc = json.load(fh)
        doc["name"] = value
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        args = (["analyze", str(path)] if command == "analyze" else
                ["simulate", SYSTEM_JSON, str(path), "--x0", "1,2,3,0", "--w0", "4,5",
                 "--tf", "1", "--dt", "0.1", "--out", str(tmp_path / "t.csv")])
        res = runner.invoke(main, args)
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert f"error: {path}: 'name' must be a string, got {shown}" in res.output
        assert "Analysis report" not in res.output
        assert not (tmp_path / "t.csv").exists()


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

    def test_json_out_bytes(self, runner, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(main, ["analyze", SYSTEM_JSON, "--json-out", str(out)],
                            env={"DSEST_RANK_RTOL": None, "DSEST_MARGIN": None})
        assert res.exit_code == 0
        expected = {
            "partially_impulse_observable": True, "partially_detectable": True,
            "block_checks": [
                {"condition": f"the functional depends on {what}",
                 "residual": 0.0, "threshold": 1e-08}
                for what in ("the free block", "input derivatives",
                             "a non-decaying undetected mode")],
            "partially_causal": True, "partially_causal_detectable": True,
            "diagnostics": {"rank_rtol": 1e-10, "non_decaying_modes": []}}
        assert out.read_bytes() == (json.dumps(expected, indent=2) + "\n").encode()


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

    @pytest.mark.parametrize("flag, value", [
        ("--dt", "0"), ("--dt", "nan"), ("--tf", "inf"), ("--tf", "0"), ("--tf", "-1"),
    ])
    def test_invalid_horizon_or_step_exit_one(self, runner, tmp_path, flag, value):
        out = tmp_path / "t.csv"
        grid = {"--tf": "1", "--dt": "0.1", flag: value}
        res = runner.invoke(main, [
            "simulate", SYSTEM_JSON, ESTIMATOR_JSON, "--x0", "1,2,3,0",
            "--w0", "4,5", "--out", str(out), *(a for kv in grid.items() for a in kv)])
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert "error: T and dt must be finite and positive" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("x0, w0, message", [
        ("nan,2,3,0", "4,5", "x0 entries must be finite, entry 0 is nan"),
        ("1,2,3,0", "inf,5", "w0 entries must be finite, entry 0 is inf"),
    ], ids=["x0-nan", "w0-inf"])
    def test_non_finite_initial_state_exit_one(self, runner, tmp_path, x0, w0,
                                               message):
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no numpy warning on the way
            res = runner.invoke(main, [
                "simulate", SYSTEM_JSON, ESTIMATOR_JSON, "--x0", x0, "--w0", w0,
                "--tf", "1", "--dt", "0.1", "--out", str(out)])
        assert res.exit_code == 1
        assert res.output.strip() == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("x0, w0, message", [
        ("1e308,2,3,0", "4,5", "x overflows in the RK4 step from t = 0"),
        ("1,2,3,0", "1e308,5", "w overflows in the RK4 step from t = 0"),
    ], ids=["x0", "w0"])
    def test_overflowing_run_exit_one(self, tmp_path, x0, w0, message):
        # In a process of its own, so that stderr shows any numpy warning.
        src = os.path.dirname(os.path.dirname(os.path.abspath(dsest.__file__)))
        out = tmp_path / "t.csv"
        res = subprocess.run(
            [sys.executable, "-m", "dsest.cli", "simulate", SYSTEM_JSON,
             ESTIMATOR_JSON, "--x0", x0, "--w0", w0, "--tf", "1", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120)
        assert res.returncode == 1
        assert (res.stdout, res.stderr) == ("", f"error: {message}\n")
        assert not out.exists()

    def test_step_count_that_does_not_fit_exit_one(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        res = runner.invoke(main, [
            "simulate", SYSTEM_JSON, ESTIMATOR_JSON, "--x0", "1,2,3,0",
            "--w0", "4,5", "--tf", "1e300", "--out", str(out)])
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert "error: T/dt = 1e+303 steps do not fit in memory" in res.output
        assert not out.exists()

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

    @pytest.mark.parametrize("order", ["x", None, [1], 1.5, True],
                             ids=["string", "null", "list", "fraction", "boolean"])
    def test_malformed_order_exit_one(self, runner, tmp_path, order):
        with open(ESTIMATOR_JSON) as fh:
            doc = json.load(fh)
        doc["s"] = order
        bad = tmp_path / "est.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "t.csv"
        res = runner.invoke(main, [
            "simulate", SYSTEM_JSON, str(bad), "--x0", "1,2,3,0", "--w0", "4,5",
            "--tf", "1", "--dt", "0.1", "--out", str(out)])
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert (f"error: {bad}: 's' must equal the 2 rows of N, got "
                f"{json.dumps(order)}") in res.output
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


class TestCommandLineVectorsAndInputs:
    """--x0, --w0 and --input are refused rather than read in part."""

    # x' = -x, z = x: a plant without inputs or outputs, and its estimator.
    NO_INPUT_SYSTEM = {"E": [[1]], "A": [[-1]], "B": [[]], "C": [], "D": [], "K": [[1]]}
    NO_INPUT_ESTIMATOR = {"N": [[-1]], "H": [[]], "R": [[1]], "M": [[]]}

    def simulate(self, runner, tmp_path, x0="1,2,3,0", w0="4,5", spec="poly:0,1",
                 files=(SYSTEM_JSON, ESTIMATOR_JSON)):
        out = tmp_path / "t.csv"
        res = runner.invoke(main, [
            "simulate", *files, "--x0", x0, "--w0", w0, "--input", spec,
            "--tf", "1", "--dt", "0.1", "--out", str(out)])
        return res, out.exists()

    @pytest.mark.parametrize("flag, text", [
        ("--x0", "1,2,,3,0"), ("--x0", "1,2,3,0,"), ("--w0", ",4,5")])
    def test_empty_field_refused(self, runner, tmp_path, flag, text):
        vectors = {"--x0": "1,2,3,0", "--w0": "4,5", flag: text}
        res, wrote = self.simulate(runner, tmp_path, vectors["--x0"], vectors["--w0"])
        assert res.exit_code == 1
        assert res.output == f"error: could not parse {flag}: {text!r}\n"
        assert not wrote

    @pytest.mark.parametrize("spec, message", [
        ("zero:5", "zero takes no arguments: 'zero:5'"),
        ("poly:1,", "'poly:1,': could not convert string to float: ''"),
        ("sin:x,2", "'sin:x,2': could not convert string to float: 'x'"),
        ("ramp:1", "unknown input kind 'ramp'"),
        ("zero;zero", "input spec has 2 channel(s), the plant has 1"),
    ])
    def test_malformed_input_refused(self, runner, tmp_path, spec, message):
        res, wrote = self.simulate(runner, tmp_path, spec=spec)
        assert res.exit_code == 1
        assert res.output == f"error: {message}\n"
        assert not wrote

    @pytest.mark.parametrize("spec, code", [("zero", 2), ("sin:1,2", 1)])
    def test_plant_without_inputs_takes_only_zero(self, runner, tmp_path, spec, code):
        files = (tmp_path / "sys.json", tmp_path / "est.json")
        for path, doc in zip(files, (self.NO_INPUT_SYSTEM, self.NO_INPUT_ESTIMATOR)):
            path.write_text(json.dumps(doc))
        res, wrote = self.simulate(runner, tmp_path, "1", "0", spec,
                                   tuple(map(str, files)))
        assert res.exit_code == code, res.output
        if code == 1:
            assert res.output == "error: input spec has 1 channel(s), the plant has 0\n"
        assert wrote is (code == 2)


class TestUnwritableOutput:
    @pytest.mark.parametrize("args", [
        ["analyze", SYSTEM_JSON, "--json-out"],
        ["analyze", SYSTEM_JSON, "--md-out"],
        ["synth", SYSTEM_JSON, "-o"],
        ["report", SYSTEM_JSON, "--out"],
        ["simulate", SYSTEM_JSON, ESTIMATOR_JSON, "--x0", "1,2,3,0", "--w0", "4,5",
         "--tf", "1", "--dt", "0.1", "--out"],
    ], ids=["json-out", "md-out", "synth", "report", "simulate"])
    def test_is_an_error_line_not_a_traceback(self, runner, tmp_path, args):
        path = tmp_path / "missing" / "out"
        res = runner.invoke(main, [*args, str(path)])
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert res.output == f"error: [Errno 2] No such file or directory: '{path}'\n"


class TestReportCommand:
    def test_report_includes_synthesis_summary(self, runner):
        res = runner.invoke(main, ["report", SYSTEM_JSON])
        assert res.exit_code == 0
        assert "order" in res.output

    def test_structure_built_once(self, runner, monkeypatch, fresh_plants):
        # The analysis hands its stacked structure on to synthesis.
        import dsest.analysis as analysis
        calls = []
        for name in ("observability_staircase", "qkf"):
            def counted(*args, _f=getattr(analysis, name), _name=name, **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(analysis, name, counted)
        res = runner.invoke(main, ["report", SYSTEM_JSON])
        assert res.exit_code == 0
        assert "order" in res.output
        assert sorted(calls) == ["observability_staircase", "qkf"]


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
                                                        command, fresh_plants):
        def fail(*args, **kwargs):
            raise DecompositionError("QKF failed")
        monkeypatch.setattr("dsest.analysis.qkf", fail)
        res = runner.invoke(main, [command, SYSTEM_JSON])
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert "error: QKF failed" in res.output

    def test_unconverged_svd_is_an_error_line(self, runner, tmp_path, monkeypatch):
        # No input, no output, z = x_1, and an order-0 estimator; every SVD
        # of the QKF fails to converge.
        def unconverged(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", unconverged)
        E, A, _ = hidden_kronecker_pencil(10, 6)
        n = E.shape[1]
        (tmp_path / "sys.json").write_text(json.dumps(
            {"E": E.tolist(), "A": A.tolist(), "B": [[]] * n, "C": [], "D": [],
             "K": [[1.0] + [0.0] * (n - 1)]}))
        (tmp_path / "est.json").write_text(json.dumps(
            {"N": [], "H": [], "R": [[]], "M": [[]]}))
        res = runner.invoke(main, [
            "simulate", str(tmp_path / "sys.json"), str(tmp_path / "est.json"),
            "--x0", ",".join(["0"] * n), "--w0", "", "--tf", "1", "--dt", "0.1",
            "--out", str(tmp_path / "out.csv")])
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert ("error: QKF failed at rank_rtol=1e-10 (LinAlgError: SVD did not "
                "converge)") in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_commands_run_no_lifted_code(self, runner, monkeypatch, command):
        def fail(*args, **kwargs):
            raise DecompositionError("lifted check ran")
        for name in ("characterization_suite", "_toeplitz_F"):
            monkeypatch.setattr(f"dsest.analysis.{name}", fail)
        res = runner.invoke(main, [command, SYSTEM_JSON])
        assert res.exit_code == 0, res.output
        assert "- partially causal: True" in res.output
