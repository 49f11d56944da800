"""Tests for canonical serialization, suite records, and the command line."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qgatelab import (
    CSV_COLUMNS,
    CheckRecord,
    ExponentConvention,
    OperatorConvention,
    RunConfig,
    VerificationReport,
    canonical_json,
    run_suites,
    serialize_report,
)
from qgatelab.cli import ENV_OUT_DIR, main

GOLDEN_DIR = Path(__file__).parent / "golden"

# checks that state their own outcome instead of residual <= threshold
_OWN_OUTCOME_CHECKS = (
    "algebra/convention-audit/q=2",
    "gates/toffoli-literal-audit/q=2",
    "constraints/verdict/",
    "limits/lowering-gap/",
    "limits/shrink-ratio/",
)


def _golden_config() -> RunConfig:
    return RunConfig(suite="algebra", q_values=(2.0,), cutoff=4)


class TestCanonicalJson:
    def test_keys_are_sorted(self):
        assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'

    def test_floats_render_with_full_precision(self):
        assert canonical_json(0.1) == "0.10000000000000001"
        assert canonical_json(2.0) == "2"
        assert canonical_json(1e-12) == "9.9999999999999998e-13"

    def test_non_ascii_is_escaped(self):
        assert canonical_json("é") == '"\\u00e9"'

    def test_rejects_non_finite_floats(self):
        with pytest.raises(ValueError):
            canonical_json(float("inf"))

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            canonical_json({1: "x"})

    def test_output_is_valid_json(self):
        payload = canonical_json({"nested": {"x": [1.5, "s"]}, "n": 3})
        assert json.loads(payload) == {"nested": {"x": [1.5, "s"]}, "n": 3}


class TestCheckRecord:
    def test_rejects_unknown_relation_tag(self):
        with pytest.raises(ValueError):
            CheckRecord("x", "made-up-tag", "c", {}, 0.0, 1.0, True)

    def test_coerces_numeric_fields(self):
        record = CheckRecord("x", "derived", "c", {}, 1, 2, 1)
        assert record.residual == 1.0
        assert record.threshold == 2.0
        assert record.passed is True

    def test_allows_residual_free_checks(self):
        record = CheckRecord("x", "derived", "c", {}, None, None, True)
        assert record.residual is None
        assert record.threshold is None


class TestSerialization:
    def test_json_is_newline_terminated(self):
        payload = serialize_report(run_suites(_golden_config()), "json")
        assert payload.endswith(b"\n")
        assert not payload[:-1].endswith(b"\n")

    def test_csv_header_is_frozen(self):
        payload = serialize_report(run_suites(_golden_config()), "csv")
        header = payload.decode("utf-8").splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert CSV_COLUMNS == (
            "check_id",
            "relation",
            "convention",
            "params",
            "residual",
            "threshold",
            "passed",
            "notes",
        )

    def test_csv_and_json_carry_the_same_records(self):
        report = run_suites(_golden_config())
        data = json.loads(serialize_report(report, "json"))
        csv_rows = serialize_report(report, "csv").decode("utf-8").splitlines()
        assert len(data["records"]) == len(csv_rows) - 1
        assert len(report.records) == 19

    def test_rejects_unknown_format(self):
        report = VerificationReport("0", {}, {}, [])
        with pytest.raises(ValueError):
            serialize_report(report, "yaml")

    def test_config_block_has_no_output_path(self):
        cfg = RunConfig(suite="algebra", q_values=(2.0,), cutoff=4, out="somewhere.json")
        data = json.loads(serialize_report(run_suites(cfg), "json"))
        assert "out" not in data["config"]

    def test_config_block_holds_every_other_field_as_json_values(self):
        cfg = RunConfig(suite="algebra", q_values=(2.0,), cutoff=4)
        config = cfg.public_config()
        assert list(config) == [f.name for f in dataclasses.fields(RunConfig) if f.name != "out"]
        assert config["operator"] == cfg.operator.value
        assert config["exponent"] == cfg.exponent.value
        assert config["q_values"] == [2.0]

    def test_matches_golden_json(self):
        payload = serialize_report(run_suites(_golden_config()), "json")
        assert payload == (GOLDEN_DIR / "report_algebra.json").read_bytes()

    def test_matches_golden_csv(self):
        payload = serialize_report(run_suites(_golden_config()), "csv")
        assert payload == (GOLDEN_DIR / "report_algebra.csv").read_bytes()

    def test_full_run_matches_golden_json(self, all_report):
        code, payload = all_report
        assert code == 0
        assert payload == (GOLDEN_DIR / "report_all.json").read_bytes()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_nondefault_full_run_matches_golden(self, tmp_path, fmt):
        # pins what the default run does not reach: failing records, the q = 1
        # symmetry skip, the left-scaling and vacuum branches, the claim-gap note
        out = tmp_path / f"report.{fmt}"
        argv = ["all", "--convention", "left-scaling,vacuum", "--q", "1,0.7,2", "--psi", "0.5,2"]
        assert main(argv + ["--cutoff", "3", "--format", fmt, "--out", str(out)]) == 1
        assert out.read_bytes() == (GOLDEN_DIR / f"report_all_nondefault.{fmt}").read_bytes()

    def test_vacuum_exponent_gates_run_matches_golden_json(self, tmp_path):
        # pins closure records under the vacuum exponent, whose residuals are
        # nonzero and depend on every deformed ket value
        out = tmp_path / "report.json"
        argv = ["verify-gates", "--convention", "vacuum", "--q", "0.5,0.77,1.3,2,3.7"]
        assert main(argv + ["--out", str(out)]) == 1
        assert out.read_bytes() == (GOLDEN_DIR / "report_gates_vacuum.json").read_bytes()

    def test_records_pass_exactly_within_their_threshold(self, all_report):
        records = json.loads(all_report[1])["records"]
        ruled = [r for r in records if not r["check_id"].startswith(_OWN_OUTCOME_CHECKS)]
        assert 0 < len(ruled) < len(records)
        for record in ruled:
            assert record["passed"] == (record["residual"] <= record["threshold"]), record["check_id"]

    def test_discover_on_duplicate_grid_matches_golden_json(self, tmp_path):
        # duplicate psi values and a grid that contains the 1.0 filler value
        out = tmp_path / "report.json"
        assert main(["discover", "--q", "0.5,2", "--psi", "1,1,2,0.5", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "report_discover_duplicates.json").read_bytes()

    def test_discover_on_mixed_admissibility_grid_matches_golden_json(self, tmp_path):
        # rows are inadmissible at q < 1 and at q > 1, so the golden pins the
        # residuals of the admissible rows next to the skipped ones
        out = tmp_path / "report.json"
        assert main(["discover", "--q", "0.5,2", "--psi", "0.25,1.5,6", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "report_discover_mixed.json").read_bytes()


class TestRunConfig:
    def test_rejects_unknown_suite(self):
        with pytest.raises(ValueError):
            RunConfig(suite="everything")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"q_values": ()},
            {"q_values": (0.0,)},
            {"cutoff": 1},
            {"cutoff": 2},
            {"psi_grid": (2.0,)},
            {"limit_q": (1.0, 1.1)},
            {"identity_threshold": 0.0},
            {"format": "xml"},
            {"identity_threshold": float("nan")},
            {"identity_threshold": float("inf")},
            {"limit_threshold": float("nan")},
            {"q_values": "25"},
            {"psi_grid": "48"},
            {"limit_q": "25"},
            {"q_values": (True, 2.0)},
            {"psi_grid": ("0.5", 2.0)},
            {"cutoff": 3.9},
            {"cutoff": True},
            {"cutoff": "8"},
            {"cutoff": float("inf")},
            {"identity_threshold": True},
            {"limit_threshold": "1e-6"},
            {"q_values": (2.0, 2.0)},
            {"q_values": (0.5, 2.0, 2.0000001)},
            {"limit_q": (1.1, 1.1)},
            {"limit_q": (1.1, 1.1000001, 1.01)},
            {"limit_q": (1.5, 0.5)},
            {"limit_q": (1.1, 1.01, 0.99)},
        ],
    )
    def test_rejects_invalid_settings(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_integral_float_cutoff_is_read_as_an_integer(self):
        cfg = RunConfig(cutoff=8.0)
        assert cfg.cutoff == 8 and isinstance(cfg.cutoff, int)

    def test_full_run_covers_every_suite(self):
        report = run_suites(RunConfig(suite="all", cutoff=4))
        prefixes = {record.check_id.split("/")[0] for record in report.records}
        assert prefixes == {"algebra", "gates", "constraints", "limits"}


class TestCli:
    ARGS = ["verify-algebra", "--q", "2", "--cutoff", "4"]

    def test_passing_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        message = capsys.readouterr().out
        assert "19/19 checks passed" in message
        assert json.loads(out.read_bytes())["summary"]["failed"] == 0

    def test_failing_checks_exit_one(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(self.ARGS + ["--out", str(out), "--threshold", "1e-30"]) == 1
        assert json.loads(out.read_bytes())["summary"]["failed"] > 0

    @pytest.mark.parametrize("command", ["verify-algebra", "all", "verify-gates", "discover", "limit-study"])
    def test_cutoff_two_exits_two_saying_why(self, tmp_path, capsys, command):
        out = tmp_path / "report.json"
        assert main([command, "--cutoff", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cutoff must be at least 3" in err and "no level to test" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_flag_value_exits_two(self, capsys):
        assert main(["verify-algebra", "--q", "zebra"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_config_file_with_unknown_key_exits_two(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"suite": "algebra"}')
        assert main(["verify-algebra", "--config", str(config)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_config_file_accepts_every_field_but_the_suite(self, tmp_path):
        # a report's own config block, plus an output path, is a valid config file
        config = tmp_path / "config.json"
        settings = RunConfig(suite="algebra", q_values=(2.0,), cutoff=4).public_config()
        del settings["suite"]
        out = tmp_path / "report.json"
        config.write_text(json.dumps({**settings, "out": str(out)}))
        assert main(["verify-algebra", "--config", str(config)]) == 0
        assert json.loads(out.read_bytes())["config"] == {"suite": "algebra", **settings}

    @pytest.mark.parametrize(
        ("setting", "message"),
        [
            ('{"q_values": "25"}', "q values must be a list of numbers"),
            ('{"psi_grid": "48"}', "psi grid must be a list of numbers"),
            ('{"cutoff": 3.9}', "cutoff must be an integer"),
            ('{"identity_threshold": true}', "identity threshold must be a number"),
        ],
    )
    def test_config_file_value_of_the_wrong_type_exits_two(self, tmp_path, capsys, setting, message):
        config = tmp_path / "config.json"
        config.write_text(setting)
        out = tmp_path / "report.json"
        assert main(["verify-algebra", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("command", "argv", "setting", "message"),
        [
            ("limit-study", [], '{"limit_q": [1.5, 0.5]}', "limit q values 1.5 and 0.5 are equally far from 1"),
            ("all", [], '{"limit_q": [1.1, 1.1]}', "limit q values 1.1 and 1.1 both print as 1.1"),
            ("all", [], '{"limit_q": [1.1, 1.1000001]}', "limit q values 1.1 and 1.1000001 both print as 1.1"),
            ("all", ["--q", "2,2"], "{}", "q values 2.0 and 2.0 both print as 2 in check ids"),
            ("verify-gates", ["--q", "2,2.0000001"], "{}", "q values 2.0 and 2.0000001 both print as 2"),
            ("all", ["--q", "1.0000001,2"], "{}", "q value 1.0000001 prints as 1 in check ids, like the closure-ratio"),
            ("limit-study", ["--threshold", "1e-12,5"], "{}", "--threshold expects one number, got '1e-12,5'"),
            ("all", ["--limit-threshold", "1e-6,1"], "{}", "--limit-threshold expects one number"),
        ],
    )
    def test_ambiguous_values_exit_two_naming_them(self, tmp_path, capsys, command, argv, setting, message):
        config = tmp_path / "config.json"
        config.write_text(setting)
        out = tmp_path / "report.json"
        assert main([command, "--config", str(config), *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_invalid_json_config_exits_two(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert main(["verify-algebra", "--config", str(config)]) == 2

    def test_unwritable_output_exits_three(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert main(self.ARGS + ["--out", str(out)]) == 3
        assert "cannot write report" in capsys.readouterr().err

    def test_unknown_command_exits_two_via_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["conjure"])
        assert excinfo.value.code == 2

    def test_env_variable_redirects_output(self, tmp_path, monkeypatch):
        target = tmp_path / "redirected"
        target.mkdir()
        monkeypatch.setenv(ENV_OUT_DIR, str(target))
        assert main(self.ARGS + ["--out", str(tmp_path / "elsewhere" / "named.json")]) == 0
        assert (target / "named.json").exists()

    def test_default_output_lands_in_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify-algebra", "--q", "2", "--cutoff", "4", "--format", "csv"]) == 0
        assert (tmp_path / "report.csv").exists()

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"cutoff": 4, "q_values": [2.0]}')
        out = tmp_path / "report.json"
        assert main(["verify-algebra", "--config", str(config), "--cutoff", "5", "--out", str(out)]) == 0
        data = json.loads(out.read_bytes())
        assert data["config"]["cutoff"] == 5
        assert data["config"]["q_values"] == [2.0]

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(self.ARGS + ["--out", str(first)]) == 0
        assert main(self.ARGS + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_convention_tokens_reach_the_report(self, tmp_path):
        out = tmp_path / "report.json"
        args = self.ARGS + ["--convention", "matrix-element,vacuum", "--out", str(out)]
        assert main(args) in (0, 1)
        data = json.loads(out.read_bytes())
        assert data["config"]["operator"] == "matrix-element"
        assert data["config"]["exponent"] == "vacuum"

    def test_unknown_convention_token_exits_two(self):
        assert main(self.ARGS + ["--convention", "sideways"]) == 2

    def test_unknown_convention_token_lists_every_convention(self, capsys):
        assert main(self.ARGS + ["--convention", "sideways"]) == 2
        tokens = [c.value for c in OperatorConvention] + [c.value for c in ExponentConvention]
        assert f"expected one of {', '.join(tokens)}" in capsys.readouterr().err

    def test_non_finite_threshold_exits_two(self, capsys):
        assert main(self.ARGS + ["--threshold", "nan"]) == 2
        assert "thresholds must be positive finite reals" in capsys.readouterr().err

    def test_overflowing_psi_grid_exits_two_naming_the_sweep(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["discover", "--q", "2", "--psi", "1e200,1e300,2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "psi grid 1e+200,1e+300,2.0" in err
        assert "cnot sweep at q=2.0" in err
        assert "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def _verdict_notes(path) -> dict:
        records = json.loads(path.read_bytes())["records"]
        return {
            r["check_id"]: (r["params"]["q_values"], r["notes"])
            for r in records
            if r["check_id"].startswith("constraints/verdict/")
        }

    def test_discover_at_q_one_records_the_substituted_sweep_q(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["discover", "--q", "1", "--psi", "0.5,2", "--out", str(out)]) in (0, 1)
        verdicts = self._verdict_notes(out)
        assert len(verdicts) == 7
        for q_values, notes in verdicts.values():
            assert q_values == [2.0]
            assert notes.endswith("q = 1 cannot be swept, so the sweep ran at q = 2 in its place")

    def test_discover_drops_q_one_from_a_mixed_list_and_says_so(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["discover", "--q", "1,2", "--psi", "0.5,2", "--out", str(out)]) in (0, 1)
        for q_values, notes in self._verdict_notes(out).values():
            assert q_values == [2.0]
            assert notes.endswith("q = 1 cannot be swept and was left out of the sweep q values")

    def test_out_of_memory_exits_two_naming_the_cutoff(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr("qgatelab.cli.run_suites", exhausted)
        out = tmp_path / "report.json"
        assert main(["verify-algebra", "--cutoff", "100000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "cutoff 100000" in err
        assert "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def _run_python(*args):
        """A fresh interpreter importing qgatelab from this checkout's src/."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop(ENV_OUT_DIR, None)
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)

    @classmethod
    def _run_module(cls, *args):
        return cls._run_python("-m", "qgatelab", *args)

    def test_module_entry_point_writes_the_same_bytes_as_main(self, tmp_path):
        reference = tmp_path / "main.json"
        assert main(["verify-gates", "--out", str(reference)]) == 0
        out = tmp_path / "module.json"
        result = self._run_module("verify-gates", "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert out.read_bytes() == reference.read_bytes()

    def test_discover_one_ulp_below_q_one_exits_two(self, tmp_path):
        # the value prints as 1, the label of the closure-ratio audit at q = 1
        out = tmp_path / "report.json"
        result = self._run_module("discover", "--q", "0.9999999999999999", "--psi", "1,2", "--out", str(out))
        assert result.returncode == 2, result.stderr
        assert "configuration error: q value 0.9999999999999999 prints as 1 in check ids" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_overflowing_q_exits_two_naming_the_value(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify-algebra", "--q", "1e160", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "1e+160" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "q, culprit",
        [
            # every vacuum-exponent ket has an infinite amplitude
            ("1e300", "ps gate at q=1e+300 under the vacuum exponent has a non-finite creation amplitude"),
            # the amplitudes are finite, but the controlled swap's closure norm overflows
            ("1e40", "fredkin closure residual at q=1e+40 under the vacuum exponent is inf"),
        ],
    )
    def test_non_finite_vacuum_gates_exit_two_naming_the_gate(self, tmp_path, q, culprit):
        # a fresh interpreter, so a numpy warning would reach stderr as it does for a user
        out = tmp_path / "report.json"
        result = self._run_module("verify-gates", "--q", q, "--convention", "vacuum", "--out", str(out))
        assert result.returncode == 2, result.stderr
        assert "configuration error" in result.stderr and culprit in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert not out.exists()

    def test_discover_does_not_import_numpy_ma(self, tmp_path):
        out = tmp_path / "report.json"
        code = (
            "import sys\n"
            "from qgatelab.cli import main\n"
            f"assert main(['discover', '--q', '2', '--psi', '0.5,2', '--out', {str(out)!r}]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )
        result = self._run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert out.exists()
