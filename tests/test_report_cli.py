"""Tests for canonical serialization, suite records, and the command line."""

import ast
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from qgatelab import (
    CSV_COLUMNS,
    ExponentConvention,
    OperatorConvention,
    RecordShape,
    RunConfig,
    VerificationReport,
    canonical_json,
    run_suites,
    serialize_report,
)
from qgatelab import cli
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


# 25 q values from 0.5 to 2, q = 1 among them
_MANY_Q = (
    "0.5,0.529732,0.561231,0.594604,0.629961,0.66742,0.707107,0.749154,0.793701,0.840896,0.890899,"
    "0.943874,1,1.05946,1.12246,1.18921,1.25992,1.33484,1.41421,1.49831,1.5874,1.68179,1.7818,1.88775,2"
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


class TestRecordShape:
    def test_rejects_unknown_relation_tag(self):
        with pytest.raises(ValueError):
            RecordShape("made-up-tag", "c", 1.0, "", {})

    def test_coerces_numeric_fields(self):
        shape = RecordShape("derived", "c", 2, "", {})
        _, _, _, residual, passed = shape.row("x", (), 1, 1)
        assert residual == 1.0 and type(residual) is float
        assert shape.threshold == 2.0 and type(shape.threshold) is float
        assert passed is True

    def test_allows_residual_free_checks(self):
        shape = RecordShape("derived", "c", None, "", {})
        _, _, _, residual, passed = shape.row("x", (), None, True)
        assert residual is None
        assert shape.threshold is None
        assert passed is True


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
        assert len(report.rows) == 19

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
        assert list(config) == [name for name in RunConfig.__slots__ if name != "out"]
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

    def test_many_q_vacuum_gates_run_matches_golden_csv(self, tmp_path):
        # pins closure records over 25 q values, every gate's residuals computed in one batch
        out = tmp_path / "report.csv"
        argv = ["verify-gates", "--convention", "vacuum", "--q", _MANY_Q, "--format", "csv"]
        assert main(argv + ["--out", str(out)]) == 1
        assert out.read_bytes() == (GOLDEN_DIR / "report_gates_many_q.csv").read_bytes()

    def test_many_q_left_scaling_algebra_run_matches_golden_csv(self, tmp_path):
        # pins the left-scaling build of one stack over 25 q values, q = 1 among them
        out = tmp_path / "report.csv"
        argv = ["verify-algebra", "--convention", "left-scaling", "--q", _MANY_Q, "--format", "csv"]
        assert main(argv + ["--out", str(out)]) == 1
        assert out.read_bytes() == (GOLDEN_DIR / "report_algebra_left_scaling_many_q.csv").read_bytes()

    @pytest.mark.parametrize("name", ["discover-wide", "dense-many-q"])
    def test_seeded_benchmark_workloads_match_their_digests(self, tmp_path, monkeypatch, name):
        # the benchmark's operation at seed 0, inputs and commands from perfbench/workloads.py,
        # run in-process; a change that moves these bytes updates workload_digests.json and says why
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        monkeypatch.delenv(ENV_OUT_DIR, raising=False)
        from workloads import WORKLOADS

        workload = WORKLOADS[name]
        workload.prepare(0, str(tmp_path))
        for argv in workload.commands(0, str(tmp_path), str(tmp_path)):
            assert main(argv) == 0, argv
        digests = {report: hashlib.sha256((tmp_path / report).read_bytes()).hexdigest() for report in workload.reports}
        assert digests == json.loads((GOLDEN_DIR / "workload_digests.json").read_bytes())[name]

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


    def test_discover_with_rounding_above_tolerance_matches_golden_json(self, tmp_path):
        """28 of the controlled swap's admissible rows have float residuals above 1e-12 on this grid
        although it closes exactly: exact classes count them as closing, so its verdict is
        confirmed (it was convention-dependent while the tolerance decided the zero counts)."""
        out = tmp_path / "report.json"
        assert main(["discover", "--q", "2", "--psi", "0.5,300,1000", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "report_discover_fredkin_rounding.json").read_bytes()


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
        prefixes = {check_id.split("/")[0] for _, check_id, *_ in report.rows}
        assert prefixes == {"algebra", "gates", "constraints", "limits"}


class TestCli:
    ARGS = ["verify-algebra", "--q", "2", "--cutoff", "4"]

    def test_passing_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        message = capsys.readouterr().out
        assert "19/19 checks passed" in message
        assert json.loads(out.read_bytes())["summary"]["failed"] == 0

    def test_main_parses_with_one_parser_and_build_parser_stays_fresh(self, tmp_path, monkeypatch):
        parser = cli._parser()
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("main built a second parser"))
        for command in ("verify-algebra", "verify-gates"):
            assert main([command, "--q", "2", "--cutoff", "4", "--out", str(tmp_path / "r.json")]) == 0
        assert cli._parser() is parser
        monkeypatch.undo()
        assert cli.build_parser() is not cli.build_parser()

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

    def test_underflowing_psi_grid_exits_two_naming_the_sweep(self, tmp_path, capsys):
        # 1e-80 ** 4 is subnormal, so CNOT's products would test as false exact zeros
        out = tmp_path / "report.json"
        assert main(["discover", "--q", "2", "--psi", "1e-160,1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "qgatelab: configuration error: psi grid 1e-160,1.0 underflows double-precision arithmetic "
            "(the cnot sweep at q=2.0 underflows double precision: amplitude 1e-80 at level pair "
            "(psi_a=1e-160, psi_b=1e-160) raised to the power 4 is not a normal double); "
            "use larger psi values\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("value", ["[1]", "2.5", "1", "5", "false", "[]", "{}", '"a\\u0000b"'])
    def test_config_file_out_that_is_not_a_path_exits_two(self, tmp_path, capsys, monkeypatch, value):
        # 1 and 5 used to be opened as file descriptors, false, [] and {} to mean report.json
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(ENV_OUT_DIR, raising=False)
        config = tmp_path / "config.json"
        config.write_text(f'{{"out": {value}}}')
        assert main(["verify-algebra", "--q", "2", "--cutoff", "4", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qgatelab: configuration error: out must be a file path string"), err
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(("argv", "setting"), [(["--out", ""], "{}"), ([], '{"out": ""}')], ids=["flag", "config"])
    def test_empty_out_exits_two_instead_of_writing_the_default_report(
        self, tmp_path, capsys, monkeypatch, argv, setting
    ):
        # an empty out used to fall back to report.json in the working directory
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(ENV_OUT_DIR, raising=False)
        config = tmp_path / "config.json"
        config.write_text(setting)
        assert main(["verify-algebra", "--q", "2", "--cutoff", "4", "--config", str(config), *argv]) == 2
        err = capsys.readouterr().err
        assert err == (
            "qgatelab: configuration error: out must be a file path string, not empty and without NUL "
            "characters, got ''\n"
        )
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        ("command", "argv", "setting", "cutoff"),
        [
            ("verify-algebra", ["--cutoff", "100000000000000000000"], "{}", "100000000000000000000"),
            ("verify-algebra", [], '{"cutoff": 1e308}', str(int(1e308))),
            ("verify-algebra", ["--q", "1", "--cutoff", "100000000"], "{}", "100000000"),
            ("limit-study", ["--cutoff", "100000000000000000000"], "{}", "100000000000000000000"),
            ("all", [], '{"cutoff": 10001}', "10001"),
        ],
    )
    def test_cutoff_beyond_any_array_exits_two_naming_it(self, tmp_path, capsys, command, argv, setting, cutoff):
        config = tmp_path / "config.json"
        config.write_text(setting)
        out = tmp_path / "report.json"
        assert main([command, "--config", str(config), *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"qgatelab: configuration error: cutoff must be at most 10000, got {cutoff}: the algebra "
            "checks overflow double precision from level 355 on, and the default limit q 1.1 from "
            "level 7448\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify-algebra", "limit-study", "all"])
    @pytest.mark.parametrize("q", ["1", "2"])
    def test_the_largest_cutoff_fails_on_overflow_within_a_second(self, tmp_path, capsys, command, q):
        # at cutoff 10000 every ladder suite overflows: the number shift's q = e**2 at level 355,
        # the default limit q 1.1 at level 7448
        out = tmp_path / "report.json"
        started = time.perf_counter()
        code = main([command, "--q", q, "--cutoff", str(RunConfig.MAX_CUTOFF), "--out", str(out)])
        elapsed = time.perf_counter() - started
        err = capsys.readouterr().err
        assert code == 2 and "cutoff 10000 overflow double-precision arithmetic" in err, err
        assert elapsed < 1.0
        assert not out.exists()

    def test_a_lowering_gap_that_overflows_exits_two(self, tmp_path, capsys):
        # at q = 1.3, q**2704 is finite but B(2704) = q**2704 / (q - 1/q) is not
        config = tmp_path / "config.json"
        config.write_text('{"limit_q": [1.3, 1.2]}')
        out = tmp_path / "report.json"
        assert main(["limit-study", "--config", str(config), "--cutoff", "2705", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "qgatelab: configuration error: limit q values 1.3,1.2 or cutoff 2705 overflow double-precision "
            "arithmetic (the lowering gap at q=1.3 overflows double precision); use q values closer to 1 "
            "or a smaller cutoff\n"
        )
        assert not out.exists()

    def test_number_beyond_double_precision_exits_two(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"identity_threshold": 1' + "0" * 400 + "}")
        out = tmp_path / "report.json"
        assert main(["verify-algebra", "--config", str(config), "--out", str(out)]) == 2
        assert "identity threshold must be a number within double precision" in capsys.readouterr().err
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
        assert main(["verify-algebra", "--cutoff", "9000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "cutoff 9000" in err
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

    def test_module_entry_point_writes_the_same_bytes_as_main(self, tmp_path, capsys):
        # the module process runs on a frozen import-time heap, which changes no byte or line
        for argv in (["verify-gates"], ["all"], ["all", "--format", "csv"]):
            name = "-".join(argv)
            reference = tmp_path / f"main-{name}"
            assert main([*argv, "--out", str(reference)]) == 0
            line = capsys.readouterr().out
            counts = line.split(" ")[0]
            passed, total = counts.split("/")
            assert passed == total and line == f"{counts} checks passed -> {reference}\n", line
            out = tmp_path / f"module-{name}"
            result = self._run_module(*argv, "--out", str(out))
            assert result.returncode == 0, result.stderr
            assert result.stdout == f"{counts} checks passed -> {out}\n", name
            assert out.read_bytes() == reference.read_bytes(), name

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
        "command, q, label, reason",
        [
            # q = 5e-324 leaves q**-1 beyond the largest double in the first bracket built
            *(
                pytest.param(
                    command, "5e-324", "5e-324", "n=1, q=5e-324 overflows double precision at q**-1", id=command
                )
                for command in ("verify-gates", "verify-algebra")
            ),
            # the algebra stack takes its q values in order, so a bad q after a good one is named
            pytest.param(
                "verify-algebra", "2,5e-324", "2.0,5e-324", "n=1, q=5e-324 overflows double precision at q**-1",
                id="verify-algebra-subnormal-second",
            ),
            pytest.param(
                "verify-algebra", "0.5,1e300", "0.5,1e+300", "n=2, q=1e+300 overflows double precision at q**2",
                id="verify-algebra-huge-second",
            ),
        ],
    )
    def test_smallest_subnormal_q_exits_two_naming_the_bracket(self, tmp_path, capsys, command, q, label, reason):
        out = tmp_path / "report.json"
        assert main([command, "--q", q, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # the algebra suite raises its fixed q values to the cutoff too, so it names the cutoff
        cutoff, remedy = (" or cutoff 8", " or a smaller cutoff") if command == "verify-algebra" else ("", "")
        assert err == (
            f"qgatelab: configuration error: q values {label}{cutoff} overflow double-precision arithmetic "
            f"(the psi bracket at {reason}); use q values closer to 1{remedy}\n"
        )
        assert not out.exists()

    def test_cutoff_overflow_exits_two_naming_the_cutoff(self, tmp_path, capsys):
        # q = 1.5 is harmless: the number-shift point q = e**2 overflows at its level-355 bracket
        out = tmp_path / "report.json"
        assert main(["verify-algebra", "--cutoff", "355", "--q", "1.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "qgatelab: configuration error: q values 1.5 or cutoff 355 overflow double-precision arithmetic "
            "(the psi bracket at n=355, q=7.3890560989306495 overflows double precision at q**355); "
            "use q values closer to 1 or a smaller cutoff\n"
        )
        assert not out.exists()
        assert main(["verify-algebra", "--cutoff", "354", "--q", "1.5", "--out", str(out)]) == 1
        assert out.exists()

    def test_limit_q_overflow_names_the_farthest_q_from_one(self, tmp_path, capsys):
        # the limit stack takes its q values farthest from 1 first; in config order 1e200 would be named
        config = tmp_path / "limits.json"
        config.write_text('{"limit_q": [1.1, 1e200, 1e300]}')
        out = tmp_path / "report.json"
        assert main(["limit-study", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "qgatelab: configuration error: limit q values 1.1,1e+200,1e+300 or cutoff 8 overflow double-precision "
            "arithmetic (the psi bracket at n=2, q=1e+300 overflows double precision at q**2); "
            "use q values closer to 1 or a smaller cutoff\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "q, label, reason",
        [
            # the sweep's bracket table needs q**-1 before any gate or level pair is named
            ("5e-324", "5e-324", "the sweep's bracket table at q=5e-324 overflows double precision at q**-1"),
            # the sweep fits, the closure-ratio audit's q**(n1 + 1) at n1 = 1 does not
            ("1e300", "1e+300", "the closure ratio audit at n1=1, q=1e+300 overflows double precision at q**2"),
        ],
    )
    def test_discover_overflow_exits_two_naming_the_power(self, tmp_path, q, label, reason):
        out = tmp_path / "report.json"
        result = self._run_module("discover", "--q", q, "--psi", "1,2", "--out", str(out))
        assert result.returncode == 2, result.stderr
        assert result.stderr == (
            f"qgatelab: configuration error: q values {label} or psi grid 1.0,2.0 overflow "
            f"double-precision arithmetic ({reason}); use q values closer to 1 or smaller psi values\n"
        )
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "q, culprit",
        [
            # every vacuum-exponent ket has an infinite amplitude
            ("1e300", "ps gate at q=1e+300 under the vacuum exponent has a non-finite creation amplitude"),
            # the amplitudes are finite, but the controlled swap's closure norm overflows
            ("1e40", "fredkin closure residual at q=1e+40 under the vacuum exponent is inf"),
            # closures are checked q by q, so the first failing record is named, not a later q's
            (
                "1e40,1e300",
                "fredkin closure residual at q=1e+40 under the vacuum exponent is inf on input bits (1, 1, 1)",
            ),
            ("1e300,1e40", "ps gate at q=1e+300 under the vacuum exponent has a non-finite creation amplitude"),
            # a q whose amplitudes cannot be computed at all does not pre-empt an earlier failing q
            ("1e40,5e-324", "fredkin closure residual at q=1e+40 under the vacuum exponent is inf"),
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

    @pytest.mark.parametrize(
        "q, psi, label, grid, culprit",
        [
            ("1e308", "0.5,2", "1e+308", "0.5,2.0", "psi_a=2.0 overflows double precision at q**1"),
            (
                "1e299", "0.5,1e10", "1e+299", "0.5,10000000000.0",
                "psi_a=10000000000.0 overflows double precision at q**1",
            ),
            (
                "1e-299", "0.5,1e10", "1e-299", "0.5,10000000000.0",
                "psi_b=10000000000.0 overflows double precision at q**-1",
            ),
        ],
    )
    def test_overflowing_bracket_table_exits_two_naming_q_and_psi(self, tmp_path, q, psi, label, grid, culprit):
        # q times psi overflows in the sweep's table; numpy's overflow warning raised as an error
        # would end in a traceback, so none may be emitted
        out = tmp_path / "report.json"
        argv = ["-W", "error::RuntimeWarning", "-m", "qgatelab", "discover", "--q", q, "--psi", psi, "--out", str(out)]
        result = self._run_python(*argv)
        assert result.returncode == 2, result.stderr
        assert result.stderr == (
            f"qgatelab: configuration error: q values {label} or psi grid {grid} overflow double-precision "
            f"arithmetic (the sweep's bracket table at q={label} and {culprit}); use q values closer to 1 "
            "or smaller psi values\n"
        )
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

    def test_only_a_sweep_loads_the_constraints_module(self, tmp_path):
        code = """
            import os, sys
            import qgatelab.cli

            out = sys.argv[1]
            for command in ("verify-algebra", "verify-gates", "limit-study"):
                code = qgatelab.cli.main([command, "--q", "0.5,2", "--out", os.path.join(out, command + ".json")])
                assert code == 0, command
            assert "qgatelab.constraints" not in sys.modules, "a non-sweep command loaded the sweep module"
            assert qgatelab.cli.main(["discover", "--q", "2", "--psi", "1,2", "--out", os.path.join(out, "d.json")]) == 0
            assert "qgatelab.constraints" in sys.modules
        """
        result = self._run_python("-c", textwrap.dedent(code), str(tmp_path))
        assert result.returncode == 0, result.stderr

    def test_starting_the_cli_loads_no_dataclasses_csv_sweep_or_diff_module(self):
        # the value types are plain classes and the CSV writer quotes its own cells, so a cold start
        # generates no dataclass code and imports no module that only a sweep or a diff needs
        code = """
            import sys
            import numpy

            unwanted = ("dataclasses", "csv", "qgatelab.constraints", "qgatelab.reportdiff")
            assert not [name for name in unwanted if name in sys.modules], "numpy loaded one"
            import qgatelab.cli

            loaded = [name for name in unwanted if name in sys.modules]
            assert not loaded, loaded
        """
        result = self._run_python("-c", textwrap.dedent(code))
        assert result.returncode == 0, result.stderr

    def test_the_cli_freezes_its_import_time_heap_once_and_a_library_import_does_not(self, tmp_path):
        # collections, and the ones the interpreter runs at exit, skip what the command line
        # imported; `import qgatelab` keeps a normal collector, main() freezes nothing, and a
        # cycle made after the freeze is still collected
        code = """
            import gc, os, sys, weakref
            import qgatelab

            assert gc.get_freeze_count() == 0, gc.get_freeze_count()
            import qgatelab.cli

            frozen = gc.get_freeze_count()
            assert frozen > 0 and gc.isenabled(), (frozen, gc.isenabled())
            for name in ("first", "second"):
                out = os.path.join(sys.argv[1], name + ".json")
                assert qgatelab.cli.main(["all", "--q", "2", "--psi", "1,2", "--cutoff", "3", "--out", out]) == 0
            # a frozen object freed by its reference count leaves the permanent generation, so
            # the count may fall; a freeze in main() would raise it by every object made since
            assert gc.get_freeze_count() <= frozen, (gc.get_freeze_count(), frozen)

            class Node:
                pass

            node = Node()
            node.cycle = node
            ref = weakref.ref(node)
            del node
            gc.collect()
            assert ref() is None, "a cycle made after the freeze was not collected"
        """
        result = self._run_python("-c", textwrap.dedent(code), str(tmp_path))
        assert result.returncode == 0, result.stderr

    def test_only_the_cli_module_freezes_the_heap_and_only_at_import(self):
        # a freeze in the package would take a library caller's collector, and a freeze in a
        # function would make the garbage pending at each call immortal
        package = Path(__file__).resolve().parents[1] / "src" / "qgatelab"
        sites = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            at_import = {
                id(stmt.value.func) for stmt in tree.body if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "gc":
                    sites.append((path.name, "from gc import"))
                elif isinstance(node, ast.Import) and any(alias.name == "gc" and alias.asname for alias in node.names):
                    sites.append((path.name, "import gc as"))
                elif isinstance(node, ast.Attribute) and node.attr == "freeze" and getattr(node.value, "id", None) == "gc":
                    sites.append((path.name, "at import" if id(node) in at_import else "elsewhere"))
        assert sites == [("cli.py", "at import")]

    def test_no_package_module_imports_dataclasses_and_the_report_writer_imports_no_csv(self):
        def imported(path: Path) -> set:
            names = set()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names.add(node.module)
            return names

        package = Path(__file__).resolve().parents[1] / "src" / "qgatelab"
        modules = sorted(package.glob("*.py"))
        assert len(modules) > 10
        assert [path.name for path in modules if "dataclasses" in imported(path)] == []
        assert "csv" not in imported(package / "report.py")

    def test_a_bare_import_loads_no_layer_and_each_name_comes_from_its_table_module(self):
        # the package declares each public name once, in its export table, and loads the name's
        # module only when the name is first asked for
        code = """
            import importlib
            import sys
            import qgatelab

            loaded = [name for name in sys.modules if name.startswith("qgatelab.") or name.split(".")[0] == "numpy"]
            assert not loaded, loaded
            table = [name for names in qgatelab._EXPORTS.values() for name in names]
            assert sorted(table) == qgatelab.__all__, "a name is listed twice or outside the table"
            for module, names in qgatelab._EXPORTS.items():
                source = importlib.import_module(f"qgatelab.{module}")
                for name in names:
                    assert getattr(qgatelab, name) is getattr(source, name), (module, name)
            assert qgatelab.__version__ is importlib.import_module("qgatelab.report").VERSION
        """
        result = self._run_python("-c", textwrap.dedent(code))
        assert result.returncode == 0, result.stderr

    def test_every_public_name_resolves_and_star_import_binds_it(self):
        # the sweep's names resolve on first access, so neither check may load it before asking;
        # then every module of the package binds its own __all__, and no name the operator stacks
        # and record rows replaced is left anywhere
        code = """
            import importlib
            import inspect
            import pkgutil
            import sys
            import qgatelab

            assert "qgatelab.constraints" not in sys.modules
            names = {}
            exec("from qgatelab import *", names)
            missing = [name for name in qgatelab.__all__ if name not in names]
            assert not missing, missing
            for name in qgatelab.__all__:
                assert getattr(qgatelab, name) is names[name], name
            from qgatelab import constraints

            for name in ("CLAIMS", "ConstraintClaim", "ConstraintReport", "discover_constraints", "hadamard_closure_ratio"):
                assert getattr(qgatelab, name) is getattr(constraints, name), name
            try:
                qgatelab.no_such_name
            except AttributeError as exc:
                assert str(exc) == "module 'qgatelab' has no attribute 'no_such_name'", exc
            else:
                raise AssertionError("an unknown name resolved")

            modules = [qgatelab]
            for info in pkgutil.iter_modules(qgatelab.__path__):
                module = importlib.import_module(f"qgatelab.{info.name}")
                modules.append(module)
                names = {}
                exec(f"from qgatelab.{info.name} import *", names)
                for name in getattr(module, "__all__", ()):
                    assert names[name] is getattr(module, name), (info.name, name)
            assert len(modules) > 10
            gone = (
                "DeformedModeStack",
                "make_deformed_stack",
                "stack_residuals",
                "_diagonal_stack",
                "_stack_chunks",
                "_STACK_ENTRIES",
                "ModeOperators",
                "make_mode_ops",
                "DeformedModeOperators",
                "make_deformed_ops",
                "algebra_residuals",
                "CheckRecord",
                "_owned",
                "AlgebraResiduals",
                "lift",
            )
            for module in modules:
                for name in gone:
                    assert not hasattr(module, name), (module.__name__, name)
                    assert name not in getattr(module, "__all__", ()), (module.__name__, name)
            assert not hasattr(qgatelab.RecordShape, "record")
            assert not hasattr(qgatelab.VerificationReport, "records")
            assert not hasattr(qgatelab.VerificationReport, "as_dict")
            assert not hasattr(qgatelab.DeformationParams, "from_values")
            assert not hasattr(qgatelab.ConstraintReport, "as_dict")
            parameters = list(inspect.signature(qgatelab.VerificationReport).parameters)
            assert parameters == ["version", "config", "conventions", "rows"], parameters
        """
        result = self._run_python("-c", textwrap.dedent(code))
        assert result.returncode == 0, result.stderr
