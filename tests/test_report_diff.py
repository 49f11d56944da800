"""Tests for `qgatelab diff`: reports compared check by check."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qgatelab import VERSION
from qgatelab.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
REPO = Path(__file__).resolve().parents[1]


def _diff(capsys, *argv) -> tuple:
    code = main(["diff", *map(str, argv)])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err


def _edited(tmp_path, name: str, edit) -> Path:
    """A copy of a golden JSON report with edit applied to its parsed document."""
    document = json.loads((GOLDEN_DIR / name).read_text())
    edit(document)
    path = tmp_path / f"edited-{name}"
    path.write_text(json.dumps(document))
    return path


@pytest.mark.parametrize("name", sorted(path.name for path in GOLDEN_DIR.glob("report_*")))
def test_a_report_against_itself_has_no_differences(capsys, name):
    code, lines, err = _diff(capsys, GOLDEN_DIR / name, GOLDEN_DIR / name)
    assert (code, lines, err) == (0, ["no differences"], "")


@pytest.mark.parametrize("run", ["report_all_nondefault"])
def test_the_json_and_csv_reports_of_one_run_hold_the_same_records(capsys, run):
    # a CSV report carries records only, so only the records are compared
    code, lines, _ = _diff(capsys, GOLDEN_DIR / f"{run}.json", GOLDEN_DIR / f"{run}.csv")
    assert (code, lines) == (0, ["no differences"])


def test_reports_of_other_suites_list_added_and_removed_records(capsys):
    code, lines, _ = _diff(capsys, GOLDEN_DIR / "report_algebra.json", GOLDEN_DIR / "report_all.json")
    assert code == 1
    assert "report value config.suite: \"algebra\" -> \"all\"" in lines
    assert any(line.startswith("added constraints/verdict/cnot") for line in lines)
    # the algebra records both runs hold differ in their cutoff, levels and residuals
    assert "value algebra/uniform/q=2/deformed_commutation params.cutoff: 4 -> 8" in lines
    assert not any(line.startswith("removed") for line in lines)
    assert lines[-1] == f"{len(lines) - 1} differences"


def test_two_sweeps_list_count_float_and_exemplar_changes(capsys):
    duplicates, mixed = (GOLDEN_DIR / f"report_discover_{name}.json" for name in ("duplicates", "mixed"))
    code, lines, _ = _diff(capsys, duplicates, mixed)
    assert code == 1
    kinds = {line.split()[0] for line in lines[:-1]}
    assert {"report", "count", "float", "value"} <= kinds
    assert "count constraints/verdict/ps params.totals.rows: 576 -> 198 (-378)" in lines
    assert "report length config.psi_grid: 4 entries -> 3" in lines


def test_every_kind_of_change_is_named_with_its_check_and_path(tmp_path, capsys):
    def edit(document):
        document["version"] = "9.9.9"
        by_id = {record["check_id"]: record for record in document["records"]}
        fredkin = by_id["constraints/verdict/fredkin"]["params"]
        fredkin["verdict"] = "refuted"
        fredkin["minimal_pattern"]["strict"]["name"] = "auxiliary"
        fredkin["strata"][0]["zero_strict"] -= 3
        fredkin["strata"][0]["max_strict"] = 1e-9
        fredkin["strata"][1]["exemplars"].pop()
        by_id["constraints/verdict/not"]["passed"] = False
        document["records"] = [r for r in document["records"] if r["check_id"] != "constraints/verdict/ps"]
        document["records"].append(dict(by_id["constraints/verdict/swap"], check_id="constraints/verdict/extra"))

    name = "report_discover_mixed.json"
    code, lines, _ = _diff(capsys, GOLDEN_DIR / name, _edited(tmp_path, name, edit))
    assert code == 1
    assert lines == [
        f'report value version: "{VERSION}" -> "9.9.9"',
        "removed constraints/verdict/ps",
        "added constraints/verdict/extra",
        "failed constraints/verdict/not: was passed",
        'minimal constraints/verdict/fredkin params.minimal_pattern.strict.name: "none" -> "auxiliary"',
        "float constraints/verdict/fredkin params.strata[0].max_strict: 0 -> 1e-09 (delta +1e-09)",
        "count constraints/verdict/fredkin params.strata[0].zero_strict: 343 -> 340 (-3)",
        "length constraints/verdict/fredkin params.strata[1].exemplars: 1 entries -> 0",
        'verdict constraints/verdict/fredkin params.verdict: "confirmed" -> "refuted"',
        "9 differences",
    ]


def test_float_deltas_within_the_tolerance_are_not_listed(tmp_path, capsys):
    def edit(document):
        document["records"][0]["residual"] += 1e-13

    edited = _edited(tmp_path, "report_algebra.json", edit)
    code, lines, _ = _diff(capsys, GOLDEN_DIR / "report_algebra.json", edited, "--tolerance", "1e-12")
    assert (code, lines) == (0, ["no differences"])
    code, lines, _ = _diff(capsys, GOLDEN_DIR / "report_algebra.json", edited)
    assert code == 1 and re.match(r"float algebra/\S+ residual: .* \(delta \+1e-13\)$", lines[0])


@pytest.mark.parametrize(
    ("content", "message"),
    [
        (None, "cannot read"),
        ("{not json", "is not a qgatelab report"),
        ('{"records": [{"passed": true}]}', "holds a record without a check id"),
        ('{"records": [{"check_id": "a"}, {"check_id": "a"}]}', "holds check id 'a' twice"),
        ("check_id,relation\n", "is not a qgatelab report"),
    ],
    ids=["missing", "garbage", "no-check-id", "duplicate-id", "other-csv"],
)
def test_bad_input_exits_two_with_a_message(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_text(content)
    code, lines, err = _diff(capsys, GOLDEN_DIR / "report_algebra.json", path)
    assert (code, lines) == (2, [])
    assert err.startswith("qgatelab: diff error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf", "x"])
def test_a_bad_tolerance_exits_two(capsys, tolerance):
    report = GOLDEN_DIR / "report_algebra.json"
    code, lines, err = _diff(capsys, report, report, "--tolerance", tolerance)
    assert (code, lines) == (2, [])
    assert err == f"qgatelab: diff error: --tolerance expects a nonnegative finite number, got {tolerance!r}\n"


def test_diff_loads_no_suite_module(tmp_path):
    # the diff module is loaded by the diff command only, and loads no suite of its own
    code = (
        "import sys\n"
        "import qgatelab.cli\n"
        "assert 'qgatelab.reportdiff' not in sys.modules\n"
        f"assert qgatelab.cli.main(['diff'] + [{str(GOLDEN_DIR / 'report_algebra.json')!r}] * 2) == 0\n"
        "assert 'qgatelab.reportdiff' in sys.modules and 'qgatelab.constraints' not in sys.modules\n"
    )
    # -B: the env below drops PYTHONDONTWRITEBYTECODE, and the child must not write bytecode into the checkout
    result = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True, cwd=tmp_path,
                            env={"PYTHONPATH": str(REPO / "src"), "PATH": ""})
    assert result.returncode == 0, result.stderr


def test_the_package_version_matches_pyproject():
    # pyproject's [project] version, read with a regex: tomllib needs Python 3.11 and 3.10 is supported
    text = (REPO / "pyproject.toml").read_text()
    project = text[text.index("[project]") :]
    assert re.search(r'^version = "([^"]+)"$', project, re.MULTILINE).group(1) == VERSION
