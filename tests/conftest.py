"""Shared pytest hooks and fixtures: a one-line summary per acceptance check, and
one default `qgatelab all` run shared by the tests that compare its bytes."""

import pytest

from qgatelab.cli import main

_ACCEPTANCE_RESULTS = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _ACCEPTANCE_RESULTS[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance checks")
    for name, outcome in _ACCEPTANCE_RESULTS.items():
        flag = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"[{flag}] {name}")


@pytest.fixture(scope="session")
def all_report(tmp_path_factory):
    """Exit code and report bytes of one default `qgatelab all` run."""
    out = tmp_path_factory.mktemp("all") / "report.json"
    code = main(["all", "--out", str(out)])
    return code, out.read_bytes()
