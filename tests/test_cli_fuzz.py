"""Whole-command-line fuzzing: argument lists for every suite command, with drawn q lists, psi
grids, cutoffs, conventions, thresholds and formats, through cli.main in-process.

Every run ends in exit 0, 1 or 2, and an exception escaping main fails the test.  Exit 2 comes
with a configuration message and writes no report; exit 0 or 1 writes a report whose check ids
are unique, prints its summary line, and a second run writes the same bytes."""

import csv
import io
import json
import math
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qgatelab.cli import _COMMANDS, _EXPONENT_TOKENS, _OPERATOR_TOKENS, ENV_OUT_DIR, main  # noqa: E402

def _ulps_from_one(k: int) -> float:
    value = 1.0
    for _ in range(abs(k)):
        value = math.nextafter(value, math.inf if k > 0 else -math.inf)
    return value


def _mostly(ordinary, *edges):
    """Ordinary values in three draws of four, so that most argument lists reach a report."""
    edge = st.one_of(*edges)
    return st.integers(0, 3).flatmap(lambda pick: ordinary if pick else edge)


_SPECIALS = st.sampled_from([0.0, -0.0, -1.0, 1.0, math.inf, -math.inf, math.nan])
# q within a few ulp of 1, and q near the overflow of q**n or of 1/q
_Q = _mostly(
    st.floats(0.05, 20.0),
    st.integers(-4, 4).map(_ulps_from_one),
    st.floats(1e30, sys.float_info.max),
    st.floats(5e-324, 1e-30),
    _SPECIALS,
)
_PSI = _mostly(st.floats(1e-3, 1e3), st.floats(1e30, sys.float_info.max), st.floats(5e-324, 1e-30), _SPECIALS)
_THRESHOLD = _mostly(st.floats(1e-300, 1.0), _SPECIALS)


def _values(values) -> str:
    return ",".join(repr(value) for value in values)


@st.composite
def _argvs(draw) -> list:
    """A suite command and its flags, each in --flag=value form so that a value starting with
    "-" stays a value."""
    argv = [draw(st.sampled_from(sorted(_COMMANDS)))]
    argv.append(f"--q={_values(draw(st.lists(_Q, min_size=1, max_size=3)))}")
    if draw(st.booleans()):
        argv.append(f"--psi={_values(draw(st.lists(_PSI, min_size=1, max_size=4)))}")
    argv.append(f"--cutoff={draw(st.integers(3, 6))}")
    tokens = [draw(st.sampled_from((None,) + tokens)) for tokens in (_OPERATOR_TOKENS, _EXPONENT_TOKENS)]
    if any(tokens):
        argv.append(f"--convention={','.join(token for token in tokens if token)}")
    for flag in ("--threshold", "--limit-threshold"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(_THRESHOLD)!r}")
    if draw(st.booleans()):
        argv.append(f"--format={draw(st.sampled_from(('json', 'csv')))}")
    return argv


def _check_ids(payload: bytes, fmt: str) -> list:
    text = payload.decode("utf-8")
    if fmt == "json":
        return [record["check_id"] for record in json.loads(text)["records"]]
    rows = list(csv.reader(io.StringIO(text, newline="")))
    return [row[0] for row in rows[1:]]


def _check_run(argv, work, capsys) -> None:
    """Run argv twice into `work` and hold each outcome to the command line's contract."""
    fmt = next((arg.split("=", 1)[1] for arg in argv if arg.startswith("--format=")), "json")
    outs = [work / f"first.{fmt}", work / f"second.{fmt}"]
    code = main([*argv, f"--out={outs[0]}"])
    captured = capsys.readouterr()
    assert code in (0, 1, 2), (code, captured.err)
    if code == 2:
        assert captured.err.startswith("qgatelab: configuration error: "), captured.err
        assert captured.out == ""
        assert list(work.iterdir()) == []
        return
    assert captured.err == ""
    payload = outs[0].read_bytes()
    ids = _check_ids(payload, fmt)
    assert ids and len(set(ids)) == len(ids), sorted(i for i in set(ids) if ids.count(i) > 1)
    passed, total = captured.out.split(" checks passed -> ")[0].split("/")
    assert captured.out == f"{passed}/{total} checks passed -> {outs[0]}\n"
    assert int(total) == len(ids) and (code == 0) == (passed == total)
    assert main([*argv, f"--out={outs[1]}"]) == code
    capsys.readouterr()
    assert outs[1].read_bytes() == payload


@hypothesis.settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(argv=_argvs())
def test_any_drawn_command_line_exits_zero_one_or_two_and_repeats_its_bytes(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.delenv(ENV_OUT_DIR, raising=False)
    work = tmp_path / str(len(list(tmp_path.iterdir())))
    work.mkdir()
    _check_run(argv, work, capsys)
