"""The report writer against an independent oracle on values no golden report covers.

The oracle is a record-by-record writer: it merges each row's constant and varying params into a
record of its own (_oracle_records), then writes canonical_json with dict members dispatched
through a helper, or CSV cells converted value by value (_oracle_csv_cell) over CSV_COLUMNS and
written by csv.writer.  Both writers must give the same bytes, or raise the same exception type
with the same message.  Hypothesis also draws CSV text cells from
the characters that decide quoting, and whole documents that repeat values the writer's
per-document memo could conflate (0.0 and -0.0, numpy floats, bools among ints, str-enum keys),
and reports built from record shapes, whose constant cells the writer renders once per shape.
"""

import csv
import enum
import io
import json
import math
import os
import subprocess
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import pytest

from qgatelab import (
    CSV_COLUMNS,
    RELATION_TAGS,
    RecordShape,
    RunConfig,
    VerificationReport,
    canonical_json,
    run_suites,
    serialize_report,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SRC = Path(__file__).resolve().parents[1] / "src"


def _oracle_format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} cannot enter a report")
    return format(float(value), ".17g")


def _oracle_json(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _oracle_format_float(value)
    if isinstance(value, dict):
        return "{" + ",".join(_oracle_member(key, value[key]) for key in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_oracle_json, value)) + "]"
    raise TypeError(f"value {value!r} of type {type(value).__name__} cannot enter a report")


def _oracle_member(key, value) -> str:
    if not isinstance(key, str):
        raise TypeError(f"report keys must be strings, got {key!r}")
    return encode_basestring_ascii(key) + ":" + _oracle_json(value)


def _oracle_csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _oracle_format_float(value)
    if isinstance(value, (dict, list, tuple)):
        return _oracle_json(value)
    return str(value)


def _oracle_records(report: VerificationReport) -> list:
    """Each row as a dict of the CSV_COLUMNS fields, its params the shape's constant params with the
    row's varying values merged in."""
    records = []
    for shape, check_id, values, residual, passed in report.rows:
        params = {**shape.params, **dict(zip(shape.varying, values))} if shape.varying else shape.params
        fields = (check_id, shape.relation, shape.convention, params, residual, shape.threshold, passed, shape.notes)
        records.append(dict(zip(CSV_COLUMNS, fields)))
    return records


def _oracle_serialize(report: VerificationReport, fmt: str) -> bytes:
    records = _oracle_records(report)
    if fmt == "json":
        passed = sum(record["passed"] for record in records)
        document = {
            "tool": "qgatelab",
            "version": report.version,
            "config": report.config,
            "conventions": report.conventions,
            "summary": {"total": len(records), "passed": passed, "failed": len(records) - passed},
            "records": records,
        }
        return (_oracle_json(document) + "\n").encode("utf-8")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_oracle_csv_cell(record[column]) for column in CSV_COLUMNS] for record in records)
    return buffer.getvalue().encode("utf-8")


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception itself is the outcome compared
        return type(exc), str(exc)


class Tone(str, enum.Enum):
    LOW = "low"
    ODD = "the value, not the name"


class Rank(enum.IntEnum):
    FIRST = 1


_VALUES = [
    np.float64(0.1),
    np.float64(-2.5e-300),
    Tone.LOW,
    Tone.ODD,
    Rank.FIRST,
    [True, 1, False, 0, None],
    {"flag": True, "one": 1, "zero": 0, "off": False},
    -0.0,
    [0.0, -0.0],
    5e-324,
    -5e-324,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    2.0,
    1e22,
    ((1, (2.5, ())), {"x": {"y": [{}, (), []]}}),
    {},
    [],
    (),
    "",
    "café   \U0001f600 ψ₁",
    {'"quoted"': 1, "back\\slash": 2, "new\nline": 3, "tab\t": 4, "nul\x00": 5, "é": 6, "": 7},
    {Tone.LOW: 1, "a": {Tone.ODD: [Tone.ODD]}},
    {"ODD": 1, Tone.ODD: 2},
    {"q": 0.50413, "cutoff": 8, "psi_a": 1.0, "psi_b": 1.0, "levels": [0, 1, 2, 3, 4, 5, 6]},
    {f"key{i}": i / 7 for i in range(5000)},
]

_FAILURES = [
    math.nan,
    math.inf,
    -math.inf,
    np.float64(math.nan),
    [1.0, math.inf],
    {"residual": -math.inf},
    {1: "one"},
    {1: "one", 2: "two"},
    {1: "one", "a": "mixed"},
    {(1, 2): "tuple key"},
    {None: 0},
    np.bool_(True),
    np.int64(3),
    {"count": np.int64(3)},
    {1, 2},
    b"bytes",
    bytearray(b"bytes"),
    1 + 2j,
    object,
]


@pytest.mark.parametrize("value", _VALUES, ids=repr)
def test_canonical_json_matches_the_oracle(value):
    assert canonical_json(value) == _oracle_json(value)


@pytest.mark.parametrize("value", _FAILURES, ids=repr)
def test_canonical_json_raises_the_oracles_exception(value):
    outcome = _outcome(canonical_json, value)
    assert isinstance(outcome, tuple)
    assert outcome == _outcome(_oracle_json, value)


def _record(index: int, params, **fields) -> tuple:
    """The row of a one-row shape, with fields in place of the defaults."""
    record = {
        "check_id": f"writer/value-{index}",
        "relation": "derived",
        "convention": "operator=matrix-element",
        "params": params,
        "residual": None,
        "threshold": 1e-12,
        "passed": True,
        "notes": "",
        **fields,
    }
    shape = RecordShape(record["relation"], record["convention"], record["threshold"], record["notes"], params)
    return shape.row(record["check_id"], (), record["residual"], record["passed"])


def _report(rows) -> VerificationReport:
    return VerificationReport("0.1.0", {"q_values": [2.0]}, {"operator": "matrix-element"}, rows)


def _records() -> list:
    records = [_record(i, {"value": value}, residual=0.0) for i, value in enumerate(_VALUES)]
    records += [
        _record(100, {}, residual=np.float64(0.1), threshold=np.float64(1e-12), passed=np.bool_(False)),
        _record(101, [], residual=-0.0, threshold=5e-324, passed=1),
        _record(102, (), residual=1.7976931348623157e308, threshold=None, passed=0),
        _record(103, {"a": 1}, notes='commas, "quotes",\nnewlines and café \U0001f600'),
        _record(104, {"a": 1}, check_id=Tone.ODD, convention=Tone.LOW, notes=Tone.ODD),
    ]
    return records


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_serialized_reports_match_the_oracle_byte_for_byte(fmt):
    records = _records()
    if fmt == "csv":  # a text cell is any value's str(); JSON takes JSON types only
        records.append(_record(105, {"a": 1}, notes=np.int64(7)))
    report = _report(records)
    assert serialize_report(report, fmt) == _oracle_serialize(report, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "fields",
    [
        {"params": {"value": math.nan}},
        {"params": {"value": np.bool_(True)}},
        {"params": {"value": {2, 3}}},
        {"params": {"value": b"raw"}},
        {"params": {3: "non-string key"}},
        {"params": {"value": np.int64(3)}},
        {"residual": math.inf},
        {"threshold": -math.inf},
        {"residual": np.float64(math.nan)},
    ],
    ids=repr,
)
def test_unwritable_records_raise_the_oracles_exception(fmt, fields):
    fields = dict(fields)
    record = _record(0, fields.pop("params", {}), **fields)
    report = _report([record])
    outcome = _outcome(serialize_report, report, fmt)
    assert isinstance(outcome, tuple)
    assert outcome == _outcome(_oracle_serialize, report, fmt)


# text made of the characters that decide CSV quoting, and others that must pass through as they are;
# the small alphabet makes texts repeat across records, as relation, convention and notes do
_TEXT = st.lists(st.sampled_from([",", '"', "\n", "\r", " ", "é", "\U0001f600", "", "a"]), max_size=6).map("".join)
_CSV_RECORDS = st.lists(
    st.tuples(
        st.dictionaries(_TEXT, _TEXT, max_size=2),
        st.fixed_dictionaries(
            {"check_id": _TEXT, "relation": st.sampled_from(sorted(RELATION_TAGS)), "convention": _TEXT, "notes": _TEXT}
        ),
    ),
    max_size=6,
)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(drawn=_CSV_RECORDS)
def test_csv_text_cells_match_the_oracle_byte_for_byte(drawn):
    report = _report([_record(index, params, **text) for index, (params, text) in enumerate(drawn)])
    assert serialize_report(report, "csv") == _oracle_serialize(report, "csv")


# values a document encoder's memo could conflate: zeros of both signs, the smallest subnormal, numpy
# floats equal to plain ones, bools and int-enums among ints, str-enums equal to plain strings
_REPEATED = st.sampled_from(
    [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        0.1,
        np.float64(0.1),
        np.float64(-0.0),
        2.0,
        np.float64(2.0),
        1,
        True,
        Rank.FIRST,
        [1, True],
        [1, 1],
        (1, 1),
        [True, 1],
        [1, Rank.FIRST],
        [],
        [0.0, -0.0],
        "low",
        Tone.LOW,
        None,
        {"low": -0.0, "a": [1, 1]},
        {Tone.LOW: 0.0, "a": [1, True]},
    ]
)
_REPEATED_NUMBERS = st.sampled_from([None, 0.0, -0.0, 5e-324, 0.1, np.float64(0.1), 2.0])


class Backwards(str):
    """A string that sorts in reverse: equal to and hashed as its plain twin, ordered otherwise."""

    def __lt__(self, other):
        return str.__gt__(self, other)

    def __gt__(self, other):
        return str.__lt__(self, other)


# key sets equal as sets of strings, some holding str subclasses in place of equal plain strings
_KEY_SETS = st.sampled_from(
    [("a", "b", "low"), ("a", "low"), ("a", Tone.LOW), ("ODD", Tone.ODD, "b"), ("a", "b"), (Backwards("a"), Backwards("b"))]
)


@st.composite
def _repeating_params(draw) -> dict:
    """A params dict over one of _KEY_SETS, its keys inserted in a drawn order."""
    return {key: draw(_REPEATED) for key in draw(st.permutations(draw(_KEY_SETS)))}


_REPEATING_RECORDS = st.lists(st.tuples(_repeating_params(), _REPEATED_NUMBERS, _REPEATED_NUMBERS), min_size=1, max_size=8)


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.example(
    drawn=[
        ({"a": 0.0, "b": [1, 1], "low": 5e-324}, 0.0, 0.1),
        ({"low": -0.0, "b": [1, True], "a": np.float64(0.1)}, -0.0, np.float64(0.1)),
        ({"b": 0.1, "a": (1, 1), "low": -5e-324}, 5e-324, -0.0),
        ({Tone.LOW: [1, True], "a": [1, 1]}, np.float64(0.1), 0.0),
        ({"a": [True, 1], "low": np.float64(-0.0)}, None, 2.0),
        ({"b": 2.0, "a": 0.1}, 0.1, 0.1),
        ({Backwards("a"): 2.0, Backwards("b"): 0.1}, 2.0, None),
    ]
)
@hypothesis.given(drawn=_REPEATING_RECORDS)
def test_reports_that_repeat_values_match_the_oracle_byte_for_byte(drawn):
    records = [_record(index, params, residual=residual, threshold=threshold) for index, (params, residual, threshold) in enumerate(drawn)]
    report = _report(records)
    for fmt in ("json", "csv"):
        assert serialize_report(report, fmt) == _oracle_serialize(report, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_documents_written_back_to_back_each_match_the_oracle(fmt):
    # the second document repeats the first's values under other types and key orders
    first = _report([_record(0, {"a": 0.1, "b": [1, 1], "low": 0.0}, residual=0.0), _record(1, {"low": 2.0, "a": 5e-324})])
    second = _report(
        [
            _record(0, {"b": [1, True], "low": -0.0, "a": np.float64(0.1)}, residual=-0.0),
            _record(1, {"a": -5e-324, Tone.LOW: np.float64(2.0)}, residual=np.float64(0.1)),
        ]
    )
    outputs = [serialize_report(report, fmt) for report in (first, second, first)]
    assert outputs == [_oracle_serialize(report, fmt) for report in (first, second, first)]
    assert outputs[0] != outputs[1]


# key sets of a shape's params, split into constant keys and varying names: str-enums equal to or
# apart from plain strings, and str subclasses that sort in reverse
_SHAPE_KEYS = st.sampled_from(
    [("a", "b", "low"), ("a", Tone.LOW, "q"), ("ODD", Tone.ODD, "b"), (Backwards("a"), Backwards("b"), "c"), ("q",)]
)


@st.composite
def _shape(draw) -> RecordShape:
    """A shape whose params hold a drawn part of a key set, the rest of which varies; a shape
    without varying names may hold any report value as its params."""
    keys = draw(st.permutations(draw(_SHAPE_KEYS)))
    split = draw(st.integers(0, len(keys)))
    if split < len(keys) or draw(st.booleans()):
        params = {key: draw(_REPEATED) for key in keys[:split]}
    else:
        params = draw(_REPEATED)
    relation = draw(st.sampled_from(sorted(RELATION_TAGS)))
    return RecordShape(relation, draw(_TEXT), draw(_REPEATED_NUMBERS), draw(_TEXT), params, keys[split:])


@st.composite
def _shaped_rows(draw) -> list:
    """Rows of a few shapes, interleaved: a shape may give one row or many."""
    shapes = draw(st.lists(_shape(), min_size=1, max_size=4))
    rows = []
    for shape in draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=10)):
        values = tuple(draw(_REPEATED) for _ in shape.varying)
        rows.append(shape.row(draw(_TEXT), values, draw(_REPEATED_NUMBERS), draw(st.booleans())))
    return rows


def _edge_shapes() -> list:
    """Rows of shapes holding the values a per-shape template could conflate or mis-order."""
    zeros = RecordShape("derived", 'a "b",\nc', None, "n,\"\n", {"low": 0.0, "b": {"x": -0.0, "y": [True, 1]}}, ("a", "q"))
    ranks = RecordShape("gate-closure", "c", -0.0, "", {Backwards("b"): Rank.FIRST, "c": True}, (Backwards("a"),))
    single = RecordShape("ratio-audit", "scalar", 1e-14, "one row", [1, True, -0.0])
    return [
        zeros.row("x,1", (-0.0, 0.0), None, True),
        ranks.row('"quoted"', (1,), 0.0, False),
        single.row("single\n", (), -0.0, True),
        zeros.row("x,2", (0.0, {"nested": [-0.0, Rank.FIRST]}), 5e-324, False),
        ranks.row("r2", (True,), None, True),
        zeros.row("x,3", (Tone.LOW, -5e-324), np.float64(0.1), True),
    ]


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.example(rows=_edge_shapes())
@hypothesis.given(rows=_shaped_rows())
def test_reports_built_from_shapes_match_the_oracle_byte_for_byte(rows):
    report = _report(rows)
    for fmt in ("json", "csv"):
        assert serialize_report(report, fmt) == _oracle_serialize(report, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_shapes_unwritable_cell_raises_where_the_record_by_record_write_does(fmt):
    # the first row's own cells before the shape's: the oracle meets the nan value before the inf threshold
    shape = RecordShape("derived", "c", math.inf, "", {"b": 1.0}, ("a",))
    report = _report([shape.row("x", (math.nan,), 0.0, True)])
    outcome = _outcome(serialize_report, report, fmt)
    assert isinstance(outcome, tuple)
    assert outcome == _outcome(_oracle_serialize, report, fmt)


def test_a_shape_refuses_unknown_relations_and_clashing_names():
    with pytest.raises(ValueError, match="unknown relation tag"):
        RecordShape("made-up-tag", "c", None, "", {})
    for params, varying in (({"q": 1.0}, ("q",)), ({}, ("q", "q")), ({"low": 1}, (Tone.LOW,)), ([], ("q",))):
        with pytest.raises(ValueError, match="varying params"):
            RecordShape("derived", "c", None, "", params, varying)
    with pytest.raises(ValueError, match="expected values"):
        RecordShape("derived", "c", None, "", {}, ("q",)).row("x", (), None, True)


def test_a_shape_row_passes_within_its_threshold_unless_it_states_its_outcome():
    shape = RecordShape("derived", "c", 1e-12, "", {}, ("q",))
    assert [shape.row("x", (2.0,), residual)[-1] for residual in (0.0, 1e-12, 2e-12)] == [True, True, False]
    assert shape.row("x", (2.0,), 1.0, True)[-1] is True
    row = shape.row("x", (2.0,), 1, 0)
    assert row == (shape, "x", (2.0,), 1.0, False)
    assert type(row[3]) is float and row[4] is False
    report = _report([row])
    assert report.summary() == {"total": 1, "passed": 0, "failed": 1}
    record = {"check_id": "x", "relation": "derived", "convention": "c", "params": {"q": 2.0}}
    record.update(residual=1.0, threshold=1e-12, passed=False, notes="")
    assert json.loads(serialize_report(report, "json"))["records"] == [record]


def test_the_dense_many_q_reports_match_the_oracle(monkeypatch):
    # the seed-0 benchmark config: 2,660 rows of 39 shapes, each shape's template filled from its rows
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import DENSE_CUTOFF, DENSE_LIMIT_Q, dense_q_values

    q_values = tuple(dense_q_values(0))
    reports = [
        run_suites(RunConfig(suite, q_values, DENSE_CUTOFF, limit_q=DENSE_LIMIT_Q, format="csv"))
        for suite in ("algebra", "gates", "limits")
    ]
    payloads = [serialize_report(report, "csv") for report in reports]
    assert [len(payload) for payload in payloads] == [303601, 368949, 4452]
    assert payloads == [_oracle_serialize(report, "csv") for report in reports]
    assert [len(report.rows) for report in reports] == [1213, 1432, 15]
    assert [len({id(shape) for shape, *_ in report.rows}) for report in reports] == [15, 15, 9]


_FOOTPRINT = """
import types
import qgatelab.report as report
from qgatelab.suites import RunConfig, run_suites


def footprint(value, seen):
    # entries held by value and by what it holds: containers, function closures and defaults, caches
    if id(value) in seen:
        return 0
    seen.add(id(value))
    if isinstance(value, dict):
        items = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
    elif isinstance(value, types.FunctionType):
        items = [cell.cell_contents for cell in value.__closure__ or ()] + list(value.__defaults__ or ())
    elif hasattr(value, "cache_info"):
        return value.cache_info().currsize
    else:
        return 0
    return len(items) + sum(footprint(item, seen) for item in items)


def sizes():
    return {name: footprint(value, set()) for name, value in vars(report).items() if not name.startswith("__")}


before = sizes()
default = run_suites(RunConfig())
for fmt in ("json", "csv"):
    report.serialize_report(default, fmt)
report.canonical_json({f"guard-key-{i}": [i, i / 7] for i in range(5000)})
after = sizes()
assert after == before, {name: (before.get(name), size) for name, size in after.items() if before.get(name) != size}
"""


def test_no_module_global_of_the_writer_grows_with_the_documents_it_writes():
    # a fresh interpreter, so that no earlier test has filled a cache up to a bound
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-B", "-c", _FOOTPRINT], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
