"""qgatelab diff: compare two reports check by check.

Records are matched by check id.  The listing names records that one report has and the other
lacks, pass/fail flips, changed verdicts and minimal patterns, changed counts, other changed
values, and float deltas above a tolerance, each with the check id and the path inside the record.
JSON reports also compare their version, config, conventions and summary; a CSV report carries
records only.  Loaded only by the diff command.
"""

import csv
import io
import json
import math
import sys

from .report import CSV_COLUMNS

# Integer fields that count rows or records: a change in one is listed as a count change.  Any other
# changed pair of integers (JSON writes a float without a fraction as one) is listed as a value
# change, and any other changed pair of numbers as a float delta when it exceeds the tolerance.
_COUNT_KEYS = frozenset(
    ("rows", "admissible", "skipped", "zero_strict", "zero_collinear", "claim_points", "cross_checked")
    + ("total", "passed", "failed")  # the summary's record counts
)


class DiffError(Exception):
    pass


def _load(path: str) -> tuple:
    """(top-level fields or None for a CSV report, records by check id in order) of one report."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DiffError(f"cannot read {path}: {exc}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, dict) and isinstance(document.get("records"), list):
        top, records = {key: value for key, value in document.items() if key != "records"}, document["records"]
    else:
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or tuple(rows[0]) != CSV_COLUMNS or any(len(row) != len(CSV_COLUMNS) for row in rows[1:]):
            columns = ",".join(CSV_COLUMNS)
            raise DiffError(f"{path} is not a qgatelab report: expected a JSON report or a CSV with columns {columns}")
        top, records = None, [_csv_record(path, row) for row in rows[1:]]
    by_id = {}
    for record in records:
        if not isinstance(record, dict) or not isinstance(record.get("check_id"), str):
            raise DiffError(f"{path} holds a record without a check id: {record!r}")
        if by_id.setdefault(record["check_id"], record) is not record:
            raise DiffError(f"{path} holds check id {record['check_id']!r} twice")
    return top, by_id


def _csv_record(path: str, row: list) -> dict:
    """A CSV row as the JSON record it was written from."""
    record = dict(zip(CSV_COLUMNS, row))
    try:
        record["params"] = json.loads(record["params"])
        for key in ("residual", "threshold"):
            record[key] = None if record[key] == "" else float(record[key])
        record["passed"] = {"true": True, "false": False}[record["passed"]]
    except (ValueError, KeyError) as exc:
        raise DiffError(f"{path} has a malformed record {row[0]!r}: {exc}") from None
    return record


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _changes(old, new, path: str, tolerance: float):
    """(kind, path, text) per difference between two JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            where = f"{path}.{key}" if path else key
            if key not in new or key not in old:
                yield "keys", where, "removed" if key not in new else "added"
            else:
                yield from _changes(old[key], new[key], where, tolerance)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, (first, second) in enumerate(zip(old, new)):
            yield from _changes(first, second, f"{path}[{k}]", tolerance)
    elif isinstance(old, list) and isinstance(new, list):
        yield "length", path, f"{len(old)} entries -> {len(new)}"
    elif _number(old) and _number(new) and path.rsplit(".", 1)[-1] in _COUNT_KEYS:
        if old != new:
            yield "count", path, f"{old} -> {new} ({new - old:+})"
    elif _number(old) and _number(new) and (isinstance(old, float) or isinstance(new, float)):
        if abs(new - old) > tolerance:
            yield "float", path, f"{old!r} -> {new!r} (delta {new - old:+.3g})"
    elif old != new:
        kind = "verdict" if path.endswith("verdict") else "minimal" if "minimal_pattern" in path else "value"
        yield kind, path, f"{json.dumps(old)} -> {json.dumps(new)}"


def diff_reports(first: str, second: str, tolerance: float = 0.0) -> list:
    """Lines naming every difference from report first to report second."""
    (top_a, records_a), (top_b, records_b) = _load(first), _load(second)
    lines = []
    if top_a is not None and top_b is not None:
        lines += [f"report {kind} {path}: {text}" for kind, path, text in _changes(top_a, top_b, "", tolerance)]
    lines += [f"removed {check_id}" for check_id in records_a if check_id not in records_b]
    lines += [f"added {check_id}" for check_id in records_b if check_id not in records_a]
    for check_id, old in records_a.items():
        if check_id in records_b:
            new = records_b[check_id]
            outcomes = ["passed" if record.get("passed") else "failed" for record in (old, new)]
            if outcomes[0] != outcomes[1]:
                lines.append(f"{outcomes[1]} {check_id}: was {outcomes[0]}")
            old, new = ({key: value for key, value in record.items() if key != "passed"} for record in (old, new))
            lines += [f"{kind} {check_id} {path}: {text}" for kind, path, text in _changes(old, new, "", tolerance)]
    return lines


def diff_main(first: str, second: str, tolerance: str) -> int:
    """Print the differences of two reports; exit 0 when there are none, 1 when there are, 2 with a
    message on bad input."""
    try:
        try:
            bound = float(tolerance)
        except ValueError:
            bound = math.nan
        if not math.isfinite(bound) or bound < 0.0:
            raise DiffError(f"--tolerance expects a nonnegative finite number, got {tolerance!r}")
        lines = diff_reports(first, second, bound)
    except DiffError as exc:
        print(f"qgatelab: diff error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines + [f"{len(lines)} differences" if lines else "no differences"]))
    return 1 if lines else 0
