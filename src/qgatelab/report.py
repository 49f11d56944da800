"""Report data model and deterministic serialization.

Reports must be byte-identical across runs with the same configuration, so
serialization avoids anything environment-dependent: JSON is emitted by a
small canonical writer (sorted keys, ASCII escapes, floats rendered with 17
significant digits, newline-terminated) and CSV uses a fixed column order
with the same float rendering.  No timestamps, no hostnames.

Every check record carries a relation identifier from a closed vocabulary
(RELATION_TAGS); "derived" marks checks that verify this package's own
plumbing rather than a relation from the verified construction.
"""

import math
from json.encoder import encode_basestring_ascii

from ._values import Record

__all__ = [
    "CSV_COLUMNS",
    "RELATION_TAGS",
    "VERSION",
    "CheckRecord",
    "VerificationReport",
    "canonical_json",
    "serialize_report",
]

VERSION = "0.2.0"

RELATION_TAGS = frozenset(
    {
        "deformed-commutation",
        "ladder-number-commutator",
        "bracket-diagonal",
        "number-shift",
        "bracket-shift",
        "bracket-symmetry",
        "gate-table",
        "gate-involution",
        "phase-inverse",
        "gate-closure",
        "ratio-audit",
        "toffoli-literal-audit",
        "convention-audit",
        "classical-limit",
        "constraint-verdict",
        "derived",
    }
)

# the fields of a record, in CSV column order; JSON records carry the same keys
CSV_COLUMNS = (
    "check_id",
    "relation",
    "convention",
    "params",
    "residual",
    "threshold",
    "passed",
    "notes",
)


class CheckRecord(Record):
    """One verification outcome.

    residual and threshold may be None for checks that are not residual-shaped
    (for example determinism or schema checks); passed is always explicit.
    """

    __slots__ = CSV_COLUMNS  # the fields, in column order

    def __init__(
        self,
        check_id: str,
        relation: str,
        convention: str,
        params: dict,
        residual: float | None,
        threshold: float | None,
        passed: bool,
        notes: str = "",
    ):
        if relation not in RELATION_TAGS:
            raise ValueError(f"unknown relation tag {relation!r}")
        self.check_id = check_id
        self.relation = relation
        self.convention = convention
        self.params = params
        self.residual = None if residual is None else float(residual)
        self.threshold = None if threshold is None else float(threshold)
        self.passed = bool(passed)
        self.notes = notes


class VerificationReport(Record):
    """A configuration, the active conventions, and the resulting check records (a new empty
    list when none is given)."""

    __slots__ = ("version", "config", "conventions", "records")

    def __init__(self, version: str, config: dict, conventions: dict, records: list | None = None):
        self.version = version
        self.config = config
        self.conventions = conventions
        self.records = [] if records is None else records

    def summary(self) -> dict:
        passed = sum(1 for r in self.records if r.passed)
        return {"total": len(self.records), "passed": passed, "failed": len(self.records) - passed}

    def as_dict(self) -> dict:
        return {
            "tool": "qgatelab",
            "version": self.version,
            "config": dict(self.config),
            "conventions": dict(self.conventions),
            "summary": self.summary(),
            "records": [{column: getattr(r, column) for column in CSV_COLUMNS} for r in self.records],
        }


# '"key":' of each dict key met so far: a report draws its keys from a small vocabulary
_KEY_PREFIXES = {}
_KEY_PREFIX_LIMIT = 4096


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} cannot enter a report")
    return f"{float(value):.17g}"


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, ASCII, %.17g floats, no whitespace.  Each container is
    joined from its members' strings, so no token list spans the whole document."""
    return _encode(value)


def _encode(value) -> str:
    """canonical_json's recursion, private so that a tracer of the public functions sees one call
    per document rather than one per value."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, dict):
        members = []
        for key in sorted(value):
            prefix = _KEY_PREFIXES.get(key)
            if prefix is None:
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be strings, got {key!r}")
                prefix = encode_basestring_ascii(key) + ":"
                if len(_KEY_PREFIXES) < _KEY_PREFIX_LIMIT:
                    _KEY_PREFIXES[key] = prefix
            members.append(prefix + _encode(value[key]))
        return "{" + ",".join(members) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_encode, value)) + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    raise TypeError(f"value {value!r} of type {type(value).__name__} cannot enter a report")


def _quote(cell: str) -> str:
    """cell as a csv.writer ending lines with a newline writes it: quoted, with each '"' doubled,
    when it holds a comma, a quote or a newline, and as it is otherwise (a lone carriage return
    too)."""
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_lines(records) -> list:
    """The header and one line per record, cells in CSV_COLUMNS order, each field read as the type
    CheckRecord gives it.  relation, convention and notes repeat across records, so each distinct
    text of theirs is quoted once."""
    quoted = {}

    def repeated(text: str) -> str:
        cell = quoted.get(text)
        if cell is None:
            cell = quoted[text] = _quote(text)
        return cell

    lines = [",".join(CSV_COLUMNS)]
    for record in records:
        residual, threshold = record.residual, record.threshold
        cells = (
            _quote(str(record.check_id)),
            repeated(str(record.relation)),
            repeated(str(record.convention)),
            _quote(_encode(record.params)),
            "" if residual is None else _format_float(residual),
            "" if threshold is None else _format_float(threshold),
            "true" if record.passed else "false",
            repeated(str(record.notes)),
        )
        lines.append(",".join(cells))
    return lines


def serialize_report(report: VerificationReport, fmt: str) -> bytes:
    """Render a report as canonical JSON or CSV bytes (UTF-8, newline-terminated)."""
    if fmt == "json":
        return (canonical_json(report.as_dict()) + "\n").encode("utf-8")
    if fmt == "csv":
        return ("\n".join(_csv_lines(report.records)) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")
