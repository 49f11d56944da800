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


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} cannot enter a report")
    return f"{float(value):.17g}"


# the texts of 0.0 and -0.0 by their sign, and the key and item types that take an encoder's memo
_ZERO_TEXTS = {math.copysign(1.0, zero): _format_float(zero) for zero in (0.0, -0.0)}
_STR_ONLY = frozenset({str})
_INT_ONLY = frozenset({int})


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, ASCII, %.17g floats, no whitespace.  Each container is
    joined from its members' strings, so no token list spans the whole document."""
    return _document_encoder()[0](value)


def _document_encoder() -> tuple:
    """(encode, number) for one document: a value's canonical JSON text, and a float's %.17g text.
    Exact str, float, int, bool, None, dict, list and tuple values take their own branch, anything
    else (np.float64, a str-enum) the isinstance chain.  Each nonzero float's text, each int list's
    text and each str key set's sorted '"key":' prefixes are rendered once per document; the memo
    dies with the document, and a tracer of the public functions sees one call per document."""
    floats, int_lists, key_orders = {}, {}, {}

    def number(value) -> str:
        if type(value) is not float:
            return _format_float(value)
        if not value:  # 0.0 == -0.0 as keys, but they print 0 and -0
            return _ZERO_TEXTS[math.copysign(1.0, value)]
        text = floats.get(value)
        if text is None:
            text = floats[value] = _format_float(value)
        return text

    def members(value: dict) -> str:
        if _STR_ONLY.issuperset(map(type, value)):
            names = frozenset(value)
            order = key_orders.get(names)
            if order is None:
                order = key_orders[names] = [(key, encode_basestring_ascii(key) + ":") for key in sorted(names)]
            return "{" + ",".join([prefix + encode(value[key]) for key, prefix in order]) + "}"
        texts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            texts.append(encode_basestring_ascii(key) + ":" + encode(value[key]))
        return "{" + ",".join(texts) + "}"

    def encode(value) -> str:
        kind = type(value)
        if kind is str:
            return encode_basestring_ascii(value)
        if kind is float:
            return number(value)
        if kind is dict:
            return members(value)
        if (kind is list or kind is tuple) and _INT_ONLY.issuperset(map(type, value)):
            items = tuple(value)
            text = int_lists.get(items)
            if text is None:
                text = int_lists[items] = "[" + ",".join(map(str, items)) + "]"
            return text
        if kind is int:
            return str(value)
        if kind is bool:
            return "true" if value else "false"
        if value is None:
            return "null"
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if isinstance(value, float):
            return number(value)
        if isinstance(value, dict):
            return members(value)
        if isinstance(value, (list, tuple)):
            return "[" + ",".join(map(encode, value)) + "]"
        if isinstance(value, int):
            return str(value)
        raise TypeError(f"value {value!r} of type {type(value).__name__} cannot enter a report")

    return encode, number


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
    text of theirs is quoted once; params, residual and threshold go through one document encoder."""
    encode, number = _document_encoder()
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
            _quote(encode(record.params)),
            "" if residual is None else number(residual),
            "" if threshold is None else number(threshold),
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
