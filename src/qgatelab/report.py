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

import csv
import io
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

__all__ = [
    "CSV_COLUMNS",
    "RELATION_TAGS",
    "VERSION",
    "CheckRecord",
    "VerificationReport",
    "canonical_json",
    "serialize_report",
]

VERSION = "0.1.0"

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


@dataclass
class CheckRecord:
    """One verification outcome.

    residual and threshold may be None for checks that are not residual-shaped
    (for example determinism or schema checks); passed is always explicit.
    """

    check_id: str
    relation: str
    convention: str
    params: dict
    residual: float | None
    threshold: float | None
    passed: bool
    notes: str = ""

    def __post_init__(self):
        if self.relation not in RELATION_TAGS:
            raise ValueError(f"unknown relation tag {self.relation!r}")
        if self.residual is not None:
            self.residual = float(self.residual)
        if self.threshold is not None:
            self.threshold = float(self.threshold)
        self.passed = bool(self.passed)


@dataclass
class VerificationReport:
    """A configuration, the active conventions, and the resulting check records."""

    version: str
    config: dict
    conventions: dict
    records: list = field(default_factory=list)

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
    return format(float(value), ".17g")


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, ASCII, %.17g floats, no whitespace.  Each container is
    joined from its members' strings, so no token list spans the whole document."""
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
        return _format_float(value)
    if isinstance(value, dict):
        return "{" + ",".join(_member(key, value[key]) for key in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(canonical_json, value)) + "]"
    raise TypeError(f"value {value!r} of type {type(value).__name__} cannot enter a report")


def _member(key, value) -> str:
    if not isinstance(key, str):
        raise TypeError(f"report keys must be strings, got {key!r}")
    return encode_basestring_ascii(key) + ":" + canonical_json(value)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, (dict, list, tuple)):
        return canonical_json(value)
    return str(value)


def serialize_report(report: VerificationReport, fmt: str) -> bytes:
    """Render a report as canonical JSON or CSV bytes (UTF-8, newline-terminated)."""
    if fmt == "json":
        return (canonical_json(report.as_dict()) + "\n").encode("utf-8")
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_csv_cell(getattr(record, column)) for column in CSV_COLUMNS] for record in report.records)
        return buffer.getvalue().encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")
