"""Report data model and deterministic serialization.

Reports must be byte-identical across runs with the same configuration, so
serialization avoids anything environment-dependent: JSON is emitted by a
small canonical writer (sorted keys, ASCII escapes, floats rendered with 17
significant digits, newline-terminated) and CSV uses a fixed column order
with the same float rendering.  No timestamps, no hostnames.

A report holds its check records as rows of shared shapes: a RecordShape is
what a family of checks holds constant (relation, convention, threshold,
notes, constant params and the names of the params that vary), and a row is
one record's check id, varying values, residual and outcome.  A record's
params are its shape's constant params merged with its varying values.  The
writer renders each shape's own cells once per document and fills them from
each row.

Every shape carries a relation identifier from a closed vocabulary
(RELATION_TAGS); "derived" marks checks that verify this package's own
plumbing rather than a relation from the verified construction.
"""

import math
from json.encoder import encode_basestring_ascii

from ._values import Frozen, Record

__all__ = [
    "CSV_COLUMNS",
    "RELATION_TAGS",
    "VERSION",
    "RecordShape",
    "VerificationReport",
    "canonical_json",
    "serialize_report",
]

VERSION = "0.3.0"

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


class RecordShape(Frozen):
    """What one family of check records holds constant: relation, convention, threshold, notes,
    the constant params, and the names of the params that vary from record to record (varying).
    With varying names, params is a dict whose keys repeat none of them; without, params is any
    report value.  A shape owns the params it is given and never changes them."""

    __slots__ = ("relation", "convention", "threshold", "notes", "params", "varying")

    def __init__(self, relation: str, convention: str, threshold: float | None, notes: str, params, varying=()):
        if relation not in RELATION_TAGS:
            raise ValueError(f"unknown relation tag {relation!r}")
        varying = tuple(varying)
        if varying and (not isinstance(params, dict) or len({*params, *varying}) != len(params) + len(varying)):
            raise ValueError(f"varying params {varying!r} need distinct names outside a constant params dict")
        self._set(relation, convention, None if threshold is None else float(threshold), notes, params, varying)

    def row(self, check_id, values, residual: float | None, passed=None) -> tuple:
        """One record of this shape as the row (shape, check_id, values, residual, passed), values
        given in varying order.  A record passes when residual <= threshold, unless passed states
        its own outcome (audits, verdicts, limit trends)."""
        if len(values) != len(self.varying):
            raise ValueError(f"expected values for {self.varying!r}, got {values!r}")
        residual = None if residual is None else float(residual)
        return self, check_id, tuple(values), residual, bool(residual <= self.threshold if passed is None else passed)


class VerificationReport(Record):
    """A configuration, the active conventions, and the check records as rows (RecordShape.row)
    in report order, the one form a record takes; serialize_report writes them."""

    __slots__ = ("version", "config", "conventions", "rows")

    def __init__(self, version: str, config: dict, conventions: dict, rows):
        self.version = version
        self.config = config
        self.conventions = conventions
        self.rows = list(rows)

    def summary(self) -> dict:
        passed = sum(row[-1] for row in self.rows)
        return {"total": len(self.rows), "passed": passed, "failed": len(self.rows) - passed}


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} cannot enter a report")
    return f"{float(value):.17g}"


# the texts of 0.0 and -0.0 by their sign, and the item type of the lists an encoder's memo takes
_ZERO_TEXTS = {math.copysign(1.0, zero): _format_float(zero) for zero in (0.0, -0.0)}
_INT_ONLY = frozenset({int})


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, ASCII, %.17g floats, no whitespace.  Each container is
    joined from its members' strings, so no token list spans the whole document."""
    return _document_encoder()[0](value)


def _document_encoder() -> tuple:
    """(encode, number) for one document: a value's canonical JSON text, and a float's %.17g text.
    Floats (np.float64 too) come first, as most values a report encodes are.  Each nonzero float's
    text and each list of exact ints' text are rendered once per document; the memo dies with the
    document, and a tracer of the public functions sees one call per document."""
    floats, int_lists = {}, {}

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
        texts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            texts.append(encode_basestring_ascii(key) + ":" + encode(value[key]))
        return "{" + ",".join(texts) + "}"

    def encode(value) -> str:
        if isinstance(value, float):
            return number(value)
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if value is None or value is True or value is False:
            return "null" if value is None else "true" if value else "false"
        if isinstance(value, int):
            return str(value)
        if isinstance(value, dict):
            return members(value)
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"value {value!r} of type {type(value).__name__} cannot enter a report")
        if type(value) in (list, tuple) and _INT_ONLY.issuperset(map(type, value)):
            items = tuple(value)
            text = int_lists.get(items)
            if text is None:
                text = int_lists[items] = "[" + ",".join(map(str, items)) + "]"
            return text
        return "[" + ",".join(map(encode, value)) + "]"

    return encode, number


def _quote(cell: str) -> str:
    """cell as a csv.writer ending lines with a newline writes it: quoted, with each '"' doubled,
    when it holds a comma, a quote or a newline, and as it is otherwise (a lone carriage return
    too)."""
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _params_pieces(shape: RecordShape, values: tuple, encode) -> tuple:
    """(pieces, order): shape's params text as constant pieces and a None per varying value, keys
    sorted as in a row's merged params, and the positions in a row's values of the
    varying params in the order of their Nones.  values are the first row's, each encoded where
    it stands, so the first unwritable value in key order raises."""
    if not shape.varying:
        return [encode(shape.params)], ()
    position = {name: index for index, name in enumerate(shape.varying)}
    pieces, order = [], []
    for key in sorted({**shape.params, **position}):  # the record's params: constant keys, then varying
        if not isinstance(key, str):
            raise TypeError(f"report keys must be strings, got {key!r}")
        pieces += [",", encode_basestring_ascii(key) + ":"]
        if key in position:
            encode(values[position[key]])
            pieces.append(None)
            order.append(position[key])
        else:
            pieces.append(encode(shape.params[key]))
    pieces[0] = "{"
    return pieces + ["}"], tuple(order)


def _template(row: tuple, csv: bool, encode, number) -> tuple:
    """(line, order) for the rows of row's shape: line is their CSV line or JSON object as a list
    with the shape's own text at even positions and a None at each odd one, where a row's cells
    go, and order is as _params_pieces gives it.  Cells are rendered in the order a record's fields
    are written, and the first row's own where they stand, so an unwritable value raises as it
    would were the records written one by one."""
    shape, check_id, values, residual, _ = row
    if csv:
        pieces = [None, "," + _quote(str(shape.relation)) + "," + _quote(str(shape.convention)) + ","]
    else:
        encode(check_id)
        pieces = ['{"check_id":', None, ',"convention":' + encode(shape.convention)]
        pieces.append(',"notes":' + encode(shape.notes) + ',"params":')
    params, order = _params_pieces(shape, values, encode)
    if residual is not None:
        number(residual)
    threshold = None if shape.threshold is None else number(shape.threshold)
    if csv:
        # a params dict with a key holds a '"', so its cell is quoted
        cell = ['"', *[piece and piece.replace('"', '""') for piece in params], '"'] if order else [_quote(params[0])]
        threshold = "" if threshold is None else threshold
        pieces += [*cell, ",", None, "," + threshold + ",", None, "," + _quote(str(shape.notes))]
    else:
        pieces += [*params, ',"passed":', None, ',"relation":' + encode(shape.relation) + ',"residual":', None]
        pieces.append(',"threshold":' + ("null" if threshold is None else threshold) + "}")
    line = [""]
    for piece in pieces:
        if piece is None:
            line += [None, ""]
        else:
            line[-1] += piece
    return line, order


def _row_texts(rows, csv: bool, encode, number) -> list:
    """Each row's CSV line or JSON object.  Its shape's template is made at the shape's first row;
    a row then fills it with its check id, its varying values, its residual and its passed."""
    templates, texts = {}, []
    for row in rows:
        shape, check_id, values, residual, passed = row
        template = templates.get(id(shape))
        if template is None:
            template = templates[id(shape)] = _template(row, csv, encode, number)
        line, order = template
        line = line.copy()
        if csv:
            line[1::2] = (
                _quote(str(check_id)),
                *[encode(values[index]).replace('"', '""') for index in order],
                "" if residual is None else number(residual),
                "true" if passed else "false",
            )
        else:
            line[1::2] = (
                encode(check_id),
                *[encode(values[index]) for index in order],
                "true" if passed else "false",
                "null" if residual is None else number(residual),
            )
        texts.append("".join(line))
    return texts


def serialize_report(report: VerificationReport, fmt: str) -> bytes:
    """Render a report as canonical JSON or CSV bytes (UTF-8, newline-terminated).  The JSON is
    canonical_json of an object holding tool, version, config, conventions, summary and records,
    each record an object of the CSV_COLUMNS fields; each CSV cell is as the csv module would
    write that field.  Each shape's own cells are rendered once per document."""
    encode, number = _document_encoder()
    if fmt == "json":
        config, conventions = dict(report.config), dict(report.conventions)
        text = (
            '{"config":' + encode(config) + ',"conventions":' + encode(conventions)
            + ',"records":[' + ",".join(_row_texts(report.rows, False, encode, number))
            + '],"summary":' + encode(report.summary()) + ',"tool":"qgatelab","version":' + encode(report.version) + "}"
        )
    elif fmt == "csv":
        text = "\n".join([",".join(CSV_COLUMNS), *_row_texts(report.rows, True, encode, number)])
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return (text + "\n").encode("utf-8")
