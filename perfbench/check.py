"""Report signatures: what an operation's reports must contain to count as correct.

A signature holds, per operation, the exit codes and, per report, the record
count, a digest of the ordered check ids, the ids of failed records, and for
each constraint verdict the verdict, the minimal patterns and the rows,
admissible and zero counts per stratum.  The number of dense cross-checked
samples, the byte length and the SHA-256 are kept beside it and not compared:
a byte change with an equal signature is flagged for review, not failed.

The shape of a signature (exit codes, record counts, failed ids, strata with
their row counts) does not depend on the seed.  At the pinned seed the whole
signature is compared; at other seeds only its shape, plus byte equality
between the operations of one run.
"""

import csv
import hashlib
import io
import json


def parse_records(data: bytes, fmt: str) -> list:
    """(check_id, passed, relation, params) of each record of a JSON or CSV report."""
    text = data.decode("utf-8")
    if fmt == "json":
        return [
            (r["check_id"], r["passed"], r["relation"], r["params"]) for r in json.loads(text)["records"]
        ]
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    at = {name: header.index(name) for name in ("check_id", "passed", "relation", "params")}
    return [
        (row[at["check_id"]], {"true": True, "false": False}[row[at["passed"]]], row[at["relation"]],
         json.loads(row[at["params"]]))
        for row in rows[1:]
    ]


def report_signature(data: bytes, fmt: str) -> dict:
    records = parse_records(data, fmt)
    ids = [check_id for check_id, _, _, _ in records]
    constraints = {}
    cross_checked = 0
    for _, _, relation, params in records:
        if relation == "constraint-verdict":
            cross_checked += params["totals"]["cross_checked"]
            constraints[params["gate"]] = {
                "verdict": params["verdict"],
                "minimal": [params["minimal_pattern"][m]["equalities"] for m in ("strict", "collinear")],
                "strata": [
                    [s["stratum"], s["q"], s["rows"], s["admissible"], s["zero_strict"], s["zero_collinear"]]
                    for s in params["strata"]
                ],
            }
    return {
        "records": len(records),
        "check_ids_sha256": hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest(),
        "failed_ids": [check_id for check_id, passed, _, _ in records if not passed],
        "constraints": constraints,
        "cross_checked": cross_checked,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def signature(exit_codes, reports, fmt: str) -> dict:
    return {"exit_codes": list(exit_codes), "reports": [report_signature(data, fmt) for data in reports]}


def shape(sig: dict) -> dict:
    """The seed-independent part of a signature."""
    return {
        "exit_codes": sig["exit_codes"],
        "reports": [
            {
                "records": r["records"],
                "failed_ids": r["failed_ids"],
                "strata": {gate: [s[:3] for s in c["strata"]] for gate, c in r["constraints"].items()},
            }
            for r in sig["reports"]
        ],
    }


def semantic(sig: dict) -> dict:
    """The compared part of a signature: everything but sample count, length and digest."""
    return {
        "exit_codes": sig["exit_codes"],
        "reports": [
            {key: value for key, value in r.items() if key not in ("cross_checked", "bytes", "sha256")} for r in sig["reports"]
        ],
    }


def bytes_match(sig: dict, reference: dict) -> bool:
    pinned = [(r["bytes"], r["sha256"]) for r in reference["reports"]]
    return pinned == [(r["bytes"], r["sha256"]) for r in sig["reports"]]


def problems(sig: dict, reference: dict, full: bool) -> list:
    """Why a signature does not match its reference (empty when it matches)."""
    found = []
    if sig["exit_codes"] != reference["exit_codes"]:
        found.append(f"exit codes {sig['exit_codes']} != expected {reference['exit_codes']}")
    view = semantic if full else shape
    mine, theirs = view(sig)["reports"], view(reference)["reports"]
    if len(mine) != len(theirs):
        found.append(f"{len(mine)} reports != expected {len(theirs)}")
    for index, (got, want) in enumerate(zip(mine, theirs)):
        for key in want:
            if got[key] != want[key]:
                found.append(f"report {index}: {key} differs from the reference")
    return found
