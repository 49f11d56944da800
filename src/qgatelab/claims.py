"""The paper's claimed psi restrictions per gate, and how a constraint sweep's tallies score them.

CLAIMS records, per gate, the psi equalities said to be required for the deformed identity to
close and the auxiliary equalities the claim is conditioned on.  A claim is read as a necessity
statement under its auxiliary assumptions: one with no equalities is confirmed iff every
admissible grid point closes the identity to tolerance in both residual modes, an equality claim
iff it is sufficient and necessary on the tested grid in both modes, and refuted otherwise, with
notes saying which half failed; convention-dependent iff the two residual modes disagree.  Loaded
only with constraints, which sweeps the grids.
"""

from typing import NamedTuple

from .gates import GateKind
from .qnum import _check_q, power


class ConstraintClaim(NamedTuple):
    """A claimed psi restriction for one gate, with its auxiliary assumptions."""

    gate: GateKind
    equalities: tuple
    auxiliary: tuple
    text: str


CLAIMS = {
    GateKind.PS: ConstraintClaim(GateKind.PS, (), (), "no restriction on psi1..psi4"),
    GateKind.HAD: ConstraintClaim(
        GateKind.HAD, ((1, 2),), ((1, 3), (2, 4)), "psi1 = psi2, assuming psi1 = psi3 and psi2 = psi4"
    ),
    GateKind.NOT: ConstraintClaim(
        GateKind.NOT, ((1, 2),), ((1, 3), (2, 4)), "psi1 = psi2, assuming psi1 = psi3 and psi2 = psi4"
    ),
    GateKind.CNOT: ConstraintClaim(
        GateKind.CNOT, ((5, 6),), ((5, 7), (6, 8)), "psi5 = psi6, assuming psi5 = psi7 and psi6 = psi8"
    ),
    GateKind.SWAP: ConstraintClaim(GateKind.SWAP, (), (), "no restriction on psi1..psi8"),
    GateKind.FREDKIN: ConstraintClaim(GateKind.FREDKIN, (), (), "no restriction on psi1..psi12"),
    GateKind.TOFFOLI: ConstraintClaim(
        GateKind.TOFFOLI, ((9, 10),), ((9, 11), (10, 12)), "psi9 = psi10, assuming psi9 = psi11 and psi10 = psi12"
    ),
}


def hadamard_closure_ratio(n1: int, q) -> float:
    """Literal value of the scaling-factor ratio used to pin the Hadamard parameters.

    The constraint argument divides the two creation scaling factors and treats
    the ratio as identically 1.  Evaluated as printed,

        ((1 - n1) q^(-n1) - n1 q^(n1 + 1)) / ((1 - n1) q^(n1) - n1 q^(n1 - 1)),

    it is 1 at occupation n1 = 0 but q^2 at n1 = 1, and reports record that
    discrepancy rather than assuming the claim.
    """
    if n1 not in (0, 1):
        raise ValueError(f"the ratio is defined for occupation 0 or 1, got {n1!r}")
    q = _check_q(q)
    subject = f"the closure ratio audit at n1={n1}, q={q!r}"
    numerator = (1 - n1) * power(q, -n1, subject) - n1 * power(q, n1 + 1, subject)
    denominator = (1 - n1) * power(q, n1, subject) - n1 * power(q, n1 - 1, subject)
    return numerator / denominator


def _pattern_text(pattern) -> str:
    return ",".join(f"psi{i}=psi{j}" for i, j in pattern) if pattern else "none"


def _candidate_patterns(claim: ConstraintClaim, arity: int) -> list:
    """Equality patterns ordered weakest first for the minimal-sufficient search."""
    candidates = [("none", ())]
    if claim.auxiliary:
        candidates.append(("auxiliary", tuple(claim.auxiliary)))
    mode_pairs = []
    all_equal = []
    for j in range(arity):
        base = 4 * j + 1
        mode_pairs += [(base, base + 1), (base + 2, base + 3)]
        all_equal += [(base, base + 1), (base + 1, base + 2), (base + 2, base + 3)]
    candidates.append(("within-mode-pairs", tuple(mode_pairs)))
    if claim.equalities:
        candidates.append(("claimed", tuple(claim.equalities)))
        candidates.append(("claimed+auxiliary", tuple(claim.equalities) + tuple(claim.auxiliary)))
    candidates.append(("all-equal-per-qubit", tuple(all_equal)))
    return candidates


class ConstraintReport(NamedTuple):
    """Deterministic outcome of one gate's constraint sweep."""

    gate: str
    phi: float
    q_values: tuple
    grid: tuple
    tolerance: float
    conventions: dict
    claim: dict
    strata: tuple
    totals: dict
    minimal_pattern: dict
    verdict: str
    notes: str


def _closes(tally: dict, mode: str, tolerance: float) -> bool:
    """At least two points, and the identity closes at all of them in this residual mode."""
    return tally["admissible"] >= 2 and tally[f"max_{mode}"] <= tolerance


def _score(claim: ConstraintClaim, candidates: list, tallies: dict, tolerance: float, rows: int) -> tuple:
    """(totals, minimal pattern per residual mode, verdict, notes) of a claim from the tallies of
    its candidate patterns (pattern -> admissible rows, maxima and zero counts) over a sweep of
    rows; the totals leave the count of cross-checked rows to the sweep."""
    minimal = {}
    for mode in ("strict", "collinear"):
        closing = [(cand, p) for cand, p in candidates if _closes(tallies[p], mode, tolerance)]
        cand, pattern = closing[0] if closing else ("unresolved", None)
        equalities = "unresolved" if pattern is None else _pattern_text(pattern)
        minimal[mode] = {"name": cand, "equalities": equalities}

    verdicts = {}
    note_parts = []
    admissible_tally, with_claim = tallies[()], tallies[claim.equalities + claim.auxiliary]
    for mode in ("strict", "collinear"):
        if not claim.equalities:
            ok = admissible_tally["admissible"] > 0 and admissible_tally[f"max_{mode}"] <= tolerance
            verdicts[mode] = "confirmed" if ok else "refuted"
            continue
        # rows meeting only the auxiliary assumptions: the claimed rows are a subset of
        # the auxiliary rows, so their tally is the difference of the two
        auxiliary = tallies[claim.auxiliary]
        without_claim = auxiliary["admissible"] - with_claim["admissible"]
        zero_without = auxiliary[f"zero_{mode}"] - with_claim[f"zero_{mode}"]
        sufficient = _closes(with_claim, mode, tolerance)
        necessary = without_claim > 0 and zero_without == 0
        verdicts[mode] = "confirmed" if (sufficient and necessary) else "refuted"
        if sufficient and not necessary:
            note_parts.append(
                f"{mode}: claimed equalities hold the identity at all {with_claim['admissible']} "
                f"tested points but are not necessary, the identity already closes at "
                f"{zero_without} admissible points satisfying only the auxiliary "
                "assumptions"
            )
        elif not sufficient:
            note_parts.append(f"{mode}: claimed equalities do not close the identity on the grid")

    if verdicts["strict"] == verdicts["collinear"]:
        verdict = verdicts["strict"]
    else:
        verdict = "convention-dependent"
        note_parts.append(
            f"strict verdict {verdicts['strict']}, collinear verdict {verdicts['collinear']}"
        )
    if not claim.equalities and verdict == "confirmed":
        admissible_count = admissible_tally["admissible"]
        note_parts.insert(
            0,
            f"identity closes at every admissible grid point in both residual modes "
            f"({admissible_count} points, {rows - admissible_count} inadmissible points skipped)",
        )
    note_parts.append(
        f"minimal sufficient pattern: strict {minimal['strict']['equalities']}, "
        f"collinear {minimal['collinear']['equalities']}"
    )
    totals = {
        "rows": rows,
        "admissible": admissible_tally["admissible"],
        "skipped": rows - admissible_tally["admissible"],
        "max_strict": admissible_tally["max_strict"],
        "max_collinear": admissible_tally["max_collinear"],
        "claim_points": with_claim["admissible"],
        "claim_max_strict": with_claim["max_strict"],
        "claim_max_collinear": with_claim["max_collinear"],
    }
    return totals, minimal, verdict, "; ".join(note_parts)
