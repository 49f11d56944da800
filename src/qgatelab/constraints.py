"""Brute-force audit of claimed parameter constraints on the deformed gate identities.

For each gate the claim table records which psi equalities are said to be
required for the deformed identity to close, together with the auxiliary
equalities the claim is conditioned on.  _dense_residuals measures how far a
single (q, psi) point is from closing the identity; discover_constraints sweeps
deterministic psi grids, classifies where the residual vanishes, searches for
the minimal sufficient equality pattern, and scores the claim.  Each
(stratum, q) block of rows is reduced to counts and maxima per equality
pattern as soon as it is swept, and all scoring reads those tallies.

Residual definition: the gate matrix is applied to the deformed input ket, and
the result is compared against the gate's traced action where each carried slot
keeps the amplitude of the input qubit it came from (the gate permutes whole
deformed kets, no amplitude comparison happens on carried slots) and each
flipped slot is re-encoded with the output bit's own mode pair.  "strict" takes
the Euclidean gap, "collinear" only the angle (norm-matched comparison).

Verdict semantics: claims are read as necessity statements under their
auxiliary assumptions.  A claim with no equalities is confirmed iff every
admissible grid point closes the identity to tolerance in both residual modes.
An equality claim is confirmed iff it is sufficient and necessary on the
tested grid in both modes; refuted otherwise, with notes recording which half
failed; convention-dependent iff the two residual modes disagree.
"""

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .gates import GateKind, GateSpec, gate_action_traced, gate_matrix
from .qdeform import OperatorConvention
from .qnum import PSI_COUNT, DeformationParams, NegativeRadicandError
from .schwinger import ExponentConvention, QubitEmbedding, qubit_amplitude

__all__ = [
    "CLAIMS",
    "ConstraintClaim",
    "ConstraintReport",
    "discover_constraints",
    "hadamard_closure_ratio",
]

DEFAULT_GRID = (0.5, 1.0, 2.0, 4.0)
DEFAULT_Q_VALUES = (0.5, 0.9, 1.1, 2.0)
# phase of the phase-shift gate wherever the gates are swept or checked, so it is not the identity
DISCOVERY_PHI = math.pi / 3


@dataclass(frozen=True)
class ConstraintClaim:
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
    q = float(q)
    if not math.isfinite(q) or q <= 0.0:
        raise ValueError(f"q must be a positive finite real, got {q!r}")
    numerator = (1 - n1) * q**-n1 - n1 * q ** (n1 + 1)
    denominator = (1 - n1) * q**n1 - n1 * q ** (n1 - 1)
    return numerator / denominator


def _collinear_gap(u: np.ndarray, v: np.ndarray) -> float:
    """Sine of the angle between two vectors; 0 for two zeros, 1 for exactly one zero.

    Computed as the norm of v's component orthogonal to u over the norm of v,
    which stays accurate near perfect alignment (the 1 - cos^2 form loses half
    the significant digits there).
    """
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 and nv == 0.0:
        return 0.0
    if nu == 0.0 or nv == 0.0:
        return 1.0
    coefficient = np.vdot(u, v) / (nu * nu)
    rejection = v - coefficient * u
    return min(1.0, float(np.linalg.norm(rejection)) / nv)


def _dense_residuals(spec: GateSpec, q: float, params: DeformationParams, matrix: np.ndarray) -> tuple:
    """(strict, collinear) worst-case gaps of one (q, psi) point over the input bit strings.

    matrix is the undeformed gate matrix on the spec's embedding, so a caller
    checking many points builds it once.  A deformed input ket has one nonzero
    entry, its qubit amplitudes multiplied in deformed_qubit_state's order, so
    matrix @ ket is that column of matrix times the product, bit for bit.
    Amplitudes come from a [slot][bit] table, every entry of which some input
    reads, so a point that does not admit real amplitudes raises
    NegativeRadicandError.  Deformed kets are creation-built, so the gaps do
    not depend on the lowering-operator reading.
    """
    emb = QubitEmbedding(spec.arity)
    amps = [[qubit_amplitude(bit, slot + 1, q, params) for bit in (0, 1)] for slot in range(spec.arity)]
    worst_strict = 0.0
    worst_collinear = 0.0
    for bits in emb.all_bits():
        in_amp = 1.0
        for slot, bit in enumerate(bits):
            in_amp *= amps[slot][bit]
        lhs = matrix[:, emb.basis_index(bits)] * in_amp
        rhs = np.zeros(emb.dim, dtype=complex)
        for term in gate_action_traced(spec, bits):
            amp = 1.0
            for slot, (src, out_bit) in enumerate(zip(term.sources, term.bits)):
                amp *= amps[slot][out_bit] if src is None else amps[src][bits[src]]
            rhs[emb.basis_index(term.bits)] += term.coeff * amp
        worst_strict = max(worst_strict, float(np.linalg.norm(lhs - rhs)))
        worst_collinear = max(worst_collinear, _collinear_gap(lhs, rhs))
    return worst_strict, worst_collinear


def _strata(arity: int) -> dict:
    """Sweep strata in sweep order: name -> per free grid slot, the 0-based psi columns it fills.

    Cross-mode (auxiliary) equalities, within-mode equalities, then free
    combinations.  The free stratum for three qubits would need 4^12 rows; it
    is replaced by one block per qubit pair (all 4^8 combinations for the two
    qubits, the third pinned at 1), which distinguishes the same per-qubit
    equality patterns because amplitudes factor qubit by qubit.
    """

    def free(qubits) -> tuple:
        return tuple((4 * j + i,) for j in qubits for i in range(4))

    strata = {
        "aux": tuple((4 * j + k, 4 * j + k + 2) for j in range(arity) for k in (0, 1)),
        "mode-pairs": tuple((4 * j + k, 4 * j + k + 1) for j in range(arity) for k in (0, 2)),
    }
    if arity <= 2:
        strata["free"] = free(range(arity))
    else:
        for first, second in itertools.combinations(range(arity), 2):
            strata[f"free-q{first + 1}q{second + 1}"] = free((first, second))
    return strata


# Rows per residual block.  Every sweep operation is per row, so blocking only
# keeps the temporaries in cache and leaves the results bit-identical.
_BLOCK_ROWS = 16384


def _grid_levels(grid) -> tuple:
    """Sorted distinct psi levels (the grid plus the 1.0 filler) and each grid value's code.

    A code is a rank into levels, held in the narrowest unsigned dtype that
    fits every rank, so equal psi values get equal codes and no code wraps.
    """
    grid = np.asarray(grid, dtype=float)
    levels = np.unique(np.append(grid, 1.0))
    codes = np.searchsorted(levels, grid).astype(np.min_scalar_type(levels.size - 1))
    return levels, codes


def _stratum_codes(slots: tuple, levels: np.ndarray, grid_codes: np.ndarray) -> np.ndarray:
    """Level codes (P x PSI_COUNT) of one stratum's psi rows, the 1.0 code everywhere else.

    slots is the stratum's entry in _strata.  Rows come in itertools.product
    order over the grid (last slot fastest): slot k of the row grid is axis k
    of a (len(grid),) * slots array.
    """
    width = grid_codes.size
    filler = np.searchsorted(levels, 1.0)
    codes = np.full((width,) * len(slots) + (PSI_COUNT,), filler, dtype=grid_codes.dtype)
    for position, indices in enumerate(slots):
        axis_shape = [1] * len(slots)
        axis_shape[position] = width
        for index in indices:
            codes[..., index] = grid_codes.reshape(axis_shape)
    return codes.reshape(-1, PSI_COUNT)


def _sweep_rows(spec: GateSpec, q: float, levels: np.ndarray, grid_codes: np.ndarray, codes: np.ndarray):
    """Vectorized residuals for many psi rows, given as level codes, at one q.

    Returns (strict, collinear, admissible) arrays.  Residuals are computed
    for admissible rows only; inadmissible rows hold 0.0.  The formulation
    mirrors the dense path exactly: per input bit string the gate's output
    terms live on distinct basis kets, so the strict gap is the root sum of
    squared per-term amplitude gaps and the collinear gap comes from the
    cosine between the two coefficient vectors.  An input bit string whose
    only output term has weight 1 and the input's own amplitude product, in
    the same factor order, is skipped: both of its gaps are exactly 0.  That
    holds while every product and its square is finite, so a q whose largest
    admissible amplitude could overflow them raises OverflowError before any
    row runs.  That amplitude is taken over the level pairs a row can hold:
    both levels from the grid (grid_codes), since the 1.0 filler only pairs
    with itself and has amplitude 1.  Mode brackets come from a table over
    (psi_a, psi_b) level pairs, written as psi_bracket writes them (q - 1/q
    can be a few ulp), gathered by the pair code code_a * levels.size + code_b
    in a dtype that holds every pair code; rows run in blocks of _BLOCK_ROWS.
    """
    arity = spec.arity
    denominator = q - 1.0 / q
    brackets = (q * levels[:, None] - q**-1 * levels[None, :]) / denominator
    amp_table = np.sqrt(np.clip(brackets, 0.0, None))
    admissible_table = brackets >= 0.0

    def amp_row(qubit: int, bit: int) -> int:
        return 2 * qubit + (0 if bit else 1)

    # per input bit string that can leave a gap: amplitude rows of the input
    # product, term weights, and amplitude rows of each output term's product
    plan = []
    largest_weight_sum = 0.0
    for bits in itertools.product((0, 1), repeat=arity):
        c_outs = []
        weights = []
        for term in gate_action_traced(spec, bits):
            c_outs.append(
                [
                    amp_row(slot, out_bit) if src is None else amp_row(src, bits[src])
                    for slot, (src, out_bit) in enumerate(zip(term.sources, term.bits))
                ]
            )
            weights.append(abs(term.coeff) ** 2)
        c_in = [amp_row(qubit, bit) for qubit, bit in enumerate(bits)]
        largest_weight_sum = max(largest_weight_sum, sum(weights))
        if weights == [1.0] and c_outs == [c_in]:
            continue
        plan.append((c_in, np.asarray(weights)[:, None], c_outs))

    in_grid = np.zeros(levels.size, dtype=bool)
    in_grid[grid_codes] = True
    admissible_amps = np.where(admissible_table & np.outer(in_grid, in_grid), amp_table, 0.0)
    peak = np.unravel_index(np.argmax(admissible_amps), admissible_amps.shape)
    largest_amp = float(admissible_amps[peak])
    largest_product = math.prod([largest_amp] * arity)
    if not math.isfinite(largest_product * largest_product * largest_weight_sum):
        raise OverflowError(
            f"the {spec.kind.value} sweep at q={q!r} overflows double precision: amplitude "
            f"{largest_amp!r} at level pair (psi_a={float(levels[peak[0]])!r}, "
            f"psi_b={float(levels[peak[1]])!r}) raised to the power {2 * arity} is not finite"
        )

    def product(amp_mode: np.ndarray, amp_rows: list) -> np.ndarray:
        value = amp_mode[amp_rows[0]]
        for row in amp_rows[1:]:
            value = value * amp_mode[row]
        return value

    pair_dtype = np.min_scalar_type(levels.size**2 - 1)
    admissible_pairs, amp_pairs = admissible_table.ravel(), amp_table.ravel()
    count = codes.shape[0]
    strict = np.zeros(count)
    collinear = np.zeros(count)
    admissible = np.empty(count, dtype=bool)
    for start in range(0, count, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        mode_codes = codes[block, : 4 * arity].T
        pairs = mode_codes[0::2].astype(pair_dtype) * levels.size + mode_codes[1::2]
        admissible[block] = admissible_pairs[pairs].all(axis=0)
        kept = np.flatnonzero(admissible[block])
        amp_mode = amp_pairs[pairs[:, kept]]
        strict_block = np.zeros(kept.size)
        collinear_block = np.zeros(kept.size)
        for c_in_rows, weights, c_out_rows in plan:
            c_in = product(amp_mode, c_in_rows)
            c_outs = np.stack([product(amp_mode, rows) for rows in c_out_rows])
            strict_here = np.sqrt((weights * (c_in[None, :] - c_outs) ** 2).sum(axis=0))
            lhs_sq = float(weights.sum()) * c_in**2
            rhs_sq = (weights * c_outs**2).sum(axis=0)
            dot = c_in * (weights * c_outs).sum(axis=0)
            both_zero = (lhs_sq == 0.0) & (rhs_sq == 0.0)
            one_zero = (lhs_sq == 0.0) ^ (rhs_sq == 0.0)
            # rejection form of the sine, mirroring _collinear_gap
            coefficient = dot / np.where(lhs_sq > 0.0, lhs_sq, 1.0)
            rejection_sq = (weights * (c_outs - coefficient[None, :] * c_in[None, :]) ** 2).sum(axis=0)
            safe_rhs = np.where(rhs_sq > 0.0, rhs_sq, 1.0)
            collinear_here = np.minimum(1.0, np.sqrt(rejection_sq / safe_rhs))
            collinear_here = np.where(both_zero, 0.0, np.where(one_zero, 1.0, collinear_here))
            strict_block = np.maximum(strict_block, strict_here)
            collinear_block = np.maximum(collinear_block, collinear_here)
        strict[start + kept] = strict_block
        collinear[start + kept] = collinear_block
    return strict, collinear, admissible


def _cross_check_samples(spec, q, matrix, levels, codes, strict, collinear, admissible) -> int:
    """Recompute deterministic sample rows through the dense path; raise on mismatch.

    matrix is the spec's undeformed gate matrix; each pick takes one dense
    pass that yields both residual modes.
    """
    count = codes.shape[0]
    step = max(1, count // 5)
    picks = sorted(i for i in {0, count // 2, count - 1, step, 2 * step, 3 * step} if i < count)
    checked = 0
    for index in picks:
        psi = tuple(float(v) for v in levels[codes[index]])
        point = DeformationParams(q, psi)
        if admissible[index]:
            dense_strict, dense_collinear = _dense_residuals(spec, q, point, matrix)
            if abs(dense_strict - float(strict[index])) > 1e-10 or abs(
                dense_collinear - float(collinear[index])
            ) > 1e-10:
                raise RuntimeError(
                    f"sweep engine disagrees with the dense path at {spec.kind.value}, "
                    f"q={q!r}, psi={psi!r}"
                )
        else:
            try:
                _dense_residuals(spec, q, point, matrix)
            except NegativeRadicandError:
                pass
            else:
                raise RuntimeError(
                    f"sweep engine marked an admissible point as skipped at {spec.kind.value}, "
                    f"q={q!r}, psi={psi!r}"
                )
        checked += 1
    return checked


def _satisfies(codes: np.ndarray, pattern) -> np.ndarray:
    """Boolean mask of rows meeting every psi_i = psi_j equality (equal psi values share a code)."""
    mask = np.ones(codes.shape[0], dtype=bool)
    for i, j in pattern:
        mask &= codes[:, i - 1] == codes[:, j - 1]
    return mask


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


@dataclass(frozen=True)
class ConstraintReport:
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

    def as_dict(self) -> dict:
        return asdict(self)


def _tally(rows: np.ndarray, strict: np.ndarray, collinear: np.ndarray, tolerance: float) -> dict:
    """Points, maxima and zero counts of both residual modes over the rows in a mask.

    Residuals are >= 0, so a tally over no rows has maxima 0.0.
    """
    return {
        "admissible": int(np.count_nonzero(rows)),
        "zero_strict": int(np.count_nonzero(rows & (strict <= tolerance))),
        "zero_collinear": int(np.count_nonzero(rows & (collinear <= tolerance))),
        "max_strict": float(strict.max(initial=0.0, where=rows)),
        "max_collinear": float(collinear.max(initial=0.0, where=rows)),
    }


def _closes(tally: dict, mode: str, tolerance: float) -> bool:
    """At least two points, and the identity closes at all of them in this residual mode."""
    return tally["admissible"] >= 2 and tally[f"max_{mode}"] <= tolerance


def _merge_tallies(first: dict, second: dict) -> dict:
    return {
        key: max(first[key], second[key]) if key.startswith("max_") else first[key] + second[key]
        for key in first
    }


def _stratum_summary(name, q, levels, codes, strict, collinear, admissible, tolerance, tally) -> dict:
    """One (stratum, q) block: its row counts, tally over the admissible rows, and exemplars."""

    def psi(index) -> list:
        return [float(v) for v in levels[codes[index]]]

    picks = []
    adm_indices = np.flatnonzero(admissible)
    if adm_indices.size:
        picks = [adm_indices[0], adm_indices[np.argmax(strict[adm_indices])]]
        for rows in (admissible & (strict <= tolerance), admissible & (strict > tolerance)):
            picks += np.flatnonzero(rows)[:1].tolist()
    summary = {
        "stratum": name,
        "q": float(q),
        "rows": int(codes.shape[0]),
        "skipped": int(codes.shape[0]) - tally["admissible"],
        **tally,
        "exemplars": [
            {"psi": psi(index), "strict": float(strict[index]), "collinear": float(collinear[index])}
            for index in dict.fromkeys(int(pick) for pick in picks)
        ],
    }
    skipped_indices = np.flatnonzero(~admissible)
    if skipped_indices.size:
        summary["skipped_exemplar"] = {"psi": psi(skipped_indices[0])}
    return summary


def discover_constraints(
    gate,
    q_values=DEFAULT_Q_VALUES,
    grid=DEFAULT_GRID,
    tolerance: float = 1e-12,
    operator: OperatorConvention = OperatorConvention.MATRIX_ELEMENT,
    exponent: ExponentConvention = ExponentConvention.RESULT,
) -> ConstraintReport:
    """Sweep the psi grid for one gate and score its claimed constraint.

    gate is a GateKind or a GateSpec (a bare phase-shift kind gets phi =
    DISCOVERY_PHI).  q values must be positive and not 1; grid values must
    be positive.  Each (stratum, q) block runs the vectorized engine, has
    deterministic samples cross-checked against the dense path (both
    residual modes in one pass, the gate matrix built once per call), and is
    tallied per candidate pattern before the next block runs.  Summaries, totals, the minimal-pattern search and the verdicts
    read only the tallies.  Raises OverflowError when a q and the grid's
    largest amplitude overflow the sweep's products.
    """
    spec = gate
    if not isinstance(gate, GateSpec):
        kind = GateKind(gate)
        spec = GateSpec(kind, DISCOVERY_PHI if kind is GateKind.PS else 0.0)
    q_values = tuple(float(q) for q in q_values)
    if not q_values:
        raise ValueError("at least one q value is required")
    for q in q_values:
        if not math.isfinite(q) or q <= 0.0 or q == 1.0:
            raise ValueError(f"sweep q values must be positive, finite and not 1, got {q!r}")
    grid = tuple(float(g) for g in grid)
    if len(grid) < 2 or any(not math.isfinite(g) or g <= 0.0 for g in grid):
        raise ValueError(f"grid values must be at least two positive finite reals, got {grid!r}")
    claim = CLAIMS[spec.kind]
    operator = OperatorConvention(operator)
    exponent = ExponentConvention(exponent)

    levels, grid_codes = _grid_levels(grid)
    matrix = gate_matrix(spec)
    candidates = _candidate_patterns(claim, spec.arity)
    # claim plus assumptions, claim.auxiliary and () are all candidates, so all get tallied
    claimed = claim.equalities + claim.auxiliary
    patterns = {pattern for _, pattern in candidates}
    block_tallies = []
    strata_summaries = []
    samples_checked = 0
    for name, slots in _strata(spec.arity).items():
        codes = _stratum_codes(slots, levels, grid_codes)
        for q in q_values:
            strict, collinear, admissible = _sweep_rows(spec, q, levels, grid_codes, codes)
            samples_checked += _cross_check_samples(
                spec, q, matrix, levels, codes, strict, collinear, admissible
            )
            block = {
                pattern: _tally(admissible & _satisfies(codes, pattern), strict, collinear, tolerance)
                for pattern in patterns
            }
            strata_summaries.append(
                _stratum_summary(name, q, levels, codes, strict, collinear, admissible, tolerance, block[()])
            )
            block_tallies.append(block)
    rows = sum(summary["rows"] for summary in strata_summaries)
    tallies = {
        pattern: functools.reduce(_merge_tallies, (block[pattern] for block in block_tallies))
        for pattern in patterns
    }

    minimal = {}
    for mode in ("strict", "collinear"):
        closing = [(cand, p) for cand, p in candidates if _closes(tallies[p], mode, tolerance)]
        cand, pattern = closing[0] if closing else ("unresolved", None)
        equalities = "unresolved" if pattern is None else _pattern_text(pattern)
        minimal[mode] = {"name": cand, "equalities": equalities}

    verdicts = {}
    note_parts = []
    admissible_tally, with_claim = tallies[()], tallies[claimed]
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

    admissible_count = admissible_tally["admissible"]
    totals = {
        "rows": rows,
        "admissible": admissible_count,
        "skipped": rows - admissible_count,
        "max_strict": admissible_tally["max_strict"],
        "max_collinear": admissible_tally["max_collinear"],
        "claim_points": with_claim["admissible"],
        "claim_max_strict": with_claim["max_strict"],
        "claim_max_collinear": with_claim["max_collinear"],
        "cross_checked": samples_checked,
    }
    if not claim.equalities and verdict == "confirmed":
        note_parts.insert(
            0,
            f"identity closes at every admissible grid point in both residual modes "
            f"({admissible_count} points, {totals['skipped']} inadmissible points skipped)",
        )
    note_parts.append(
        f"minimal sufficient pattern: strict {minimal['strict']['equalities']}, "
        f"collinear {minimal['collinear']['equalities']}"
    )

    claim_info = {
        "text": claim.text,
        "equalities": _pattern_text(claim.equalities),
        "auxiliary": _pattern_text(claim.auxiliary),
    }
    conventions = {
        "operator": operator.value,
        "exponent": exponent.value,
        "residual_modes": ["strict", "collinear"],
        "note": "deformed kets are creation-built, so residuals do not depend on the "
        "lowering-operator reading",
    }
    return ConstraintReport(
        gate=spec.kind.value,
        phi=float(spec.phi),
        q_values=q_values,
        grid=grid,
        tolerance=float(tolerance),
        conventions=conventions,
        claim=claim_info,
        strata=tuple(strata_summaries),
        totals=totals,
        minimal_pattern=minimal,
        verdict=verdict,
        notes="; ".join(note_parts),
    )
