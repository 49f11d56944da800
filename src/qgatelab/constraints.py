"""The constraint sweep: psi grids counted in closed form, per gate, to score its claim (claims.py).

discover_constraints sweeps deterministic psi grids per gate, counts where the deformed identity
closes, finds the minimal sufficient equality pattern and scores the gate's claim.  The residual
applies the gate matrix to the deformed input ket and compares it with the traced action, each
carried slot keeping its input qubit's amplitude and each flipped slot re-encoded with the output
bit's own mode pair: "strict" takes the Euclidean gap, "collinear" only the angle.

The sweep builds no row.  A term whose picks permute the input modes closes exactly; any other
re-encodes one qubit, so its gap is sqrt(w) times the carried amplitudes times |a_in - a_out|
there.  A bracket is linear in its psi pair, so that flip closes exactly iff q^2 psi_a - psi_b is
equal on the qubit's two modes or 0 on a carried mode, and each level pair gets an exact class of
it per q.  Rows are products of per-qubit index tuples, so counts are products of per-qubit counts
(inclusion-exclusion over failing terms), strict maxima products of per-qubit maxima, and first
rows combine per-qubit firsts.  The dense path (dense.py) rechecks sample rows of every block.
"""

import functools
import itertools
import math
import operator
import sys

import numpy as np

from .claims import CLAIMS, ConstraintClaim, ConstraintReport, _candidate_patterns, _pattern_text, _score
from .claims import hadamard_closure_ratio
from .dense import _dense_residuals, _oracle_plan
from .gates import DISCOVERY_PHI, GateKind, GateSpec, gate_action_traced
from .qdeform import OperatorConvention
from .qnum import PSI_COUNT, bracket, bracket_roots, psi_bracket
from .schwinger import ExponentConvention

__all__ = ["CLAIMS", "ConstraintClaim", "ConstraintReport", "discover_constraints", "hadamard_closure_ratio"]

DEFAULT_GRID = (0.5, 1.0, 2.0, 4.0)
DEFAULT_Q_VALUES = (0.5, 0.9, 1.1, 2.0)


def _dense_brackets(arity: int, points) -> np.ndarray:
    """Per (q, psi) point, the level-1 brackets whose roots make its [slot][bit] amplitude table
    (amplitude_table: bit b of slot j reads psi columns 4j + 2 - 2b and 4j + 3 - 2b), as an
    (len(points), arity, 2) array; psi_bracket runs once per distinct (q, psi_a, psi_b)."""
    level_one = functools.cache(functools.partial(psi_bracket, 1))
    columns = [4 * j + 2 - 2 * b for j in range(arity) for b in (0, 1)]
    return np.array([[level_one(q, psi[c], psi[c + 1]) for c in columns] for q, psi in points]).reshape(-1, arity, 2)


# A block sweeps as many q values at once as keep its per-qubit tables within this many entries.
_CHUNK_ENTRIES = 1 << 16


def _strata(arity: int) -> dict:
    """Sweep strata in order, cross-mode (auxiliary) equalities, within-mode equalities, then free:
    name -> per grid axis, the 0-based psi columns it fills (rows in itertools.product order, the
    other columns 1.0).  Three qubits get one free block per qubit pair, the third pinned at 1."""

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


def _grid_levels(grid) -> tuple:
    """Sorted distinct psi levels (the grid plus the 1.0 filler) and each grid value's code: a rank
    into levels, in the narrowest unsigned dtype that holds every rank, so equal psi values share a
    code and no code wraps."""
    grid = np.asarray(grid, dtype=float)
    levels = np.array(sorted(set(grid.tolist()) | {1.0}))
    return levels, np.searchsorted(levels, grid).astype(np.min_scalar_type(levels.size - 1))


def _sweep_plan(spec: GateSpec) -> tuple:
    """(arity, largest weight sum, per input bit string that can leave a gap: the input modes,
    the weight sum, and each output term's weight and modes); qubit j holding bit b reads mode
    2j + 1 - b.  A lone weight-1 term on the input's own modes, in order, is an exact zero."""
    plan, largest_weight_sum = [], 0.0
    for bits in itertools.product((0, 1), repeat=spec.arity):
        c_in = [2 * j + 1 - b for j, b in enumerate(bits)]
        # a carried slot reads its source qubit's input mode, a flipped one its own output bit's
        terms = [
            (
                abs(term.coeff) ** 2,
                [
                    2 * j + 1 - out if src is None else c_in[src]
                    for j, (src, out) in enumerate(zip(term.sources, term.bits))
                ],
            )
            for term in gate_action_traced(spec, bits)
        ]
        weight_sum = sum(weight for weight, _ in terms)
        largest_weight_sum = max(largest_weight_sum, weight_sum)
        if terms != [(1.0, c_in)]:
            plan.append((c_in, weight_sum, terms))
    return spec.arity, largest_weight_sum, plan


def _closed_forms(plan: tuple) -> tuple:
    """What the closed form reads of _sweep_plan(spec): one-term flips, as sqrt(weight), per qubit its
    factor (0 or 1 that mode's amplitude, 2 the gap |a_0 - a_1|) and their strict term; several-term
    bit strings, as their one qubit and bit plan; the strict and collinear failing terms, as per
    qubit the predicate its tuple meets (0 any, 1 or 2 that mode is not in class 0, 3 the modes'
    classes differ, 4 exactly one mode is in class 0).  A flip fails strictly iff its qubit's classes
    differ and no carried mode is 0; a one-term bit string fails collinearly iff exactly one of c_in
    and c_out is 0, one that holds a permuting term beside its flips on one qubit (the Hadamard)
    where it fails strictly, and its maxima come from a one-qubit table."""
    flips, whole, strict, collinear = set(), [], set(), set()
    for bit_plan in plan[2]:
        c_in, _, terms = bit_plan
        moved = [modes for _, modes in terms if sorted(modes) != sorted(c_in)]
        changed = [{mode // 2 for mode in set(c_in) ^ set(modes)} for modes in moved]
        if any(len(qubits) != 1 or len(set(modes)) != len(modes) for qubits, modes in zip(changed, moved)):
            raise ValueError(f"a traced term re-encodes more than one qubit: {c_in} -> {moved}")
        for (target,) in changed:
            strict.add(term := tuple(3 if j == target else 1 + m % 2 for j, m in enumerate(c_in)))
            if len(terms) > 1:
                collinear.add(term)
                continue
            collinear.add(tuple(4 if j == target else 1 + m % 2 for j, m in enumerate(c_in)))
            flips.add((math.sqrt(terms[0][0]), tuple(2 if j == target else m % 2 for j, m in enumerate(c_in)), term))
        if moved and len(terms) > 1:
            if len(moved) == len(terms) or len({mode // 2 for _, modes in terms for mode in modes}) != 1:
                raise ValueError(f"several traced terms of {c_in} need a permuting term and one qubit: {terms}")
            whole.append((*changed[0], bit_plan))
    return sorted(flips), whole, strict, collinear


def _exact_classes(q_values, levels: np.ndarray) -> np.ndarray:
    """Per q value and level pair, an id of the exact value of q^2 psi_a - psi_b, as a (q, level,
    level) table: at one q equal values share an id, and 0 has id 0.  A float is an integer over a
    power of 2, so over one denominator per q every value is an exact integer."""
    ratios = [level.as_integer_ratio() for level in levels.tolist()]
    scaled = [num * (max(den for _, den in ratios) // den) for num, den in ratios]
    ids, table = {0: 0}, []
    for num, den in (q.as_integer_ratio() for q in q_values):
        table += [ids.setdefault(num * num * a - den * den * b, len(ids)) for a in scaled for b in scaled]
    return np.array(table).reshape(len(q_values), levels.size, levels.size)


def _level_tables(spec: GateSpec, plan: tuple, q_values, levels: np.ndarray, grid_codes: np.ndarray) -> tuple:
    """Per q and level pair, whether its bracket (qnum.bracket, psi_bracket to the bit) is
    admissible and its amplitude, as (q, level, level) tables.  q by q, so that the first q that
    fails decides the error, raise OverflowError unless the largest admissible amplitude of two grid
    levels to the power 2 * arity, times the largest weight sum of plan (_sweep_plan), is finite,
    and FloatingPointError unless the smallest positive one to that power is a normal double: no
    float residual of a row the report shows may overflow or underflow."""
    arity, largest_weight_sum, _ = plan
    in_grid = np.bincount(grid_codes, minlength=levels.size) > 0
    rows = []
    for q in q_values:
        with np.errstate(over="ignore"):  # bracket names an overflowing product, an inf amplitude fails below
            rows.append(bracket_roots(bracket(1, q, levels[:, None], levels, "the sweep's bracket table at q={q!r}")))
        admissible_amps = np.where(np.outer(in_grid, in_grid), rows[-1][1], 0.0)

        def refuse(error, at: tuple, verb: str, outcome: str):
            return error(
                f"the {spec.kind.value} sweep at q={q!r} {verb} double precision: amplitude "
                f"{float(admissible_amps[at])!r} at level pair (psi_a={float(levels[at[0]])!r}, "
                f"psi_b={float(levels[at[1]])!r}) raised to the power {2 * arity} {outcome}"
            )

        peak = np.unravel_index(np.argmax(admissible_amps), admissible_amps.shape)
        largest_product = math.prod([float(admissible_amps[peak])] * arity)
        if not math.isfinite(largest_product * largest_product * largest_weight_sum):
            raise refuse(OverflowError, peak, "overflows", "is not finite")
        positive = np.where(admissible_amps > 0.0, admissible_amps, np.inf)
        floor = np.unravel_index(np.argmin(positive), positive.shape)
        smallest_product = math.prod([float(positive[floor])] * arity)
        if smallest_product * smallest_product < sys.float_info.min:
            raise refuse(FloatingPointError, floor, "underflows", "is not a normal double")
    return tuple(map(np.array, zip(*rows)))


@functools.lru_cache(maxsize=256)
def _qubit_codes(own: tuple, grid: tuple, filler: int, levels: int, ties: tuple) -> tuple:
    """One qubit's index tuples in a stratum (the C-order raveling of its axes, own: per axis its psi
    columns, 0 to 3): its two modes' level-pair codes (2, tuples), and whether each tuple meets
    each pattern's column ties (patterns, tuples).  Equal psi values share a code."""
    codes = np.full((4, len(grid) ** len(own)), filler, dtype=np.intp)
    combos = np.array(list(itertools.product(grid, repeat=len(own))), dtype=np.intp)
    for axis, columns in enumerate(own):
        codes[list(columns)] = combos[:, axis]
    ties = [(codes[[a for a, _ in tie]] == codes[[b for _, b in tie]]).all(axis=0) for tie in ties]
    tables = codes[::2] * levels + codes[1::2], np.array(ties)
    for table in tables:  # every caller of the cache gets these arrays
        table.setflags(write=False)
    return tables


def _qubit_tuples(slots: tuple, arity: int, levels: np.ndarray, grid_codes: np.ndarray, patterns: list) -> tuple:
    """One stratum's per-qubit tables, padded to the most tuples a qubit has: (tuples per qubit,
    pair codes (qubit, 2, tuples), restrictions (qubit, pattern, tuples), False on padding).
    _strata gives each qubit consecutive axes in qubit order, so a row's C-order index takes the
    qubits' tuples in turn; every candidate pattern ties psi columns of one qubit, so a row meets
    it iff each qubit's tuple does."""
    grid, filler = tuple(grid_codes.tolist()), int(np.searchsorted(levels, 1.0))
    qubits = []
    for j in range(arity):
        own = tuple(tuple(i - 4 * j for i in indices) for indices in slots if indices[0] // 4 == j)
        ties = tuple(tuple((a - 1 - 4 * j, b - 1 - 4 * j) for a, b in p if (a - 1) // 4 == j) for p in patterns)
        qubits.append(_qubit_codes(own, grid, filler, levels.size, ties))
    sizes = [pairs.shape[1] for pairs, _ in qubits]
    pairs, restrictions = np.zeros((arity, 2, max(sizes)), np.intp), np.zeros((arity, len(patterns), max(sizes)), bool)
    for j, (qubit_pairs, restriction) in enumerate(qubits):
        pairs[j, :, : sizes[j]], restrictions[j, :, : sizes[j]] = qubit_pairs, restriction
    return sizes, pairs, restrictions


def _qubit_admissibility(mode_admissible: np.ndarray) -> np.ndarray:
    """Per qubit, whether both of its mode brackets are admissible: (q, qubit, mode, tuples) to
    (q, qubit, tuples)."""
    return mode_admissible.all(axis=2)


def _bit_string_gaps(bit_plan: tuple, amps: list) -> tuple:
    """One input bit string's (strict, collinear) gaps on the broadcast shape of the modes it reads,
    from the modes' amplitudes, through the dense path's operations in float: its output terms lie
    on distinct basis kets, so the strict gap is the root sum of squared per-term amplitude gaps and
    the collinear gap the rejection form of the sine between the coefficient vectors."""

    def product(modes: list):
        return functools.reduce(operator.mul, [amps[mode] for mode in modes])

    c_in_modes, weight_sum, term_modes = bit_plan
    c_in = product(c_in_modes)
    terms = [(weight, product(modes)) for weight, modes in term_modes]
    strict = np.sqrt(sum(weight * (c_in - c_out) ** 2 for weight, c_out in terms))
    lhs_sq, rhs_sq = weight_sum * c_in**2, sum(weight * c_out**2 for weight, c_out in terms)
    coefficient = c_in * sum(weight * c_out for weight, c_out in terms) / np.where(lhs_sq > 0.0, lhs_sq, 1.0)
    rejection_sq = sum(weight * (c_out - coefficient * c_in) ** 2 for weight, c_out in terms)
    collinear = np.minimum(1.0, np.sqrt(rejection_sq / np.where(rhs_sq > 0.0, rhs_sq, 1.0)))
    zero_sides = (lhs_sq == 0.0).astype(int) + (rhs_sq == 0.0)
    return strict, np.where(zero_sides == 2, 0.0, np.where(zero_sides == 1, 1.0, collinear))


def _sweep_block(plan: tuple, forms: tuple, tables: tuple, stratum: tuple, samples: list) -> tuple:
    """One stratum's block at every q value, counted as a sweep of every row would: (per tally key, a
    (q, pattern) array of the admissible rows each pattern allows and the maxima and zero counts of
    both residual modes over them; per q, the exemplar rows (first admissible, first largest
    positive strict residual, first admissible rows that do and do not close it) and the first
    inadmissible row or None; the rows these and samples make, in order; per mode the amplitudes and
    per qubit the admissibility there, (q, row) each).  plan is _sweep_plan(spec), forms
    _closed_forms(plan), tables _level_tables(spec, plan, ...) and the _exact_classes of the same q
    values and levels, stratum _qubit_tuples(...)."""
    step = max(1, _CHUNK_ENTRIES // stratum[2].size)
    batches = [[table[at : at + step] for table in tables] for at in range(0, len(tables[0]), step)]
    parts = [_sweep_q_axis(forms, batch, stratum) for batch in batches]
    tally = {key: np.concatenate([part[0][key] for part in parts]) for key in parts[0][0]}
    picked = [pick for part in parts for pick in part[1]]
    admissible, amps = (np.concatenate([part[k] for part in parts]) for k in (2, 3))
    wanted = [row for exemplars, skipped in picked for row in (*exemplars, skipped) if row is not None]
    rows = sorted({*samples, *wanted})
    at = np.unravel_index(rows, stratum[0])
    row_amps = [amps[:, m // 2, m % 2, at[m // 2]] for m in range(2 * len(at))]
    return tally, picked, rows, row_amps, [admissible[:, j, at[j]] for j in range(len(at))]


def _sweep_q_axis(forms: tuple, tables: list, stratum: tuple) -> tuple:
    """_sweep_block's tallies and picks over (q, level, level) tables, with the per-qubit
    admissibility and amplitudes, (q, qubit, tuples) and (q, qubit, mode, tuples).

    A row is admissible iff every qubit's tuple is, and a pattern allows it iff every qubit's tuple
    meets the pattern, so a count is a product over qubits.  A row fails a term iff every qubit's
    tuple meets the term's predicate: rows failing some term are counted by inclusion-exclusion,
    and a first row takes each qubit's first tuple that qualifies.  A one-term flip's strict maximum
    is its sqrt(weight) times, per qubit, the largest factor over the tuples that meet its strict
    predicate (so exactly 0 where every row closes), its collinear maximum 1.0 where it fails
    collinearly; a several-term bit string's come from its one-qubit table, 0 where it closes."""
    flips, whole, strict, collinear = forms
    sizes, pairs, restrictions = stratum
    # per q, each qubit's tuples' entries, (q, qubit, mode, tuples), tuples contiguous
    mode_admissible, amps, classes = (np.take(table.reshape(len(table), -1), pairs, axis=1) for table in tables)
    valid = restrictions[:, 0]  # the first pattern, (), allows every tuple but the padding
    admissible = np.asarray(_qubit_admissibility(mode_admissible)) & valid
    nonzero = classes != 0
    differ = [classes[:, :, :1] != classes[:, :, 1:], nonzero[:, :, :1] != nonzero[:, :, 1:]]
    predicates = np.concatenate([np.ones_like(nonzero[:, :, :1]), nonzero, *differ], axis=2)
    qubits, allowed = np.arange(len(sizes)), admissible[:, :, None] & restrictions

    # counted conditions: every row; each set of strict, then of collinear failing terms (signed for
    # inclusion-exclusion); each one-term flip's collinear term alone, whose collinear gap is 0 or 1
    subsets = [[s for n in range(len(t)) for s in itertools.combinations(t, n + 1)] for t in (strict, collinear)]
    groups = [[()], *subsets, [(term,) for term in collinear - strict]]
    conditions = [c for group in groups for c in group]
    every = predicates[:, :, 0]
    meets = [functools.reduce(operator.and_, [predicates[:, qubits, t] for t in c], every) for c in conditions]
    # per q and qubit, (pattern, tuple) by (tuple, condition) products count the tuples meeting both
    counted = np.rint(allowed.astype(float) @ np.stack(meets, axis=-1)).astype(np.intp).prod(axis=1)
    signs, (_, a, b, _) = np.array([(-1) ** len(c) for c in conditions]), itertools.accumulate(map(len, groups))
    tally = {"admissible": counted[..., 0], "max_collinear": (counted[..., b:] > 0).any(axis=-1).astype(float)}
    for key, i, j in (("zero_strict", 1, a), ("zero_collinear", a, b)):
        tally[key] = counted[..., 0] + counted[..., i:j] @ signs[i:j]

    maxima, at_peak = [], []  # per candidate, its strict maxima (q, pattern) and where they lie
    if flips:  # values (q, flip, qubit, tuple), 0 where a tuple closes the flip; maxima (q, flip, qubit, pattern)
        factors = np.concatenate([amps, np.abs(amps[:, :, :1] - amps[:, :, 1:])], axis=2)
        _, chosen, terms = (np.array(column) for column in zip(*flips))
        values = factors[:, qubits, chosen] * predicates[:, qubits, terms]
        largest = (allowed[:, None] * values[..., None, :]).max(axis=-1)
        maxima += list(np.moveaxis(largest.prod(axis=2) * np.array([[root] for root, *_ in flips]), 1, 0))
        at_peak += list(np.moveaxis(values == largest[..., :1], 1, 0))
    for j, bit_plan in whole:
        # a tuple whose two modes share a class closes exactly, whatever its amplitudes round to
        gaps = _bit_string_gaps(bit_plan, [amps[:, m // 2, m % 2] for m in range(2 * len(sizes))])
        gaps = [gap * predicates[:, j, 3] for gap in gaps]
        largest, most = ((allowed[:, j] * gap[:, None]).max(axis=-1) for gap in gaps)
        tally["max_collinear"] = np.maximum(tally["max_collinear"], most)
        maxima.append(largest)
        at_peak.append(np.ones_like(admissible))
        at_peak[-1][:, j] = gaps[0] == largest[:, :1]
    tally["max_strict"] = functools.reduce(np.maximum, maxima, np.zeros(counted[..., 0].shape))

    # first rows over admissible tuples: every one, each candidate's peaks, each strict term's failing
    # rows, and per choice of one predicate in each strict term the rows that miss them all (closing
    # rows); then per qubit, its first inadmissible tuple with every other qubit at its first tuple
    choices = list(itertools.product(*([(j, k) for j, k in enumerate(term) if k] for term in strict)))
    found = [predicates[:, :, 0], *at_peak, *(predicates[:, qubits, term] for term in strict)]
    for choice in choices:
        found.append(np.ones_like(admissible))
        for j, k in choice:
            found[-1][:, j] &= ~predicates[:, j, k]
    skips = np.where(np.eye(len(sizes), dtype=bool)[:, None, :, None], valid & ~admissible, valid)
    found = np.concatenate([np.stack(found) & admissible, skips])
    strides, rows_count = np.array([math.prod(sizes[j + 1 :]) for j in qubits], dtype=np.intp), math.prod(sizes)
    firsts = np.where(found.any(axis=-1).all(axis=-1), (found.argmax(axis=-1) * strides).sum(axis=-1), rows_count)
    first, largest, ends = firsts[0], tally["max_strict"][:, 0], np.cumsum([1, len(maxima), len(strict), len(choices)])
    tops = [np.where(m[:, 0] == largest, rows, rows_count) for m, rows in zip(maxima, firsts[1:])]
    peak = np.where(largest > 0.0, np.min(tops, axis=0, initial=rows_count), first)
    opened, zero, skipped = (firsts[i:j].min(axis=0, initial=rows_count) for i, j in zip(ends[1:], [*ends[2:], None]))
    picked = [
        (list(dict.fromkeys(row for row in rows[:4] if row < rows_count)), rows[4] if rows[4] < rows_count else None)
        for rows in np.stack([first, peak, zero, opened, skipped], axis=1).astype(np.intp).tolist()
    ]
    return tally, picked, admissible, amps


def _row_values(admissible: list, tables: list) -> tuple:
    """(strict, collinear, admissible) per row, as Python floats and bools, from per-qubit
    admissibility and per-bit-string (strict, collinear) gaps over the same rows: per residual mode
    the largest of the bit strings' gaps on an admissible row, 0.0 on an inadmissible one."""
    ok = functools.reduce(np.logical_and, admissible)
    values = [functools.reduce(np.maximum, [table[mode] for table in tables], np.zeros(ok.shape)) for mode in (0, 1)]
    return (*(np.where(ok, v, 0.0).tolist() for v in values), ok.tolist())


def _cross_check_samples(spec, plan, samples) -> int:
    """Recompute sample rows, (q, psi, strict, collinear, admissible) each, through the dense path
    with the spec's _oracle_plan, every admissible one in one pass for both residual modes; a
    sample is admissible iff all its brackets are (qnum.bracket_roots).  Raise at the first failing sample."""
    brackets = _dense_brackets(spec.arity, [sample[:2] for sample in samples])
    reasons = ("marked an admissible point as skipped", "admitted an inadmissible point")
    dense_ok = bracket_roots(brackets)[0].all(axis=(1, 2)).tolist()
    failures = {k: reasons[ok] for k, ((*_, ok), good) in enumerate(zip(samples, dense_ok)) if ok != good}
    kept = [k for k, sample in enumerate(samples) if sample[-1] and k not in failures]
    for k, dense_strict, dense_collinear in zip(kept, *_dense_residuals(brackets[kept], plan)):
        _, _, strict, collinear, _ = samples[k]
        if not (abs(dense_strict - strict) <= 1e-10 and abs(dense_collinear - collinear) <= 1e-10):
            failures[k] = "disagrees with the dense path"
    if failures:
        q, psi, *_ = samples[k := min(failures)]
        raise RuntimeError(f"sweep engine {failures[k]} at {spec.kind.value}, q={q!r}, psi={tuple(psi)!r}")
    return len(samples)


def discover_constraints(
    gate,
    q_values=DEFAULT_Q_VALUES,
    grid=DEFAULT_GRID,
    tolerance: float = 1e-12,
    operator: OperatorConvention = OperatorConvention.MATRIX_ELEMENT,
    exponent: ExponentConvention = ExponentConvention.RESULT,
) -> ConstraintReport:
    """Sweep the psi grid for one gate and score its claimed constraint.

    gate is a GateKind or a GateSpec (a bare phase-shift kind gets phi = DISCOVERY_PHI).  q values
    must be positive and not 1; grid values must be positive.  The plans and the level tables are
    built once per call, every q checked for overflow and underflow before the first block.  Each
    stratum's block tallies every q per candidate pattern in closed form (_sweep_block); the rows
    the reports show get their residuals in one pass per gate, and their samples are cross-checked
    against the dense path in one more (_cross_check_samples).  Counts are exact: tolerance decides
    only which maxima close.  Raises OverflowError when a q and the grid's largest amplitude
    overflow the sweep's products, FloatingPointError when its smallest positive amplitude
    underflows them.
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
    claim, operator, exponent = CLAIMS[spec.kind], OperatorConvention(operator), ExponentConvention(exponent)

    levels, grid_codes = _grid_levels(grid)
    oracle, plan = _oracle_plan(spec), _sweep_plan(spec)
    forms = _closed_forms(plan)
    tables = (*_level_tables(spec, plan, q_values, levels, grid_codes), _exact_classes(q_values, levels))
    candidates = _candidate_patterns(claim, spec.arity)
    # claim plus assumptions, claim.auxiliary and () are all candidates, so all get tallied; () first
    patterns = sorted({pattern for _, pattern in candidates}, key=lambda pattern: (len(pattern), pattern))
    blocks = []
    for name, slots in _strata(spec.arity).items():
        count = len(grid) ** len(slots)
        step = max(1, count // 5)
        samples = sorted(i for i in {0, count // 2, count - 1, step, 2 * step, 3 * step} if i < count)
        stratum = _qubit_tuples(slots, spec.arity, levels, grid_codes, patterns)
        blocks.append((name, slots, count, samples, *_sweep_block(plan, forms, tables, stratum, samples)))
    # the rows of every block at once: per residual mode, the largest per-bit-string gap
    amps, admissible = ([np.concatenate(parts, axis=1) for parts in zip(*(b[k] for b in blocks))] for k in (-2, -1))
    values = _row_values(admissible, [_bit_string_gaps(bit_plan, amps) for bit_plan in plan[2]])
    strata_summaries, checks, start = [], [], 0
    for name, slots, count, samples, tally, picked, rows, *_ in blocks:
        at, psi = np.unravel_index(rows, (len(grid),) * len(slots)), np.ones((len(rows), PSI_COUNT))
        for axis, indices in enumerate(slots):
            psi[:, indices] = np.array(grid)[at[axis], None]
        psi, first = dict(zip(rows, psi.tolist())), {key: table[:, 0].tolist() for key, table in tally.items()}
        for k, (q, (exemplars, skipped)) in enumerate(zip(q_values, picked)):
            seen = dict(zip(rows, zip(*(column[k][start : start + len(rows)] for column in values))))
            checks += [(q, psi[i], *seen[i]) for i in samples]
            summary = {"stratum": name, "q": q, "rows": count, "skipped": count - first["admissible"][k]}
            summary.update({key: column[k] for key, column in first.items()})
            summary["exemplars"] = [{"psi": psi[i], "strict": seen[i][0], "collinear": seen[i][1]} for i in exemplars]
            strata_summaries.append(summary | ({} if skipped is None else {"skipped_exemplar": {"psi": psi[skipped]}}))
        start += len(rows)
    merged = {key: (np.max if key[:4] == "max_" else np.sum)([b[4][key] for b in blocks], axis=(0, 1)) for key in tally}
    tallies = {pattern: {key: merged[key].tolist()[k] for key in merged} for k, pattern in enumerate(patterns)}
    rows = sum(summary["rows"] for summary in strata_summaries)
    totals, minimal, verdict, notes = _score(claim, candidates, tallies, tolerance, rows)
    totals["cross_checked"] = _cross_check_samples(spec, oracle, checks)
    claim_info = {"text": claim.text, "equalities": _pattern_text(claim.equalities)}
    claim_info["auxiliary"] = _pattern_text(claim.auxiliary)
    conventions = {
        "operator": operator.value,
        "exponent": exponent.value,
        "residual_modes": ["strict", "collinear"],
        "note": "deformed kets are creation-built, so residuals do not depend on the lowering-operator reading",
    }
    return ConstraintReport(
        spec.kind.value, float(spec.phi), q_values, grid, float(tolerance), conventions, claim_info,
        tuple(strata_summaries), totals, minimal, verdict, notes,
    )
