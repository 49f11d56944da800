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
(inclusion-exclusion over failing terms), maxima products of per-qubit maxima, first rows combine
per-qubit firsts, and the rows a report shows read the same per-qubit tables.  The dense path
(dense.py) rechecks sample rows of every block within an a priori rounding bound.
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


def _closed_forms(plan: tuple) -> list:
    """The flips the closed form reads of _sweep_plan(spec), sorted: per term that re-encodes a qubit,
    sqrt(weight) and per qubit the strict factor and predicate, then the collinear ones.  A factor is
    0 or 1 that mode's amplitude, 2 the gap |a_0 - a_1|, 3 the sine below or 4 one; a predicate, met
    where the flip fails, is 0 any, 1 or 2 that mode is not in class 0, 3 the classes differ or 4
    exactly one mode is in class 0.  A flip fails strictly iff its qubit's classes differ and no
    carried mode is 0; a one-term bit string fails collinearly iff exactly one of c_in and c_out is 0,
    a Hadamard one (a permuting term beside its flip, equal weights, one qubit) where the classes
    differ, at the sine |a_0 - a_1| / sqrt(2 (a_0^2 + a_1^2)), or 1 where exactly one amplitude is 0
    (the bit string whose c_in it is has a zero left-hand side)."""
    flips = set()
    for c_in, _, terms in plan[2]:
        moved = [(weight, modes) for weight, modes in terms if sorted(modes) != sorted(c_in)]
        changed = [{mode // 2 for mode in set(c_in) ^ set(modes)} for _, modes in moved]
        if any(len(qubits) != 1 or len(set(modes)) != len(modes) for qubits, (_, modes) in zip(changed, moved)):
            raise ValueError(f"a traced term re-encodes more than one qubit: {c_in} -> {[m for _, m in moved]}")
        held, spanned = len(terms) > 1, {mode // 2 for _, modes in terms for mode in modes}
        if moved and held and (len(moved) != 1 or len(spanned) != 1 or [w for w, _ in terms] != [terms[0][0]] * 2):
            raise ValueError(f"several terms of {c_in} need a permuting term and one qubit, of equal weight: {terms}")
        read = 3 if held else 4
        for (weight, _), (target,) in zip(moved, changed):
            picks = [(m % 2, 1 + m % 2, 4, 1 + m % 2) for m in c_in]
            picks[target] = (2, 3, read, read)
            flips.add((math.sqrt(weight), *zip(*picks)))
    return sorted(flips)


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


def _flip_readings(flips: list, amps: np.ndarray, predicates: np.ndarray) -> np.ndarray:
    """Per residual mode, q, flip, qubit and tuple, the flip's factor where the tuple meets its predicate,
    else 0 (strict ones times sqrt(w) on the first qubit), from (q, qubit, mode, tuples) amplitudes and
    (q, qubit, predicate, tuples) predicates, so a flip reads the product over qubits."""
    gap = np.abs(amps[:, :, :1] - amps[:, :, 1:])
    # the sine as sqrt((a_0 - a_1)^2 / (2 (a_0^2 + a_1^2))), top and bottom quartered so no sum overflows
    half_sum = 0.5 * amps[:, :, :1] ** 2 + 0.5 * amps[:, :, 1:] ** 2
    one_zero = (amps[:, :, :1] == 0.0) != (amps[:, :, 1:] == 0.0)
    sine = np.where(one_zero, 1.0, np.sqrt(0.25 * gap**2 / np.where(half_sum > 0.0, half_sum, 1.0)))
    factors = np.concatenate([amps, gap, sine, np.ones_like(gap)], axis=2)
    qubits, picks = np.arange(amps.shape[1]), np.array([f[1:] for f in flips], np.intp).reshape(-1, 4, amps.shape[1])
    strict, collinear = (factors[:, qubits, picks[:, k]] * predicates[:, qubits, picks[:, k + 1]] for k in (0, 2))
    strict[:, :, 0] *= np.array([root for root, *_ in flips])[:, None]  # sqrt(w) rides on the first qubit
    return np.stack([strict, collinear])


def _sweep_block(flips: list, tables: tuple, stratum: tuple, samples: list) -> tuple:
    """One stratum's block at every q value, counted as a sweep of every row would: (per tally key, a
    (q, pattern) array of the admissible rows each pattern allows and the maxima and zero counts of
    both residual modes over them; per q, the exemplar rows (first admissible, first largest positive
    strict residual, first admissible rows that do and do not close it) and the first inadmissible
    row or None; the rows these and samples make, in order; their strict and collinear residuals and
    admissibility, (q, row) lists each, a row reading its tuples' entries of the tables the maxima
    read, 0.0 if inadmissible).  flips is _closed_forms(plan), tables _level_tables(spec, plan, ...)
    and the _exact_classes of the same q values and levels, stratum _qubit_tuples(...)."""
    step = max(1, _CHUNK_ENTRIES // stratum[2].size)
    batches = [[table[at : at + step] for table in tables] for at in range(0, len(tables[0]), step)]
    parts = [_sweep_q_axis(flips, batch, stratum) for batch in batches]
    tally = {key: np.concatenate([part[0][key] for part in parts]) for key in parts[0][0]}
    picked = [pick for part in parts for pick in part[1]]
    admissible, readings = (np.concatenate([part[k] for part in parts], axis=k - 2) for k in (2, 3))
    rows = sorted({*samples, *(row for pick in picked for row in (*pick[0], pick[1]) if row is not None)})
    qubits, at = np.arange(len(stratum[0]))[:, None], np.array(np.unravel_index(rows, stratum[0]))
    ok = admissible[:, qubits, at].all(axis=1)
    values = readings[:, :, :, qubits, at].prod(axis=3).max(axis=2, initial=0.0)
    return tally, picked, rows, [*np.where(ok, values, 0.0).tolist(), ok.tolist()]


def _sweep_q_axis(flips: list, tables: list, stratum: tuple) -> tuple:
    """_sweep_block's tallies and picks over (q, level, level) tables, with the per-qubit
    admissibility (q, qubit, tuples) and the flips' readings (_flip_readings).

    A row is admissible iff every qubit's tuple is, and a pattern allows it iff every qubit's tuple
    meets the pattern, so a count is a product over qubits.  A row fails a term iff every qubit's
    tuple meets the term's predicate: rows failing some term are counted by inclusion-exclusion,
    and a first row takes each qubit's first tuple that qualifies.  A flip's maximum in either mode
    is the product over qubits of the largest reading over the allowed tuples, so exactly 0 where
    every row closes, whatever its amplitudes round to."""
    sizes, pairs, restrictions = stratum
    # per q, each qubit's tuples' entries, (q, qubit, mode, tuples), tuples contiguous
    mode_admissible, amps, classes = (np.take(table.reshape(len(table), -1), pairs, axis=1) for table in tables)
    valid = restrictions[:, 0]  # the first pattern, (), allows every tuple but the padding
    admissible = np.asarray(_qubit_admissibility(mode_admissible)) & valid
    nonzero = classes != 0
    differ = [classes[:, :, :1] != classes[:, :, 1:], nonzero[:, :, :1] != nonzero[:, :, 1:]]
    predicates = np.concatenate([np.ones_like(nonzero[:, :, :1]), nonzero, *differ], axis=2)
    qubits, allowed = np.arange(len(sizes)), admissible[:, :, None] & restrictions
    strict, collinear = (sorted({flip[k] for flip in flips}) for k in (2, 4))

    # counted conditions: every row, then each set of strict and of collinear failing terms (signed
    # for inclusion-exclusion)
    subsets = [[s for n in range(len(t)) for s in itertools.combinations(t, n + 1)] for t in (strict, collinear)]
    groups = [[()], *subsets]
    conditions = [c for group in groups for c in group]
    every = predicates[:, :, 0]
    meets = [functools.reduce(operator.and_, [predicates[:, qubits, t] for t in c], every) for c in conditions]
    # per q and qubit, (pattern, tuple) by (tuple, condition) products count the tuples meeting both
    counted = np.rint(allowed.astype(float) @ np.stack(meets, axis=-1)).astype(np.intp).prod(axis=1)
    signs, (_, a, b) = np.array([(-1) ** len(c) for c in conditions]), itertools.accumulate(map(len, groups))
    tally = {"admissible": counted[..., 0]}
    for key, i, j in (("zero_strict", 1, a), ("zero_collinear", a, b)):
        tally[key] = counted[..., 0] + counted[..., i:j] @ signs[i:j]

    # per mode, q, flip and qubit the largest reading per pattern; their products are the flips' maxima
    readings = _flip_readings(flips, amps, predicates)
    largest = (allowed[:, None] * readings[..., None, :]).max(axis=-1)
    maxima = largest.prod(axis=3)
    tally["max_strict"], tally["max_collinear"] = maxima.max(axis=2, initial=0.0)

    # first rows over admissible tuples: every one, each flip's strict peaks, each strict term's failing
    # rows, and per choice of one predicate in each strict term the rows that miss them all (closing
    # rows); then per qubit, its first inadmissible tuple with every other qubit at its first tuple
    choices = list(itertools.product(*([(j, k) for j, k in enumerate(term) if k] for term in strict)))
    at_peak = np.moveaxis(readings[0] == largest[0, ..., :1], 1, 0)
    found = [predicates[:, :, 0], *at_peak, *(predicates[:, qubits, term] for term in strict)]
    for choice in choices:
        found.append(np.ones_like(admissible))
        for j, k in choice:
            found[-1][:, j] &= ~predicates[:, j, k]
    skips = np.where(np.eye(len(sizes), dtype=bool)[:, None, :, None], valid & ~admissible, valid)
    found = np.concatenate([np.stack(found) & admissible, skips])
    strides, rows_count = np.array([math.prod(sizes[j + 1 :]) for j in qubits], dtype=np.intp), math.prod(sizes)
    firsts = np.where(found.any(axis=-1).all(axis=-1), (found.argmax(axis=-1) * strides).sum(axis=-1), rows_count)
    first, largest, ends = firsts[0], tally["max_strict"][:, 0], np.cumsum([1, len(flips), len(strict), len(choices)])
    tops = [np.where(m[:, 0] == largest, rows, rows_count) for m, rows in zip(np.moveaxis(maxima[0], 1, 0), firsts[1:])]
    peak = np.where(largest > 0.0, np.min(tops, axis=0, initial=rows_count), first)
    opened, zero, skipped = (firsts[i:j].min(axis=0, initial=rows_count) for i, j in zip(ends[1:], [*ends[2:], None]))
    picked = [
        (list(dict.fromkeys(row for row in rows[:4] if row < rows_count)), rows[4] if rows[4] < rows_count else None)
        for rows in np.stack([first, peak, zero, opened, skipped], axis=1).astype(np.intp).tolist()
    ]
    return tally, picked, admissible, readings


# Where the float brackets keep the exact zeros and equalities the closed form's masks read, the dense
# path's strict residual lies within _ROUNDING eps S of the closed form's, S = sqrt(largest weight sum)
# times each qubit's larger amplitude, and its collinear one within _ROUNDING eps: both read the same
# float amplitudes and close the same terms, and S bounds every product of one amplitude per qubit.
# With u = eps / 2 and n <= 3 qubits, a dense entry rounds by at most (2n + 2) u S (n - 1 products and
# a coefficient per side, the difference), its norm over <= 8 entries by 10 u S and the closed form by
# (n + 4) u S: 25 u = 12.5 eps at n = 3.  A collinear reading is 0, 1 or a sine, rounded by a few u.
_ROUNDING = 16


def _rounding_bounds(brackets: np.ndarray, oracle: tuple) -> tuple:
    """The strict bounds of _ROUNDING per point of (points, arity, 2) brackets, and the collinear one."""
    _, _, inputs, _, coeffs, *_ = oracle
    weight_sum = np.bincount(inputs, np.abs(coeffs) ** 2).max()
    scale = math.sqrt(weight_sum) * bracket_roots(brackets)[1].max(axis=-1).prod(axis=-1)
    return _ROUNDING * sys.float_info.epsilon * scale, _ROUNDING * sys.float_info.epsilon


def _cross_check_samples(spec, oracle, samples) -> int:
    """Recompute sample rows, (q, psi, strict, collinear, admissible) each, through the dense path
    with the spec's _oracle_plan, every admissible one in one pass for both residual modes: a sample
    is admissible iff all its brackets are (qnum.bracket_roots), and its residuals agree within
    _rounding_bounds unless its float brackets lose an exact zero or equality of q^2 psi_a - psi_b
    that the closed form reads (_exact_classes: a bracket cancelling to 0.0 or rounding away from
    it, equal values rounded apart), which puts the dense path at another point.  Raise at the
    first failing sample, else return how many were checked in full: the inadmissible ones and
    those whose residuals were compared."""
    brackets = _dense_brackets(spec.arity, [s[:2] for s in samples])
    q_values, q_at = np.unique([s[0] for s in samples], return_inverse=True)
    levels, at = np.unique([s[1] for s in samples], return_inverse=True)
    at = at.reshape(len(samples), -1, 2)  # mode m reads psi columns 2m and 2m + 1
    exact = _exact_classes(q_values.tolist(), levels)[q_at.reshape(-1, 1), at[..., 0], at[..., 1]]
    exact = exact[:, : 2 * spec.arity].reshape(brackets.shape)[..., ::-1]  # bit b of slot j reads mode 2j + 1 - b
    zeros, ties = (brackets == 0.0) == (exact == 0), (exact != exact[..., ::-1]) | (brackets == brackets[..., ::-1])
    reasons = ("marked an admissible point as skipped", "admitted an inadmissible point")
    dense_ok = bracket_roots(brackets)[0].all(axis=(1, 2)).tolist()
    failures = {k: reasons[ok] for k, ((*_, ok), good) in enumerate(zip(samples, dense_ok)) if ok != good}
    faithful = (zeros & ties).all(axis=(1, 2)).tolist()
    kept = [k for k, sample in enumerate(samples) if sample[-1] and k not in failures and faithful[k]]
    strict_bounds, collinear_bound = _rounding_bounds(brackets[kept], oracle)
    for k, dense_strict, dense_collinear, bound in zip(kept, *_dense_residuals(brackets[kept], oracle), strict_bounds):
        _, _, strict, collinear, _ = samples[k]
        if not (abs(dense_strict - strict) <= bound and abs(dense_collinear - collinear) <= collinear_bound):
            failures[k] = "disagrees with the dense path"
    if failures:
        q, psi, *_ = samples[k := min(failures)]
        raise RuntimeError(f"sweep engine {failures[k]} at {spec.kind.value}, q={q!r}, psi={tuple(psi)!r}")
    return len(kept) + sum(not admissible for *_, admissible in samples)


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
    stratum's block tallies every q per candidate pattern in closed form, and the rows the reports
    show read the same closed form (_sweep_block); their samples are cross-checked against the
    dense path in one pass per gate (_cross_check_samples).  Counts are exact: tolerance decides
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
    flips = _closed_forms(plan)
    tables = (*_level_tables(spec, plan, q_values, levels, grid_codes), _exact_classes(q_values, levels))
    candidates = _candidate_patterns(claim, spec.arity)
    # claim plus assumptions, claim.auxiliary and () are all candidates, so all get tallied; () first
    patterns = sorted({pattern for _, pattern in candidates}, key=lambda pattern: (len(pattern), pattern))
    tallied, strata_summaries, checks = [], [], []
    for name, slots in _strata(spec.arity).items():
        count = len(grid) ** len(slots)
        step = max(1, count // 5)
        samples = sorted(i for i in {0, count // 2, count - 1, step, 2 * step, 3 * step} if i < count)
        stratum = _qubit_tuples(slots, spec.arity, levels, grid_codes, patterns)
        tally, picked, rows, values = _sweep_block(flips, tables, stratum, samples)
        tallied.append(tally)
        at, psi = np.unravel_index(rows, (len(grid),) * len(slots)), np.ones((len(rows), PSI_COUNT))
        for axis, indices in enumerate(slots):
            psi[:, indices] = np.array(grid)[at[axis], None]
        psi, first = dict(zip(rows, psi.tolist())), {key: table[:, 0].tolist() for key, table in tally.items()}
        for k, (q, (exemplars, skipped)) in enumerate(zip(q_values, picked)):
            seen = dict(zip(rows, zip(*(column[k] for column in values))))
            checks += [(q, psi[i], *seen[i]) for i in samples]
            summary = {"stratum": name, "q": q, "rows": count, "skipped": count - first["admissible"][k]}
            summary.update({key: column[k] for key, column in first.items()})
            summary["exemplars"] = [{"psi": psi[i], "strict": seen[i][0], "collinear": seen[i][1]} for i in exemplars]
            strata_summaries.append(summary | ({} if skipped is None else {"skipped_exemplar": {"psi": psi[skipped]}}))
    merged = {key: (np.max if key[:4] == "max_" else np.sum)([t[key] for t in tallied], axis=(0, 1)) for key in tally}
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
