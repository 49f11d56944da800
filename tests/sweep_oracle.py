"""Whole-grid oracles for the closed-form sweep.

stratum_rows builds every psi row of a stratum's grid.  grid_facts decides every row on its own:
admissibility from the sign of qnum.psi_bracket, exact closure in both residual modes from
products of exact brackets (a term closes iff the product of q^2 psi_a - psi_b over its input
modes, taken as fractions of the float inputs, equals that over its picked modes), and the dense
path's residuals, which are 0.0 wherever the row closes exactly.  whole_block reduces those per
pattern; engine_block runs the sweep's blocks on the same grid.  So the counts, first rows and
maxima the sweep derives per qubit are checked against a row-by-row reduction that shares no
closed form with it.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from qgatelab import DeformationParams, GateSpec, NegativeRadicandError, gate_action_traced, psi_bracket
from qgatelab.constraints import _candidate_patterns, _closed_forms, _dense_brackets, _exact_classes, _grid_levels
from qgatelab.constraints import _level_tables, _qubit_tuples, _rounding_bounds, _sweep_block, _sweep_plan
from qgatelab.dense import _dense_residuals, _oracle_plan
from qgatelab.qnum import bracket_roots

# a few ulp: how far a maximum the sweep multiplies per qubit may sit from the dense path's
ULPS = 8


def stratum_rows(slots: tuple, grid) -> np.ndarray:
    """Float psi rows (rows, 12) in itertools.product order, 1.0 outside the stratum's slots."""
    picks = np.indices((len(grid),) * len(slots)).reshape(len(slots), -1)
    rows = np.ones((picks.shape[1], 12))
    for position, indices in enumerate(slots):
        rows[:, list(indices)] = np.asarray(grid, dtype=float)[picks[position], None]
    return rows


def _mode_pairs(rows: np.ndarray, arity: int) -> tuple:
    """The distinct (psi_a, psi_b) pairs of the gate's modes over all rows, and per mode each
    row's index into them (mode m reads psi columns 2m and 2m + 1)."""
    levels = np.unique(rows[:, : 4 * arity])
    codes = np.searchsorted(levels, rows[:, : 4 * arity])
    pair_codes = codes[:, ::2] * levels.size + codes[:, 1::2]
    present = np.zeros(levels.size**2, bool)
    present[pair_codes] = True
    pairs = np.flatnonzero(present)
    distinct = [(levels[p // levels.size].item(), levels[p % levels.size].item()) for p in pairs.tolist()]
    return distinct, list((np.cumsum(present) - 1)[pair_codes].T)


def _picked_modes(term, modes: list) -> list:
    """Per output slot of a traced term, the mode whose amplitude it holds: its source's input mode
    on a carried slot, the mode of the slot's own output bit on a flipped one."""
    return [2 * j + 1 - out if src is None else modes[src] for j, (src, out) in enumerate(zip(term.sources, term.bits))]


def exact_closure(spec: GateSpec, q: float, rows: np.ndarray, mode_pairs=None) -> tuple:
    """Per row, whether the identity closes exactly in the (strict, collinear) mode.

    A flip of c_in to c_out closes strictly iff every output term's amplitude product equals the
    input's; collinearly iff the output products are all equal and nonzero, or, for a zero input
    product, all zero.  Amplitude products compare as the products of their exact brackets, which
    share the factor 1/(q - 1/q) per mode, so the products of q^2 psi_a - psi_b, as fractions of
    the float inputs, decide.  Each distinct product gets a rank, ranked once per combination of
    mode values on large grids, so a row compares ranks."""
    pairs, index = mode_pairs or _mode_pairs(rows, spec.arity)
    exact = [Fraction(q) ** 2 * Fraction(a) - Fraction(b) for a, b in pairs]
    scale = math.lcm(*(value.denominator for value in exact))
    values = [int(value * scale) for value in exact]  # one denominator, so products compare as integers
    ranks, tables = {}, {}

    def product_ranks(modes: list) -> np.ndarray:
        if len(values) ** len(modes) > len(rows):  # fewer rows than products: rank each row's own
            combos = zip(*(index[m].tolist() for m in modes))
            return np.array([ranks.setdefault(math.prod(values[i] for i in combo), len(ranks)) for combo in combos])
        if len(modes) not in tables:
            combos = itertools.product(values, repeat=len(modes))
            tables[len(modes)] = np.array([ranks.setdefault(math.prod(combo), len(ranks)) for combo in combos])
        return tables[len(modes)][functools.reduce(lambda flat, m: flat * len(values) + index[m], modes, 0)]

    strict, collinear = np.ones(len(rows), bool), np.ones(len(rows), bool)
    for bits in itertools.product((0, 1), repeat=spec.arity):
        modes = [2 * j + 1 - b for j, b in enumerate(bits)]
        c_in = product_ranks(modes)
        outs = []
        for term in gate_action_traced(spec, bits):
            outs.append(product_ranks(_picked_modes(term, modes)))
        zero = ranks.get(0, -1)
        strict &= np.logical_and.reduce([out == c_in for out in outs])
        collinear &= np.logical_and.reduce([out == outs[0] for out in outs]) & ((c_in == zero) == (outs[0] == zero))
    return strict, collinear


def grid_facts(spec: GateSpec, q: float, rows: np.ndarray) -> dict:
    """Per row: admissible, the exact strict and collinear closure, the dense path's strict and
    collinear residuals (raw, and as the oracle reads them: 0.0 on a row that closes exactly and on
    an inadmissible row), and the engine's bounds on the dense path's rounding (_rounding_bounds:
    per row the strict one, 0.0 on an inadmissible row, and the collinear one)."""
    pairs, index = _mode_pairs(rows, spec.arity)
    brackets = np.array([psi_bracket(1, q, a, b) for a, b in pairs])[np.stack(index, axis=1)]
    admissible = (brackets >= 0.0).all(axis=1)
    # _dense_brackets order: per slot j, bit 0 then bit 1, which read modes 2j + 1 and 2j
    dense, strict_bounds = np.zeros((2, len(rows))), np.zeros(len(rows))
    ordered = brackets[admissible].reshape(-1, spec.arity, 2)[:, :, ::-1]
    strict_bounds[admissible], collinear_bound = _rounding_bounds(ordered, _oracle_plan(spec))
    if admissible.any():
        dense[:, admissible] = _dense_residuals(ordered, _oracle_plan(spec))
    closes = exact_closure(spec, q, rows, (pairs, index))
    read = [np.where(admissible & ~close, gap, 0.0) for gap, close in zip(dense, closes)]
    bounds = strict_bounds, collinear_bound
    return {"admissible": admissible, "closes": closes, "dense": dense, "read": read, "bounds": bounds}


def pattern_mask(rows: np.ndarray, pattern) -> np.ndarray:
    """Rows meeting every psi_i = psi_j equality of a pattern, compared as floats."""
    mask = np.ones(len(rows), bool)
    for i, j in pattern:
        mask &= rows[:, i - 1] == rows[:, j - 1]
    return mask


def whole_block(rows: np.ndarray, facts: dict, patterns) -> tuple:
    """Per pattern, the admissible rows it allows, their maxima and exact zero counts, and the first
    row at the strict maximum (None if it is 0.0); the exemplar rows (first admissible, first largest
    positive strict residual, first closing and first open strict rows) and the first inadmissible
    row or None."""
    admissible, (strict, collinear), closes = facts["admissible"], facts["read"], facts["closes"]
    tallies = {}
    for pattern in patterns:
        allowed = admissible & pattern_mask(rows, pattern)
        largest = float(strict.max(initial=0.0, where=allowed))
        tallies[pattern] = {
            "admissible": int(allowed.sum()),
            "max_strict": largest,
            "max_collinear": float(collinear.max(initial=0.0, where=allowed)),
            "zero_strict": int((allowed & closes[0]).sum()),
            "zero_collinear": int((allowed & closes[1]).sum()),
            "peak": int(np.argmax(allowed & (strict == largest))) if largest > 0.0 else None,
        }
    picks = []
    if admissible.any():
        first, largest = int(np.argmax(admissible)), strict.max(initial=0.0, where=admissible)
        picks = [first, int(np.argmax(admissible & (strict == largest))) if largest > 0.0 else first]
        picks += [int(np.argmax(found)) for found in (admissible & closes[0], admissible & ~closes[0]) if found.any()]
    skipped = None if admissible.all() else int(np.argmin(admissible))
    return tallies, list(dict.fromkeys(picks)), skipped


def engine_block(spec: GateSpec, q_values, grid, slots: tuple, patterns: list, samples: list) -> list:
    """Per q, the sweep's block of one stratum, all q values in one _sweep_block call: (tallies by
    pattern, exemplar rows, skipped row, row -> (strict, collinear, admissible) at its rows)."""
    levels, grid_codes = _grid_levels(grid)
    plan = _sweep_plan(spec)
    tables = (*_level_tables(spec, plan, tuple(q_values), levels, grid_codes), _exact_classes(tuple(q_values), levels))
    stratum = _qubit_tuples(slots, spec.arity, levels, grid_codes, patterns)
    tally, picked, rows, values = _sweep_block(_closed_forms(plan), tables, stratum, samples)
    return [
        (
            {p: {key: column[k][n].item() for key, column in tally.items()} for n, p in enumerate(patterns)},
            exemplars,
            skipped,
            dict(zip(rows, zip(*(column[k] for column in values)))),
        )
        for k, (exemplars, skipped) in enumerate(picked)
    ]


def ordered_patterns(claim, arity: int) -> list:
    """The candidate patterns of a claim in the order discover_constraints tallies them, () first."""
    patterns = {pattern for _, pattern in _candidate_patterns(claim, arity)}
    return sorted(patterns, key=lambda pattern: (len(pattern), pattern))


def assert_block_matches(got: tuple, expected: tuple, where, exact=None) -> None:
    """Counts, exemplar and skipped rows equal; maxima equal within ULPS ulp, 0.0 exactly where the
    oracle's is 0.0.  Given exact, the (spec, q, rows) of the block, a strict maximum further than
    ULPS ulp from the dense path's is held within ULPS ulp of the gap at the oracle's peak row taken
    to 50 digits from the float amplitudes both paths read (strict_gap_50_digits, float_amplitude):
    where the peak's amplitudes nearly cancel, the dense path's products round the gap by more."""
    tallies, exemplars, skipped, _ = got
    for pattern, want in expected[0].items():
        have = tallies[pattern]
        for key in ("admissible", "zero_strict", "zero_collinear"):
            assert have[key] == want[key], (*where, pattern, key, have[key], want[key])
        for key in ("max_strict", "max_collinear"):
            assert (have[key] == 0.0) == (want[key] == 0.0), (*where, pattern, key, have[key], want[key])
            reference = want[key]
            close = math.isclose(have[key], reference, rel_tol=ULPS * 2.0**-52)
            if not close and key == "max_strict" and exact is not None:
                spec, q, rows = exact
                reference = float(strict_gap_50_digits(spec, q, rows[want["peak"]].tolist(), float_amplitude))
                close = math.isclose(have[key], reference, rel_tol=ULPS * 2.0**-52)
            assert close, (*where, pattern, key, have[key], want[key], reference)
    assert exemplars == expected[1], (*where, exemplars, expected[1])
    assert skipped == expected[2], (*where, skipped, expected[2])


def assert_rows_match(seen: dict, facts: dict, where) -> None:
    """Each shown row (row -> strict, collinear, admissible) against grid_facts: admissibility equal,
    residuals within the engine's bounds of the dense path's, and 0.0 where the row closes exactly."""
    strict_bounds, collinear_bound = facts["bounds"]
    for row, (strict, collinear, admissible) in seen.items():
        assert admissible == facts["admissible"][row], (*where, row)
        bounds, closes = (strict_bounds[row], collinear_bound), [close[row] for close in facts["closes"]]
        for value, dense, bound, close in zip((strict, collinear), facts["dense"][:, row], bounds, closes):
            assert abs(value - dense) <= bound and (value == 0.0 or not close), (*where, row, value, dense, bound)


@functools.cache
def _amplitude_50_digits(q: float, psi_a: float, psi_b: float):
    """The root of the exact bracket of one mode pair (0 where it is negative), to 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        return mpmath.sqrt(max(mpmath.mpf(0), (q * q * mpmath.mpf(psi_a) - psi_b) / (q * q - 1)))


def float_amplitude(q: float, psi_a: float, psi_b: float):
    """The float amplitude of one mode pair both paths read, the root of psi_bracket (0 where it is
    negative), as an exact mpmath number."""
    import mpmath

    return mpmath.mpf(float(bracket_roots(psi_bracket(1, q, psi_a, psi_b))[1]))


def strict_gap_50_digits(spec: GateSpec, q: float, psi: list, amplitude=_amplitude_50_digits):
    """One row's strict gap to 50 digits: every input bit string's root sum of squared term gaps,
    each amplitude amplitude(q, psi_a, psi_b) (by default the root of its exact bracket), the
    largest of them."""
    import mpmath

    with mpmath.workdps(50):
        amps = [amplitude(q, psi[2 * m], psi[2 * m + 1]) for m in range(2 * spec.arity)]
        largest = mpmath.mpf(0)
        for bits in itertools.product((0, 1), repeat=spec.arity):
            modes = [2 * j + 1 - b for j, b in enumerate(bits)]
            c_in = mpmath.fprod(amps[m] for m in modes)
            gaps = []
            for term in gate_action_traced(spec, bits):
                c_out = mpmath.fprod(amps[m] for m in _picked_modes(term, modes))
                gaps.append(abs(term.coeff) ** 2 * (c_in - c_out) ** 2)
            largest = max(largest, mpmath.sqrt(mpmath.fsum(gaps)))
        return largest


def check_dense(spec, q, psi_rows, strict, collinear, admissible) -> None:
    """Per row of psi values: an admissible row's residuals lie within the engine's bounds of the
    dense path's (_rounding_bounds), an inadmissible row's amplitude table fails with
    NegativeRadicandError."""
    plan = _oracle_plan(spec)
    for psi, *values, ok in zip(psi_rows, strict, collinear, admissible):
        params = DeformationParams(q, tuple(float(v) for v in psi))
        brackets = _dense_brackets(spec.arity, [(params.q, params.psi)])
        if ok:
            dense = [gaps[0] for gaps in _dense_residuals(brackets, plan)]
            (strict_bound,), collinear_bound = _rounding_bounds(brackets, plan)
            bounds = strict_bound, collinear_bound
            assert all(abs(d - v) <= b for d, v, b in zip(dense, values, bounds)), (psi, dense, values, bounds)
        else:
            try:
                _dense_residuals(brackets, plan)
            except NegativeRadicandError:
                continue
            raise AssertionError(f"an inadmissible row passed the dense path: {psi}")
