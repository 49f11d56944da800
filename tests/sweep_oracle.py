"""Oracles for the per-bit-string table sweep.

grid_residuals applies the engine's residual formula (constraints._bit_string_gaps) to every
row of a grid at one q, with each level pair's amplitude from qnum.psi_bracket, and whole_block
reduces the result over the whole grid: this checks what the table engine adds to the formula
(the bracket table, q batches, qubit products, reach projections, zero counts, first rows).
check_dense compares per-row values with the dense path, which checks the formula itself.
"""

import functools
import math

import numpy as np
import pytest

from qgatelab import DeformationParams, NegativeRadicandError, psi_bracket
from qgatelab.constraints import _bit_string_gaps, _dense_brackets, _dense_residuals, _level_tables, _oracle_plan
from qgatelab.constraints import _pair_codes
from qgatelab.constraints import _stratum_columns, _stratum_plan, _sweep_block, _sweep_plan


def grid_residuals(spec, q, levels, pairs) -> tuple:
    """(strict, collinear, admissible) of the grid's shape at every row that per-mode pair codes
    (_pair_codes) span: the largest of the bit strings' gaps, 0.0 on inadmissible rows."""
    brackets = np.array([psi_bracket(1, q, a, b) for a in levels.tolist() for b in levels.tolist()])
    admissible_table, amp_table = brackets >= 0.0, np.sqrt(np.clip(brackets, 0.0, None))
    pairs = pairs[: 2 * spec.arity]  # the gate's own modes
    shape = np.broadcast_shapes(*(np.shape(p) for p in pairs))
    admissible = np.broadcast_to(functools.reduce(np.logical_and, [admissible_table[p] for p in pairs]), shape)
    gaps = [_bit_string_gaps(bit_plan, [amp_table[p] for p in pairs]) for bit_plan in _sweep_plan(spec)[2]]
    residuals = (functools.reduce(np.maximum, [g[mode] for g in gaps], np.zeros(shape)) for mode in (0, 1))
    return (*(np.where(admissible, r, 0.0) for r in residuals), admissible)


def pattern_mask(columns: list, pattern) -> np.ndarray:
    """Rows meeting every psi_i = psi_j equality (equal psi values share a code), broadcastable."""
    return functools.reduce(np.logical_and, [columns[i - 1] == columns[j - 1] for i, j in pattern], np.True_)


def whole_block(columns: list, patterns, strict, collinear, admissible, tolerance: float) -> tuple:
    """Per pattern, the points, maxima and zero counts over the admissible rows its mask
    selects; the exemplar rows (first admissible, first strict arg-max if positive, first
    closing and first non-closing strict rows); and the first inadmissible row or None."""
    shape = admissible.shape
    strict, collinear, admissible = strict.ravel(), collinear.ravel(), admissible.ravel()
    tallies = {}
    for pattern in patterns:
        mask = np.broadcast_to(pattern_mask(columns, pattern), shape).ravel()
        tally = tallies[pattern] = {"admissible": int(np.count_nonzero(admissible & mask))}
        for name, residual in (("strict", strict), ("collinear", collinear)):
            tally[f"max_{name}"] = float(residual.max(initial=0.0, where=mask))
            tally[f"zero_{name}"] = int(np.count_nonzero(admissible & (residual <= tolerance) & mask))
    picks = []
    if admissible.any():
        first, peak = int(np.argmax(admissible)), int(np.argmax(strict))
        picks = [first, peak if strict[peak] > 0.0 else first]
        for rows in (admissible & (strict <= tolerance), admissible & (strict > tolerance)):
            picks += [int(np.argmax(rows))] if rows.any() else []
    skipped = None if admissible.all() else int(np.argmin(admissible))
    return tallies, list(dict.fromkeys(picks)), skipped


def oracle_block(spec, q_values, levels, columns, patterns, samples, tolerance: float) -> list:
    """Per q, one stratum's block in _sweep_block's form from whole_block over grid_residuals at
    that q alone: tallies by pattern, exemplars, skipped row, and row -> (strict, collinear,
    admissible) there and at samples."""
    blocks = []
    for q in q_values:
        whole = grid_residuals(spec, q, levels, _pair_codes(columns, levels))
        tallies, exemplars, skipped = whole_block(columns, patterns, *whole, tolerance)
        rows = sorted({*samples, *exemplars, *([] if skipped is None else [skipped])})
        values = zip(*(array.ravel()[rows].tolist() for array in whole))
        blocks.append((tallies, exemplars, skipped, dict(zip(rows, values))))
    return blocks


def block_rows(spec, q_values, levels, grid_codes, slots) -> list:
    """Per q, the (strict, collinear, admissible) that the table engine (_sweep_block, all q
    values in one call) reads at every row of one stratum's grid, each of the grid's shape:
    every row is a sample row."""
    stratum = _stratum_plan(slots, spec.arity, _stratum_columns(slots, levels, grid_codes), levels, {()})
    rows = range(math.prod(stratum[0]))
    blocks = sweep_block(spec, q_values, levels, grid_codes, stratum, list(rows), 1e-12)
    return [tuple(np.array([seen[row][k] for row in rows]).reshape(stratum[0]) for k in range(3)) for *_, seen in blocks]


def sweep_block(spec, q_values, levels, grid_codes, stratum, samples, tolerance: float) -> list:
    """_sweep_block of one stratum plan at every q, on the range-checked tables of _level_tables."""
    plan = _sweep_plan(spec)
    tables = _level_tables(spec, plan, tuple(q_values), levels, grid_codes)
    return _sweep_block(plan, tables, stratum, samples, tolerance)


def check_dense(spec, q, psi_rows, strict, collinear, admissible) -> None:
    """Per row of psi values: an admissible row's residuals lie within 1e-12 of the dense path's,
    an inadmissible row's amplitude table fails with NegativeRadicandError."""
    plan = _oracle_plan(spec)
    for psi, *values, ok in zip(psi_rows, strict, collinear, admissible):
        params = DeformationParams(q, tuple(float(v) for v in psi))
        brackets = _dense_brackets(spec.arity, [(params.q, params.psi)])
        if ok:
            dense = [gaps[0] for gaps in _dense_residuals(brackets, plan)]
            assert all(abs(d - v) <= 1e-12 for d, v in zip(dense, values)), (psi, dense, values)
        else:
            with pytest.raises(NegativeRadicandError):
                _dense_residuals(brackets, plan)


def bits(value):
    """value with every float replaced by its hex form, so == compares bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    return type(value)(map(bits, value)) if isinstance(value, (list, tuple)) else value
