"""Whole-grid oracles for the streamed constraint sweep.

whole_sweep assembles _sweep_pairs' slices into full-grid arrays; pattern_mask and
whole_block reduce such arrays over the whole grid with broadcast equality masks, an
independent reference for the slice-by-slice reductions and pattern row sets.
"""

import numpy as np

from qgatelab.constraints import _sweep_pairs, _sweep_plan


def whole_sweep(spec, q, levels, pairs) -> tuple:
    """(strict, collinear, admissible) over the row grid the pair codes span, of its shape,
    from _sweep_pairs' slices, which must tile the grid's rows in order."""
    shape = np.broadcast_shapes(*(np.shape(p) for p in pairs[: 2 * spec.arity]))
    rows = int(np.prod(shape))
    buffers = (np.empty(rows), np.empty(rows), np.empty(rows, dtype=bool))
    whole = (np.empty(rows), np.empty(rows), np.empty(rows, dtype=bool))
    covered = 0
    for first, *parts in _sweep_pairs(_sweep_plan(spec), q, levels, pairs, buffers):
        assert first == covered
        for array, part in zip(whole, parts):
            array[first : first + part.size] = part
        covered += parts[0].size
    assert covered == rows
    return tuple(array.reshape(shape) for array in whole)


def pattern_mask(columns: list, pattern) -> np.ndarray:
    """Rows meeting every psi_i = psi_j equality (equal psi values share a code), broadcastable."""
    mask = np.True_
    for i, j in pattern:
        mask = mask & (columns[i - 1] == columns[j - 1])
    return mask


def whole_block(columns: list, patterns, strict, collinear, admissible, tolerance: float) -> tuple:
    """Per pattern, the points, maxima and zero counts over the admissible rows its mask
    selects; the exemplar rows (first admissible, first strict arg-max if positive, first
    closing and first non-closing strict rows); and the first inadmissible row or None."""
    shape = admissible.shape
    strict, collinear, admissible = strict.ravel(), collinear.ravel(), admissible.ravel()
    tallies = {}
    for pattern in patterns:
        mask = np.broadcast_to(pattern_mask(columns, pattern), shape).ravel()
        tallies[pattern] = {
            "admissible": int(np.count_nonzero(admissible & mask)),
            "max_strict": float(strict.max(initial=0.0, where=mask)),
            "max_collinear": float(collinear.max(initial=0.0, where=mask)),
            "zero_strict": int(np.count_nonzero(admissible & (strict <= tolerance) & mask)),
            "zero_collinear": int(np.count_nonzero(admissible & (collinear <= tolerance) & mask)),
        }
    picks = []
    if admissible.any():
        first, peak = int(np.argmax(admissible)), int(np.argmax(strict))
        picks = [first, peak if strict[peak] > 0.0 else first]
        for rows in (admissible & (strict <= tolerance), admissible & (strict > tolerance)):
            picks += [int(np.argmax(rows))] if rows.any() else []
    skipped = None if admissible.all() else int(np.argmin(admissible))
    return tallies, list(dict.fromkeys(picks)), skipped
