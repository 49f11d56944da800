"""The row engine: a bit-for-bit oracle for the per-bit-string table sweep, and whole-grid
oracles for both.

sweep_pairs computes strict and collinear residuals and admissibility for every row of a
stratum's grid, a slice of at most SLICE_ROWS rows at a time (slice_geometry), and
reduce_block reduces the slices as they come to per-pattern tallies, exemplar rows and
sampled rows, a pattern's rows in a slice found from axis partitions (pattern_rows,
slice_rows).  whole_sweep assembles the slices into full-grid arrays; pattern_mask and
whole_block reduce such arrays over the whole grid with broadcast equality masks.
block_rows reads the table engine (constraints._sweep_block) at every row of a grid.
"""

import bisect
import functools
import itertools
import math
import operator

import numpy as np

from qgatelab.constraints import _level_tables, _stratum_columns, _stratum_plan, _sweep_block, _sweep_plan
from qgatelab.constraints import _merge_tallies as merge_tallies


# Most rows per slice of a stratum's grid (at least one index of its last axis).  Every sweep
# operation is per row and every reduction a count, a maximum or a first row, so slicing only
# bounds the working set, bit for bit.
SLICE_ROWS = 1 << 16


def slice_geometry(shape: tuple) -> tuple:
    """(axis, step, rows): a slice fixes the axes before axis, the first whose trailing axes fit
    in SLICE_ROWS, takes up to step indices of it and all after it: at most rows rows."""
    axis = next(k for k in range(len(shape)) if math.prod(shape[k + 1 :]) <= SLICE_ROWS or k == len(shape) - 1)
    trailing = math.prod(shape[axis + 1 :])
    step = max(1, SLICE_ROWS // trailing)
    return axis, step, min(step, shape[axis]) * trailing


def pattern_rows(slots: tuple, patterns, grid_codes: np.ndarray, filler: int) -> tuple:
    """Per pattern, a key naming the rows of one stratum's grid meeting its psi_i = psi_j
    equalities (None: every row), and per key those rows as (head, starts, inner) arrays.

    Equalities partition the slot axes and the 1.0 filler (one index of the filler's code);
    a part allows the index tuples of one code, so duplicate grid values stay exact.  Rows
    are the outer sum of the parts' offsets: inner over the parts within a slice's trailing
    axes (slice_geometry), head over the others, sorted by starts, their slice's first row.
    """
    shape = (grid_codes.size,) * len(slots)
    axis = slice_geometry(shape)[0]
    strides = np.array([math.prod(shape[k + 1 :]) for k in range(len(shape))] + [0])
    node = {index: position for position, indices in enumerate(slots) for index in indices}
    by_code = {code: np.flatnonzero(grid_codes == code).tolist() for code in set(grid_codes.tolist()) | {filler}}

    def key(pattern):
        label = list(range(len(slots) + 1))
        for i, j in pattern:
            tied = label[node.get(i - 1, len(slots))], label[node.get(j - 1, len(slots))]
            label = [tied[0] if x == tied[1] else x for x in label]
        parts = tuple(sorted({tuple(k for k in range(len(label)) if label[k] == x) for x in label}))
        return parts if len(parts) < len(label) else None

    def row_set(parts) -> tuple:
        inner, head, starts = (np.zeros(1, dtype=np.intp) for _ in range(3))
        for part in parts:
            # per code, the tuples of the part's indices holding it (the filler's one index: 0)
            same = [[[0] * (c == filler) if k == len(slots) else by_code[c] for k in part] for c in by_code]
            tuples = [t for indices in same for t in itertools.product(*indices)]
            tuples = np.array(tuples, dtype=np.intp).reshape(-1, len(part))
            offsets, heads = tuples @ strides[list(part)], sum(k <= axis for k in part)
            if heads:
                head = np.add.outer(offsets, head).ravel()
                starts = np.add.outer(tuples[:, :heads] @ strides[list(part[:heads])], starts).ravel()
            else:
                inner = np.add.outer(offsets, inner).ravel()
        order = np.argsort(starts)
        return head[order], starts[order], inner

    keys = {pattern: key(pattern) for pattern in patterns}
    return keys, {k: row_set(k) for k in set(keys.values()) - {None}}


def slice_rows(row_set: tuple, first: int, count: int) -> np.ndarray:
    """The rows of a pattern_rows row set in the slice of count rows from first, from first."""
    head, starts, inner = row_set
    low, high = np.searchsorted(starts, (first, first + count))
    return np.add.outer(head[low:high] - first, inner).ravel()


def sweep_pairs(plan: tuple, q: float, levels: np.ndarray, pairs: list, buffers: tuple):
    """Vectorized residuals at one q on the row grid that per-mode pair codes (_pair_codes, each
    a scalar or of the grid's full rank; flat rows are the 1-D case) span, a slice at a time
    in C order (slice_geometry): yields (first row, strict, collinear, admissible), flat
    views into buffers that the next slice overwrites, 0.0 on inadmissible rows.  plan is
    _sweep_plan(spec), checked by _check_overflow at q."""
    admissible_table, amp_table = (table.ravel() for table in _level_tables(q, levels))
    pairs = pairs[: 2 * plan[0]]  # the gate's own modes
    shape = np.broadcast_shapes(*(np.shape(p) for p in pairs))
    axis, step, _ = slice_geometry(shape)
    first = 0
    for prefix in np.ndindex(*shape[:axis]):
        for start in range(0, shape[axis], step):
            window = (*(slice(i, i + 1) for i in prefix), slice(start, start + step))
            sliced = [p[tuple(w if n > 1 else slice(None) for w, n in zip(window, p.shape))] for p in pairs]
            view_shape = (1,) * axis + (min(step, shape[axis] - start),) + shape[axis + 1 :]
            flat = [buffer[: math.prod(view_shape)] for buffer in buffers]
            views = [view.reshape(view_shape) for view in flat]
            slice_residuals(plan[2], [amp_table[p] for p in sliced], [admissible_table[p] for p in sliced], *views)
            yield first, *flat
            first += flat[0].size


def slice_residuals(bit_plans: list, amps: list, admissibles: list, strict, collinear, admissible) -> None:
    """Write one slice's residuals into its views, from its modes' amplitudes and admissibility;
    a function of its own so that its temporaries are freed before the slice is reduced.

    The formulation mirrors the dense path exactly: per input bit string the output terms live
    on distinct basis kets, so the strict gap is the root sum of squared per-term amplitude
    gaps and the collinear gap comes from the cosine between the two coefficient vectors.
    Each bit string computes on the broadcast shape of the modes it reads, the same
    operations in the same order for every row."""

    def product(modes: list):
        return functools.reduce(operator.mul, [amps[mode] for mode in modes])

    np.copyto(admissible, functools.reduce(np.logical_and, admissibles))
    strict[...] = collinear[...] = 0.0
    for c_in_modes, weight_sum, term_modes in bit_plans:
        c_in = product(c_in_modes)
        terms = [(weight, product(modes)) for weight, modes in term_modes]
        strict_here = np.sqrt(sum(weight * (c_in - c_out) ** 2 for weight, c_out in terms))
        lhs_sq = weight_sum * c_in**2
        rhs_sq = sum(weight * c_out**2 for weight, c_out in terms)
        dot = c_in * sum(weight * c_out for weight, c_out in terms)
        both_zero = (lhs_sq == 0.0) & (rhs_sq == 0.0)
        one_zero = (lhs_sq == 0.0) ^ (rhs_sq == 0.0)
        # rejection form of the sine, mirroring _collinear_gaps
        coefficient = dot / np.where(lhs_sq > 0.0, lhs_sq, 1.0)
        rejection_sq = sum(weight * (c_out - coefficient * c_in) ** 2 for weight, c_out in terms)
        safe_rhs = np.where(rhs_sq > 0.0, rhs_sq, 1.0)
        collinear_here = np.minimum(1.0, np.sqrt(rejection_sq / safe_rhs))
        collinear_here = np.where(both_zero, 0.0, np.where(one_zero, 1.0, collinear_here))
        np.maximum(strict, strict_here, out=strict)
        np.maximum(collinear, collinear_here, out=collinear)
    inadmissible = ~admissible
    strict[inadmissible] = collinear[inadmissible] = 0.0


def reduce_block(slices, rows_of: dict, samples: list, tolerance: float) -> tuple:
    """Reduce one (stratum, q) block's slices (sweep_pairs) as they come, exactly: per row set
    of pattern_rows by key (None: every row), the points, maxima and zero counts of both modes
    over its admissible rows; the exemplar rows (first admissible, first largest positive
    strict residual, first admissible rows that do and do not close it); the first
    inadmissible row or None; row -> (strict, collinear, admissible) there and at samples."""
    tallies, marks, peak, seen = {}, dict.fromkeys(("first", "peak", "zero", "open", "skipped")), 0.0, {}
    for first, strict, collinear, admissible in slices:
        zero = {"strict": admissible & (strict <= tolerance), "collinear": admissible & (collinear <= tolerance)}
        for key in (None, *rows_of):
            rows = slice(None) if key is None else slice_rows(rows_of[key], first, admissible.size)
            part = {"admissible": int(np.count_nonzero(admissible[rows]))}
            for mode, residual in (("strict", strict), ("collinear", collinear)):
                part[f"max_{mode}"] = float(residual[rows].max(initial=0.0))
                part[f"zero_{mode}"] = int(np.count_nonzero(zero[mode][rows]))
            tallies[key] = merge_tallies(tallies[key], part) if key in tallies else part
        opened = admissible > zero["strict"]
        for mark, rows in (("first", admissible), ("zero", zero["strict"]), ("open", opened), ("skipped", ~admissible)):
            at = int(np.argmax(rows))
            marks[mark] = first + at if marks[mark] is None and rows[at] else marks[mark]
        at = int(np.argmax(strict))
        if strict[at] > peak:
            peak, marks["peak"] = float(strict[at]), first + at
        in_slice = samples[bisect.bisect_left(samples, first) : bisect.bisect_left(samples, first + admissible.size)]
        for row in (*in_slice, *marks.values()):
            if row is not None and first <= row < first + admissible.size:
                seen[row] = float(strict[row - first]), float(collinear[row - first]), bool(admissible[row - first])
    picks = (marks["first"], marks["first"] if marks["peak"] is None else marks["peak"], marks["zero"], marks["open"])
    exemplars = list(dict.fromkeys(row for row in picks if row is not None))
    return tallies, exemplars, marks["skipped"], seen


def whole_sweep(spec, q, levels, pairs) -> tuple:
    """(strict, collinear, admissible) over the row grid the pair codes span, of its shape,
    from sweep_pairs' slices, which must tile the grid's rows in order."""
    shape = np.broadcast_shapes(*(np.shape(p) for p in pairs[: 2 * spec.arity]))
    rows = int(np.prod(shape))
    buffers = (np.empty(rows), np.empty(rows), np.empty(rows, dtype=bool))
    whole = (np.empty(rows), np.empty(rows), np.empty(rows, dtype=bool))
    covered = 0
    for first, *parts in sweep_pairs(_sweep_plan(spec), q, levels, pairs, buffers):
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


def block_rows(spec, q, levels, grid_codes, slots) -> tuple:
    """(strict, collinear, admissible) that the table engine (_sweep_block) reads at every row of
    one stratum's grid, each of the grid's shape: every row is a sample row."""
    stratum = _stratum_plan(slots, spec.arity, _stratum_columns(slots, levels, grid_codes), levels, {()})
    rows = range(math.prod(stratum[0]))
    seen = _sweep_block(_sweep_plan(spec), q, levels, stratum, list(rows), 1e-12)[3]
    return tuple(np.array([seen[row][k] for row in rows]).reshape(stratum[0]) for k in range(3))
