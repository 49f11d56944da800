"""Brute-force audit of claimed parameter constraints on the deformed gate identities.

For each gate the claim table records which psi equalities are said to be
required for the deformed identity to close, together with the auxiliary
equalities the claim is conditioned on.  _dense_residuals measures how far
(q, psi) points are from closing the identity; discover_constraints sweeps
deterministic psi grids, classifies where the residual vanishes, searches for
the minimal sufficient equality pattern, and scores the claim.  Each (stratum,
q) block is swept slice by slice into reused buffers, each slice reduced to
counts, maxima and first rows per equality pattern; scoring reads only those.

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

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .gates import GateKind, GateSpec, gate_action_traced, gate_matrix
from .qdeform import OperatorConvention
from .qnum import PSI_COUNT, DeformationParams, NegativeRadicandError
from .schwinger import ExponentConvention, QubitEmbedding, amplitude_table

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


def _collinear_gaps(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per row (last axis), the sine of the angle between u and v; 0 for two zero rows, 1 for
    exactly one.

    Computed as the norm of v's component orthogonal to u over the norm of v,
    which stays accurate near perfect alignment (the 1 - cos^2 form loses half
    the significant digits there).
    """
    nu, nv = _row_norms(u), _row_norms(v)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero rows are settled below
        coefficient = np.sum(u.conj() * v, axis=-1) / (nu * nu)
        sine = np.minimum(1.0, _row_norms(v - coefficient[..., None] * u) / nv)
    return np.where((nu == 0.0) & (nv == 0.0), 0.0, np.where((nu == 0.0) | (nv == 0.0), 1.0, sine))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(rows.real**2 + rows.imag**2, axis=-1))


def _term_picks(bits: tuple, term) -> list:
    """Per output slot of a traced term, the (qubit, bit) whose amplitude it holds: the
    source qubit's input bit on a carried slot, the slot's own output bit on a flipped one."""
    return [
        (slot, out_bit) if src is None else (src, bits[src])
        for slot, (src, out_bit) in enumerate(zip(term.sources, term.bits))
    ]


def _oracle_plan(spec: GateSpec) -> tuple:
    """The input bit strings (all_bits order) and those columns of the undeformed gate matrix;
    per traced output term, its input's position, basis index, coefficient, and the qubits and
    bits of its amplitude picks."""
    emb, matrix = QubitEmbedding(spec.arity), gate_matrix(spec)
    every_bits = list(emb.all_bits())
    terms = [
        (k, emb.basis_index(term.bits), term.coeff, *zip(*_term_picks(bits, term)))
        for k, bits in enumerate(every_bits)
        for term in gate_action_traced(spec, bits)
    ]
    columns = matrix[:, [emb.basis_index(bits) for bits in every_bits]].T
    return (np.array(every_bits), columns, *map(np.array, zip(*terms)))


def _dense_sides(spec: GateSpec, q: float, points, plan: tuple) -> tuple:
    """Per (q, psi) point and input bit string, the gate applied to the deformed input ket and the
    traced action on deformed output kets: (len(points), 2**arity, dim) arrays.  A deformed ket
    has one nonzero entry, its amplitudes multiplied in slot order, so the gate applied to it is
    that column times the product, bit for bit.  A point whose [slot][bit] amplitude table is
    not real raises NegativeRadicandError.  plan is _oracle_plan(spec)."""
    bits, columns, inputs, rows, coeffs, pick_qubits, pick_bits = plan
    tables = np.array([amplitude_table(q, spec.arity, point) for point in points]).reshape(-1, spec.arity, 2)

    def products(qubits, picked) -> np.ndarray:
        return functools.reduce(operator.mul, np.moveaxis(tables[:, qubits, picked], -1, 0))

    lhs = columns * products(np.arange(spec.arity), bits)[..., None]
    rhs = np.zeros_like(lhs)
    rhs[:, inputs, rows] = coeffs * products(pick_qubits, pick_bits)
    return lhs, rhs


def _dense_residuals(spec: GateSpec, q: float, points, plan: tuple) -> tuple:
    """Per (q, psi) point, the worst (strict, collinear) gaps over the input bit strings.
    Deformed kets are creation-built, so they do not depend on the lowering-operator reading."""
    lhs, rhs = _dense_sides(spec, q, points, plan)
    return _row_norms(lhs - rhs).max(axis=-1, initial=0.0), _collinear_gaps(lhs, rhs).max(axis=-1, initial=0.0)


def _strata(arity: int) -> dict:
    """Sweep strata in sweep order: name -> per free grid slot, the 0-based psi columns it fills.

    A stratum's rows form a grid with one axis per slot (see _stratum_columns).
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


# Most rows per slice of a stratum's grid (at least one index of its last axis).  Every sweep
# operation is per row and every reduction a count, a maximum or a first row, so slicing only
# bounds the working set, bit for bit.
_SLICE_ROWS = 1 << 16


def _slice_geometry(shape: tuple) -> tuple:
    """(axis, step, rows): a slice fixes the axes before axis, the first whose trailing axes fit
    in _SLICE_ROWS, takes up to step indices of it and all after it: at most rows rows."""
    axis = next(k for k in range(len(shape)) if math.prod(shape[k + 1 :]) <= _SLICE_ROWS or k == len(shape) - 1)
    trailing = math.prod(shape[axis + 1 :])
    step = max(1, _SLICE_ROWS // trailing)
    return axis, step, min(step, shape[axis]) * trailing


def _grid_levels(grid) -> tuple:
    """Sorted distinct psi levels (the grid plus the 1.0 filler) and each grid value's code.

    A code is a rank into levels, held in the narrowest unsigned dtype that
    fits every rank, so equal psi values get equal codes and no code wraps.
    """
    grid = np.asarray(grid, dtype=float)
    levels = np.array(sorted(set(grid.tolist()) | {1.0}))
    codes = np.searchsorted(levels, grid).astype(np.min_scalar_type(levels.size - 1))
    return levels, codes


def _stratum_columns(slots: tuple, levels: np.ndarray, grid_codes: np.ndarray) -> list:
    """Level codes of the PSI_COUNT psi columns over one stratum's (len(grid),) * len(slots) grid.

    slots is the stratum's entry in _strata; raveled in C order the grid's rows come in
    itertools.product order (last slot fastest).  A column filled by slot k holds the
    grid's codes along axis k; a column no slot fills holds the 1.0 filler's code, 0-d.
    """
    filler = np.asarray(np.searchsorted(levels, 1.0), dtype=grid_codes.dtype)
    columns = [filler] * PSI_COUNT
    for position, indices in enumerate(slots):
        axis_shape = [1] * len(slots)
        axis_shape[position] = grid_codes.size
        for index in indices:
            columns[index] = grid_codes.reshape(axis_shape)
    return columns


def _pair_codes(columns: list, levels: np.ndarray) -> list:
    """Per mode m, code_a * levels.size + code_b of psi columns 2m and 2m + 1, in a dtype that
    holds every pair code and on the broadcast shape of the two columns."""
    pair_dtype = np.min_scalar_type(levels.size**2 - 1)
    return [columns[a].astype(pair_dtype) * levels.size + columns[a + 1] for a in range(0, len(columns), 2)]


def _pattern_rows(slots: tuple, patterns, grid_codes: np.ndarray, filler: int) -> tuple:
    """Per pattern, a key naming the rows of one stratum's grid meeting its psi_i = psi_j
    equalities (None: every row), and per key those rows as (head, starts, inner) arrays.

    Equalities partition the slot axes and the 1.0 filler (one index of the filler's code);
    a part allows the index tuples of one code, so duplicate grid values stay exact.  Rows
    are the outer sum of the parts' offsets: inner over the parts within a slice's trailing
    axes (_slice_geometry), head over the others, sorted by starts, their slice's first row.
    """
    shape = (grid_codes.size,) * len(slots)
    axis = _slice_geometry(shape)[0]
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


def _slice_rows(row_set: tuple, first: int, count: int) -> np.ndarray:
    """The rows of a _pattern_rows row set in the slice of count rows from first, from first."""
    head, starts, inner = row_set
    low, high = np.searchsorted(starts, (first, first + count))
    return np.add.outer(head[low:high] - first, inner).ravel()


def _sweep_plan(spec: GateSpec) -> tuple:
    """(arity, largest weight sum, per input bit string that can leave a gap: the input modes,
    the weight sum, and each output term's weight and modes); qubit j holding bit b reads mode
    2j + 1 - b.  A lone weight-1 term on the input's own modes, in order, is an exact zero."""
    plan, largest_weight_sum = [], 0.0
    for bits in itertools.product((0, 1), repeat=spec.arity):
        c_in = [2 * j + 1 - b for j, b in enumerate(bits)]
        terms = [
            (abs(term.coeff) ** 2, [2 * j + 1 - b for j, b in _term_picks(bits, term)])
            for term in gate_action_traced(spec, bits)
        ]
        weight_sum = sum(weight for weight, _ in terms)
        largest_weight_sum = max(largest_weight_sum, weight_sum)
        if terms != [(1.0, c_in)]:
            plan.append((c_in, weight_sum, terms))
    return spec.arity, largest_weight_sum, plan


def _level_tables(q: float, levels: np.ndarray) -> tuple:
    """Per level pair, whether its mode bracket is admissible and its amplitude; the bracket
    is written as psi_bracket writes it (q - 1/q can be a few ulp)."""
    brackets = (q * levels[:, None] - q**-1 * levels[None, :]) / (q - 1.0 / q)
    return brackets >= 0.0, np.sqrt(np.clip(brackets, 0.0, None))


def _check_overflow(spec: GateSpec, q: float, levels: np.ndarray, grid_codes: np.ndarray, plan: tuple) -> None:
    """Raise OverflowError unless the largest admissible amplitude of two grid levels (the 1.0
    filler only pairs with itself, amplitude 1) to the power 2 * arity, times the largest
    weight sum, is finite: the sweep's exact zeros hold while every product and square is."""
    arity, largest_weight_sum, _ = plan
    admissible_table, amp_table = _level_tables(q, levels)
    in_grid = np.bincount(grid_codes, minlength=levels.size) > 0
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


def _sweep_pairs(plan: tuple, q: float, levels: np.ndarray, pairs: list, buffers: tuple):
    """Vectorized residuals at one q on the row grid that per-mode pair codes (_pair_codes, each
    a scalar or of the grid's full rank; flat rows are the 1-D case) span, a slice at a time
    in C order (_slice_geometry): yields (first row, strict, collinear, admissible), flat
    views into buffers that the next slice overwrites, 0.0 on inadmissible rows.  plan is
    _sweep_plan(spec), checked by _check_overflow at q."""
    admissible_table, amp_table = (table.ravel() for table in _level_tables(q, levels))
    pairs = pairs[: 2 * plan[0]]  # the gate's own modes
    shape = np.broadcast_shapes(*(np.shape(p) for p in pairs))
    axis, step, _ = _slice_geometry(shape)
    first = 0
    for prefix in np.ndindex(*shape[:axis]):
        for start in range(0, shape[axis], step):
            window = (*(slice(i, i + 1) for i in prefix), slice(start, start + step))
            sliced = [p[tuple(w if n > 1 else slice(None) for w, n in zip(window, p.shape))] for p in pairs]
            view_shape = (1,) * axis + (min(step, shape[axis] - start),) + shape[axis + 1 :]
            flat = [buffer[: math.prod(view_shape)] for buffer in buffers]
            views = [view.reshape(view_shape) for view in flat]
            _slice_residuals(plan[2], [amp_table[p] for p in sliced], [admissible_table[p] for p in sliced], *views)
            yield first, *flat
            first += flat[0].size


def _slice_residuals(bit_plans: list, amps: list, admissibles: list, strict, collinear, admissible) -> None:
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


def _reduce_block(slices, rows_of: dict, samples: list, tolerance: float) -> tuple:
    """Reduce one (stratum, q) block's slices (_sweep_pairs) as they come, exactly: per row set
    of _pattern_rows by key (None: every row), the points, maxima and zero counts of both modes
    over its admissible rows; the exemplar rows (first admissible, first largest positive
    strict residual, first admissible rows that do and do not close it); the first
    inadmissible row or None; row -> (strict, collinear, admissible) there and at samples."""
    tallies, marks, peak, seen = {}, dict.fromkeys(("first", "peak", "zero", "open", "skipped")), 0.0, {}
    for first, strict, collinear, admissible in slices:
        zero = {"strict": admissible & (strict <= tolerance), "collinear": admissible & (collinear <= tolerance)}
        for key in (None, *rows_of):
            rows = slice(None) if key is None else _slice_rows(rows_of[key], first, admissible.size)
            part = {"admissible": int(np.count_nonzero(admissible[rows]))}
            for mode, residual in (("strict", strict), ("collinear", collinear)):
                part[f"max_{mode}"] = float(residual[rows].max(initial=0.0))
                part[f"zero_{mode}"] = int(np.count_nonzero(zero[mode][rows]))
            tallies[key] = _merge_tallies(tallies[key], part) if key in tallies else part
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


def _cross_check_samples(spec, q, plan, samples) -> int:
    """Recompute sample rows, (psi, strict, collinear, admissible) each, through the dense path
    with the spec's _oracle_plan, every admissible one in one pass for both residual modes;
    an inadmissible one must fail its amplitude table.  Raise on mismatch."""
    points = [DeformationParams(q, tuple(psi)) for psi, *_ in samples]
    where = [f"{spec.kind.value}, q={q!r}, psi={point.psi!r}" for point in points]
    for point, at, (*_, admissible) in zip(points, where, samples):
        if admissible:
            continue
        try:
            amplitude_table(q, spec.arity, point)
        except NegativeRadicandError:
            continue
        raise RuntimeError(f"sweep engine marked an admissible point as skipped at {at}")
    kept = [index for index, sample in enumerate(samples) if sample[3]]
    dense = _dense_residuals(spec, q, [points[index] for index in kept], plan)
    for index, dense_strict, dense_collinear in zip(kept, *dense):
        _, strict, collinear, _ = samples[index]
        if abs(dense_strict - strict) > 1e-10 or abs(dense_collinear - collinear) > 1e-10:
            raise RuntimeError(f"sweep engine disagrees with the dense path at {where[index]}")
    return len(samples)


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
        return {field.name: getattr(self, field.name) for field in fields(self)}


def _closes(tally: dict, mode: str, tolerance: float) -> bool:
    """At least two points, and the identity closes at all of them in this residual mode."""
    return tally["admissible"] >= 2 and tally[f"max_{mode}"] <= tolerance


def _merge_tallies(first: dict, second: dict) -> dict:
    return {key: (max if key.startswith("max_") else operator.add)(first[key], second[key]) for key in first}


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
    be positive.  Both plans and the slice buffers are built once per call,
    and every q is checked for overflow before the first block.  Each
    (stratum, q) block runs the vectorized engine on the stratum's row grid
    slice by slice, each slice tallied per candidate pattern's row set, and
    has deterministic sample rows cross-checked against the dense path (both
    residual modes in one pass) before the next block runs.  Summaries,
    totals, the minimal-pattern search and the verdicts read only the
    tallies.  Raises OverflowError when a q and the grid's largest amplitude
    overflow the sweep's products.
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
    oracle, plan = _oracle_plan(spec), _sweep_plan(spec)
    for q in q_values:
        _check_overflow(spec, q, levels, grid_codes, plan)
    candidates = _candidate_patterns(claim, spec.arity)
    # claim plus assumptions, claim.auxiliary and () are all candidates, so all get tallied
    claimed = claim.equalities + claim.auxiliary
    patterns = {pattern for _, pattern in candidates}
    strata = _strata(spec.arity)
    largest = max(_slice_geometry((grid_codes.size,) * len(slots))[2] for slots in strata.values())
    buffers = np.empty(largest), np.empty(largest), np.empty(largest, dtype=bool)
    tallies, strata_summaries, samples_checked = {}, [], 0
    for name, slots in strata.items():
        columns = _stratum_columns(slots, levels, grid_codes)
        pairs = _pair_codes(columns, levels)
        keys, rows_of = _pattern_rows(slots, patterns, grid_codes, int(np.searchsorted(levels, 1.0)))
        columns = np.broadcast_arrays(*columns)
        count = columns[0].size
        step = max(1, count // 5)
        samples = sorted(i for i in {0, count // 2, count - 1, step, 2 * step, 3 * step} if i < count)
        for q in q_values:
            slices = _sweep_pairs(plan, q, levels, pairs, buffers)
            block, exemplars, skipped, seen = _reduce_block(slices, rows_of, samples, tolerance)
            wanted = [*samples, *exemplars, *([] if skipped is None else [skipped])]
            at = np.unravel_index(wanted, columns[0].shape)
            psi = dict(zip(wanted, levels[np.stack([column[at] for column in columns], axis=-1)].tolist()))
            samples_checked += _cross_check_samples(spec, q, oracle, [(psi[i], *seen[i]) for i in samples])
            summary = {"stratum": name, "q": float(q), "rows": count, "skipped": count - block[None]["admissible"]}
            exemplars = [{"psi": psi[i], "strict": seen[i][0], "collinear": seen[i][1]} for i in exemplars]
            summary.update(block[None], exemplars=exemplars)
            if skipped is not None:
                summary["skipped_exemplar"] = {"psi": psi[skipped]}
            strata_summaries.append(summary)
            for pattern, key in keys.items():
                tallies[pattern] = _merge_tallies(tallies[pattern], block[key]) if pattern in tallies else block[key]
    rows = sum(summary["rows"] for summary in strata_summaries)

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
