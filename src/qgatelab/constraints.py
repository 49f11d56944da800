"""Brute-force audit of claimed parameter constraints on the deformed gate identities.

For each gate the claim table records which psi equalities are said to be
required for the deformed identity to close, together with the auxiliary
equalities the claim is conditioned on.  _dense_residuals measures how far
(q, psi) points are from closing the identity; discover_constraints sweeps
deterministic psi grids, classifies where the residual vanishes, searches for
the minimal sufficient equality pattern, and scores the claim.  One block per
stratum sweeps every q value and computes none of its rows: each input bit
string gets strict and collinear tables over q and the grid axes of the modes
it reads, each qubit an admissibility table over q and its own axes.  Per q, a
block's counts, maxima, zero counts and first rows per equality pattern come
from those small tables, exactly as a row sweep would give them; scoring reads
only those.  tests/sweep_oracle.py is their bit-for-bit oracle: _bit_string_gaps
at every row of a grid at one q, reduced over the whole grid with equality
masks.  The dense path checks sample rows of every block, once per gate.

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
import operator
import sys
from dataclasses import dataclass, fields

import numpy as np

from .gates import DISCOVERY_PHI, GateKind, GateSpec, gate_action_traced, gate_matrix
from .qdeform import OperatorConvention
from .qnum import PSI_COUNT, NegativeRadicandError, _check_q, bracket, power, psi_bracket
from .schwinger import ExponentConvention, QubitEmbedding

__all__ = [
    "CLAIMS",
    "ConstraintClaim",
    "ConstraintReport",
    "discover_constraints",
    "hadamard_closure_ratio",
]

DEFAULT_GRID = (0.5, 1.0, 2.0, 4.0)
DEFAULT_Q_VALUES = (0.5, 0.9, 1.1, 2.0)


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
    q = _check_q(q)
    subject = f"the closure ratio audit at n1={n1}, q={q!r}"
    numerator = (1 - n1) * power(q, -n1, subject) - n1 * power(q, n1 + 1, subject)
    denominator = (1 - n1) * power(q, n1, subject) - n1 * power(q, n1 - 1, subject)
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


def _dense_brackets(arity: int, points) -> np.ndarray:
    """Per (q, psi) point, the level-1 brackets whose roots make its [slot][bit] amplitude table
    (amplitude_table: bit b of slot j reads psi columns 4j + 2 - 2b and 4j + 3 - 2b), as an
    (len(points), arity, 2) array; psi_bracket runs once per distinct (q, psi_a, psi_b)."""
    level_one = functools.cache(functools.partial(psi_bracket, 1))
    columns = [4 * j + 2 - 2 * b for j in range(arity) for b in (0, 1)]
    return np.array([[level_one(q, psi[c], psi[c + 1]) for c in columns] for q, psi in points]).reshape(-1, arity, 2)


def _dense_sides(brackets: np.ndarray, plan: tuple) -> tuple:
    """Per point of _dense_brackets and input bit string, the gate applied to the deformed input
    ket and the traced action on deformed output kets: (len(brackets), 2**arity, dim) arrays.  A
    deformed ket has one nonzero entry, its amplitudes multiplied in slot order, so the gate
    applied to it is that column times the product, bit for bit.  A negative bracket raises
    NegativeRadicandError, as amplitude_table does.  plan is _oracle_plan(spec)."""
    bits, columns, inputs, rows, coeffs, pick_qubits, pick_bits = plan
    if (brackets < 0.0).any():
        raise NegativeRadicandError(1, float(brackets[brackets < 0.0][0]))
    tables = np.sqrt(brackets)

    def products(qubits, picked) -> np.ndarray:
        return functools.reduce(operator.mul, np.moveaxis(tables[:, qubits, picked], -1, 0))

    lhs = columns * products(np.arange(tables.shape[1]), bits)[..., None]
    rhs = np.zeros_like(lhs)
    rhs[:, inputs, rows] = coeffs * products(pick_qubits, pick_bits)
    return lhs, rhs


def _dense_residuals(brackets: np.ndarray, plan: tuple) -> tuple:
    """Per point of _dense_brackets, the worst (strict, collinear) gaps over the input bit strings
    (sides built _CHUNK_ENTRIES entries at a time); creation-built kets ignore the lowering reading."""
    gaps, step = np.zeros((2, len(brackets))), max(1, _CHUNK_ENTRIES // plan[1].size)
    for start in range(0, len(brackets), step):
        lhs, rhs = _dense_sides(brackets[start : start + step], plan)
        gaps[:, start : start + step] = _row_norms(lhs - rhs).max(axis=-1), _collinear_gaps(lhs, rhs).max(axis=-1)
    return tuple(gaps)


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


def _level_tables(spec: GateSpec, plan: tuple, q_values, levels: np.ndarray, grid_codes: np.ndarray) -> tuple:
    """Per q value and level pair, whether its mode bracket is admissible and its amplitude, as
    (q, level, level) tables.  A q's brackets are qnum's bracket on the levels as psi arrays, each
    entry its pair's psi_bracket to the bit.  plan is _sweep_plan(spec).  q by q, so that the first
    q that fails decides the error, raise OverflowError unless the largest admissible amplitude of
    two grid levels (the 1.0 filler only pairs with itself, amplitude 1) to the power 2 * arity,
    times the largest weight sum, is finite, and FloatingPointError unless the smallest positive
    one to that power is a normal double: the sweep's exact zeros hold while every product and
    square is finite and none underflows to a false zero."""
    arity, largest_weight_sum, _ = plan
    in_grid = np.bincount(grid_codes, minlength=levels.size) > 0
    rows = []
    for q in q_values:
        with np.errstate(over="ignore"):  # bracket names an overflowing product, an inf amplitude fails below
            rows.append(bracket(1, q, levels[:, None], levels[None, :], "the sweep's bracket table at q={q!r}"))
        admissible_amps = np.sqrt(np.where((rows[-1] >= 0.0) & np.outer(in_grid, in_grid), rows[-1], 0.0))

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
    return np.array(rows) >= 0.0, np.sqrt(np.clip(rows, 0.0, None))


def _stratum_plan(slots: tuple, arity: int, columns: list, levels: np.ndarray, patterns) -> tuple:
    """What every q's block of one stratum shares: (the grid's shape; per qubit, its grid axes;
    the pair codes of the gate's modes, each of the grid's rank; per qubit, its distinct
    pattern restrictions stacked, the first one ()'s, which allows every index tuple; per
    pattern, the index of its restriction).  columns is _stratum_columns(slots, ...).

    A slot fills psi columns of one qubit, and _strata gives each qubit consecutive axes in
    qubit order, so a row's C-order index takes the qubits' index tuples in turn.  Every
    candidate pattern ties psi columns of one qubit, so its rows are the product of one
    restriction per qubit: the tuples whose tied columns hold equal codes, so duplicate grid
    values stay exact, and a column the 1.0 filler fills holds the filler's code.
    """
    shape = np.broadcast_shapes(*(np.shape(column) for column in columns))
    qubit_axes = [tuple(k for k, indices in enumerate(slots) if indices[0] // 4 == j) for j in range(arity)]
    pairs = [np.reshape(pair, np.shape(pair) or (1,) * len(shape)) for pair in _pair_codes(columns, levels)]
    distinct, index = {}, {}
    for pattern in sorted(patterns, key=lambda pattern: (len(pattern), pattern)):
        masks = [np.ones([n if k in axes else 1 for k, n in enumerate(shape)], dtype=bool) for axes in qubit_axes]
        for i, j in pattern:
            masks[(i - 1) // 4] &= columns[i - 1] == columns[j - 1]
        key = b"".join(mask.tobytes() for mask in masks)
        index[pattern] = distinct.setdefault(key, (len(distinct), masks))[0]
    restrictions = [np.stack(stack) for stack in zip(*(masks for _, masks in distinct.values()))]
    return shape, qubit_axes, pairs[: 2 * arity], restrictions, index


def _qubit_admissibility(mode_admissible: list) -> list:
    """Per qubit, whether both of its mode brackets are admissible, over the qubit's grid axes."""
    return [np.logical_and(a, b) for a, b in zip(mode_admissible[::2], mode_admissible[1::2])]


# Most entries of a bit string's table computed at once.  A table can span every axis of a
# block (the aux and mode-pairs strata of three qubits), so it is computed a range of its first
# axis at a time; every operation is per entry, so the bits are the same.  A block sweeps as
# many q values at once as keep its largest table within this bound, and at least one.
_CHUNK_ENTRIES = 1 << 14


def _table_shape(bit_plan: tuple, shapes: list) -> tuple:
    """The broadcast shape of the modes that one input bit string reads, from per-mode shapes."""
    c_in_modes, _, term_modes = bit_plan
    modes = {*c_in_modes, *(mode for _, term in term_modes for mode in term)}
    return np.broadcast_shapes(*(shapes[mode] for mode in modes))


def _bit_string_tables(bit_plan: tuple, amps: list) -> tuple:
    """One input bit string's (strict, collinear) gap tables over the axes of the modes it reads,
    from the modes' amplitudes (_bit_string_gaps), _CHUNK_ENTRIES at a time."""
    shape = _table_shape(bit_plan, [amp.shape for amp in amps])
    axis = next((k for k, n in enumerate(shape) if n > 1), 0)
    step = max(1, _CHUNK_ENTRIES * shape[axis] // math.prod(shape))
    if step >= shape[axis]:
        return _bit_string_gaps(bit_plan, amps)
    tables = np.empty(shape), np.empty(shape)
    for start in range(0, shape[axis], step):
        window = (slice(None),) * axis + (slice(start, start + step),)
        chunk = [amp[window] if amp.shape[axis] > 1 else amp for amp in amps]
        for table, gaps in zip(tables, _bit_string_gaps(bit_plan, chunk)):
            table[window] = gaps
    return tables


def _bit_string_gaps(bit_plan: tuple, amps: list) -> tuple:
    """One input bit string's (strict, collinear) gaps on the broadcast shape of the modes it
    reads, from the modes' amplitudes; a function of its own so that its temporaries are freed
    when it returns.

    The formulation mirrors the dense path exactly: per input bit string the output terms live
    on distinct basis kets, so the strict gap is the root sum of squared per-term amplitude
    gaps and the collinear gap comes from the cosine between the two coefficient vectors.
    Every entry goes through the same operations in the same order."""

    def product(modes: list):
        return functools.reduce(operator.mul, [amps[mode] for mode in modes])

    c_in_modes, weight_sum, term_modes = bit_plan
    c_in = product(c_in_modes)
    terms = [(weight, product(modes)) for weight, modes in term_modes]
    strict = np.sqrt(sum(weight * (c_in - c_out) ** 2 for weight, c_out in terms))
    lhs_sq = weight_sum * c_in**2
    rhs_sq = sum(weight * c_out**2 for weight, c_out in terms)
    # rejection form of the sine, mirroring _collinear_gaps; each temporary of the table's size
    # is dropped as soon as it is spent, which keeps the working set small and fast
    coefficient = c_in * sum(weight * c_out for weight, c_out in terms) / np.where(lhs_sq > 0.0, lhs_sq, 1.0)
    rejection_sq = sum(weight * (c_out - coefficient * c_in) ** 2 for weight, c_out in terms)
    del coefficient
    collinear = np.minimum(1.0, np.sqrt(rejection_sq / np.where(rhs_sq > 0.0, rhs_sq, 1.0)))
    del rejection_sq
    both_zero = (lhs_sq == 0.0) & (rhs_sq == 0.0)
    one_zero = (lhs_sq == 0.0) ^ (rhs_sq == 0.0)
    return strict, np.where(both_zero, 0.0, np.where(one_zero, 1.0, collinear))


def _outside(array: np.ndarray, shape: tuple) -> tuple:
    """The trailing grid axes that array spans and a table of the given grid shape does not."""
    lead = array.ndim - len(shape)
    return tuple(lead + k for k, n in enumerate(shape) if n == 1 and array.shape[lead + k] > 1)


def _first_row(admissible: list, condition, projected: list, qubit_axes: list, shape: tuple):
    """The first row in C order that is admissible and meets condition (a bool table over some
    grid axes; None: every row), or None; projected is, per qubit, its admissible index tuples
    projected onto condition's axes.  Qubit by qubit, it takes the first admissible index
    tuple that the later qubits' admissible tuples can complete to a row meeting condition."""
    index = [0] * len(shape)
    for j, axes in enumerate(qubit_axes):
        here = admissible[j]
        if condition is not None:
            completed = functools.reduce(np.logical_and, projected[j + 1 :], condition)
            here = here & completed.any(axis=tuple(k for later in qubit_axes[j + 1 :] for k in later), keepdims=True)
        at = int(np.argmax(here))
        if not here.flat[at]:
            return None
        for k, i in enumerate(np.unravel_index(at, here.shape)):
            if k in axes:
                index[k] = int(i)
        if condition is not None:
            condition = condition[tuple(slice(i, i + 1) if k in axes else slice(None) for k, i in enumerate(index))]
    return int(np.ravel_multi_index(index, shape))


def _sweep_block(plan: tuple, tables: tuple, stratum: tuple, samples: list, tolerance: float) -> list:
    """Per q value, one (stratum, q) block from per-qubit admissibility and per-bit-string residual
    tables, exactly as if every row were swept: per restriction of _stratum_plan, the admissible
    rows it allows, the maxima and zero counts of both residual modes over them; the exemplar rows
    (first admissible, first largest positive strict residual, first admissible rows that do and
    do not close it); the first inadmissible row or None; row -> (strict, collinear, admissible)
    there and at samples, 0.0 on inadmissible rows.  plan is _sweep_plan(spec) and tables are
    _level_tables(spec, plan, ...), range-checked at every q.  The q values are a leading axis of
    every table (_sweep_q_axis), as many at once as keep the largest one within _CHUNK_ENTRIES."""
    shapes = [pair.shape for pair in stratum[2]]
    step = max(1, _CHUNK_ENTRIES // max((math.prod(_table_shape(b, shapes)) for b in plan[2]), default=1))
    chunks = [[table[start : start + step] for table in tables] for start in range(0, len(tables[0]), step)]
    return [block for chunk in chunks for block in _sweep_q_axis(plan, chunk, stratum, samples, tolerance)]


def _sweep_q_axis(plan: tuple, tables: list, stratum: tuple, samples: list, tolerance: float):
    """_sweep_block over (q, grid...) tables; allowed and reach tables are (q, restriction, grid...).
    A row is admissible iff every qubit is, and its residual is the largest of its bit strings'
    table entries, so counts are products over qubits and a maximum is each bit string's largest
    entry over the index tuples that allowed rows reach on its axes.  Only bit strings with an
    entry above tolerance there, at some q, decide which rows close (at any other q, every row
    they reach closes); their joint table, over the axes they read, is weighed with the other
    axes' allowed tuples."""
    shape, qubit_axes, pairs, restrictions, _ = stratum
    admissible_table, amp_table = (table.reshape(len(table), -1) for table in tables)
    admissible = _qubit_admissibility([admissible_table[:, pair] for pair in pairs])
    amps = [amp_table[:, pair] for pair in pairs]
    allowed = [a[:, None] & restriction for a, restriction in zip(admissible, restrictions)]
    grid_axes = tuple(range(2, len(shape) + 2))
    counts = functools.reduce(operator.mul, [a.sum(axis=grid_axes) for a in allowed])
    projections = {}

    def reach(table_shape: tuple) -> list:
        """Per qubit, its allowed index tuples projected onto the grid axes of a table of this shape."""
        if table_shape not in projections:
            projections[table_shape] = [a.any(axis=_outside(a, table_shape), keepdims=True) for a in allowed]
        return projections[table_shape]

    def masked_max(table: np.ndarray, reached: np.ndarray) -> np.ndarray:
        return np.max(np.broadcast_to(table[:, None], reached.shape), axis=grid_axes, where=reached, initial=0.0)

    # each bit string's float tables are reduced before the next one's are built, so a block
    # holds one pair of them; it keeps bool tables of where rows close and where peaks lie
    maxima, closing, peaks = [], {}, []
    for bit_plan in plan[2]:
        table = _bit_string_tables(bit_plan, amps)
        reached = functools.reduce(np.logical_and, reach(table[0].shape[1:]))
        maxima.append([masked_max(t, reached) for t in table])
        for mode, name in enumerate(("strict", "collinear")):
            if not (maxima[-1][mode][:, 0] <= tolerance).all():
                closes = table[mode] <= tolerance
                closing[name] = closing[name] & closes if name in closing else closes
        largest = maxima[-1][0][:, 0]
        if (largest > 0.0).any():
            peaks.append((largest, table[0] == largest.reshape(-1, *[1] * len(shape))))
        del table
    tally = {"admissible": counts}
    for mode, name in enumerate(("strict", "collinear")):
        tally[f"max_{name}"] = functools.reduce(np.maximum, [m[mode] for m in maxima], np.zeros(counts.shape))
        tally[f"zero_{name}"] = counts
        if name in closing:
            weights = [a.sum(axis=_outside(a, closing[name].shape[1:]), keepdims=True) for a in allowed]
            operands = itertools.chain.from_iterable((w, [0, 1, *grid_axes]) for w in weights)
            tally[f"zero_{name}"] = np.einsum(closing[name], [0, *grid_axes], *operands, [0, 1])
    order = ("admissible", "max_strict", "zero_strict", "max_collinear", "zero_collinear")
    tallies = [[dict(zip(order, v)) for v in zip(*at_q)] for at_q in zip(*(tally[key].tolist() for key in order))]

    def first_row(k: int, condition=None):
        projected = None if condition is None else [r[k, 0] for r in reach(condition.shape[1:])]
        condition = None if condition is None else condition[k]
        return _first_row([a[k] for a in admissible], condition, projected, qubit_axes, shape)

    closes, picked = closing.get("strict"), []
    for k, largest in enumerate(tally["max_strict"][:, 0]):
        first = peak = first_row(k)
        if largest > 0.0:
            peak = min(first_row(k, at_peak) for value, at_peak in peaks if value[k] == largest)
        zero, opened = (first, None) if closes is None else (first_row(k, closes), first_row(k, ~closes))
        exemplars = list(dict.fromkeys(row for row in (first, peak, zero, opened) if row is not None))
        # per qubit, the row of its first inadmissible index tuple
        skipped = [np.unravel_index(np.argmin(a[k]), a.shape[1:]) for a in admissible if not a[k].all()]
        picked.append((exemplars, min((int(np.ravel_multi_index(i, shape)) for i in skipped), default=None)))

    # the residuals of the wanted rows at every q: the same per-bit-string gaps, over their amplitudes
    wanted = [{*samples, *exemplars, *([] if skipped is None else [skipped])} for exemplars, skipped in picked]
    rows = sorted(set().union(*wanted))
    at = np.unravel_index(rows, shape)
    amps = [_read(amp, at) for amp in amps]
    tables = [_bit_string_gaps(bit_plan, amps) for bit_plan in plan[2]]
    values = zip(*_row_values([_read(a, at) for a in admissible], tables))
    return [
        (block, exemplars, skipped, {row: value for row, value in zip(rows, zip(*at_q)) if row in rows_at_q})
        for block, (exemplars, skipped), rows_at_q, at_q in zip(tallies, picked, wanted, values)
    ]


def _read(table: np.ndarray, at: tuple) -> np.ndarray:
    """A (q, grid...) table's entries at the rows of an np.unravel_index result, (q, row)."""
    return table[(slice(None), *(i if n > 1 else np.zeros_like(i) for i, n in zip(at, table.shape[1:])))]


def _row_values(admissible: list, tables: list) -> tuple:
    """(strict, collinear, admissible) per row, as Python floats and bools, from per-qubit
    admissibility and per-bit-string (strict, collinear) gaps over the same rows: per residual
    mode the largest of the bit strings' gaps on an admissible row, 0.0 on an inadmissible one."""
    ok = functools.reduce(np.logical_and, admissible)
    zeros = np.zeros(ok.shape)
    values = [functools.reduce(np.maximum, [table[mode] for table in tables], zeros) for mode in (0, 1)]
    return (*(np.where(ok, v, 0.0).tolist() for v in values), ok.tolist())


def _cross_check_samples(spec, plan, samples) -> int:
    """Recompute sample rows, (q, psi, strict, collinear, admissible) each, through the dense path
    with the spec's _oracle_plan, every admissible one in one pass for both residual modes; a
    sample is admissible iff none of its brackets is negative.  Raise at the first failing sample."""
    brackets = _dense_brackets(spec.arity, [sample[:2] for sample in samples])
    reasons = ("marked an admissible point as skipped", "admitted an inadmissible point")
    negative = (brackets < 0.0).any(axis=(1, 2)).tolist()
    failures = {k: reasons[ok] for k, ((*_, ok), bad) in enumerate(zip(samples, negative)) if ok == bad}
    kept = [k for k, sample in enumerate(samples) if sample[-1] and k not in failures]
    for k, dense_strict, dense_collinear in zip(kept, *_dense_residuals(brackets[kept], plan)):
        _, _, strict, collinear, _ = samples[k]
        if not (abs(dense_strict - strict) <= 1e-10 and abs(dense_collinear - collinear) <= 1e-10):
            failures[k] = "disagrees with the dense path"
    if failures:
        q, psi, *_ = samples[k := min(failures)]
        raise RuntimeError(f"sweep engine {failures[k]} at {spec.kind.value}, q={q!r}, psi={tuple(psi)!r}")
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
    be positive.  Both plans and the bracket table are built once per call, every q
    checked for overflow and underflow before the first block.  Each stratum's block
    tallies every q per candidate pattern from per-bit-string and per-qubit
    tables (_sweep_block).  After the last block, the deterministic sample rows
    of every block are cross-checked against the dense path, both residual
    modes in one pass (_cross_check_samples).  Summaries, totals, the
    minimal-pattern search and the verdicts read only the tallies.  Raises
    OverflowError when a q and the grid's largest amplitude overflow the
    sweep's products, FloatingPointError when its smallest positive amplitude
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
    claim = CLAIMS[spec.kind]
    operator = OperatorConvention(operator)
    exponent = ExponentConvention(exponent)

    levels, grid_codes = _grid_levels(grid)
    grid_values = np.array(grid)
    oracle, plan = _oracle_plan(spec), _sweep_plan(spec)
    tables = _level_tables(spec, plan, q_values, levels, grid_codes)
    candidates = _candidate_patterns(claim, spec.arity)
    # claim plus assumptions, claim.auxiliary and () are all candidates, so all get tallied
    claimed = claim.equalities + claim.auxiliary
    patterns = {pattern for _, pattern in candidates}
    tallies, strata_summaries, checks = {}, [], []
    for name, slots in _strata(spec.arity).items():
        stratum = _stratum_plan(slots, spec.arity, _stratum_columns(slots, levels, grid_codes), levels, patterns)
        shape, index = stratum[0], stratum[-1]
        count = math.prod(shape)
        step = max(1, count // 5)
        samples = sorted(i for i in {0, count // 2, count - 1, step, 2 * step, 3 * step} if i < count)
        blocks = _sweep_block(plan, tables, stratum, samples, tolerance)
        for q, (block, exemplars, skipped, seen) in zip(q_values, blocks):
            at = np.unravel_index(list(seen), shape)
            psi = np.ones((len(seen), PSI_COUNT))
            for axis, indices in enumerate(slots):
                psi[:, indices] = grid_values[at[axis], None]
            psi = dict(zip(seen, psi.tolist()))
            checks += [(q, psi[i], *seen[i]) for i in samples]
            summary = {"stratum": name, "q": float(q), "rows": count, "skipped": count - block[0]["admissible"]}
            exemplars = [{"psi": psi[i], "strict": seen[i][0], "collinear": seen[i][1]} for i in exemplars]
            summary.update(block[0], exemplars=exemplars)
            if skipped is not None:
                summary["skipped_exemplar"] = {"psi": psi[skipped]}
            strata_summaries.append(summary)
            for pattern, k in index.items():
                tallies[pattern] = _merge_tallies(tallies[pattern], block[k]) if pattern in tallies else block[k]
    samples_checked = _cross_check_samples(spec, oracle, checks)
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
