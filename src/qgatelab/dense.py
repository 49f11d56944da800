"""The dense oracle of the constraint sweep: gate matrices applied to deformed kets.

The sweep (constraints) counts rows in closed form; these functions recompute single points the
long way, from the undeformed gate matrix and the traced action, and share no residual code with
the sweep.  Loaded only with constraints, so a process that never sweeps never compiles it.
"""

import functools
import operator

import numpy as np

from .gates import GateSpec, gate_action_traced, gate_matrix
from .qnum import bracket_roots
from .schwinger import QubitEmbedding

# Most entries of the two sides built at once, in batches of points.
_CHUNK_ENTRIES = 1 << 16


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(rows.real**2 + rows.imag**2, axis=-1))


def _collinear_gaps(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per row (last axis), the sine of the angle between u and v; 0 for two zero rows, 1 for
    exactly one.  Computed as the norm of v's component orthogonal to u over the norm of v,
    which stays accurate near perfect alignment (1 - cos^2 loses half the digits there)."""
    nu, nv = _row_norms(u), _row_norms(v)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero rows are settled below
        coefficient = np.sum(u.conj() * v, axis=-1) / (nu * nu)
        sine = np.minimum(1.0, _row_norms(v - coefficient[..., None] * u) / nv)
    return np.where((nu == 0.0) & (nv == 0.0), 0.0, np.where((nu == 0.0) | (nv == 0.0), 1.0, sine))


def _term_picks(bits: tuple, term) -> list:
    """Per output slot of a traced term, the (qubit, bit) whose amplitude it holds: the source
    qubit's input bit on a carried slot, the slot's own output bit on a flipped one."""
    return [
        (slot, out_bit) if src is None else (src, bits[src])
        for slot, (src, out_bit) in enumerate(zip(term.sources, term.bits))
    ]


def _oracle_plan(spec: GateSpec) -> tuple:
    """The input bit strings (all_bits order) and those columns of the undeformed gate matrix, cut
    to the basis kets that a column or a traced term reaches (every other entry is 0 on both sides);
    per traced output term, its input's position, ket position, coefficient, and the qubits and
    bits of its amplitude picks; last, the kets kept."""
    emb, matrix = QubitEmbedding(spec.arity), gate_matrix(spec)
    every_bits = list(emb.all_bits())
    terms = [
        (k, emb.basis_index(term.bits), term.coeff, *zip(*_term_picks(bits, term)))
        for k, bits in enumerate(every_bits)
        for term in gate_action_traced(spec, bits)
    ]
    columns = matrix[:, [emb.basis_index(bits) for bits in every_bits]].T
    inputs, rows, *picks = map(np.array, zip(*terms))
    kets = np.array(sorted({*np.flatnonzero(columns.any(axis=0)).tolist(), *rows.tolist()}))
    return np.array(every_bits), columns[:, kets], inputs, np.searchsorted(kets, rows), *picks, kets


def _dense_sides(brackets: np.ndarray, plan: tuple) -> tuple:
    """Per point and input bit string, the gate applied to the deformed input ket and the traced
    action on deformed output kets, on the plan's kets: (points, 2**arity, kets) arrays, from the
    points' (points, arity, 2) level-1 brackets (bit b of slot j at [j, b]).  A deformed ket has one
    nonzero entry, its amplitudes multiplied in slot order, so the gate applied to it is that column
    times the product, bit for bit.  An inadmissible bracket raises NegativeRadicandError
    (qnum.bracket_roots).  plan is _oracle_plan(spec)."""
    bits, columns, inputs, rows, coeffs, pick_qubits, pick_bits, _ = plan
    tables = bracket_roots(brackets, 1)[1]

    def products(qubits, picked) -> np.ndarray:
        return functools.reduce(operator.mul, np.moveaxis(tables[:, qubits, picked], -1, 0))

    lhs = columns * products(np.arange(tables.shape[1]), bits)[..., None]
    rhs = np.zeros_like(lhs)
    rhs[:, inputs, rows] = coeffs * products(pick_qubits, pick_bits)
    return lhs, rhs


def _dense_residuals(brackets: np.ndarray, plan: tuple) -> tuple:
    """Per point of _dense_sides, the worst (strict, collinear) gaps over the input bit strings
    (sides built _CHUNK_ENTRIES entries at a time); creation-built kets ignore the lowering reading."""
    gaps, step = np.zeros((2, len(brackets))), max(1, _CHUNK_ENTRIES // plan[1].size)
    for start in range(0, len(brackets), step):
        lhs, rhs = _dense_sides(brackets[start : start + step], plan)
        gaps[:, start : start + step] = _row_norms(lhs - rhs).max(axis=-1), _collinear_gaps(lhs, rhs).max(axis=-1)
    return tuple(gaps)
