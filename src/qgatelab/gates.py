"""Gate actions on encoded qubits and their deformed dyad constructions.

Each gate is declared once, in _GATES: its arity, its control slots, and the
move it makes on its qubit slots when every control holds 1.  When a control
holds 0 the gate holds its input.  The moves (x is a bit, phi a phase angle):

    phase       |x>  ->  exp(i x phi) |x>
    hadamard    |x>  ->  (-1)^x |x> + |1-x>      (unnormalized; Had^2 = 2)
    flip(s)     slot s -> 1 - slot s
    swap(a, b)  slots a and b exchanged

The traced action, the undeformed matrix and the deformed dyad build are all
derived from that table.  Every matrix vanishes outside the valid-encoding
subspace (one excitation per qubit's mode pair).

A deformed ket has one nonzero entry, the product of its qubits' creation
amplitudes (schwinger.amplitude_table), so the dyad |out><in| of one traced
term is one entry, coeff * (a_out * a_in).  The control number operators,
read off the incoming ket, select the branch each input takes.  A hold term
carrying every slot from itself is built either as such a dyad or as a
projected number-operator term (for example P (1 - N1) P), whose entry is
the undeformed coeff: each gate's project_holds flag records which form its
construction uses.  The two differ off the closing assignment.  The tests
keep an outer-product, lift and matmul build as the oracle; every entry of
it has at most one nonzero term, with the same factors in the same order,
so for finite amplitudes the two builds agree bit for bit.  Each gate's terms are laid out once per phase as an
entry plan (row, column, coefficient, output and input ket), which fills the
undeformed matrix, the deformed one and the closure gaps of many q at once.

The doubly controlled gate is built to reproduce its table; the flip-on-
every-branch reading of its control brackets is kept in a separate literal
builder for audit records (the bracket coefficients sum to the identity, so
that reading flips the target bit unconditionally).

Traced actions attach per-slot provenance to every output term: an integer
names the input qubit whose value (and deformed amplitude) the slot carries,
None marks a bit-flip slot whose deformed amplitude is re-encoded from the
output bit's own mode pair.  The constraint lab is built on those traces.
"""

import cmath
import functools
import math
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from ._values import Frozen
from .qnum import DeformationParams, bracket_roots
from .schwinger import ExponentConvention, QubitEmbedding, _closing_brackets, amplitude_table, ket_amplitudes

__all__ = [
    "GateKind",
    "GateSpec",
    "GateTerm",
    "deformed_gate_matrix",
    "gate_action_traced",
    "gate_matrix",
    "toffoli_literal_matrix",
]


class GateKind(str, Enum):
    PS = "ps"
    HAD = "had"
    NOT = "not"
    CNOT = "cnot"
    SWAP = "swap"
    FREDKIN = "fredkin"
    TOFFOLI = "toffoli"


class GateTerm(NamedTuple):
    """One output term of a gate action with per-slot provenance."""

    coeff: complex
    bits: tuple
    sources: tuple


def _phase(bits, phi) -> tuple:
    (x,) = bits
    return (GateTerm(cmath.exp(1j * phi * x), bits, (0,)),)


def _hadamard(bits, phi) -> tuple:
    (x,) = bits
    return (GateTerm(complex((-1) ** x), bits, (0,)), GateTerm(complex(1.0), (1 - x,), (None,)))


def _flip(slot: int) -> Callable:
    def move(bits, phi) -> tuple:
        out, sources = list(bits), list(range(len(bits)))
        out[slot], sources[slot] = 1 - bits[slot], None
        return (GateTerm(complex(1.0), tuple(out), tuple(sources)),)

    return move


def _swap(a: int, b: int) -> Callable:
    def move(bits, phi) -> tuple:
        sources = list(range(len(bits)))
        sources[a], sources[b] = b, a
        return (GateTerm(complex(1.0), tuple(bits[s] for s in sources), tuple(sources)),)

    return move


class _Gate(NamedTuple):
    arity: int
    controls: tuple  # slots that must all hold 1 for the move; otherwise the input is held
    move: Callable  # (bits, phi) -> GateTerms
    project_holds: bool  # build terms carrying every slot from itself as P coeff P, not as dyads


_GATES = {
    GateKind.PS: _Gate(1, (), _phase, False),
    GateKind.HAD: _Gate(1, (), _hadamard, True),
    GateKind.NOT: _Gate(1, (), _flip(0), False),
    GateKind.CNOT: _Gate(2, (0,), _flip(1), True),
    GateKind.SWAP: _Gate(2, (), _swap(0, 1), False),
    GateKind.FREDKIN: _Gate(3, (0,), _swap(1, 2), True),
    GateKind.TOFFOLI: _Gate(3, (0, 1), _flip(2), False),
}

# phase of the phase-shift gate wherever the gates are swept or checked, so it is not the identity
DISCOVERY_PHI = math.pi / 3


class GateSpec(Frozen):
    """A gate kind plus its phase angle (meaningful for PS only)."""

    __slots__ = ("kind", "phi")

    def __init__(self, kind: GateKind, phi: float = 0.0):
        kind = GateKind(kind)
        phi = float(phi)
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {phi!r}")
        self._set(kind, phi)

    @property
    def arity(self) -> int:
        return _GATES[self.kind].arity


def _terms(gate: _Gate, phi: float, bits: tuple) -> tuple:
    if all(bits[slot] for slot in gate.controls):
        return gate.move(bits, phi)
    return (GateTerm(complex(1.0), bits, tuple(range(gate.arity))),)


def gate_action_traced(spec: GateSpec, bits) -> tuple:
    """Output terms for one input bit string, with provenance, zero terms dropped."""
    bits = tuple(int(b) for b in bits)
    if len(bits) != spec.arity:
        raise ValueError(f"{spec.kind.value} takes {spec.arity} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits}")
    return _terms(_GATES[spec.kind], spec.phi, bits)


class _EntryPlan(NamedTuple):
    """Per traced term, inputs in all_bits order: its dyad's matrix row and column, coefficient,
    output and input kets (ket_amplitudes positions), and whether it is a projected hold."""

    rows: np.ndarray
    cols: np.ndarray
    coeffs: np.ndarray
    outs: np.ndarray
    ins: np.ndarray
    projected: np.ndarray


@functools.lru_cache(maxsize=64)
def _entry_plan(gate: _Gate, phi: float) -> _EntryPlan:
    index = QubitEmbedding(gate.arity).basis_indices()
    position = {bits: k for k, bits in enumerate(index)}
    held = tuple(range(gate.arity)) if gate.project_holds else None  # None matches no term's sources
    terms = [
        (index[t.bits], index[bits], t.coeff, position[t.bits], position[bits], t.sources == held)
        for bits in index
        for t in _terms(gate, phi, bits)
    ]
    plan = _EntryPlan(*map(np.array, zip(*terms)))
    for array in plan:
        array.flags.writeable = False  # the cache hands the same arrays to every caller
    return plan


def _matrix(gate: _Gate, plan: _EntryPlan, entries) -> np.ndarray:
    """The gate's dense matrix on the encoded space: one entry per traced term, zero elsewhere."""
    dim = QubitEmbedding(gate.arity).dim
    matrix = np.zeros((dim, dim), dtype=complex)
    matrix[plan.rows, plan.cols] = entries
    return matrix


def gate_matrix(spec: GateSpec) -> np.ndarray:
    """Undeformed gate as a dense matrix on the encoded space, zero off the valid subspace."""
    gate = _GATES[spec.kind]
    plan = _entry_plan(gate, spec.phi)
    return _matrix(gate, plan, plan.coeffs)


def _entries(plan: _EntryPlan, kets: np.ndarray) -> np.ndarray:
    """Each traced term's matrix entry, coeff * (a_out * a_in) or coeff for a projected hold,
    over any leading axes of kets (ket_amplitudes of a table)."""
    return np.where(plan.projected, plan.coeffs, plan.coeffs * (kets[..., plan.outs] * kets[..., plan.ins]))


def _finite_table(spec: GateSpec, q, params, exponent) -> tuple:
    """amplitude_table of spec's register; OverflowError naming spec and q if an amplitude is not finite."""
    exponent = ExponentConvention(exponent)
    table = amplitude_table(q, spec.arity, params, exponent)
    if not all(math.isfinite(amp) for pair in table for amp in pair):
        raise OverflowError(
            f"{spec.kind.value} gate at q={float(q)!r} under the {exponent.value} exponent "
            f"has a non-finite creation amplitude in {table}"
        )
    return table


def _deformed(spec: GateSpec, gate: _Gate, q, params, exponent) -> np.ndarray:
    """The _entries of gate's traced terms.  A non-finite amplitude raises OverflowError."""
    plan, kets = _entry_plan(gate, spec.phi), ket_amplitudes(_finite_table(spec, q, params, exponent))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan entries, as Python floats give them
        return _matrix(gate, plan, _entries(plan, kets))


def _closure_residuals(specs, q_values, exponent) -> np.ndarray:
    """(len(q_values), len(specs)) worst gaps over the input kets between each deformed gate
    applied to a fixed-parameter ket (its column times the ket's amplitude, term by term) and
    the table's output kets.  An input's squared gap adds its terms' real-part squares, then
    imaginary-part squares, as np.linalg.norm does.  The first failing (q, gate), q-major,
    raises OverflowError: a non-finite amplitude, named for the first gate, or else the first
    input whose gap is not finite."""
    exponent = ExponentConvention(exponent)
    brackets = []
    for q in q_values:
        try:
            brackets.append(_closing_brackets(float(q), exponent))
        except OverflowError:  # an infinite pair, so the scan below raises it again in its turn
            brackets.append((math.inf, math.inf))
    pairs, gaps = bracket_roots(np.reshape(brackets, (-1, 1, 2)), 1)[1], []
    pairs[~np.isfinite(pairs).all(axis=2)] = math.nan  # as amplitude_table's, on every q at once
    with np.errstate(over="ignore", invalid="ignore"):
        for spec in specs:
            plan = _entry_plan(_GATES[spec.kind], spec.phi)
            kets = ket_amplitudes(np.repeat(pairs, spec.arity, axis=1))
            gap = _entries(plan, kets) * kets[:, plan.ins] - plan.coeffs * kets[:, plan.outs]
            first = np.flatnonzero(np.diff(plan.ins, prepend=-1))  # each input's first term
            squares = np.add.reduceat(gap.real**2, first, axis=1) + np.add.reduceat(gap.imag**2, first, axis=1)
            gaps.append(np.sqrt(squares))
    failing = np.argwhere(~np.transpose([np.isfinite(gap).all(axis=1) for gap in gaps]))  # (q, gate), q-major
    if failing.size:
        (row, col), q = failing[0], q_values[failing[0][0]]
        _finite_table(specs[col], q, None, exponent)  # raises for a q without finite amplitudes
        inputs = zip(QubitEmbedding(specs[col].arity).all_bits(), gaps[col][row].tolist())
        bits, gap = next((bits, gap) for bits, gap in inputs if not math.isfinite(gap))
        name = f"{specs[col].kind.value} closure residual at q={q!r} under the {exponent.value} exponent"
        raise OverflowError(f"{name} is {gap!r} on input bits {bits}")
    return np.stack([gap.max(axis=1, initial=0.0) for gap in gaps], axis=1)


def deformed_gate_matrix(
    spec: GateSpec,
    q,
    params: DeformationParams | None = None,
    exponent: ExponentConvention = ExponentConvention.RESULT,
) -> np.ndarray:
    """Deformed gate built from dyads over deformed kets plus projected hold terms.

    params None uses the closing assignment per ket (each dyad's bra and ket
    fix their own parameters from their own bits); an explicit params is
    shared by every ket.  Controls are read off the incoming ket.
    """
    return _deformed(spec, _GATES[spec.kind], q, params, exponent)


def toffoli_literal_matrix(
    q,
    params: DeformationParams | None = None,
    exponent: ExponentConvention = ExponentConvention.RESULT,
) -> np.ndarray:
    """The doubly controlled gate with flip dyads on every control bracket, as printed.

    The two control brackets, N1*M1 + (1-N1)*M1 and (1-M1)*N1 + (1-N1)*(1-M1)
    with N1 and M1 the first-mode number operators of the two control qubits,
    sum to the identity, so this construction is the Toffoli move with its
    controls dropped: it flips the target bit on every input.  Kept solely for
    audit records; deformed_gate_matrix builds the table-faithful version.
    """
    spec = GateSpec(GateKind.TOFFOLI)
    return _deformed(spec, _GATES[spec.kind]._replace(controls=()), q, params, exponent)
