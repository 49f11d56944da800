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
construction uses.  The two differ off the closing assignment.  Every entry
of the outer-product, lift and matmul build has at most one nonzero term,
with the same factors in the same order, so for finite amplitudes the two
builds agree bit for bit.

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
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .qnum import DeformationParams
from .schwinger import ExponentConvention, QubitEmbedding, amplitude_table, ket_amplitudes

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


@dataclass(frozen=True)
class GateSpec:
    """A gate kind plus its phase angle (meaningful for PS only)."""

    kind: GateKind
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", GateKind(self.kind))
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {phi!r}")
        object.__setattr__(self, "phi", phi)

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


def gate_matrix(spec: GateSpec) -> np.ndarray:
    """Undeformed gate as a dense matrix on the encoded space, zero off the valid subspace."""
    emb = QubitEmbedding(spec.arity)
    matrix = np.zeros((emb.dim, emb.dim), dtype=complex)
    for bits in emb.all_bits():
        col = emb.basis_index(bits)
        for term in gate_action_traced(spec, bits):
            matrix[emb.basis_index(term.bits), col] += term.coeff
    return matrix


def _deformed(spec: GateSpec, gate: _Gate, q, params, exponent) -> np.ndarray:
    """One entry per traced term of gate: the dyad coeff * (a_out * a_in) over deformed kets,
    or coeff for a projected hold.  A non-finite amplitude raises OverflowError."""
    exponent = ExponentConvention(exponent)
    table = amplitude_table(q, gate.arity, params, exponent)
    if not all(math.isfinite(amp) for pair in table for amp in pair):
        raise OverflowError(
            f"{spec.kind.value} gate at q={float(q)!r} under the {exponent.value} exponent "
            f"has a non-finite creation amplitude in {table}"
        )
    emb = QubitEmbedding(gate.arity)
    index, amps = emb.basis_indices(), ket_amplitudes(table)
    held = tuple(range(gate.arity))
    matrix = np.zeros((emb.dim, emb.dim), dtype=complex)
    for bits, col in index.items():
        for term in _terms(gate, spec.phi, bits):
            projected = gate.project_holds and term.sources == held
            matrix[index[term.bits], col] += term.coeff if projected else term.coeff * (amps[term.bits] * amps[bits])
    return matrix


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
