"""Gate actions on encoded qubits and their deformed dyad constructions.

Truth tables implemented here (x, y, z are bits, phi a phase angle):

    PS       |x>       ->  exp(i x phi) |x>
    Had      |x>       ->  (-1)^x |x> + |1-x>        (unnormalized; Had^2 = 2)
    Not      |x>       ->  |1-x>
    CNot     |x y>     ->  |x y> if x = 0 else |x 1-y>
    Swap     |x y>     ->  |y x>
    Fredkin  |x y z>   ->  |x y z> if x = 0 else |x z y>
    Toffoli  |x y z>   ->  |x y 1-z> if x = y = 1 else |x y z>

Every matrix vanishes outside the valid-encoding subspace (one excitation per
qubit's mode pair).  The deformed constructions are dyad sums over deformed
kets and bras; additive number-operator terms are sandwiched with the
valid-subspace projector so they vanish there too, which keeps matrix
comparisons between deformed and undeformed builds exact.

A deformed ket has one nonzero entry, the product of its qubits' creation
amplitudes (schwinger.amplitude_table), so a dyad |out><in| is one entry,
coeff * (a_out * a_in).  A lifted number operator is a 0/1 occupation
diagonal, so a control on the right scales the dyad sum's columns and a
projected hold term is a diagonal.  Every entry of the outer-product, lift
and matmul build has at most one nonzero term, with the same factors in the
same order, so for finite amplitudes the two builds agree bit for bit.

Bras are ordered to absorb the incoming ket directly.  The doubly controlled
gate is built to reproduce the table above; the flip-on-every-branch reading
of its control brackets is kept in a separate literal builder for audit
records (the bracket coefficients sum to the identity, so that reading flips
the target bit unconditionally).

Traced actions attach per-slot provenance to every output term: an integer
names the input qubit whose value (and deformed amplitude) the slot carries,
None marks a bit-flip slot whose deformed amplitude is re-encoded from the
output bit's own mode pair.  The constraint lab is built on those traces.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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


_ARITY = {
    GateKind.PS: 1,
    GateKind.HAD: 1,
    GateKind.NOT: 1,
    GateKind.CNOT: 2,
    GateKind.SWAP: 2,
    GateKind.FREDKIN: 3,
    GateKind.TOFFOLI: 3,
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
        return _ARITY[self.kind]


class GateTerm(NamedTuple):
    """One output term of a gate action with per-slot provenance."""

    coeff: complex
    bits: tuple
    sources: tuple


def gate_action_traced(spec: GateSpec, bits) -> tuple:
    """Output terms for one input bit string, with provenance, zero terms dropped."""
    bits = tuple(int(b) for b in bits)
    if len(bits) != spec.arity:
        raise ValueError(f"{spec.kind.value} takes {spec.arity} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits}")

    kind = spec.kind
    if kind is GateKind.PS:
        (x,) = bits
        return (GateTerm(cmath.exp(1j * spec.phi * x), (x,), (0,)),)
    if kind is GateKind.HAD:
        (x,) = bits
        return (
            GateTerm(complex((-1) ** x), (x,), (0,)),
            GateTerm(complex(1.0), (1 - x,), (None,)),
        )
    if kind is GateKind.NOT:
        (x,) = bits
        return (GateTerm(complex(1.0), (1 - x,), (None,)),)
    if kind is GateKind.CNOT:
        x, y = bits
        if x == 1:
            return (GateTerm(complex(1.0), (1, 1 - y), (0, None)),)
        return (GateTerm(complex(1.0), (0, y), (0, 1)),)
    if kind is GateKind.SWAP:
        x, y = bits
        return (GateTerm(complex(1.0), (y, x), (1, 0)),)
    if kind is GateKind.FREDKIN:
        x, y, z = bits
        if x == 1:
            return (GateTerm(complex(1.0), (1, z, y), (0, 2, 1)),)
        return (GateTerm(complex(1.0), (0, y, z), (0, 1, 2)),)
    if kind is GateKind.TOFFOLI:
        x, y, z = bits
        if x == 1 and y == 1:
            return (GateTerm(complex(1.0), (1, 1, 1 - z), (0, 1, None)),)
        return (GateTerm(complex(1.0), (x, y, z), (0, 1, 2)),)
    raise ValueError(f"unknown gate kind {kind!r}")


def gate_matrix(spec: GateSpec) -> np.ndarray:
    """Undeformed gate as a dense matrix on the encoded space, zero off the valid subspace."""
    emb = QubitEmbedding(spec.arity)
    matrix = np.zeros((emb.dim, emb.dim), dtype=complex)
    for bits in emb.all_bits():
        col = emb.basis_index(bits)
        for term in gate_action_traced(spec, bits):
            matrix[emb.basis_index(term.bits), col] += term.coeff
    return matrix


def _dyad_builder(spec: GateSpec, q, params, exponent):
    """dyads(triples): the sum of coeff |out><in| over (out_bits, in_bits, coeff) triples of
    deformed kets.  params None uses the closing assignment per ket (each dyad's bra and
    ket fix their own parameters from their own bits).  A non-finite amplitude raises
    OverflowError."""
    exponent = ExponentConvention(exponent)
    table = amplitude_table(q, spec.arity, params, exponent)
    if not all(math.isfinite(amp) for pair in table for amp in pair):
        raise OverflowError(
            f"{spec.kind.value} gate at q={float(q)!r} under the {exponent.value} exponent "
            f"has a non-finite creation amplitude in {table}"
        )
    emb = QubitEmbedding(spec.arity)
    index, amps = emb.basis_indices(), ket_amplitudes(table)

    def dyads(triples) -> np.ndarray:
        matrix = np.zeros((emb.dim, emb.dim), dtype=complex)
        for out_bits, in_bits, coeff in triples:
            matrix[index[out_bits], index[in_bits]] += complex(coeff) * (amps[out_bits] * amps[in_bits])
        return matrix

    return dyads


@functools.cache
def _occupation(mode_index: int, mode_count: int) -> np.ndarray:
    """Diagonal of one mode's number operator lifted to mode_count modes: the mode's 0/1
    occupation at each basis index (mode 1 is the slowest digit), built once, read-only."""
    occupation = ((np.arange(2**mode_count) >> (mode_count - mode_index)) & 1).astype(float)
    occupation.flags.writeable = False
    return occupation


def deformed_gate_matrix(
    spec: GateSpec,
    q,
    params: DeformationParams | None = None,
    exponent: ExponentConvention = ExponentConvention.RESULT,
) -> np.ndarray:
    """Deformed gate built from dyads over deformed kets plus projected operator terms.

    params None uses the closing assignment per ket; an explicit params is
    shared by every ket.  Diagonal number operators multiply dyad sums on the
    right, scaling their columns, so control values are read off the incoming
    ket.
    """
    emb = QubitEmbedding(spec.arity)
    dyads = _dyad_builder(spec, q, params, exponent)
    valid = np.diag(emb.projector())
    kind = spec.kind

    if kind is GateKind.PS:
        return dyads(((x,), (x,), cmath.exp(1j * spec.phi * x)) for x in (0, 1))
    if kind is GateKind.NOT:
        return dyads(((1 - x,), (x,), 1.0) for x in (0, 1))
    if kind is GateKind.HAD:
        parity = 1.0 - 2.0 * _occupation(1, emb.mode_count)
        return np.diag(valid * parity) + dyads(((1 - x,), (x,), 1.0) for x in (0, 1))
    if kind is GateKind.SWAP:
        return dyads(((y, x), (x, y), 1.0) for x in (0, 1) for y in (0, 1))
    if kind is GateKind.CNOT:
        n1 = _occupation(1, emb.mode_count)
        flips = dyads(((x, 1 - y), (x, y), 1.0) for x in (0, 1) for y in (0, 1))
        return np.diag(valid * (1.0 - n1)) + flips * n1
    if kind is GateKind.FREDKIN:
        n1 = _occupation(1, emb.mode_count)
        swaps = dyads(((x, z, y), (x, y, z), 1.0) for x in (0, 1) for y in (0, 1) for z in (0, 1))
        return np.diag(valid * (1.0 - n1)) + swaps * n1
    if kind is GateKind.TOFFOLI:
        control = _occupation(1, emb.mode_count) * _occupation(3, emb.mode_count)
        flips = dyads(((x, y, 1 - z), (x, y, z), 1.0) for x in (0, 1) for y in (0, 1) for z in (0, 1))
        holds = dyads(((x, y, z), (x, y, z), 1.0) for x in (0, 1) for y in (0, 1) for z in (0, 1))
        return flips * control + holds * (1.0 - control)
    raise ValueError(f"unknown gate kind {kind!r}")


def toffoli_literal_matrix(
    q,
    params: DeformationParams | None = None,
    exponent: ExponentConvention = ExponentConvention.RESULT,
) -> np.ndarray:
    """The doubly controlled gate with flip dyads on every control bracket, as printed.

    The two control brackets, N1*M1 + (1-N1)*M1 and (1-M1)*N1 + (1-N1)*(1-M1)
    with N1 and M1 the first-mode number operators of the two control qubits,
    sum to the identity, so this construction flips the target bit on every
    input.  Kept solely for audit records; deformed_gate_matrix builds the
    table-faithful version.
    """
    spec = GateSpec(GateKind.TOFFOLI)
    dyads = _dyad_builder(spec, q, params, exponent)
    mode_count = QubitEmbedding(spec.arity).mode_count
    n1, m1 = _occupation(1, mode_count), _occupation(3, mode_count)
    flips = dyads(((x, y, 1 - z), (x, y, z), 1.0) for x in (0, 1) for y in (0, 1) for z in (0, 1))
    bracket_one = n1 * m1 + (1.0 - n1) * m1
    bracket_two = (1.0 - m1) * n1 + (1.0 - n1) * (1.0 - m1)
    return flips * bracket_one + flips * bracket_two
