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

from .fock import lift, make_mode_ops
from .qnum import DeformationParams
from .schwinger import (
    CUTOFF,
    DeformedQubitSpec,
    ExponentConvention,
    QubitEmbedding,
    deformed_qubit_state,
)

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


def _dyad_builder(q, params, exponent):
    """dyad(out_bits, in_bits, coeff): coeff |out><in| over deformed kets of these parameters."""

    def ket(bits) -> np.ndarray:
        return deformed_qubit_state(DeformedQubitSpec(bits, params, exponent), q).vector

    def dyad(out_bits, in_bits, coeff=1.0) -> np.ndarray:
        return complex(coeff) * np.outer(ket(out_bits), ket(in_bits).conj())

    return dyad


# registers of 1 to 3 qubits carry 2, 4 or 6 modes: 2 + 4 + 6 = 12 (mode, mode count) pairs
@functools.lru_cache(maxsize=12)
def _number_op(mode_index: int, mode_count: int) -> np.ndarray:
    """Number operator of one mode lifted to mode_count modes, built once, read-only."""
    op = lift(make_mode_ops(CUTOFF).n_op, mode_index, mode_count)
    op.flags.writeable = False
    return op


def deformed_gate_matrix(
    spec: GateSpec,
    q,
    params: DeformationParams | None = None,
    exponent: ExponentConvention = ExponentConvention.RESULT,
) -> np.ndarray:
    """Deformed gate built from dyads over deformed kets plus projected operator terms.

    params None uses the closing assignment per ket (each dyad's bra and ket
    each fix their own parameters from their own bits); an explicit params is
    shared by every ket.  Diagonal number operators multiply dyad sums on the
    right so control values are read off the incoming ket.
    """
    emb = QubitEmbedding(spec.arity)
    dyad = _dyad_builder(q, params, exponent)
    proj = emb.projector()
    kind = spec.kind
    eye = np.eye(emb.dim, dtype=complex)

    if kind is GateKind.PS:
        return sum(dyad((x,), (x,), cmath.exp(1j * spec.phi * x)) for x in (0, 1))
    if kind is GateKind.NOT:
        return sum(dyad((1 - x,), (x,)) for x in (0, 1))
    if kind is GateKind.HAD:
        parity = lift(np.diag((-1.0) ** np.arange(CUTOFF)).astype(complex), 1, emb.mode_count)
        return proj @ parity @ proj + sum(dyad((1 - x,), (x,)) for x in (0, 1))
    if kind is GateKind.SWAP:
        return sum(dyad((y, x), (x, y)) for x in (0, 1) for y in (0, 1))
    if kind is GateKind.CNOT:
        n1 = _number_op(1, emb.mode_count)
        flips = sum(dyad((x, 1 - y), (x, y)) for x in (0, 1) for y in (0, 1))
        return proj @ (eye - n1) @ proj + flips @ n1
    if kind is GateKind.FREDKIN:
        n1 = _number_op(1, emb.mode_count)
        swaps = sum(dyad((x, z, y), (x, y, z)) for x in (0, 1) for y in (0, 1) for z in (0, 1))
        return proj @ (eye - n1) @ proj + swaps @ n1
    if kind is GateKind.TOFFOLI:
        control = _number_op(1, emb.mode_count) @ _number_op(3, emb.mode_count)
        flips = sum(dyad((x, y, 1 - z), (x, y, z)) for x in (0, 1) for y in (0, 1) for z in (0, 1))
        holds = sum(dyad((x, y, z), (x, y, z)) for x in (0, 1) for y in (0, 1) for z in (0, 1))
        return flips @ control + holds @ (eye - control)
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
    emb = QubitEmbedding(3)
    dyad = _dyad_builder(q, params, exponent)
    eye = np.eye(emb.dim, dtype=complex)
    n1 = _number_op(1, emb.mode_count)
    m1 = _number_op(3, emb.mode_count)
    flips = sum(dyad((x, y, 1 - z), (x, y, z)) for x in (0, 1) for y in (0, 1) for z in (0, 1))
    bracket_one = n1 @ m1 + (eye - n1) @ m1
    bracket_two = (eye - m1) @ n1 + (eye - n1) @ (eye - m1)
    return flips @ bracket_one + flips @ bracket_two
