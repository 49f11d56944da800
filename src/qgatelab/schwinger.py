"""Two-modes-per-qubit encoding and deformed qubit states.

Qubit i is carried by modes (2i-1, 2i): bit value x occupies the pair as
(x, 1-x), so |0> is the single excitation in the even mode and |1> in the odd
mode.  A deformed qubit ket is the matching basis ket rescaled by one creation
amplitude sqrt(B(1)) per qubit, the whole of the deformation in the
single-excitation sector, which is why deformed states stay collinear with
their undeformed counterparts.  Those amplitudes form a [slot][bit] table
(amplitude_table), and a ket's one nonzero entry is the product of its
qubits' table entries (ket_amplitudes): every deformed ket and gate is built
from that table.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

import numpy as np

from .fock import MultiModeState, basis_state, occupation_index
from .qnum import DeformationParams, NegativeRadicandError, psi_bracket

__all__ = [
    "DeformedQubitSpec",
    "ExponentConvention",
    "QubitEmbedding",
    "amplitude_table",
    "closing_params",
    "deformed_qubit_state",
    "encode_basis",
    "ket_amplitudes",
    "qubit_amplitude",
]

# levels per mode in the pair encoding: each mode holds no excitation or one
CUTOFF = 2


class ExponentConvention(str, Enum):
    """Where occupation exponents in the parameter-fixing rule are evaluated.

    RESULT reads them on the created state and makes every fixed-parameter
    qubit ket exactly unit norm; VACUUM reads them on the vacuum and leaves a
    residual sqrt(q) on excited qubits.  Both are kept so reports can compare.
    """

    RESULT = "result"
    VACUUM = "vacuum"


def _check_bits(bits) -> tuple:
    bits = tuple(int(b) for b in bits)
    if not bits:
        raise ValueError("at least one qubit is required")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits}")
    return bits


@dataclass(frozen=True)
class QubitEmbedding:
    """Shape data for qubit_count qubits over 2*qubit_count two-level modes."""

    qubit_count: int

    def __post_init__(self):
        if self.qubit_count < 1:
            raise ValueError("at least one qubit is required")

    @property
    def mode_count(self) -> int:
        return 2 * self.qubit_count

    @property
    def dim(self) -> int:
        return CUTOFF**self.mode_count

    def occupation(self, bits) -> tuple:
        """Occupation tuple (x, 1-x) per qubit, modes in ascending order."""
        bits = _check_bits(bits)
        if len(bits) != self.qubit_count:
            raise ValueError(f"expected {self.qubit_count} bits, got {len(bits)}")
        occ = []
        for x in bits:
            occ.extend((x, 1 - x))
        return tuple(occ)

    def basis_index(self, bits) -> int:
        return occupation_index(self.occupation(bits), CUTOFF)

    def all_bits(self):
        """Every bit tuple in lexicographic order."""
        return itertools.product((0, 1), repeat=self.qubit_count)

    @functools.cache
    def basis_indices(self) -> MappingProxyType:
        """basis_index of every bit tuple, in all_bits order, built once, read-only."""
        return MappingProxyType({bits: self.basis_index(bits) for bits in self.all_bits()})

    @functools.cache
    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the valid-encoding subspace, built once, read-only."""
        proj = np.zeros((self.dim, self.dim), dtype=complex)
        for idx in self.basis_indices().values():
            proj[idx, idx] = 1.0
        proj.flags.writeable = False
        return proj


def encode_basis(bits) -> MultiModeState:
    """Undeformed basis ket of a bit string under the pair encoding."""
    emb = QubitEmbedding(len(_check_bits(bits)))
    return basis_state(emb.occupation(bits), CUTOFF)


def closing_params(q, bits, exponent: ExponentConvention = ExponentConvention.RESULT) -> DeformationParams:
    """The per-ket parameter assignment that closes the deformed gate identities.

    For qubit i holding bit x, with n1 = x under RESULT and n1 = 0 under
    VACUUM, the odd mode's pair is set to q^(1-n1) (both entries) and the even
    mode's pair to q^(n1).  Under RESULT every creation amplitude collapses to
    exactly 1 for every q.
    """
    bits = _check_bits(bits)
    exponent = ExponentConvention(exponent)
    q = float(q)
    pairs = {}
    for i, x in enumerate(bits, start=1):
        n1 = x if exponent is ExponentConvention.RESULT else 0
        pairs[2 * i - 1] = (q ** (1 - n1), q ** (1 - n1))
        pairs[2 * i] = (q**n1, q**n1)
    return DeformationParams(q).with_pairs(pairs)


def qubit_amplitude(bit: int, qubit_index: int, q, params: DeformationParams) -> float:
    """Creation amplitude sqrt(B(1)) of the mode carrying this qubit's excitation.

    Bit 1 excites the odd mode 2*qubit_index - 1, bit 0 the even mode
    2*qubit_index; the bracket uses that mode's psi pair.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    mode = 2 * qubit_index - 1 if bit else 2 * qubit_index
    psi_a, psi_b = params.pair(mode)
    bracket = psi_bracket(1, q, psi_a, psi_b)
    if bracket < 0.0:
        raise NegativeRadicandError(1, bracket)
    return math.sqrt(bracket)


@dataclass(frozen=True)
class DeformedQubitSpec:
    """A bit string plus the deformation data used to build its deformed ket.

    params None means the closing assignment derived from the bits themselves
    (the parameter-fixing rule); an explicit DeformationParams overrides it.
    """

    bits: tuple
    params: DeformationParams | None = None
    exponent: ExponentConvention = ExponentConvention.RESULT

    def __post_init__(self):
        object.__setattr__(self, "bits", _check_bits(self.bits))
        object.__setattr__(self, "exponent", ExponentConvention(self.exponent))


def amplitude_table(q, qubit_count: int, params=None, exponent=ExponentConvention.RESULT) -> tuple:
    """Per qubit slot, the creation amplitudes (bit 0, bit 1) of qubit_amplitude.

    params None means the closing assignment.  closing_params fixes each
    qubit's modes from that qubit's own bit, so a closing amplitude depends
    only on (bit, q, exponent): every slot shares one pair, computed once per
    (q, exponent).  An explicit params is shared by every slot and needs real
    amplitudes on all 2 * qubit_count modes.
    """
    q = float(q)
    if params is None:
        return (_closing_amplitudes(q, ExponentConvention(exponent)),) * qubit_count
    if params.q != q:
        raise ValueError(f"params carry q={params.q!r} but the amplitudes were requested at q={q!r}")
    return tuple(tuple(qubit_amplitude(bit, slot, q, params) for bit in (0, 1)) for slot in range(1, qubit_count + 1))


@functools.lru_cache(maxsize=2)  # one q under both exponents
def _closing_amplitudes(q: float, exponent: ExponentConvention) -> tuple:
    return tuple(qubit_amplitude(bit, 1, q, closing_params(q, (bit,), exponent)) for bit in (0, 1))


def ket_amplitudes(table: tuple) -> dict:
    """Per bit tuple of the table's register, in all_bits order, the one nonzero entry of
    its deformed ket: its qubits' table amplitudes multiplied in slot order."""
    every_bits = itertools.product((0, 1), repeat=len(table))
    return {bits: math.prod(table[slot][bit] for slot, bit in enumerate(bits)) for bits in every_bits}


def deformed_qubit_state(spec: DeformedQubitSpec, q) -> MultiModeState:
    """Deformed multi-qubit ket: the encoded basis ket times its amplitude_table product.

    The returned state is immutable, so a shared ket cannot be corrupted.
    """
    table = amplitude_table(q, len(spec.bits), spec.params, spec.exponent)
    base = encode_basis(spec.bits)
    return MultiModeState(base.mode_count, base.cutoff, ket_amplitudes(table)[spec.bits] * base.vector)
