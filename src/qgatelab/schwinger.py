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
from enum import Enum
from types import MappingProxyType

import numpy as np

from ._values import Frozen
from .fock import MultiModeState, basis_state, occupation_index
from .qnum import DeformationParams, _check_q, bracket_roots, psi_bracket

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


class QubitEmbedding(Frozen):
    """Shape data for qubit_count qubits over 2*qubit_count two-level modes."""

    __slots__ = ("qubit_count",)

    def __init__(self, qubit_count: int):
        if qubit_count < 1:
            raise ValueError("at least one qubit is required")
        self._set(qubit_count)

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
        odd, even = _closing_psi(q, x, exponent)
        pairs[2 * i - 1] = (odd, odd)
        pairs[2 * i] = (even, even)
    return DeformationParams(q).with_pairs(pairs)


def _closing_psi(q: float, bit: int, exponent: ExponentConvention) -> tuple:
    """The closing rule for a qubit holding bit: the psi value of its odd mode's pair, q^(1-n1), and
    of its even mode's pair, q^(n1), with n1 = bit under RESULT and 0 under VACUUM."""
    n1 = bit if exponent is ExponentConvention.RESULT else 0
    return q ** (1 - n1), q**n1


def qubit_amplitude(bit: int, qubit_index: int, q, params: DeformationParams) -> float:
    """Creation amplitude sqrt(B(1)) of the mode carrying this qubit's excitation.

    Bit 1 excites the odd mode 2*qubit_index - 1, bit 0 the even mode
    2*qubit_index; the bracket uses that mode's psi pair.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    mode = 2 * qubit_index - 1 if bit else 2 * qubit_index
    return bracket_roots(psi_bracket(1, q, *params.pair(mode)), 1)[1].item()


class DeformedQubitSpec(Frozen):
    """A bit string plus the deformation data used to build its deformed ket.

    params None means the closing assignment derived from the bits themselves
    (the parameter-fixing rule); an explicit DeformationParams overrides it.
    """

    __slots__ = ("bits", "params", "exponent")

    def __init__(
        self,
        bits: tuple,
        params: DeformationParams | None = None,
        exponent: ExponentConvention = ExponentConvention.RESULT,
    ):
        self._set(_check_bits(bits), params, ExponentConvention(exponent))


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


def _closing_brackets(q: float, exponent: ExponentConvention) -> list:
    """B(1) of the modes bits 0 and 1 excite under closing_params, read from the closing rule directly:
    bit 1 excites the odd mode and bit 0 the even mode, each with both pair entries equal."""
    _check_q(q)
    odd_psi = _closing_psi(q, 1, exponent)[0]
    even_psi = _closing_psi(q, 0, exponent)[1]
    return [psi_bracket(1, q, psi, psi) for psi in (even_psi, odd_psi)]


@functools.lru_cache(maxsize=2)  # one q under both exponents
def _closing_amplitudes(q: float, exponent: ExponentConvention) -> tuple:
    """qubit_amplitude of bits 0 and 1 under closing_params."""
    return tuple(bracket_roots(_closing_brackets(q, exponent), 1)[1].tolist())


def ket_amplitudes(table) -> np.ndarray:
    """Per ket of the table's register, in all_bits order, the one nonzero entry of its
    deformed ket: its qubits' table amplitudes multiplied in slot order, as math.prod
    multiplies them.  table is [slot][bit] with any leading axes, which the result keeps."""
    table = np.asarray(table, dtype=float)
    kets = table[..., 0, :]
    with np.errstate(over="ignore"):  # a product overflows to inf, as with Python floats
        for slot in range(1, table.shape[-2]):
            kets = (kets[..., :, None] * table[..., slot, None, :]).reshape(*kets.shape[:-1], 2 * kets.shape[-1])
    return kets


def deformed_qubit_state(spec: DeformedQubitSpec, q) -> MultiModeState:
    """Deformed multi-qubit ket: the encoded basis ket times its amplitude_table product.

    The returned state is immutable, so a shared ket cannot be corrupted.
    """
    table = amplitude_table(q, len(spec.bits), spec.params, spec.exponent)
    base = encode_basis(spec.bits)
    amplitude = ket_amplitudes(table).reshape((2,) * len(spec.bits))[spec.bits]
    return MultiModeState(base.mode_count, base.cutoff, amplitude * base.vector)
