"""Truncated Fock-space machinery: ladder matrices, occupation indexing, multi-mode states.

Everything is small and dense (complex128).  Multi-mode indexing is row-major over
occupation tuples with mode 1 slowest: for cutoff d and k modes the basis index of
(n_1, ..., n_k) is sum(n_i * d^(k - i)).
"""

from typing import NamedTuple

import numpy as np

from ._values import Frozen

__all__ = [
    "ModeOperators",
    "MultiModeState",
    "basis_state",
    "make_mode_ops",
    "occupation_index",
]


class ModeOperators(NamedTuple):
    """Dense ladder matrices on the levels 0 .. cutoff-1 of one mode.

    a|n> = sqrt(n)|n-1>, a_dag|n> = sqrt(n+1)|n+1> with the top transition
    removed by truncation, and n_op = diag(0, ..., cutoff-1) with exact integer
    entries (agreeing with a_dag @ a to rounding).
    """

    cutoff: int
    a: np.ndarray
    a_dag: np.ndarray
    n_op: np.ndarray


def make_mode_ops(d: int) -> ModeOperators:
    """Ladder operators for a single mode truncated to d levels (d >= 2)."""
    if d < 2:
        raise ValueError(f"cutoff must be at least 2, got {d}")
    if d * d > np.iinfo(np.intp).max // np.dtype(complex).itemsize:
        raise MemoryError(f"a {d} x {d} complex matrix is larger than any array numpy can index")
    a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1).astype(complex)
    n_op = np.diag(np.arange(d, dtype=float)).astype(complex)
    return ModeOperators(cutoff=d, a=a, a_dag=a.conj().T, n_op=n_op)


def occupation_index(occ, d: int) -> int:
    """Basis index of an occupation tuple (row-major, mode 1 slowest)."""
    idx = 0
    for n in occ:
        n = int(n)
        if not 0 <= n < d:
            raise ValueError(f"occupation {n} outside 0..{d - 1}")
        idx = idx * d + n
    return idx


class MultiModeState(Frozen):
    """Amplitude vector over mode_count modes at a common cutoff.

    The norm is reported through the property below and never silently imposed;
    deformed constructions deliberately produce non-unit vectors.
    """

    __slots__ = ("mode_count", "cutoff", "vector")

    def __init__(self, mode_count: int, cutoff: int, vector: np.ndarray):
        vec = np.array(vector, dtype=complex)
        if vec.shape != (cutoff**mode_count,):
            raise ValueError(f"expected vector of length {cutoff ** mode_count}, got shape {vec.shape}")
        vec.flags.writeable = False
        self._set(mode_count, cutoff, vec)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))

    def amplitude(self, occ) -> complex:
        """Amplitude on one occupation tuple."""
        if len(occ) != self.mode_count:
            raise ValueError(f"expected {self.mode_count} occupations, got {len(occ)}")
        return complex(self.vector[occupation_index(occ, self.cutoff)])


def basis_state(occ, d: int) -> MultiModeState:
    """Unit amplitude on a single occupation tuple."""
    occ = tuple(int(n) for n in occ)
    vec = np.zeros(d ** len(occ), dtype=complex)
    vec[occupation_index(occ, d)] = 1.0
    return MultiModeState(len(occ), d, vec)
