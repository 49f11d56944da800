"""Truncated Fock-space machinery: occupation indexing and multi-mode states.

State vectors are small and dense (complex128).  Multi-mode indexing is row-major over
occupation tuples with mode 1 slowest: for cutoff d and k modes the basis index of
(n_1, ..., n_k) is sum(n_i * d^(k - i)).  The ladder operators of one mode live in qdeform,
as their one nonzero band.
"""

import numpy as np

from ._values import Frozen

__all__ = [
    "MultiModeState",
    "basis_state",
    "occupation_index",
]


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
