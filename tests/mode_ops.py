"""Dense ladder matrices of one truncated mode: the matrix form the tests build the deformed band's
oracle from (test_qdeform.py) and lift into multi-mode operators (test_gates.py), and the matrices
a deformed band stands for."""

from typing import NamedTuple

import numpy as np


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
    a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1).astype(complex)
    n_op = np.diag(np.arange(d, dtype=float)).astype(complex)
    return ModeOperators(cutoff=d, a=a, a_dag=a.conj().T, n_op=n_op)


def band_matrices(band) -> tuple:
    """The (Q, d, d) complex matrices a_q and a_q_dag of a qdeform.LadderBand: lowering on the
    superdiagonal, raising on the subdiagonal, zero elsewhere."""
    count, top = band.lowering.shape
    levels = np.arange(1, top + 1)
    a_q = np.zeros((count, top + 1, top + 1), dtype=complex)
    a_q_dag = np.zeros_like(a_q)
    a_q[:, levels - 1, levels] = band.lowering
    a_q_dag[:, levels, levels - 1] = band.raising
    return a_q, a_q_dag
