"""The tensor lift of a single-mode operator, used by the dense gate oracle in test_gates.py."""

import numpy as np


def lift(op: np.ndarray, mode_index: int, mode_count: int) -> np.ndarray:
    """I^(mode_index-1) (x) op (x) I^(mode_count-mode_index): a single-mode operator at a 1-based
    mode position among mode_count modes, mode 1 slowest as in the state indexing."""
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    if not 1 <= mode_index <= mode_count:
        raise ValueError(f"mode index must be in 1..{mode_count}, got {mode_index}")
    d = op.shape[0]
    left = np.eye(d ** (mode_index - 1), dtype=complex)
    right = np.eye(d ** (mode_count - mode_index), dtype=complex)
    return np.kron(np.kron(left, op.astype(complex)), right)
