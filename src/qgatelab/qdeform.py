"""Deformed ladder operators on one truncated mode, plus residuals of their algebra.

Two readings of the scaled-operator realization are implemented.

MATRIX_ELEMENT (the default) defines the pair by matrix elements,

    a_q|n> = sqrt(B(n)) |n-1>,    a_q_dag|n> = sqrt(B(n+1)) |n+1>,

with B(n) the two-parameter bracket.  This is the hermitian pairing
(a_q_dag is exactly the adjoint of a_q) and it satisfies the deformed
relations on every truncation-safe level.

LEFT_SCALING is the literal scaled form a_q = f(N) @ a and a_q_dag = f(N) @ a_dag
with f(n) = sqrt(B(n)/n).  f(0) divides by the vacuum eigenvalue; the entry is
zeroed, which kills the 1 -> 0 transition of the lowering operator.  The raising
operators of the two readings coincide, the lowering ones do not, and LEFT_SCALING
knowingly breaks the product-diagonal relation at level 1.  It exists so reports
can show side by side what the literal scaling does.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import ModeOperators
from .qnum import NegativeRadicandError, psi_bracket

__all__ = [
    "AlgebraResiduals",
    "DeformedModeOperators",
    "OperatorConvention",
    "algebra_residuals",
    "deformed_number_op",
    "make_deformed_ops",
]


class OperatorConvention(str, Enum):
    """How the scaled ladder operators are read off."""

    MATRIX_ELEMENT = "matrix-element"
    LEFT_SCALING = "left-scaling"


@dataclass(frozen=True)
class DeformedModeOperators:
    """Deformed ladder matrices for one truncated mode and the brackets B(0)..B(cutoff) they
    were built from; deformed_number_op builds the matching shifted number operator."""

    mode: ModeOperators
    q: float
    psi_a: float
    psi_b: float
    convention: OperatorConvention
    a_q: np.ndarray
    a_q_dag: np.ndarray
    brackets: tuple


def make_deformed_ops(
    mode: ModeOperators,
    q,
    psi_a=1.0,
    psi_b=1.0,
    convention: OperatorConvention = OperatorConvention.MATRIX_ELEMENT,
) -> DeformedModeOperators:
    """Build the deformed pair on a truncated mode under the chosen convention."""
    convention = OperatorConvention(convention)
    q = float(q)
    psi_a = float(psi_a)
    psi_b = float(psi_b)
    d = mode.cutoff
    brackets = tuple(psi_bracket(n, q, psi_a, psi_b) for n in range(d + 1))
    for n in range(1, d):  # levels 1..d-1 must be nonnegative to take square roots
        if brackets[n] < 0.0:
            raise NegativeRadicandError(n, brackets[n])
    roots = np.sqrt(np.asarray(brackets[1:d], dtype=float))
    if convention is OperatorConvention.MATRIX_ELEMENT:
        a_q = np.diag(roots, 1).astype(complex)
        a_q_dag = a_q.conj().T
    else:
        scale = np.zeros(d)
        levels = np.arange(1, d, dtype=float)
        scale[1:] = roots / np.sqrt(levels)
        f_of_n = np.diag(scale).astype(complex)
        a_q = f_of_n @ mode.a
        a_q_dag = f_of_n @ mode.a_dag
    return DeformedModeOperators(mode, q, psi_a, psi_b, convention, a_q, a_q_dag, brackets)


def deformed_number_op(ops: DeformedModeOperators) -> np.ndarray:
    """Shifted number operator N - (ln psi_b / ln q) I.

    Undefined at q = 1 (the shift divides by ln q) and for psi_b <= 0 (the
    logarithm needs a positive argument); both are rejected.
    """
    if ops.q == 1.0:
        raise ValueError("the shifted number operator is undefined at q = 1")
    if ops.psi_b <= 0.0:
        raise ValueError(f"psi_b must be positive inside the logarithm, got {ops.psi_b!r}")
    shift = math.log(ops.psi_b) / math.log(ops.q)
    return ops.mode.n_op - shift * np.eye(ops.mode.cutoff, dtype=complex)


@dataclass(frozen=True)
class AlgebraResiduals:
    """Max-entry residuals of the deformed relations on truncation-safe levels.

    residuals maps relation keys to floats; levels maps the same keys to the
    tuple of tested levels, so reports can state exactly which sub-basis each
    number was measured on.
    """

    q: float
    psi_a: float
    psi_b: float
    convention: str
    cutoff: int
    residuals: dict
    levels: dict


def _masked_max(matrix: np.ndarray, levels) -> float:
    sub = matrix[np.ix_(levels, levels)]
    return float(np.max(np.abs(sub))) if sub.size else 0.0


def algebra_residuals(ops: DeformedModeOperators) -> AlgebraResiduals:
    """Residuals of the five deformed-algebra relations for one operator pair.

    All relations are tested on levels 0..d-2; the top level is excluded as a
    truncation artifact.  The two relations that read the vacuum diagonal of
    a_q_dag @ a_q (keys deformed_commutation and lowering_product_diagonal)
    additionally drop level 0 whenever B(0) != 0: with unequal pair parameters
    the bracket does not vanish at n = 0 but the matrix product always does,
    because lowering annihilates the vacuum structurally.  That is the exact
    bottom-of-ladder analogue of the top-level exclusion.  B(n) is read off ops.
    """
    mode = ops.mode
    d = mode.cutoff
    q = ops.q
    aq, aqd = ops.a_q, ops.a_q_dag
    n_op = mode.n_op

    base = tuple(range(d - 1))
    guarded = base if ops.brackets[0] == 0.0 else base[1:]

    q_pow_neg_n = np.diag(q ** -np.arange(d, dtype=float)).astype(complex)
    commutation = aq @ aqd - q * (aqd @ aq) - ops.psi_b * q_pow_neg_n
    lowering_number = (aq @ n_op - n_op @ aq) - aq
    raising_number = (aqd @ n_op - n_op @ aqd) + aqd
    lowering_diag = aqd @ aq - np.diag(np.asarray(ops.brackets[:d], dtype=complex))
    raising_diag = aq @ aqd - np.diag(np.asarray(ops.brackets[1 : d + 1], dtype=complex))

    relations = {
        "deformed_commutation": (commutation, guarded),
        "lowering_number_commutator": (lowering_number, base),
        "raising_number_commutator": (raising_number, base),
        "lowering_product_diagonal": (lowering_diag, guarded),
        "raising_product_diagonal": (raising_diag, base),
    }
    residuals = {key: _masked_max(matrix, tested) for key, (matrix, tested) in relations.items()}
    levels = {key: tested for key, (_, tested) in relations.items()}
    return AlgebraResiduals(q, ops.psi_a, ops.psi_b, ops.convention.value, d, residuals, levels)
