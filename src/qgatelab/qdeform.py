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

make_deformed_stack builds the pair at every q of a tuple at once, as (Q, d, d)
arrays, and stack_residuals takes the relations of all of them with stacked
matrix products and returns, per relation key, the list of per-q maxima and the
per-q tuples of tested levels; a single q is the stack of one.
"""

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .fock import ModeOperators
from .qnum import _check_q, bracket, bracket_roots

__all__ = [
    "DeformedModeStack",
    "OperatorConvention",
    "deformed_number_op",
    "make_deformed_stack",
    "stack_residuals",
]

# the relations that read the vacuum diagonal of a_q_dag @ a_q
_VACUUM_READERS = ("deformed_commutation", "lowering_product_diagonal")


class OperatorConvention(str, Enum):
    """How the scaled ladder operators are read off."""

    MATRIX_ELEMENT = "matrix-element"
    LEFT_SCALING = "left-scaling"


class DeformedModeStack(NamedTuple):
    """Deformed ladder matrices for one truncated mode at each q of q_values, as (Q, d, d) arrays
    along q, and the brackets B(0)..B(cutoff) they were built from as a (Q, d + 1) array."""

    mode: ModeOperators
    q_values: tuple
    psi_a: float
    psi_b: float
    convention: OperatorConvention
    a_q: np.ndarray
    a_q_dag: np.ndarray
    brackets: np.ndarray


def make_deformed_stack(
    mode: ModeOperators,
    q_values,
    psi_a=1.0,
    psi_b=1.0,
    convention: OperatorConvention = OperatorConvention.MATRIX_ELEMENT,
) -> DeformedModeStack:
    """Build the deformed pair at every q of q_values under the chosen convention.  Entry i equals
    the stack of q_values[i] alone to the bit.  The brackets overflow as qnum.bracket says, q by q;
    then the first q with an inadmissible bracket (qnum.bracket_roots) on levels 1..d-1 raises
    NegativeRadicandError."""
    convention = OperatorConvention(convention)
    q_values = tuple(_check_q(q) for q in q_values)
    psi_a = float(psi_a)
    psi_b = float(psi_b)
    d = mode.cutoff
    brackets = bracket(range(d + 1), q_values, psi_a, psi_b, "the psi bracket at n={n}, q={q!r}")
    levels = np.arange(1, d)  # the levels whose roots the pair holds
    roots = bracket_roots(brackets[:, 1:d], levels)[1]
    if convention is OperatorConvention.MATRIX_ELEMENT:
        a_q = np.zeros((len(q_values), d, d), dtype=complex)
        a_q[:, levels - 1, levels] = roots
        a_q_dag = a_q.conj().transpose(0, 2, 1)
    else:
        f_of_n = np.zeros((len(q_values), d, d), dtype=complex)
        f_of_n[:, levels, levels] = roots / np.sqrt(levels.astype(float))
        a_q = f_of_n @ mode.a
        a_q_dag = f_of_n @ mode.a_dag
    return DeformedModeStack(mode, q_values, psi_a, psi_b, convention, a_q, a_q_dag, brackets)


def deformed_number_op(mode: ModeOperators, q: float, psi_b: float) -> np.ndarray:
    """Shifted number operator N - (ln psi_b / ln q) I on a truncated mode.

    Undefined at q = 1 (the shift divides by ln q) and for psi_b <= 0 (the
    logarithm needs a positive argument); both are rejected.
    """
    if q == 1.0:
        raise ValueError("the shifted number operator is undefined at q = 1")
    if psi_b <= 0.0:
        raise ValueError(f"psi_b must be positive inside the logarithm, got {psi_b!r}")
    shift = math.log(psi_b) / math.log(q)
    return mode.n_op - shift * np.eye(mode.cutoff, dtype=complex)


def _diagonal_stack(diagonals: np.ndarray) -> np.ndarray:
    """(Q, d) diagonals as a (Q, d, d) complex stack of diagonal matrices."""
    count, d = diagonals.shape
    stack = np.zeros((count, d, d), dtype=complex)
    stack[:, range(d), range(d)] = diagonals
    return stack


def stack_residuals(stack: DeformedModeStack) -> tuple:
    """(residuals, levels) of the five deformed-algebra relations at each q of a stack: per
    relation key, the list of max-entry residuals and the list of tested-level tuples, entry i
    equal to that of q_values[i]'s stack alone to the bit.

    All relations are tested on levels 0..d-2; the top level is excluded as a
    truncation artifact.  The two relations that read the vacuum diagonal of
    a_q_dag @ a_q (keys deformed_commutation and lowering_product_diagonal)
    additionally drop level 0 whenever B(0) != 0: with unequal pair parameters
    the bracket does not vanish at n = 0 but the matrix product always does,
    because lowering annihilates the vacuum structurally.  That is the exact
    bottom-of-ladder analogue of the top-level exclusion.  B(n) is read off the stack.
    """
    mode = stack.mode
    d = mode.cutoff
    aq, aqd = stack.a_q, stack.a_q_dag
    n_op = mode.n_op
    q = np.array(stack.q_values)

    keeps_vacuum = stack.brackets[:, 0] == 0.0
    level = np.arange(d)
    inside = level < d - 1
    guarded_inside = inside & (keeps_vacuum[:, None] | (level > 0))  # (Q, d)
    masks = {False: np.outer(inside, inside), True: guarded_inside[:, :, None] & guarded_inside[:, None, :]}
    maxima = {}

    def reduce(key: str, matrix: np.ndarray) -> None:
        # each relation is reduced as soon as it is built, so one relation's temporaries are alive at a time
        tested = masks[key in _VACUUM_READERS]
        maxima[key] = np.abs(matrix).max(axis=(1, 2), where=tested, initial=0.0).tolist()

    raised, lowered = aq @ aqd, aqd @ aq
    q_pow_neg_n = _diagonal_stack(q[:, None] ** -np.arange(d, dtype=float))
    reduce("deformed_commutation", raised - q[:, None, None] * lowered - stack.psi_b * q_pow_neg_n)
    reduce("lowering_number_commutator", (aq @ n_op - n_op @ aq) - aq)
    reduce("raising_number_commutator", (aqd @ n_op - n_op @ aqd) + aqd)
    reduce("lowering_product_diagonal", lowered - _diagonal_stack(stack.brackets[:, :d]))
    reduce("raising_product_diagonal", raised - _diagonal_stack(stack.brackets[:, 1 : d + 1]))

    base = tuple(range(d - 1))
    guarded = tuple(base if kept else base[1:] for kept in keeps_vacuum.tolist())
    return maxima, {key: guarded if key in _VACUUM_READERS else (base,) * len(guarded) for key in maxima}
