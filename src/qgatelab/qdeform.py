"""Deformed ladder operators on one truncated mode, as their one nonzero band, plus residuals of
their algebra.

Two readings of the scaled-operator realization are implemented.

MATRIX_ELEMENT (the default) defines the pair by matrix elements,

    a_q|n> = sqrt(B(n)) |n-1>,    a_q_dag|n> = sqrt(B(n+1)) |n+1>,

with B(n) the two-parameter bracket.  This is the hermitian pairing
(a_q_dag is exactly the adjoint of a_q) and it satisfies the deformed
relations on every truncation-safe level.

LEFT_SCALING is the literal scaled form a_q = f(N) a and a_q_dag = f(N) a_dag
with f(n) = sqrt(B(n)/n).  f(0) divides by the vacuum eigenvalue; the entry is
zeroed, which kills the 1 -> 0 transition of the lowering operator.  The raising
operators of the two readings coincide, the lowering ones do not, and LEFT_SCALING
knowingly breaks the product-diagonal relation at level 1.  It exists so reports
can show side by side what the literal scaling does.

In both readings a_q has one nonzero superdiagonal and a_q_dag one nonzero
subdiagonal, so a truncated mode is held as that band: lowering[n - 1] is
<n-1|a_q|n> and raising[n - 1] is <n|a_q_dag|n-1>, for n = 1..d-1.  make_ladder_band
builds the band at every q of a tuple at once, as (Q, d - 1) arrays, and band_residuals
takes the relations of all of them level by level and returns, per relation key, the
list of per-q maxima and the per-q tuples of tested levels; a single q is the band of one.
"""

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .qnum import _check_q, bracket, bracket_roots

__all__ = [
    "LadderBand",
    "OperatorConvention",
    "band_residuals",
    "deformed_number_op",
    "make_ladder_band",
]

# the relations that read the vacuum diagonal of a_q_dag a_q
_VACUUM_READERS = ("deformed_commutation", "lowering_product_diagonal")


class OperatorConvention(str, Enum):
    """How the scaled ladder operators are read off."""

    MATRIX_ELEMENT = "matrix-element"
    LEFT_SCALING = "left-scaling"


class LadderBand(NamedTuple):
    """The nonzero band of the deformed pair on one truncated mode at each q of q_values: the
    lowering and raising entries of levels 1..d-1 as (Q, d - 1) arrays along q, and the brackets
    B(0)..B(d) they were built from as a (Q, d + 1) array."""

    q_values: tuple
    psi_a: float
    psi_b: float
    convention: OperatorConvention
    lowering: np.ndarray
    raising: np.ndarray
    brackets: np.ndarray


def make_ladder_band(
    cutoff: int,
    q_values,
    psi_a=1.0,
    psi_b=1.0,
    convention: OperatorConvention = OperatorConvention.MATRIX_ELEMENT,
) -> LadderBand:
    """The band of the deformed pair at every q of q_values under the chosen convention.  Entry i
    equals the band of q_values[i] alone to the bit.  The brackets overflow as qnum.bracket says, q by
    q; then the first q with an inadmissible bracket (qnum.bracket_roots) on levels 1..d-1 raises
    NegativeRadicandError."""
    convention = OperatorConvention(convention)
    q_values = tuple(_check_q(q) for q in q_values)
    psi_a = float(psi_a)
    psi_b = float(psi_b)
    d = cutoff
    brackets = bracket(range(d + 1), q_values, psi_a, psi_b, "the psi bracket at n={n}, q={q!r}")
    levels = np.arange(1, d)  # the levels whose roots the pair holds
    roots = bracket_roots(brackets[:, 1:d], levels)[1]
    if convention is OperatorConvention.MATRIX_ELEMENT:
        return LadderBand(q_values, psi_a, psi_b, convention, roots, roots, brackets)
    root_n = np.sqrt(levels.astype(float))  # the undeformed band sqrt(n)
    f_of_n = roots / root_n
    f_below = np.hstack([np.zeros((len(q_values), 1)), f_of_n[:, :-1]])  # f(n - 1), with f(0) zeroed
    return LadderBand(q_values, psi_a, psi_b, convention, f_below * root_n, f_of_n * root_n, brackets)


def deformed_number_op(cutoff: int, q: float, psi_b: float) -> np.ndarray:
    """The diagonal of the shifted number operator N - (ln psi_b / ln q) I on levels 0..cutoff-1.

    Undefined at q = 1 (the shift divides by ln q) and for psi_b <= 0 (the
    logarithm needs a positive argument); both are rejected.
    """
    if q == 1.0:
        raise ValueError("the shifted number operator is undefined at q = 1")
    if psi_b <= 0.0:
        raise ValueError(f"psi_b must be positive inside the logarithm, got {psi_b!r}")
    shift = math.log(psi_b) / math.log(q)
    return np.arange(cutoff, dtype=float) - shift


def band_residuals(band: LadderBand) -> tuple:
    """(residuals, levels) of the five deformed-algebra relations at each q of a band: per
    relation key, the list of max-entry residuals and the list of tested-level tuples, entry i
    equal to that of q_values[i]'s band alone to the bit.

    A relation's entries are those of its d x d matrix, each computed as the matrix products
    would: a_q a_q_dag and a_q_dag a_q are diagonal, the number commutators hold one band, and
    every other entry is zero.  All relations are tested on levels 0..d-2; the top level is
    excluded as a truncation artifact.  The two relations that read the vacuum diagonal of
    a_q_dag a_q (keys deformed_commutation and lowering_product_diagonal) additionally drop
    level 0 whenever B(0) != 0: with unequal pair parameters the bracket does not vanish at
    n = 0 but the product always does, because lowering annihilates the vacuum structurally.
    That is the exact bottom-of-ladder analogue of the top-level exclusion.  B(n) is read off
    the band.
    """
    lowering, raising, brackets = band.lowering, band.raising, band.brackets
    count, top = lowering.shape  # top = d - 1, the truncation-artifact level
    q = np.array(band.q_values)[:, None]
    level = np.arange(top + 1, dtype=float)
    below, above = level[:-1], level[1:]  # the row and column levels of the band entries

    # lowering[n - 1] * raising[n - 1] is <n-1|a_q a_q_dag|n-1> and <n|a_q_dag a_q|n>
    vacuum = np.zeros((count, 1))
    products = lowering * raising
    raised, lowered = np.hstack([products, vacuum]), np.hstack([vacuum, products])
    # the band relations are placed at their column level n, so level 0 holds a zero entry
    relations = {
        "deformed_commutation": raised - q * lowered - band.psi_b * q**-level,
        "lowering_number_commutator": np.hstack([vacuum, (lowering * above - below * lowering) - lowering]),
        "raising_number_commutator": np.hstack([vacuum, (raising * below - above * raising) + raising]),
        "lowering_product_diagonal": lowered - brackets[:, : top + 1],
        "raising_product_diagonal": raised - brackets[:, 1:],
    }
    keeps_vacuum = brackets[:, 0] == 0.0
    inside = level < top
    masks = {False: inside, True: inside & (keeps_vacuum[:, None] | (level > 0))}
    maxima = {
        key: np.abs(values).max(axis=1, where=masks[key in _VACUUM_READERS], initial=0.0).tolist()
        for key, values in relations.items()
    }

    base = tuple(range(top))
    guarded = tuple(base if kept else base[1:] for kept in keeps_vacuum.tolist())
    return maxima, {key: guarded if key in _VACUUM_READERS else (base,) * count for key in maxima}
