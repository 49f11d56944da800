"""q-number arithmetic: deformed integers and two-parameter brackets.

The deformed integer [n] = (q^n - q^(-n)) / (q - q^(-1)) underlies every matrix
element in this package; the two-parameter bracket weights its numerator with a
per-mode pair (psi_a, psi_b), and bracket is the one place either is written, on
floats, on numpy arrays of psi, or as a table over q values and levels.  Every
deformed amplitude is the square root of a bracket, and bracket_roots is the one
rule for which brackets admit one (B >= 0.0) and the one place roots are taken.
"""

import math
import operator

import numpy as np

from ._values import Frozen

__all__ = [
    "MODE_COUNT",
    "PSI_COUNT",
    "DeformationParams",
    "NegativeRadicandError",
    "q_bracket",
    "psi_bracket",
]

MODE_COUNT = 6
PSI_COUNT = 2 * MODE_COUNT


class NegativeRadicandError(ValueError):
    """A deformed amplitude would need the square root of a negative bracket."""

    def __init__(self, level: int, value: float):
        self.level = level
        self.value = value
        super().__init__(
            f"bracket {value!r} at occupation level {level} is negative; "
            "this (q, psi) assignment does not admit real deformed amplitudes"
        )


def _check_q(q) -> float:
    q = float(q)
    if not math.isfinite(q) or q <= 0.0:
        raise ValueError(f"deformation parameter q must be a positive finite real, got {q!r}")
    return q


def _check_level(n) -> int:
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"occupation number must be nonnegative, got {n}")
    return n


def q_bracket(n, q) -> float:
    """Deformed integer [n] = (q^n - q^(-n)) / (q - q^(-1)).

    Symmetric under q <-> 1/q.  At q = 1 the analytic limit n is returned
    directly instead of evaluating the 0/0 ratio.
    """
    # psi = 1 multiplies exactly, so this is the symmetric bracket, and n itself at q = 1
    return bracket(_check_level(n), _check_q(q), 1.0, 1.0, "the q bracket at n={n}, q={q!r}")


def psi_bracket(n, q, psi_a, psi_b) -> float:
    """Two-parameter bracket (q^n * psi_a - q^(-n) * psi_b) / (q - q^(-1)).

    Reduces to q_bracket(n, q) at psi_a = psi_b = 1, and to n * psi at q = 1
    with psi_a = psi_b = psi.  q = 1 with unequal pair values is rejected: the
    numerator does not vanish with the denominator, so no finite value exists.
    """
    return bracket(_check_level(n), _check_q(q), float(psi_a), float(psi_b), "the psi bracket at n={n}, q={q!r}")


def overflow_error(subject: str, n: int) -> OverflowError:
    """The error for q**n, or its product with a psi value, beyond double precision."""
    return OverflowError(f"{subject} overflows double precision at q**{n}")


def power(q: float, n: int, subject: str) -> float:
    """q**n, raising overflow_error(subject, n) beyond double precision."""
    try:
        return q**n
    except OverflowError:
        raise overflow_error(subject, n) from None


def bracket(n, q, psi_a, psi_b, subject: str):
    """(q^n psi_a - q^(-n) psi_b) / (q - 1/q), and its limit n psi_a at q = 1, where it is defined only for
    psi_a == psi_b: the one place the bracket is written.

    n and q are a level and a float base, or a sequence of levels and a sequence of float bases; the
    latter gives the (len(q), len(n)) table of the same values to the bit.  psi_a and psi_b are floats,
    or with one base q != 1 numpy arrays of psi, whose entries get their pair's float operations.  The
    powers and q - 1/q are Python floats, taken q-major with n ascending.  Only the power above 1 can
    overflow; the first to do so raises overflow_error with subject formatted by its {n} and {q}.  So
    does its product with an array of psi (under the caller's np.errstate), named with the first psi
    value it overflows at; float products and quotients give inf, and so do the table's, without a
    numpy warning."""
    table = not isinstance(q, float)
    bases, levels = (q, n) if table else ((q,), (n,))
    if 1.0 in bases and psi_a != psi_b:
        raise ValueError(f"q = 1 is only defined for equal pair parameters; got psi_a={psi_a!r}, psi_b={psi_b!r}")
    ups, downs = [], []
    try:
        for base in bases:
            for level in levels:
                ups.append(base**level)
                downs.append(base**-level)
    except OverflowError:
        raise overflow_error(subject.format(n=level, q=base), level if base > 1.0 else -level) from None
    gaps = [base - 1.0 / base if base != 1.0 else math.inf for base in bases]  # a q = 1 entry is set below
    if table:
        up, down = (np.array(powers).reshape(len(bases), len(levels)) for powers in (ups, downs))
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as float operations give them
            values = (up * psi_a - down * psi_b) / np.array(gaps)[:, None]
            values[[base == 1.0 for base in bases]] = np.asarray(levels, dtype=float) * psi_a
        return values
    if q == 1.0:
        return float(n) * psi_a
    terms = ups[0] * psi_a, downs[0] * psi_b
    at = -n if q < 1.0 else n  # the power above 1
    term, name, psi = (terms[1], "psi_b", psi_b) if at < 0 else (terms[0], "psi_a", psi_a)
    if isinstance(term, np.ndarray) and not np.isfinite(term).all():
        subject = subject.format(n=n, q=q)
        raise overflow_error(f"{subject} and {name}={psi[~np.isfinite(term)].flat[0].item()!r}", at)
    return (terms[0] - terms[1]) / gaps[0]


def bracket_roots(brackets, levels=None) -> tuple:
    """Of a float bracket or an array of them, the admissible mask B >= 0.0 (not NaN) and the roots:
    sqrt(B) where admissible (+0.0 at -0.0), 0.0 elsewhere, as arrays.  A caller needing real
    amplitudes passes the brackets' levels (broadcast against them): the first inadmissible bracket
    in C order then raises NegativeRadicandError with its level and value."""
    values = np.asarray(brackets, dtype=float)
    admissible = values >= 0.0
    if levels is not None and not admissible.all():
        at = np.unravel_index(np.argmin(admissible), values.shape)
        raise NegativeRadicandError(int(np.broadcast_to(levels, values.shape)[at]), float(values[at]))
    return admissible, np.where(admissible, np.sqrt(np.abs(values)), 0.0)


class DeformationParams(Frozen):
    """Deformation strength q together with the twelve mode parameters.

    Mode m (1-based, six modes) owns the ordered pair (psi[2m-2], psi[2m-1]);
    qubit i is carried by modes (2i-1, 2i), so one qubit consumes four
    consecutive psi values.
    """

    __slots__ = ("q", "psi")

    def __init__(self, q: float, psi: tuple = (1.0,) * PSI_COUNT):
        q = _check_q(q)
        psi = tuple(float(p) for p in psi)
        if len(psi) != PSI_COUNT:
            raise ValueError(f"expected {PSI_COUNT} psi values, got {len(psi)}")
        if not all(math.isfinite(p) for p in psi):
            raise ValueError("psi values must be finite")
        self._set(q, psi)

    def pair(self, mode: int) -> tuple:
        """Ordered (psi_a, psi_b) pair of the given 1-based mode."""
        if not 1 <= mode <= MODE_COUNT:
            raise ValueError(f"mode index must be in 1..{MODE_COUNT}, got {mode}")
        return self.psi[2 * mode - 2], self.psi[2 * mode - 1]

    def with_pairs(self, pairs: dict) -> "DeformationParams":
        """Copy with the given {mode: (psi_a, psi_b)} entries replaced."""
        psi = list(self.psi)
        for mode, (pa, pb) in pairs.items():
            if not 1 <= mode <= MODE_COUNT:
                raise ValueError(f"mode index must be in 1..{MODE_COUNT}, got {mode}")
            psi[2 * mode - 2] = float(pa)
            psi[2 * mode - 1] = float(pb)
        return DeformationParams(self.q, tuple(psi))

    @classmethod
    def uniform(cls, q, psi_value=1.0) -> "DeformationParams":
        """All twelve psi values equal."""
        return cls(q, (float(psi_value),) * PSI_COUNT)
