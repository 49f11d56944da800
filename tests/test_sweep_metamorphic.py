"""Metamorphic relations of the constraint sweep: relations between two runs that follow from the
bracket's algebra alone, so they need no second implementation.

- Psi scaling.  Every bracket is linear in psi, so scaling a grid by 4^k scales every bracket by
  4^k and every amplitude by exactly 2^k (a power of 2 multiplies a float exactly).  So
  admissibility, exact zeros, counts, verdicts and minimal patterns cannot change; a stratum's
  strict maxima scale by exactly 2^(k * the qubits it fills), since a qubit pinned at psi = 1
  keeps its amplitudes, and its collinear maxima, which measure angles, stay as they are.
- Inversion.  B(n; 1/q, psi_a, psi_b) = B(n; q, psi_b, psi_a), to the bit when q is a power of 2,
  and every stratum and candidate pattern is closed under swapping psi_a and psi_b within each
  mode, so per-stratum counts, maxima and verdicts agree at q and at 1/q.

Grids hold 2 to 4 values, each a power of 2 or a small odd integer, so every scaled input is exact.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qgatelab import GateKind, GateSpec, discover_constraints  # noqa: E402
from qgatelab.constraints import _strata  # noqa: E402

_VALUES = st.one_of(st.sampled_from([2.0**k for k in range(-3, 4)]), st.sampled_from([1.0, 3.0, 5.0, 7.0, 9.0]))
_GRID = st.lists(_VALUES, min_size=2, max_size=4)
_COUNTS = ("rows", "admissible", "skipped", "zero_strict", "zero_collinear")


def _same_outcome(first, second) -> None:
    assert second.verdict == first.verdict
    assert second.minimal_pattern == first.minimal_pattern
    assert [s["stratum"] for s in second.strata] == [s["stratum"] for s in first.strata]
    for before, after in zip(first.strata, second.strata):
        assert [after[key] for key in _COUNTS] == [before[key] for key in _COUNTS], before["stratum"]


@pytest.mark.parametrize("kind", list(GateKind))
@hypothesis.settings(max_examples=8, deadline=None, derandomize=True, database=None)
@hypothesis.given(grid=_GRID, k=st.integers(-3, 10))
@hypothesis.example(grid=[0.5, 1.0, 2.0, 4.0], k=10)  # the default grid times 2^20
def test_scaling_psi_by_a_power_of_four_scales_only_the_strict_maxima(kind, grid, k):
    base = discover_constraints(kind, grid=grid)
    scaled = discover_constraints(kind, grid=[value * 4.0**k for value in grid])
    _same_outcome(base, scaled)
    strata = _strata(GateSpec(kind).arity)
    for before, after in zip(base.strata, scaled.strata):
        filled = len({column // 4 for slot in strata[before["stratum"]] for column in slot})
        assert after["max_strict"] == before["max_strict"] * 2.0 ** (k * filled), (before["stratum"], before["q"])
        assert after["max_collinear"] == before["max_collinear"], (before["stratum"], before["q"])


@pytest.mark.parametrize("kind", list(GateKind))
@hypothesis.settings(max_examples=8, deadline=None, derandomize=True, database=None)
@hypothesis.given(grid=_GRID, power=st.integers(1, 4))
def test_inverting_q_keeps_counts_maxima_and_verdicts(kind, grid, power):
    q = 2.0**power
    above, below = (discover_constraints(kind, q_values=(value,), grid=grid) for value in (q, 1.0 / q))
    _same_outcome(above, below)
    for first, second in zip(above.strata, below.strata):
        assert (second["max_strict"], second["max_collinear"]) == (first["max_strict"], first["max_collinear"])
