"""Property tests of the table sweep: its residual formula against the dense path on rows with
all 12 psi free, and its blocks against the whole-grid oracle (sweep_oracle) bit for bit on
drawn grids.

The sweep's three-qubit strata pin one qubit at psi = 1 in every free block, so
no stratum ever hands the engine a row whose twelve psi values are all drawn
independently.  Here each mode pair is drawn on its own as psi_b =
f * psi_a * q^2, which makes its level-1 bracket psi_a * q * (1 - f) /
(q - 1/q): admissible for f < 1 when q > 1 and for f > 1 when q < 1.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qgatelab import CLAIMS, GateKind, GateSpec  # noqa: E402
from qgatelab.constraints import (  # noqa: E402
    _candidate_patterns,
    _grid_levels,
    _level_tables,
    _pair_codes,
    _strata,
    _stratum_columns,
    _stratum_plan,
    _sweep_block,
    _sweep_plan,
)
from qgatelab.qnum import MODE_COUNT  # noqa: E402
from sweep_oracle import bits, check_dense, grid_residuals, oracle_block  # noqa: E402

# q at least a quarter away from 1 in ratio keeps amplitudes, and so the
# absolute rounding of both paths, far below the 1e-12 agreement bound
_Q = st.one_of(st.floats(0.25, 0.8), st.floats(1.25, 4.0))
_PSI_A = st.floats(0.25, 4.0)
_BELOW_ONE = st.floats(0.05, 0.95)
_ABOVE_ONE = st.floats(1.05, 4.0)


@st.composite
def _rows(draw, q):
    """1 to 6 rows of 12 psi values, each with the mode drawn inadmissible (None when none is)."""
    admissible_f, inadmissible_f = (_BELOW_ONE, _ABOVE_ONE) if q > 1.0 else (_ABOVE_ONE, _BELOW_ONE)
    rows, bad_modes = [], []
    for _ in range(draw(st.integers(1, 6))):
        bad_mode = draw(st.one_of(st.none(), st.integers(0, MODE_COUNT - 1)))
        row = []
        for mode in range(MODE_COUNT):
            psi_a = draw(_PSI_A)
            f = draw(inadmissible_f if mode == bad_mode else admissible_f)
            row += [psi_a, f * psi_a * q * q]
        rows.append(row)
        bad_modes.append(bad_mode)
    return rows, bad_modes


@st.composite
def _cases(draw):
    q = draw(_Q)
    return q, *draw(_rows(q))


@pytest.mark.parametrize("kind", list(GateKind))
@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(case=_cases())
def test_sweep_agrees_with_the_dense_path_on_fully_free_rows(kind, case):
    q, rows, bad_modes = case
    spec = GateSpec(kind, math.pi / 3 if kind is GateKind.PS else 0.0)
    rows = np.asarray(rows)
    levels, grid_codes = _grid_levels(np.unique(rows))
    # a flat list of rows: one pair code per row and mode
    codes = np.searchsorted(levels, rows).astype(grid_codes.dtype)
    strict, collinear, admissible = grid_residuals(spec, q, levels, _pair_codes(list(codes.T), levels))
    # a gate reads only the modes of its own qubits
    assert list(admissible) == [bad_mode is None or bad_mode >= 2 * spec.arity for bad_mode in bad_modes]
    check_dense(spec, q, rows, strict, collinear, admissible)


def _ulps_from_one(steps: int, up: bool) -> float:
    q = 1.0
    for _ in range(steps):
        q = math.nextafter(q, 2.0 if up else 0.0)
    return q


# q on both sides of 1 and within a few ulp of it, where q - 1/q is a few ulp
_SWEEP_Q = st.one_of(
    st.floats(0.3, 0.9), st.floats(1.1, 3.0), st.builds(_ulps_from_one, st.integers(1, 4), st.booleans())
)
# duplicates, the 1.0 filler and pair ratios above q^2, so blocks mix admissible and inadmissible rows
_GRID = st.lists(st.one_of(st.just(1.0), st.sampled_from((0.5, 2.0)), st.floats(0.25, 16.0)), min_size=2, max_size=4)


@pytest.mark.parametrize("kind", list(GateKind))
@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(q=_SWEEP_Q, grid=_GRID)
def test_tables_match_the_grid_oracle_bit_for_bit(kind, q, grid):
    spec = GateSpec(kind, math.pi / 3 if kind is GateKind.PS else 0.0)
    levels, grid_codes = _grid_levels(grid)
    plan = _sweep_plan(spec)
    tables = _level_tables(spec, plan, (q,), levels, grid_codes)
    patterns = {pattern for _, pattern in _candidate_patterns(CLAIMS[kind], spec.arity)}
    for stratum, slots in _strata(spec.arity).items():
        columns = _stratum_columns(slots, levels, grid_codes)
        count = len(grid) ** len(slots)
        # about 256 evenly spaced sample rows and the last one
        samples = sorted({*range(0, count, max(1, count // 256)), count - 1})
        ((tallies, exemplars, skipped, seen),) = oracle_block(spec, (q,), levels, columns, patterns, samples, 1e-12)
        stratum_plan = _stratum_plan(slots, spec.arity, columns, levels, patterns)
        (got,) = _sweep_block(plan, tables, stratum_plan, samples, 1e-12)
        where = (stratum, q, grid)
        for pattern in patterns:
            assert bits(got[0][stratum_plan[-1][pattern]]) == bits(tallies[pattern]), (*where, pattern)
        assert got[1] == exemplars, where
        assert got[2] == skipped, where
        assert bits(got[3]) == bits(seen), where
