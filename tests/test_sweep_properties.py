"""Property tests of the closed-form sweep: its per-row values against the dense path on rows
with all 12 psi free, and its blocks against the whole-grid oracle (sweep_oracle) on drawn grids.

The sweep's three-qubit strata pin one qubit at psi = 1 in every free block, so
no stratum ever hands the engine a row whose twelve psi values are all drawn
independently.  Here each mode pair is drawn on its own as psi_b =
f * psi_a * q^2, which makes its level-1 bracket psi_a * q * (1 - f) /
(q - 1/q): admissible for f < 1 when q > 1 and for f > 1 when q < 1.  Each such
row is one block of one index tuple per qubit.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qgatelab import CLAIMS, GateKind, GateSpec  # noqa: E402
from qgatelab.constraints import _bit_string_gaps, _closed_forms, _exact_classes, _grid_levels  # noqa: E402
from qgatelab.constraints import _level_tables, _row_values, _strata, _sweep_block, _sweep_plan  # noqa: E402
from qgatelab.qnum import MODE_COUNT  # noqa: E402
from sweep_oracle import assert_block_matches, check_dense, engine_block, exact_closure, grid_facts  # noqa: E402
from sweep_oracle import ordered_patterns, stratum_rows, whole_block  # noqa: E402

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


def _row_block(spec, q, row):
    """One row as a block of one index tuple per qubit: its closed-form tally for the pattern (),
    and its (strict, collinear, admissible) from the per-bit-string gaps."""
    levels, grid_codes = _grid_levels(sorted(set(row)))
    codes = np.searchsorted(levels, row[: 4 * spec.arity]).reshape(spec.arity, 2, 2)
    stratum = ([1] * spec.arity, codes[..., :1] * levels.size + codes[..., 1:], np.ones((spec.arity, 1, 1), bool))
    plan = _sweep_plan(spec)
    tables = (*_level_tables(spec, plan, (q,), levels, grid_codes), _exact_classes((q,), levels))
    tally, _, _, amps, admissible = _sweep_block(plan, _closed_forms(plan), tables, stratum, [0])
    values = _row_values(admissible, [_bit_string_gaps(bit_plan, amps) for bit_plan in plan[2]])
    return {key: table.item() for key, table in tally.items()}, [column[0][0] for column in values]


@pytest.mark.parametrize("kind", list(GateKind))
@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(case=_cases())
def test_sweep_agrees_with_the_dense_path_on_fully_free_rows(kind, case):
    q, rows, bad_modes = case
    spec = GateSpec(kind, math.pi / 3 if kind is GateKind.PS else 0.0)
    rows = np.asarray(rows)
    facts, (strict_closes, collinear_closes) = grid_facts(spec, q, rows), exact_closure(spec, q, rows)
    # a gate reads only the modes of its own qubits
    assert list(facts["admissible"]) == [bad_mode is None or bad_mode >= 2 * spec.arity for bad_mode in bad_modes]
    for k, row in enumerate(rows):
        tally, (strict, collinear, ok) = _row_block(spec, q, row)
        assert ok == facts["admissible"][k] and tally["admissible"] == int(ok)
        check_dense(spec, q, [row], [strict], [collinear], [ok])
        if ok:
            # the closed form's maxima and exact zeros at the row itself
            assert abs(tally["max_strict"] - facts["dense"][0, k]) <= 1e-12, (row, tally)
            assert abs(tally["max_collinear"] - facts["dense"][1, k]) <= 1e-12, (row, tally)
            assert (tally["zero_strict"], tally["zero_collinear"]) == (strict_closes[k], collinear_closes[k]), row


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
def test_blocks_match_the_grid_oracle(kind, q, grid):
    spec = GateSpec(kind, math.pi / 3 if kind is GateKind.PS else 0.0)
    patterns = ordered_patterns(CLAIMS[kind], spec.arity)
    for stratum, slots in _strata(spec.arity).items():
        rows = stratum_rows(slots, grid)
        # about 256 evenly spaced sample rows and the last one
        samples = sorted({*range(0, len(rows), max(1, len(rows) // 256)), len(rows) - 1})
        ((tallies, exemplars, skipped, seen),) = engine_block(spec, (q,), grid, slots, patterns, samples)
        facts = grid_facts(spec, q, rows)
        where = (stratum, q, grid)
        assert_block_matches((tallies, exemplars, skipped, seen), whole_block(rows, facts, patterns), where)
        for row in samples:
            strict, collinear, admissible = seen[row]
            assert admissible == facts["admissible"][row], (*where, row)
            for value, dense in zip((strict, collinear), facts["dense"][:, row]):
                assert math.isclose(value, dense, rel_tol=1e-12, abs_tol=1e-12), (*where, row, value, dense)


@pytest.mark.parametrize("kind", [GateKind.HAD, GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI])
def test_a_row_that_closes_exactly_reads_zero_maxima_whatever_its_amplitudes_round_to(kind):
    # at q = 3 the pairs (3, 1) and (4, 10) share q^2 psi_a - psi_b = 26, but their float
    # brackets differ in the last bit, so the row's float residual is rounding noise; they sit on
    # the gate's target qubit, its last, every control at psi = 1
    target = GateSpec(kind).arity - 1
    row = np.array([1.0] * 4 * target + [3.0, 1.0, 4.0, 10.0] + [1.0] * 4 * (2 - target))
    tally, (strict, collinear, ok) = _row_block(GateSpec(kind), 3.0, row)
    assert ok and 0.0 < strict < 1e-15
    assert [tally[key] for key in ("max_strict", "max_collinear", "zero_strict", "zero_collinear")] == [0.0, 0.0, 1, 1]
