"""Property test: the vectorized sweep against the dense path on rows with all 12 psi free.

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

from qgatelab import DeformationParams, GateKind, GateSpec, NegativeRadicandError  # noqa: E402
from qgatelab.constraints import _dense_residuals, _grid_levels, _oracle_plan, _pair_codes  # noqa: E402
from sweep_oracle import whole_sweep  # noqa: E402
from qgatelab.qnum import MODE_COUNT  # noqa: E402

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
    # a flat list of rows is the engine's 1-D case: one pair code per row and mode
    codes = np.searchsorted(levels, rows).astype(grid_codes.dtype)
    strict, collinear, admissible = whole_sweep(spec, q, levels, _pair_codes(list(codes.T), levels))
    plan = _oracle_plan(spec)
    for index, (row, bad_mode) in enumerate(zip(rows, bad_modes)):
        # a gate reads only the modes of its own qubits
        assert admissible[index] == (bad_mode is None or bad_mode >= 2 * spec.arity)
        params = DeformationParams(q, tuple(float(v) for v in row))
        if admissible[index]:
            (dense_strict,), (dense_collinear,) = _dense_residuals(spec, q, [params], plan)
            assert abs(dense_strict - strict[index]) <= 1e-12
            assert abs(dense_collinear - collinear[index]) <= 1e-12
        else:
            with pytest.raises(NegativeRadicandError):
                _dense_residuals(spec, q, [params], plan)
