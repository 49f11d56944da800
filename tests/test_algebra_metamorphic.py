"""Metamorphic relation of the deformed algebra: scaling both psi values of a mode by s = 4^k.

Every bracket is linear in psi, so scaling the pair by s scales every bracket by s and every ladder
matrix element by sqrt(s) = 2^k, each exactly (a power of 2 multiplies a float exactly).  The
quadratic relations (deformed_commutation and both product diagonals) then scale by exactly s, the
two number commutators, linear in the ladder operators, by exactly sqrt(s), and the tested levels
stay as they are; a pair with a negative bracket keeps it at the same level.  This needs no second
implementation: the residuals are compared bit for bit with their own unscaled values.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qgatelab import (  # noqa: E402
    NegativeRadicandError,
    OperatorConvention,
    make_deformed_stack,
    make_mode_ops,
    stack_residuals,
)

_QUADRATIC = ("deformed_commutation", "lowering_product_diagonal", "raising_product_diagonal")
_LINEAR = ("lowering_number_commutator", "raising_number_commutator")
_VALUES = st.one_of(st.sampled_from([2.0**k for k in range(-3, 4)]), st.sampled_from([3.0, 5.0, 7.0, 9.0]))


@pytest.mark.parametrize("convention", list(OperatorConvention))
@pytest.mark.parametrize("s", [4.0, 0.25, 4.0**8])
@hypothesis.settings(max_examples=15, deadline=None, derandomize=True, database=None)
@hypothesis.given(cutoff=st.integers(3, 6), q=_VALUES.filter(lambda q: q != 1.0), psi_a=_VALUES, psi_b=_VALUES)
@hypothesis.example(cutoff=8, q=2.0, psi_a=1.0, psi_b=3.0)  # B(0) != 0: level 0 is dropped
@hypothesis.example(cutoff=8, q=0.5, psi_a=1.0, psi_b=1.0)
def test_scaling_both_psi_by_s_scales_each_residual_by_s_or_its_root(convention, s, cutoff, q, psi_a, psi_b):
    mode = make_mode_ops(cutoff)
    try:
        base, base_levels = stack_residuals(make_deformed_stack(mode, (q,), psi_a, psi_b, convention))
    except NegativeRadicandError as exc:
        with pytest.raises(NegativeRadicandError) as scaled_exc:
            make_deformed_stack(mode, (q,), s * psi_a, s * psi_b, convention)
        assert scaled_exc.value.level == exc.level
        return
    scaled, scaled_levels = stack_residuals(make_deformed_stack(mode, (q,), s * psi_a, s * psi_b, convention))
    assert sorted(base) == sorted(_QUADRATIC + _LINEAR)
    assert scaled_levels == base_levels
    for key in _QUADRATIC:
        assert scaled[key] == [s * base[key][0]], key
    for key in _LINEAR:
        assert scaled[key] == [math.sqrt(s) * base[key][0]], key
