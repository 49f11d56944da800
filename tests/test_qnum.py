"""Tests for the bracket functions, their 50-digit mpmath oracle, and parameter containers."""

import itertools
import math
import sys
from fractions import Fraction

import pytest

from qgatelab import (
    DeformationParams,
    GateKind,
    GateSpec,
    psi_bracket,
    q_bracket,
)
from qgatelab.constraints import _grid_levels, _level_tables, _sweep_plan
from qgatelab.qnum import bracket
from qgatelab.schwinger import amplitude_table

mpmath = pytest.importorskip("mpmath")


class TestQBracket:
    @pytest.mark.parametrize(
        ("n", "q", "expected"),
        [
            (0, 2.0, 0.0),
            (1, 2.0, 1.0),
            (2, 2.0, 2.5),
            (3, 2.0, 5.25),
            (3, 0.5, 5.25),
            (2, 0.5, 2.5),
        ],
    )
    def test_known_values(self, n, q, expected):
        assert q_bracket(n, q) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("n", range(7))
    def test_undeformed_at_q_one(self, n):
        assert q_bracket(n, 1.0) == float(n)

    @pytest.mark.parametrize("q", [0.25, 0.5, 1.5, 3.0, 7.0])
    @pytest.mark.parametrize("n", range(6))
    def test_invariant_under_q_inversion(self, n, q):
        assert q_bracket(n, q) == pytest.approx(q_bracket(n, 1.0 / q), rel=1e-14)

    @pytest.mark.parametrize("q", [0.5, 0.9, 1.1, 2.0])
    def test_recurrence_step(self, q):
        # Climbing one level multiplies by q and adds a q**(-n) correction.
        for n in range(6):
            lhs = q_bracket(n + 1, q) - q * q_bracket(n, q)
            assert lhs == pytest.approx(q ** (-n), rel=1e-13)

    def test_error_near_one_shrinks_at_least_linearly(self):
        # The deviation from the integer value must decay at least as fast
        # as the distance to q = 1 (it is in fact quadratic).  Steps below
        # 1e-5 drown the signal in rounding noise, so stop there.
        coarse = abs(q_bracket(4, 1.0 + 1e-3) - 4.0)
        fine = abs(q_bracket(4, 1.0 + 1e-5) - 4.0)
        assert fine > 0.0
        assert coarse / fine >= 90.0

    @pytest.mark.parametrize("bad_q", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_base(self, bad_q):
        with pytest.raises(ValueError):
            q_bracket(2, bad_q)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            q_bracket(-1, 2.0)


class TestPsiBracket:
    def test_equal_weights_reduce_to_plain_bracket(self):
        for q in (0.5, 0.9, 1.1, 2.0):
            for n in range(7):
                assert psi_bracket(n, q, 1.0, 1.0) == q_bracket(n, q)

    def test_level_one_with_equal_pair_returns_weight(self):
        # (q * w - w / q) / (q - 1/q) collapses to w for any valid q.
        assert psi_bracket(1, 2.0, 3.0, 3.0) == pytest.approx(3.0, abs=1e-15)
        assert psi_bracket(1, 0.5, 0.25, 0.25) == pytest.approx(0.25, abs=1e-15)

    def test_mixed_pair_value_frozen_by_exact_arithmetic(self):
        # Independent rational evaluation of (q**n * wa - q**-n * wb) / (q - 1/q)
        # at n=2, q=2, wa=1, wb=4: (4 - 1) / (3/2) = 2.
        q = Fraction(2)
        exact = (q**2 * 1 - q**-2 * 4) / (q - 1 / q)
        assert exact == Fraction(2)
        assert psi_bracket(2, 2.0, 1.0, 4.0) == pytest.approx(float(exact), abs=1e-15)

    def test_base_level_measures_weight_imbalance(self):
        # At n=0 the bracket is (wa - wb) / (q - 1/q), nonzero for unequal weights.
        assert psi_bracket(0, 2.0, 1.0, 4.0) == pytest.approx(-2.0, abs=1e-15)
        assert psi_bracket(0, 2.0, 5.0, 5.0) == 0.0

    def test_q_one_allowed_only_for_equal_weights(self):
        assert psi_bracket(3, 1.0, 2.5, 2.5) == pytest.approx(7.5, abs=1e-15)
        with pytest.raises(ValueError):
            psi_bracket(3, 1.0, 1.0, 2.0)

    @pytest.mark.parametrize(("q", "wb"), [(2.0, 1.0), (2.0, 3.0), (0.5, 0.7)])
    def test_shift_identity(self, q, wb):
        # bracket(n+1) - q * bracket(n) == wb * q**(-n), for any wa.
        wa = 1.3
        for n in range(6):
            lhs = psi_bracket(n + 1, q, wa, wb) - q * psi_bracket(n, q, wa, wb)
            assert lhs == pytest.approx(wb * q ** (-n), rel=1e-12)


class TestBracketOverflow:
    # 5e-324 is the smallest subnormal double: 1 / q is beyond the largest one
    @pytest.mark.parametrize(
        ("bracket", "call"),
        [("q", lambda n, q: q_bracket(n, q)), ("psi", lambda n, q: psi_bracket(n, q, 1.0, 2.0))],
    )
    @pytest.mark.parametrize(("n", "q", "power"), [(1, 5e-324, "q**-1"), (3, 1e200, "q**3")])
    def test_overflow_names_the_bracket_level_and_q(self, bracket, call, n, q, power):
        message = f"the {bracket} bracket at n={n}, q={q!r} overflows double precision at {power}"
        with pytest.raises(OverflowError) as caught:
            call(n, q)
        assert str(caught.value) == message


class TestBracketTable:
    _SUBJECT = "the psi bracket at n={n}, q={q!r}"

    # at psi = 1e308 the products overflow to inf, as the scalar's float products do, with no numpy warning
    @pytest.mark.parametrize(("psi_a", "psi_b"), [(1.0, 1.0), (2.5, 2.5), (1.0, 3.0), (0.7, 0.5), (1e308, 1e308)])
    def test_every_entry_equals_its_scalar_bracket(self, psi_a, psi_b):
        # one ulp either side of 1, where q - 1/q is about 2e-16, and q = 1 itself for equal pairs
        q_values = (0.5, 0.9, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 2.0, 1e3)
        q_values += (1.0,) if psi_a == psi_b else ()
        table = bracket(range(9), q_values, psi_a, psi_b, self._SUBJECT)
        assert table.shape == (len(q_values), 9)
        for row, q in zip(table.tolist(), q_values):
            assert row == [psi_bracket(n, q, psi_a, psi_b) for n in range(9)], q

    def test_q_one_needs_equal_pair_values(self):
        with pytest.raises(ValueError, match="q = 1 is only defined for equal pair parameters"):
            bracket(range(3), (2.0, 1.0), 1.0, 2.0, self._SUBJECT)

    @pytest.mark.parametrize(
        ("q_values", "message"),
        [
            # the first q in order whose power overflows is named, at its lowest such level
            ((2.0, 5e-324, 1e300), "the psi bracket at n=1, q=5e-324 overflows double precision at q**-1"),
            ((2.0, 1e300, 5e-324), "the psi bracket at n=2, q=1e+300 overflows double precision at q**2"),
        ],
    )
    def test_overflow_names_the_first_q_and_level(self, q_values, message):
        with pytest.raises(OverflowError) as caught:
            bracket(range(4), q_values, 1.0, 1.0, self._SUBJECT)
        assert str(caught.value) == message


_ORACLE_Q = (0.5, 0.9, 1.1, 2.0, 10.0)
_ORACLE_PSI = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def _exact_bracket(n: int, q: float, psi_a: float, psi_b: float) -> tuple:
    """The bracket at the double values of q and the pair, to 50 digits, and the error bound
    4 eps (|q^n psi_a| + |q^-n psi_b|) / |q - 1/q| that the float evaluation keeps to."""
    with mpmath.workdps(50):
        q = mpmath.mpf(q)
        up, down, scale = q**n * psi_a, q**-n * psi_b, q - 1 / q
        return (up - down) / scale, 4 * sys.float_info.epsilon * (abs(up) + abs(down)) / abs(scale)


class TestBracketOracle:
    # the worst case measured is 2.1 eps of the bound's scale, at n = 4, q = 0.9, psi = (8, 0.25)
    @pytest.mark.parametrize("q", _ORACLE_Q)
    def test_psi_bracket_is_within_four_eps_of_mpmath(self, q):
        for n, psi_a, psi_b in itertools.product(range(9), _ORACLE_PSI, _ORACLE_PSI):
            exact, bound = _exact_bracket(n, q, psi_a, psi_b)
            assert abs(psi_bracket(n, q, psi_a, psi_b) - exact) <= bound, (n, psi_a, psi_b)

    @pytest.mark.parametrize("q", _ORACLE_Q)
    def test_q_bracket_is_within_four_eps_of_mpmath(self, q):
        for n in range(9):
            exact, bound = _exact_bracket(n, q, 1.0, 1.0)
            assert abs(q_bracket(n, q) - exact) <= bound, n

    @pytest.mark.parametrize("q", _ORACLE_Q)
    def test_sweep_table_entries_are_within_four_eps_of_mpmath(self, q):
        # an amplitude is the root of its bracket clipped at 0, so its square is within the
        # bracket's bound (plus the root's and the square's roundings) of the exact bracket's
        # clip, and an entry is admissible exactly where the float bracket is nonnegative
        spec = GateSpec(GateKind.NOT)
        levels, grid_codes = _grid_levels(_ORACLE_PSI)
        admissible, amps = (table[0] for table in _level_tables(spec, _sweep_plan(spec), (q,), levels, grid_codes))
        for (i, psi_a), (j, psi_b) in itertools.product(enumerate(levels.tolist()), repeat=2):
            exact, bound = _exact_bracket(1, q, psi_a, psi_b)
            amp = float(amps[i, j])
            assert abs(amp * amp - max(exact, 0)) <= bound + 2 * sys.float_info.epsilon * amp * amp, (psi_a, psi_b)
            assert (exact >= -bound) if admissible[i, j] else (exact <= bound), (psi_a, psi_b)
            assert amp == math.sqrt(max(psi_bracket(1, q, psi_a, psi_b), 0.0)), (psi_a, psi_b)

    # the q -> 1 cancellation in (q^n psi_a - q^-n psi_b) / (q - 1/q): both tests flip when the
    # bracket is evaluated in a cancellation-free form
    @pytest.mark.xfail(strict=True, reason="q - 1/q cancels to a few ulp one ulp below q = 1")
    def test_closing_amplitudes_are_one_one_ulp_below_q_one(self):
        assert amplitude_table(0.9999999999999999, 1) == ((1.0, 1.0),)

    @pytest.mark.xfail(strict=True, reason="the direct form loses about 1e-9 relative at 1 +- 1e-8")
    @pytest.mark.parametrize("q", [1.0 + 1e-8, 1.0 - 1e-8])
    def test_q_bracket_near_one_is_within_1e_13_of_mpmath(self, q):
        exact, _ = _exact_bracket(5, q, 1.0, 1.0)
        assert abs(q_bracket(5, q) - exact) <= 1e-13 * abs(exact)


class TestDeformationParams:
    def test_defaults_are_uniform(self):
        params = DeformationParams(q=2.0)
        assert params.psi == (1.0,) * 12

    def test_pair_indexing_is_one_based(self):
        params = DeformationParams(2.0, (1, 2, 3, 4) + (1,) * 8)
        assert params.pair(1) == (1.0, 2.0)
        assert params.pair(2) == (3.0, 4.0)
        assert params.pair(3) == (1.0, 1.0)

    def test_with_pairs_replaces_selected_modes(self):
        base = DeformationParams.uniform(2.0)
        updated = base.with_pairs({2: (5.0, 6.0)})
        assert updated.pair(2) == (5.0, 6.0)
        assert updated.pair(1) == (1.0, 1.0)
        assert base.pair(2) == (1.0, 1.0)

    def test_uniform_fills_every_slot(self):
        params = DeformationParams.uniform(0.5, 3.0)
        assert params.psi == (3.0,) * 12

    def test_instances_are_frozen(self):
        params = DeformationParams(q=2.0)
        with pytest.raises(AttributeError):
            params.q = 3.0

    @pytest.mark.parametrize("bad_q", [0.0, -2.0, math.nan])
    def test_rejects_bad_base(self, bad_q):
        with pytest.raises(ValueError):
            DeformationParams(q=bad_q)

    def test_rejects_wrong_weight_count(self):
        with pytest.raises(ValueError):
            DeformationParams(q=2.0, psi=(1.0, 2.0))

    def test_rejects_pair_index_out_of_range(self):
        params = DeformationParams(q=2.0)
        with pytest.raises(ValueError):
            params.pair(0)
        with pytest.raises(ValueError):
            params.pair(7)
