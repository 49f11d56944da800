"""Tests for the two-modes-per-qubit encoding and deformed qubit kets."""

import math
from pathlib import Path

import numpy as np
import pytest

from qgatelab import (
    DeformationParams,
    DeformedQubitSpec,
    ExponentConvention,
    NegativeRadicandError,
    QubitEmbedding,
    closing_params,
    deformed_qubit_state,
    encode_basis,
    qubit_amplitude,
)
from qgatelab.schwinger import _closing_amplitudes, amplitude_table, ket_amplitudes


class TestEncoding:
    def test_single_bit_occupations(self):
        assert encode_basis((0,)).amplitude((0, 1)) == 1.0
        assert encode_basis((1,)).amplitude((1, 0)) == 1.0

    def test_two_qubit_occupation_order(self):
        emb = QubitEmbedding(2)
        assert emb.occupation((1, 0)) == (1, 0, 0, 1)
        assert emb.occupation((0, 1)) == (0, 1, 1, 0)
        assert encode_basis((1, 0)).amplitude((1, 0, 0, 1)) == 1.0

    def test_basis_index_matches_row_major_layout(self):
        emb = QubitEmbedding(1)
        assert emb.basis_index((0,)) == 1
        assert emb.basis_index((1,)) == 2

    def test_projector_selects_exactly_the_encoded_kets(self):
        emb = QubitEmbedding(2)
        proj = emb.projector()
        assert np.allclose(proj, proj @ proj, atol=1e-15)
        assert np.trace(proj).real == pytest.approx(4.0, abs=1e-15)
        for bits in emb.all_bits():
            ket = encode_basis(bits).vector
            assert np.array_equal(proj @ ket, ket)

    def test_projector_is_built_once_and_read_only(self):
        proj = QubitEmbedding(2).projector()
        assert QubitEmbedding(2).projector() is proj
        with pytest.raises(ValueError):
            proj[0, 0] = 1.0
        assert not proj[0, 0]

    def test_rejects_non_binary_bits(self):
        with pytest.raises(ValueError):
            encode_basis((0, 2))
        with pytest.raises(ValueError):
            encode_basis(())


class TestDeformedStates:
    @pytest.mark.parametrize("q", [0.5, 0.9, 1.1, 2.0])
    def test_unit_weights_reproduce_the_basis_ket(self, q):
        params = DeformationParams.uniform(q)
        for bits in [(0,), (1,), (1, 0)]:
            state = deformed_qubit_state(DeformedQubitSpec(bits, params), q)
            assert np.array_equal(state.vector, encode_basis(bits).vector)

    def test_excitation_amplitude_is_bracket_root(self):
        # Pair (3, 3) on the excited mode gives amplitude sqrt(3) at any q.
        params = DeformationParams(2.0).with_pairs({1: (3.0, 3.0)})
        state = deformed_qubit_state(DeformedQubitSpec((1,), params), 2.0)
        assert state.amplitude((1, 0)) == pytest.approx(math.sqrt(3.0), abs=1e-15)
        assert state.norm**2 == pytest.approx(3.0, rel=1e-14)

    def test_deformed_ket_stays_collinear_with_encoded_ket(self):
        params = DeformationParams(2.0, (2.0, 0.5, 1.0, 4.0, 3.0, 3.0, 0.5, 0.5) + (1.0,) * 4)
        state = deformed_qubit_state(DeformedQubitSpec((1, 0), params), 2.0)
        base = encode_basis((1, 0)).vector
        overlap = np.vdot(base, state.vector)
        assert np.allclose(state.vector, overlap * base, atol=1e-14)

    @pytest.mark.parametrize("weight", [0.25, 1.0, 5.0])
    def test_norm_squared_equals_pair_weight(self, weight):
        params = DeformationParams(2.0).with_pairs({2: (weight, weight)})
        state = deformed_qubit_state(DeformedQubitSpec((0,), params), 2.0)
        assert state.norm**2 == pytest.approx(weight, rel=1e-14)

    @pytest.mark.parametrize("q", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("bits", [(0,), (1,), (1, 0, 1)])
    def test_closing_rule_yields_unit_norm(self, q, bits):
        state = deformed_qubit_state(DeformedQubitSpec(bits), q)
        assert state.norm == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(state.vector, encode_basis(bits).vector)

    def test_vacuum_exponent_leaves_excited_residual(self):
        spec0 = DeformedQubitSpec((0,), exponent=ExponentConvention.VACUUM)
        spec1 = DeformedQubitSpec((1,), exponent=ExponentConvention.VACUUM)
        assert deformed_qubit_state(spec0, 2.0).norm == pytest.approx(1.0, abs=1e-15)
        assert deformed_qubit_state(spec1, 2.0).norm == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_inadmissible_pair_raises(self):
        params = DeformationParams(2.0).with_pairs({1: (0.5, 4.0)})
        with pytest.raises(NegativeRadicandError):
            deformed_qubit_state(DeformedQubitSpec((1,), params), 2.0)

    def test_mismatched_base_is_rejected(self):
        params = DeformationParams.uniform(2.0)
        with pytest.raises(ValueError):
            deformed_qubit_state(DeformedQubitSpec((0,), params), 3.0)


class TestAmplitudeTable:
    def test_closing_kets_equal_explicit_closing_params_kets_bit_for_bit(self):
        for q in np.geomspace(0.5, 2.0, 200):
            for exponent in ExponentConvention:
                for arity in (1, 2, 3):
                    for bits in QubitEmbedding(arity).all_bits():
                        explicit = DeformedQubitSpec(bits, closing_params(q, bits, exponent), exponent)
                        expected = deformed_qubit_state(explicit, q).vector
                        closing = deformed_qubit_state(DeformedQubitSpec(bits, None, exponent), q)
                        assert np.array_equal(closing.vector, expected), (q, exponent, bits)

    def test_closing_ket_is_read_only(self):
        state = deformed_qubit_state(DeformedQubitSpec((1, 0), None, ExponentConvention.VACUUM), 2.0)
        with pytest.raises(ValueError):
            state.vector[0] = 1.0

    @pytest.mark.parametrize("q", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_q_raises_every_time_and_is_not_cached(self, q):
        spec = DeformedQubitSpec((1, 0))
        size = _closing_amplitudes.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="positive finite real"):
                deformed_qubit_state(spec, q)
        assert _closing_amplitudes.cache_info().currsize == size
        assert deformed_qubit_state(spec, 2.0).norm == pytest.approx(1.0, abs=1e-15)

    def test_explicit_params_table_reads_qubit_amplitude_per_slot_and_bit(self):
        params = DeformationParams(2.0, (2.0, 0.5, 1.0, 4.0, 3.0, 3.0, 0.5, 0.5) + (1.0,) * 4)
        table = amplitude_table(2.0, 2, params)
        assert table == tuple(tuple(qubit_amplitude(bit, slot, 2.0, params) for bit in (0, 1)) for slot in (1, 2))
        amps = ket_amplitudes(table)
        assert amps.shape == (4,)
        assert amps[0b10] == table[0][1] * table[1][0]
        with pytest.raises(ValueError, match="params carry q=2.0"):
            amplitude_table(3.0, 2, params)


    def test_ket_amplitudes_keep_leading_axes_and_multiply_in_slot_order(self):
        tables = np.random.default_rng(3).uniform(0.1, 10.0, size=(5, 3, 2))
        kets = ket_amplitudes(tables)
        assert kets.shape == (5, 8)
        for table, row in zip(tables, kets):
            every_bits = QubitEmbedding(3).all_bits()
            assert row.tolist() == [math.prod(table[slot][bit] for slot, bit in enumerate(bits)) for bits in every_bits]

    def test_ket_amplitudes_overflow_to_inf_without_a_warning(self):
        assert ket_amplitudes(((1e200, 1.0), (1e200, 1.0))).tolist() == [math.inf, 1e200, 1e200, 1.0]


class TestClosingRule:
    def test_result_exponents_read_the_created_state(self):
        params = closing_params(2.0, (1, 0))
        # Qubit 1 holds bit 1: odd mode pair q**0, even mode pair q**1.
        assert params.pair(1) == (1.0, 1.0)
        assert params.pair(2) == (2.0, 2.0)
        # Qubit 2 holds bit 0: odd mode pair q**1, even mode pair q**0.
        assert params.pair(3) == (2.0, 2.0)
        assert params.pair(4) == (1.0, 1.0)

    def test_vacuum_exponents_ignore_the_bits(self):
        params = closing_params(2.0, (1, 0), ExponentConvention.VACUUM)
        assert params.pair(1) == (2.0, 2.0)
        assert params.pair(2) == (1.0, 1.0)
        assert params.pair(3) == (2.0, 2.0)
        assert params.pair(4) == (1.0, 1.0)

    @pytest.mark.parametrize("q", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_closing_amplitude_is_exactly_one(self, q, bit):
        params = closing_params(q, (bit,))
        assert qubit_amplitude(bit, 1, q, params) == 1.0

    def test_closing_amplitudes_equal_the_closing_params_path_bit_for_bit(self, monkeypatch):
        # the table reads the closing rule directly; a one-bit closing_params per bit is its oracle
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import dense_q_values

        def outcome(amplitude):
            try:
                return tuple(repr(amplitude(bit)) for bit in (0, 1))
            except (ArithmeticError, ValueError) as exc:
                return type(exc), str(exc)

        edges = [5e-324, 1e-300, 1e-160, 1e160, 1e300, 0.9999999999999999, 1.0000000000000002]
        for q in dense_q_values(0) + edges:
            for exponent in ExponentConvention:
                table = outcome(lambda bit: amplitude_table(q, 1, None, exponent)[0][bit])
                oracle = outcome(lambda bit: qubit_amplitude(bit, 1, q, closing_params(q, (bit,), exponent)))
                assert table == oracle, (q, exponent)

    def test_amplitude_reads_the_correct_mode(self):
        params = DeformationParams(2.0).with_pairs({2: (5.0, 5.0)})
        assert qubit_amplitude(0, 1, 2.0, params) == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert qubit_amplitude(1, 1, 2.0, params) == 1.0
