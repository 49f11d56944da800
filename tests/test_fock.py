"""Tests for the tests' dense single-mode operators and tensor lift, occupation indexing and
multi-mode states."""

import itertools

import numpy as np
import pytest

from qgatelab import (
    MultiModeState,
    basis_state,
    occupation_index,
)

from mode_lift import lift
from mode_ops import make_mode_ops


class TestModeOperators:
    def test_lowering_matrix_at_cutoff_two(self):
        ops = make_mode_ops(2)
        assert np.array_equal(ops.a, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_raising_adds_square_root_factor(self):
        ops = make_mode_ops(3)
        ket = np.zeros(3, dtype=complex)
        ket[1] = 1.0
        out = ops.a_dag @ ket
        expected = np.zeros(3, dtype=complex)
        expected[2] = np.sqrt(2.0)
        assert np.allclose(out, expected, atol=1e-15)

    def test_number_operator_is_exact_integer_diagonal(self):
        ops = make_mode_ops(5)
        assert np.array_equal(np.diag(ops.n_op).real, np.arange(5, dtype=float))

    def test_number_operator_matches_ladder_product(self):
        ops = make_mode_ops(6)
        assert np.max(np.abs(ops.n_op - ops.a_dag @ ops.a)) <= 1e-12

    @pytest.mark.parametrize("cutoff", [2, 4, 8])
    def test_canonical_commutator_below_cutoff(self, cutoff):
        # The finite truncation breaks the commutator only on the top level.
        ops = make_mode_ops(cutoff)
        comm = ops.a @ ops.a_dag - ops.a_dag @ ops.a
        block = (comm - np.eye(cutoff))[: cutoff - 1, : cutoff - 1]
        assert np.max(np.abs(block)) <= 1e-12

    def test_ladder_number_commutators(self):
        ops = make_mode_ops(7)
        down = ops.a @ ops.n_op - ops.n_op @ ops.a
        up = ops.a_dag @ ops.n_op - ops.n_op @ ops.a_dag
        assert np.max(np.abs(down - ops.a)) <= 1e-12
        assert np.max(np.abs(up + ops.a_dag)) <= 1e-12

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            make_mode_ops(1)


class TestLift:
    def test_dimension_scales_with_mode_count(self):
        ops = make_mode_ops(2)
        assert lift(ops.a, 1, 3).shape == (8, 8)

    def test_disjoint_modes_commute(self):
        ops = make_mode_ops(3)
        left = lift(ops.a, 1, 2)
        right = lift(ops.a_dag, 2, 2)
        assert np.allclose(left @ right, right @ left, atol=1e-13)

    def test_mode_one_varies_slowest(self):
        ops = make_mode_ops(2)
        ket = basis_state((1, 0), 2)
        n1 = lift(ops.n_op, 1, 2)
        n2 = lift(ops.n_op, 2, 2)
        assert np.allclose(n1 @ ket.vector, ket.vector, atol=1e-15)
        assert np.allclose(n2 @ ket.vector, np.zeros(4), atol=1e-15)

    @pytest.mark.parametrize("attr", ["a", "a_dag", "n_op"])
    def test_spectral_norm_preserved(self, attr):
        ops = make_mode_ops(2)
        op = getattr(ops, attr)
        lifted = lift(op, 2, 3)
        assert np.linalg.norm(lifted, 2) == pytest.approx(np.linalg.norm(op, 2), rel=1e-12)

    def test_rejects_bad_mode_index(self):
        ops = make_mode_ops(2)
        with pytest.raises(ValueError):
            lift(ops.a, 0, 2)
        with pytest.raises(ValueError):
            lift(ops.a, 3, 2)


class TestIndexing:
    def test_known_flat_indices(self):
        assert occupation_index((1, 0), 2) == 2
        assert occupation_index((0, 1), 2) == 1
        assert occupation_index((1, 0, 0, 1), 2) == 9

    @pytest.mark.parametrize("cutoff", [2, 3])
    def test_round_trip(self, cutoff):
        # row-major with mode 1 slowest is itertools.product order
        occupations = itertools.product(range(cutoff), repeat=3)
        for flat, occ in enumerate(occupations):
            assert occupation_index(occ, cutoff) == flat

    def test_rejects_occupation_at_or_above_cutoff(self):
        with pytest.raises(ValueError):
            occupation_index((2, 0), 2)


class TestMultiModeState:
    def test_vacuum_is_annihilated_by_every_mode(self):
        state = basis_state((0, 0), 3)
        ops, eye = make_mode_ops(3), np.eye(3)
        for lowering in (np.kron(ops.a, eye), np.kron(eye, ops.a)):  # mode 1 varies slowest
            out = lowering @ state.vector
            assert np.max(np.abs(out)) == 0.0

    def test_vacuum_has_unit_norm(self):
        assert basis_state((0, 0, 0), 2).norm == 1.0

    def test_amplitude_lookup(self):
        state = basis_state((0, 1, 1, 0), 2)
        assert state.amplitude((0, 1, 1, 0)) == 1.0
        assert state.amplitude((0, 0, 0, 0)) == 0.0

    def test_norm_reports_unnormalized_vectors(self):
        state = MultiModeState(1, 2, np.array([2.0, 0.0], dtype=complex))
        assert state.norm == pytest.approx(2.0, abs=1e-15)

    def test_vector_is_read_only(self):
        state = basis_state((0,), 2)
        with pytest.raises(ValueError):
            state.vector[0] = 5.0

    def test_rejects_wrong_vector_length(self):
        with pytest.raises(ValueError):
            MultiModeState(2, 2, np.zeros(3, dtype=complex))
