"""Tests for gate actions, matrices, and the deformed dyad constructions."""

import cmath
import math

import numpy as np
import pytest

from qgatelab import (
    DeformationParams,
    ExponentConvention,
    GateKind,
    GateSpec,
    QubitEmbedding,
    closing_params,
    deformed_gate_matrix,
    deformed_qubit_state,
    DeformedQubitSpec,
    encode_basis,
    gate_action_traced,
    gate_matrix,
    qubit_amplitude,
    toffoli_literal_matrix,
)
from qgatelab import gates
from qgatelab.fock import make_mode_ops
from qgatelab.gates import _closure_residuals
from qgatelab.suites import _square

from mode_lift import lift

# Independent transcription of the truth tables, written out literally so the
# implementation cannot be compared against itself.
FLIP_TABLES = {
    GateKind.NOT: {(0,): [(1.0, (1,))], (1,): [(1.0, (0,))]},
    GateKind.HAD: {
        (0,): [(1.0, (0,)), (1.0, (1,))],
        (1,): [(-1.0, (1,)), (1.0, (0,))],
    },
    GateKind.CNOT: {
        (0, 0): [(1.0, (0, 0))],
        (0, 1): [(1.0, (0, 1))],
        (1, 0): [(1.0, (1, 1))],
        (1, 1): [(1.0, (1, 0))],
    },
    GateKind.SWAP: {
        (0, 0): [(1.0, (0, 0))],
        (0, 1): [(1.0, (1, 0))],
        (1, 0): [(1.0, (0, 1))],
        (1, 1): [(1.0, (1, 1))],
    },
    GateKind.FREDKIN: {
        (0, 0, 0): [(1.0, (0, 0, 0))],
        (0, 0, 1): [(1.0, (0, 0, 1))],
        (0, 1, 0): [(1.0, (0, 1, 0))],
        (0, 1, 1): [(1.0, (0, 1, 1))],
        (1, 0, 0): [(1.0, (1, 0, 0))],
        (1, 0, 1): [(1.0, (1, 1, 0))],
        (1, 1, 0): [(1.0, (1, 0, 1))],
        (1, 1, 1): [(1.0, (1, 1, 1))],
    },
    GateKind.TOFFOLI: {
        (0, 0, 0): [(1.0, (0, 0, 0))],
        (0, 0, 1): [(1.0, (0, 0, 1))],
        (0, 1, 0): [(1.0, (0, 1, 0))],
        (0, 1, 1): [(1.0, (0, 1, 1))],
        (1, 0, 0): [(1.0, (1, 0, 0))],
        (1, 0, 1): [(1.0, (1, 0, 1))],
        (1, 1, 0): [(1.0, (1, 1, 1))],
        (1, 1, 1): [(1.0, (1, 1, 0))],
    },
}

# Independent transcription of each output term's per-slot provenance, in term
# order: the input slot whose bit (and deformed amplitude) an output slot
# carries, or None for a flipped slot.
SOURCE_TABLES = {
    GateKind.PS: {(0,): [(0,)], (1,): [(0,)]},
    GateKind.HAD: {(0,): [(0,), (None,)], (1,): [(0,), (None,)]},
    GateKind.NOT: {(0,): [(None,)], (1,): [(None,)]},
    GateKind.CNOT: {
        (0, 0): [(0, 1)],
        (0, 1): [(0, 1)],
        (1, 0): [(0, None)],
        (1, 1): [(0, None)],
    },
    GateKind.SWAP: {
        (0, 0): [(1, 0)],
        (0, 1): [(1, 0)],
        (1, 0): [(1, 0)],
        (1, 1): [(1, 0)],
    },
    GateKind.FREDKIN: {
        (0, 0, 0): [(0, 1, 2)],
        (0, 0, 1): [(0, 1, 2)],
        (0, 1, 0): [(0, 1, 2)],
        (0, 1, 1): [(0, 1, 2)],
        (1, 0, 0): [(0, 2, 1)],
        (1, 0, 1): [(0, 2, 1)],
        (1, 1, 0): [(0, 2, 1)],
        (1, 1, 1): [(0, 2, 1)],
    },
    GateKind.TOFFOLI: {
        (0, 0, 0): [(0, 1, 2)],
        (0, 0, 1): [(0, 1, 2)],
        (0, 1, 0): [(0, 1, 2)],
        (0, 1, 1): [(0, 1, 2)],
        (1, 0, 0): [(0, 1, 2)],
        (1, 0, 1): [(0, 1, 2)],
        (1, 1, 0): [(0, 1, None)],
        (1, 1, 1): [(0, 1, None)],
    },
}

ALL_KINDS = tuple(GateKind)


def _action(spec: GateSpec, bits) -> list:
    return [(term.coeff, term.bits) for term in gate_action_traced(spec, bits)]


def _spec(kind: GateKind) -> GateSpec:
    return GateSpec(kind, math.pi / 3) if kind is GateKind.PS else GateSpec(kind)


def _dense_ket(bits, q, params, exponent) -> np.ndarray:
    """A deformed ket built in full: the encoded basis ket times one qubit_amplitude per
    qubit, from explicit params or from closing_params of the ket's own bits."""
    params = closing_params(q, bits, exponent) if params is None else params
    amp = 1.0
    for i, x in enumerate(bits, start=1):
        amp *= qubit_amplitude(x, i, q, params)
    return amp * encode_basis(bits).vector


def _dense_gate(spec: GateSpec, q, params, exponent, literal=False) -> np.ndarray:
    """Dense oracle of the deformed gates: dyads as outer products of full kets, number
    operators as lifted matrices, controls and projections as matrix products."""
    emb = QubitEmbedding(spec.arity)
    proj = emb.projector()
    eye = np.eye(emb.dim, dtype=complex)

    def dyad(out_bits, in_bits, coeff=1.0):
        ket_out, ket_in = (_dense_ket(bits, q, params, exponent) for bits in (out_bits, in_bits))
        return complex(coeff) * np.outer(ket_out, ket_in.conj())

    def number(mode):
        return lift(make_mode_ops(2).n_op, mode, emb.mode_count)

    def over_bits(build):
        return sum(build(bits) for bits in QubitEmbedding(spec.arity).all_bits())

    kind = spec.kind
    if kind is GateKind.PS:
        return over_bits(lambda b: dyad(b, b, cmath.exp(1j * spec.phi * b[0])))
    if kind is GateKind.NOT:
        return over_bits(lambda b: dyad((1 - b[0],), b))
    if kind is GateKind.HAD:
        parity = lift(np.diag([1.0, -1.0]).astype(complex), 1, emb.mode_count)
        return proj @ parity @ proj + over_bits(lambda b: dyad((1 - b[0],), b))
    if kind is GateKind.SWAP:
        return over_bits(lambda b: dyad(b[::-1], b))
    if kind is GateKind.CNOT:
        flips = over_bits(lambda b: dyad((b[0], 1 - b[1]), b))
        return proj @ (eye - number(1)) @ proj + flips @ number(1)
    if kind is GateKind.FREDKIN:
        swaps = over_bits(lambda b: dyad((b[0], b[2], b[1]), b))
        return proj @ (eye - number(1)) @ proj + swaps @ number(1)
    flips = over_bits(lambda b: dyad((b[0], b[1], 1 - b[2]), b))
    n1, m1 = number(1), number(3)
    if literal:
        bracket_one = n1 @ m1 + (eye - n1) @ m1
        bracket_two = (eye - m1) @ n1 + (eye - n1) @ (eye - m1)
        return flips @ bracket_one + flips @ bracket_two
    holds = over_bits(lambda b: dyad(b, b))
    return flips @ (n1 @ m1) + holds @ (eye - n1 @ m1)


def _dense_closure_residual(spec: GateSpec, q, exponent) -> float:
    """The closure residual with full kets: the dense gate times each input ket, against the
    table's output kets."""
    matrix = _dense_gate(spec, q, None, exponent)
    worst = 0.0
    for bits in QubitEmbedding(spec.arity).all_bits():
        lhs = matrix @ _dense_ket(bits, q, None, exponent)
        rhs = sum(term.coeff * _dense_ket(term.bits, q, None, exponent) for term in gate_action_traced(spec, bits))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


ORACLE_Q = (0.5, 0.9, 1.0 + 1e-7, 2.0, 1e20)
# one closure batch: the oracle q values and 24 log-spaced q values in [0.5, 2]
BATCH_Q = ORACLE_Q + tuple(float(f"{0.5 * 4 ** (k / 23):.6g}") for k in range(24))


class TestGateAction:
    @pytest.mark.parametrize("kind", sorted(FLIP_TABLES, key=lambda k: k.value))
    def test_matches_reference_table(self, kind):
        spec = GateSpec(kind)
        for bits, expected in FLIP_TABLES[kind].items():
            got = sorted(_action(spec, bits), key=lambda t: t[1])
            want = sorted(((complex(c), b) for c, b in expected), key=lambda t: t[1])
            assert got == want

    @pytest.mark.parametrize("phi", [0.0, math.pi / 3, math.pi])
    def test_phase_gate_coefficients(self, phi):
        spec = GateSpec(GateKind.PS, phi)
        assert _action(spec, (0,)) == [(complex(1.0), (0,))]
        ((coeff, bits),) = _action(spec, (1,))
        assert bits == (1,)
        assert coeff == pytest.approx(cmath.exp(1j * phi), abs=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_traced_sources_mark_flips_and_carries(self, kind):
        table = SOURCE_TABLES[kind]
        spec = _spec(kind)
        assert sorted(table) == list(QubitEmbedding(spec.arity).all_bits())
        for bits, expected in table.items():
            assert [term.sources for term in gate_action_traced(spec, bits)] == expected, bits

    def test_rejects_wrong_bit_count(self):
        with pytest.raises(ValueError):
            gate_action_traced(GateSpec(GateKind.CNOT), (1,))

    def test_rejects_non_binary_bits(self):
        with pytest.raises(ValueError):
            gate_action_traced(GateSpec(GateKind.NOT), (2,))


class TestGateMatrix:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_vanishes_off_the_valid_subspace(self, kind):
        spec = _spec(kind)
        matrix = gate_matrix(spec)
        proj = QubitEmbedding(spec.arity).projector()
        assert np.allclose(matrix, proj @ matrix @ proj, atol=1e-14)

    @pytest.mark.parametrize(
        "kind", [GateKind.NOT, GateKind.CNOT, GateKind.SWAP, GateKind.FREDKIN, GateKind.TOFFOLI]
    )
    def test_involution_on_the_valid_subspace(self, kind):
        spec = GateSpec(kind)
        matrix = gate_matrix(spec)
        proj = QubitEmbedding(spec.arity).projector()
        assert np.max(np.abs(matrix @ matrix - proj)) <= 1e-12

    def test_squared_parity_sum_doubles_the_projector(self):
        matrix = gate_matrix(GateSpec(GateKind.HAD))
        proj = QubitEmbedding(1).projector()
        assert np.max(np.abs(matrix @ matrix - 2.0 * proj)) <= 1e-12

    @pytest.mark.parametrize("phi", [0.0, math.pi / 3, math.pi, 2.5])
    def test_phase_gate_inverse(self, phi):
        forward = gate_matrix(GateSpec(GateKind.PS, phi))
        backward = gate_matrix(GateSpec(GateKind.PS, -phi))
        proj = QubitEmbedding(1).projector()
        assert np.max(np.abs(forward @ backward - proj)) <= 1e-12

    def test_swap_permutes_columns(self):
        emb = QubitEmbedding(2)
        matrix = gate_matrix(GateSpec(GateKind.SWAP))
        for bits in emb.all_bits():
            ket = encode_basis(bits).vector
            swapped = encode_basis(bits[::-1]).vector
            assert np.array_equal(matrix @ ket, swapped)


class TestDeformedGates:
    @pytest.mark.parametrize("q", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unit_weights_reproduce_the_undeformed_matrix(self, kind, q):
        spec = _spec(kind)
        params = DeformationParams.uniform(q)
        assert np.array_equal(deformed_gate_matrix(spec, q, params), gate_matrix(spec))

    @pytest.mark.parametrize("q", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_closing_assignment_reproduces_the_table(self, kind, q):
        # Under the closing rule every deformed ket is the unit basis ket, so
        # the deformed matrix must act exactly as the table does.
        spec = _spec(kind)
        matrix = deformed_gate_matrix(spec, q)
        emb = QubitEmbedding(spec.arity)
        for bits in emb.all_bits():
            expected = np.zeros(emb.dim, dtype=complex)
            for coeff, out_bits in _action(spec, bits):
                expected += coeff * encode_basis(out_bits).vector
            got = matrix @ encode_basis(bits).vector
            assert np.max(np.abs(got - expected)) <= 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_reduces_to_undeformed_near_q_one(self, kind):
        spec = _spec(kind)
        matrix = deformed_gate_matrix(spec, 1.0 + 1e-7)
        assert np.max(np.abs(matrix - gate_matrix(spec))) <= 1e-6

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_invariant_under_q_inversion_with_uniform_weights(self, kind):
        # Equal pair weights make every level-1 bracket equal to the weight
        # itself, so inverting q cannot move the matrix.
        spec = _spec(kind)
        up = deformed_gate_matrix(spec, 2.0, DeformationParams.uniform(2.0, 3.0))
        down = deformed_gate_matrix(spec, 0.5, DeformationParams.uniform(0.5, 3.0))
        assert np.max(np.abs(up - down)) <= 1e-14

    def test_controlled_flip_with_general_weights(self):
        # Independent dense computation: the control branch contributes
        # c(in)*c(out) on the flipped ket, where c is the product of per-qubit
        # deformed amplitudes.
        q = 2.0
        params = DeformationParams(q, (1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 0.5, 0.5) + (1.0,) * 4)
        matrix = deformed_gate_matrix(GateSpec(GateKind.CNOT), q, params)

        def deformed(bits):
            return deformed_qubit_state(DeformedQubitSpec(bits, params), q).vector

        got = matrix @ deformed((1, 1))
        overlap = np.vdot(deformed((1, 1)), deformed((1, 1)))
        expected = overlap * deformed((1, 0))
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_vacuum_exponent_leaves_closure_residual(self):
        # Under the vacuum reading the excited ket carries sqrt(q), so mapping
        # the deformed |1> to the deformed |0> overshoots by exactly q - 1.
        q = 2.0
        vac = ExponentConvention.VACUUM
        matrix = deformed_gate_matrix(GateSpec(GateKind.NOT), q, exponent=vac)
        ket_in = deformed_qubit_state(DeformedQubitSpec((1,), exponent=vac), q).vector
        ket_out = deformed_qubit_state(DeformedQubitSpec((0,), exponent=vac), q).vector
        residual = np.linalg.norm(matrix @ ket_in - ket_out)
        assert residual == pytest.approx(q - 1.0, abs=1e-12)

    def test_literal_doubly_controlled_build_always_flips(self):
        q = 2.0
        literal = toffoli_literal_matrix(q, DeformationParams.uniform(q))
        faithful = deformed_gate_matrix(GateSpec(GateKind.TOFFOLI), q, DeformationParams.uniform(q))
        emb = QubitEmbedding(3)
        for bits in emb.all_bits():
            ket = encode_basis(bits).vector
            flipped = encode_basis((bits[0], bits[1], 1 - bits[2])).vector
            assert np.max(np.abs(literal @ ket - flipped)) <= 1e-12
        assert np.max(np.abs(literal - faithful)) > 0.5

    def test_entry_plan_is_built_once_and_read_only(self):
        gate = gates._GATES[GateKind.HAD]
        plan = gates._entry_plan(gate, 0.0)
        assert gates._entry_plan(gate, 0.0) is plan
        assert not any(array.flags.writeable for array in plan)

    def test_non_finite_amplitudes_raise_overflow_naming_the_gate(self):
        with pytest.raises(OverflowError, match=r"cnot gate at q=1e\+300 under the vacuum exponent"):
            deformed_gate_matrix(GateSpec(GateKind.CNOT), 1e300, exponent=ExponentConvention.VACUUM)


class TestDenseOracle:
    """The one-entry dyad build against the outer-product, lift and matmul build, bit for bit."""

    @pytest.mark.parametrize("uniform", [False, True])
    @pytest.mark.parametrize("exponent", list(ExponentConvention))
    @pytest.mark.parametrize("q", ORACLE_Q)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_deformed_gate_matrix_equals_the_dense_build(self, kind, q, exponent, uniform):
        spec = _spec(kind)
        params = DeformationParams.uniform(q) if uniform else None
        expected = _dense_gate(spec, q, params, exponent)
        assert np.array_equal(deformed_gate_matrix(spec, q, params, exponent), expected)

    @pytest.mark.parametrize("uniform", [False, True])
    @pytest.mark.parametrize("exponent", list(ExponentConvention))
    @pytest.mark.parametrize("q", ORACLE_Q)
    def test_toffoli_literal_matrix_equals_the_dense_build(self, q, exponent, uniform):
        params = DeformationParams.uniform(q) if uniform else None
        expected = _dense_gate(GateSpec(GateKind.TOFFOLI), q, params, exponent, literal=True)
        assert np.array_equal(toffoli_literal_matrix(q, params, exponent), expected)

    def test_general_weights_equal_the_dense_build(self):
        q = 2.0
        params = DeformationParams(q, (1.0, 1.5, 2.0, 0.5, 3.0, 3.0, 0.7, 0.9, 1.2, 1.1, 4.0, 2.5))
        for kind in ALL_KINDS:
            spec = _spec(kind)
            expected = _dense_gate(spec, q, params, ExponentConvention.RESULT)
            assert np.array_equal(deformed_gate_matrix(spec, q, params), expected), kind
        expected = _dense_gate(GateSpec(GateKind.TOFFOLI), q, params, ExponentConvention.RESULT, literal=True)
        assert np.array_equal(toffoli_literal_matrix(q, params), expected)

    @pytest.mark.parametrize("exponent", list(ExponentConvention))
    def test_closure_residual_equals_the_full_ket_product(self, exponent):
        specs = [_spec(kind) for kind in ALL_KINDS]
        residuals = _closure_residuals(specs, BATCH_Q, exponent)
        assert residuals.shape == (len(BATCH_Q), len(specs))
        for q, row in zip(BATCH_Q, residuals.tolist()):
            for spec, residual in zip(specs, row):
                assert residual == _dense_closure_residual(spec, q, exponent), (spec.kind, q)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_index_composed_square_equals_the_matrix_product(self, kind):
        matrix = gate_matrix(_spec(kind))
        assert np.array_equal(_square(matrix), matrix @ matrix)
