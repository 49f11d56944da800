"""Tests for the deformed ladder operator stacks and their algebra residuals."""

import math
import tracemalloc

import numpy as np
import pytest

from qgatelab import (
    NegativeRadicandError,
    OperatorConvention,
    RunConfig,
    deformed_number_op,
    make_deformed_stack,
    make_mode_ops,
    psi_bracket,
    stack_residuals,
)
from qgatelab import qdeform, suites
from qgatelab.suites import _GENERALIZED_POINTS, algebra_suite, limits_suite

Q_GRID = (0.5, 0.9, 1.1, 2.0)
# q = 1 and one q either side of it within 1e-8, where the bracket is a ratio of vanishing differences
STACK_Q = (0.5, 0.9, 1.0, 1.0 + 1e-8, 1.0 - 1e-8, 2.0, 1e3)
# 200 q values with distinct %g labels, none equal to 1
MANY_Q = tuple(round(0.5 + 0.0075 * i, 6) for i in range(200))


def _one_q(mode, q, psi_a=1.0, psi_b=1.0, convention=OperatorConvention.MATRIX_ELEMENT):
    """The stack of one q."""
    return make_deformed_stack(mode, (q,), psi_a, psi_b, convention)


def _residuals(stack):
    """The residuals and tested levels of a one-q stack, per relation key."""
    residuals, levels = stack_residuals(stack)
    return {key: value for key, (value,) in residuals.items()}, {key: value for key, (value,) in levels.items()}


class TestOneQStack:
    def test_reduces_to_undeformed_at_q_one(self):
        mode = make_mode_ops(6)
        stack = _one_q(mode, 1.0)
        assert np.array_equal(stack.a_q[0], mode.a)
        assert np.array_equal(stack.a_q_dag[0], mode.a_dag)

    def test_matrix_elements_are_bracket_roots(self):
        (a_q,) = _one_q(make_mode_ops(3), 2.0).a_q
        assert a_q[1, 2] == pytest.approx(math.sqrt(2.5), abs=1e-15)
        ket = np.zeros(3, dtype=complex)
        ket[2] = 1.0
        out = a_q @ ket
        assert out[1] == pytest.approx(math.sqrt(2.5), abs=1e-15)

    @pytest.mark.parametrize("weight", [0.5, 3.0])
    def test_creation_from_vacuum_scales_with_weight(self, weight):
        stack = _one_q(make_mode_ops(2), 2.0, weight, weight)
        assert stack.a_q_dag[0, 1, 0] == pytest.approx(math.sqrt(weight), abs=1e-15)

    def test_default_convention_pairs_by_adjoint(self):
        stack = _one_q(make_mode_ops(5), 2.0, 1.0, 3.0)
        assert np.array_equal(stack.a_q_dag[0], stack.a_q[0].conj().T)

    def test_negative_bracket_is_rejected_with_level(self):
        # At q=2, wa=0.5, wb=4 the level-1 bracket is (1 - 2)/1.5 < 0.
        with pytest.raises(NegativeRadicandError) as excinfo:
            _one_q(make_mode_ops(4), 2.0, 0.5, 4.0)
        assert excinfo.value.level == 1

    def test_left_scaling_copies_raising_but_zeroes_bottom_lowering(self):
        hermitian = _one_q(make_mode_ops(4), 2.0)
        literal = _one_q(make_mode_ops(4), 2.0, convention=OperatorConvention.LEFT_SCALING)
        assert np.allclose(literal.a_q_dag, hermitian.a_q_dag, atol=1e-15)
        assert literal.a_q[0, 0, 1] == 0.0
        assert hermitian.a_q[0, 0, 1] == 1.0

    def test_left_scaling_is_not_an_adjoint_pair(self):
        literal = _one_q(make_mode_ops(4), 2.0, convention=OperatorConvention.LEFT_SCALING)
        assert np.max(np.abs(literal.a_q_dag[0] - literal.a_q[0].conj().T)) > 0.5


class TestAlgebraResiduals:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_uniform_weights_satisfy_all_relations(self, q):
        residuals, levels = _residuals(_one_q(make_mode_ops(8), q))
        assert max(residuals.values()) <= 1e-12
        assert levels["deformed_commutation"] == tuple(range(7))

    def test_reads_the_brackets_its_operators_were_built_from(self, monkeypatch):
        stack = _one_q(make_mode_ops(6), 2.0, 1.0, 3.0)
        assert stack.brackets[0].tolist() == [psi_bracket(n, 2.0, 1.0, 3.0) for n in range(7)]
        before = stack_residuals(stack)

        def refused(*args):
            raise AssertionError("stack_residuals computed a bracket again")

        monkeypatch.setattr(qdeform, "bracket", refused)
        assert stack_residuals(stack) == before

    def test_unequal_weights_drop_the_bottom_level(self):
        residuals, levels = _residuals(_one_q(make_mode_ops(6), 2.0, 1.0, 3.0))
        assert max(residuals.values()) <= 1e-12
        assert levels["deformed_commutation"][0] == 1
        assert levels["lowering_product_diagonal"][0] == 1
        assert levels["raising_product_diagonal"][0] == 0

    @pytest.mark.parametrize("q", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize(("wa", "wb"), [(1.0, 1.0), (2.0, 1.0), (1.0, 0.5), (3.0, 2.0)])
    def test_number_commutators_hold_for_any_weights(self, q, wa, wb):
        try:
            stack = _one_q(make_mode_ops(6), q, wa, wb)
        except NegativeRadicandError:
            pytest.skip("pair not admissible at this base")
        residuals, _ = _residuals(stack)
        assert residuals["lowering_number_commutator"] <= 1e-12
        assert residuals["raising_number_commutator"] <= 1e-12

    def test_left_scaling_breaks_product_diagonal(self):
        residuals, _ = _residuals(_one_q(make_mode_ops(4), 2.0, convention=OperatorConvention.LEFT_SCALING))
        # The zeroed 1 -> 0 transition removes the level-1 diagonal entry,
        # whose exact value is the level-1 bracket: 1.
        assert residuals["lowering_product_diagonal"] == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_q_inversion(self):
        up = _one_q(make_mode_ops(8), 2.0)
        down = _one_q(make_mode_ops(8), 0.5)
        assert np.max(np.abs(up.a_q - down.a_q)) <= 1e-14

    def test_continuity_near_q_one(self):
        # This close to q = 1 the bracket is a ratio of two vanishing
        # differences, so residuals inherit rounding noise of order 1e-8;
        # the meaningful statement is closeness to the undeformed algebra.
        mode = make_mode_ops(8)
        near = _one_q(mode, 1.0 + 1e-8)
        (a_q,), (a_q_dag,) = near.a_q, near.a_q_dag
        assert np.max(np.abs(a_q - mode.a)) <= 1e-6
        comm = a_q @ a_q_dag - a_q_dag @ a_q
        block = (comm - np.eye(8))[:7, :7]
        assert np.max(np.abs(block)) <= 1e-6
        assert max(_residuals(near)[0].values()) <= 1e-6

    def test_deviation_shrinks_at_least_linearly(self):
        # One-sided reading: the gap to the undeformed operator must shrink at
        # least proportionally to the distance from q = 1.  (It shrinks much
        # faster; the two-sided proportional band is checked, and fails, in
        # the acceptance suite.)
        mode = make_mode_ops(8)
        coarse, fine = (np.linalg.norm(a_q - mode.a, 2) for a_q in make_deformed_stack(mode, (1.01, 1.0001)).a_q)
        assert coarse / fine >= 100.0 / 1.2


class TestDeformedNumberOp:
    @pytest.mark.parametrize(
        ("q", "wb", "shift"),
        [
            (2.0, 1.0, 0.0),
            (math.e, math.e, 1.0),
            (math.e**2, math.e, 0.5),
        ],
    )
    def test_shift_is_log_ratio(self, q, wb, shift):
        n_q = deformed_number_op(make_mode_ops(4), q, wb)
        expected = np.diag(np.arange(4, dtype=float)) - shift * np.eye(4)
        assert np.max(np.abs(n_q - expected)) <= 1e-12

    def test_rejected_at_q_one(self):
        with pytest.raises(ValueError):
            deformed_number_op(make_mode_ops(4), 1.0, 1.0)

    def test_rejected_for_nonpositive_weight(self):
        with pytest.raises(ValueError):
            deformed_number_op(make_mode_ops(4), 2.0, -1.0)

    def test_shifted_spectrum_matches_brackets(self):
        # q**n_q applied to level n must reproduce bracket ratios:
        # the diagonal of q**(N - shift) is q**n / wb ... the defining
        # property actually used downstream is B(n+1) - q B(n) = wb q**(-n),
        # checked here through the operator identity on the diagonal.
        q, wb = 2.0, 3.0
        diag_now = np.array([psi_bracket(n, q, 1.0, wb) for n in range(6)])
        diag_up = np.array([psi_bracket(n + 1, q, 1.0, wb) for n in range(6)])
        stepped = diag_up - q * diag_now
        expected = wb * q ** -np.arange(6, dtype=float)
        assert np.max(np.abs(stepped - expected)) <= 1e-12


def _reference_build(mode, q, psi_b, convention) -> tuple:
    """a_q, a_q_dag and B(0)..B(d) of one q at psi_a = 1, built matrix by matrix from scalar brackets."""
    d = mode.cutoff
    brackets = [psi_bracket(n, q, 1.0, psi_b) for n in range(d + 1)]
    roots = np.sqrt(np.asarray(brackets[1:d], dtype=float))
    if convention is OperatorConvention.MATRIX_ELEMENT:
        a_q = np.diag(roots, 1).astype(complex)
        return a_q, a_q.conj().T, brackets
    scale = np.zeros(d)
    scale[1:] = roots / np.sqrt(np.arange(1, d, dtype=float))
    f_of_n = np.diag(scale).astype(complex)
    return f_of_n @ mode.a, f_of_n @ mode.a_dag, brackets


def _reference_residuals(mode, q, psi_b, a_q, a_q_dag, brackets) -> tuple:
    """The five relations of one q, each a separate matrix reduced over its tested levels with np.ix_."""
    d = mode.cutoff
    n_op = mode.n_op
    base = tuple(range(d - 1))
    guarded = base if brackets[0] == 0.0 else base[1:]
    q_pow_neg_n = np.diag(q ** -np.arange(d, dtype=float)).astype(complex)
    relations = {
        "deformed_commutation": (a_q @ a_q_dag - q * (a_q_dag @ a_q) - psi_b * q_pow_neg_n, guarded),
        "lowering_number_commutator": ((a_q @ n_op - n_op @ a_q) - a_q, base),
        "raising_number_commutator": ((a_q_dag @ n_op - n_op @ a_q_dag) + a_q_dag, base),
        "lowering_product_diagonal": (a_q_dag @ a_q - np.diag(np.asarray(brackets[:d], dtype=complex)), guarded),
        "raising_product_diagonal": (a_q @ a_q_dag - np.diag(np.asarray(brackets[1:], dtype=complex)), base),
    }
    residuals = {key: float(np.max(np.abs(m[np.ix_(kept, kept)]))) for key, (m, kept) in relations.items()}
    return residuals, {key: kept for key, (_, kept) in relations.items()}


class TestDeformedModeStack:
    @pytest.mark.parametrize("cutoff", [3, 8, 14])
    @pytest.mark.parametrize("convention", list(OperatorConvention))
    @pytest.mark.parametrize(
        ("q_values", "psi_b"),
        [(STACK_Q, 1.0)] + [((q, 1.0 / q, 2.7), psi_b) for q, psi_b in _GENERALIZED_POINTS],
    )
    def test_each_q_equals_its_own_build_bit_for_bit(self, cutoff, convention, q_values, psi_b):
        mode = make_mode_ops(cutoff)
        stack = make_deformed_stack(mode, q_values, 1.0, psi_b, convention)
        all_residuals, all_levels = stack_residuals(stack)
        assert stack.a_q.shape == stack.a_q_dag.shape == (len(q_values), cutoff, cutoff)
        assert stack.brackets.shape == (len(q_values), cutoff + 1)
        assert (stack.q_values, stack.psi_b, stack.convention) == (q_values, psi_b, convention)
        assert all(len(values) == len(q_values) for values in [*all_residuals.values(), *all_levels.values()])
        for index, q in enumerate(q_values):
            a_q, a_q_dag, brackets = _reference_build(mode, q, psi_b, convention)
            residuals, levels = _reference_residuals(mode, q, psi_b, a_q, a_q_dag, brackets)
            assert np.array_equal(stack.a_q[index], a_q)
            assert np.array_equal(stack.a_q_dag[index], a_q_dag)
            assert stack.brackets[index].tolist() == brackets
            assert {key: values[index] for key, values in all_residuals.items()} == residuals, q
            assert {key: values[index] for key, values in all_levels.items()} == levels

    def test_negative_bracket_names_the_first_q_and_level(self):
        # q = 4 admits the pair (0.5, 4) at level 1, q = 2 does not: (1 - 2) / 1.5 < 0
        with pytest.raises(NegativeRadicandError) as excinfo:
            make_deformed_stack(make_mode_ops(4), (4.0, 2.0), 0.5, 4.0)
        assert excinfo.value.level == 1
        assert excinfo.value.value == psi_bracket(1, 2.0, 0.5, 4.0)

    @pytest.mark.parametrize(
        ("q", "brackets"),
        [
            (2.0, (0.0, math.inf, math.inf, math.inf, math.inf)),
            (0.5, (-0.0, math.inf, math.inf, math.inf, math.inf)),
            (1.0, (0.0, 1e308, math.inf, math.inf, math.inf)),
        ],
    )
    def test_overflowing_psi_gives_inf_brackets_without_a_warning(self, q, brackets):
        # q**n * psi overflows past double precision; as float operations, the bracket is inf,
        # and a numpy overflow warning would fail the test (conftest)
        stack = _one_q(make_mode_ops(4), q, 1e308, 1e308)
        assert list(map(repr, stack.brackets[0].tolist())) == list(map(repr, brackets))


class TestAlgebraSuiteStacks:
    def test_one_stack_per_chunk_per_loop_and_chunks_change_no_record(self, monkeypatch):
        # 200 q at cutoff 8 fit one chunk: one forward and one mirror stack, and one-q stacks only
        # at the fixed generalized (3, with residuals), number-shift (3) and convention-audit
        # (2, with residuals) points
        built, reduced = [], []  # the q count of each stack built, and of each stack reduced

        def build(mode, q_values, *rest):
            built.append(len(q_values))
            return make_deformed_stack(mode, q_values, *rest)

        def reduce(stack):
            reduced.append(len(stack.q_values))
            return stack_residuals(stack)

        monkeypatch.setattr(suites, "make_deformed_stack", build)
        monkeypatch.setattr(suites, "stack_residuals", reduce)
        cfg = RunConfig(suite="algebra", q_values=MANY_Q)
        records = algebra_suite(cfg)
        assert (built, reduced) == ([200, 200] + [1] * 8, [200] + [1] * 5)

        built.clear()
        reduced.clear()
        monkeypatch.setattr(suites, "_STACK_ENTRIES", 16 * cfg.cutoff**2)  # 16 q per chunk
        assert algebra_suite(cfg) == records
        chunks = [16] * 12 + [8]
        assert built == [size for size in chunks for _ in ("forward", "mirror")] + [1] * 8
        assert reduced == chunks + [1] * 5

    def test_limits_at_200_limit_q_and_cutoff_64_hold_no_full_stack(self):
        # the limit q values are stacked in the same chunks: one (200, 64, 64) stack peaks near 25 MB
        cfg = RunConfig(suite="limits", limit_q=tuple(round(1.01 + 0.005 * i, 6) for i in range(200)), cutoff=64)
        tracemalloc.start()
        try:
            limits_suite(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_cutoff_64_at_200_q_holds_no_full_stack(self):
        # one (200, 64, 64) complex stack is 13 MB and the relations take several at once;
        # chunked, the run peaks near 6 MB
        cfg = RunConfig(suite="algebra", q_values=MANY_Q, cutoff=64)
        tracemalloc.start()
        try:
            algebra_suite(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
