"""Tests for the band of the deformed ladder operators and its algebra residuals."""

import ast
import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qgatelab import (
    NegativeRadicandError,
    OperatorConvention,
    RunConfig,
    band_residuals,
    deformed_number_op,
    make_ladder_band,
    psi_bracket,
)
from qgatelab import qdeform, suites
from qgatelab.suites import _GENERALIZED_POINTS, algebra_suite, limits_suite

from mode_ops import band_matrices, make_mode_ops

Q_GRID = (0.5, 0.9, 1.1, 2.0)
# q = 1 and one q either side of it within 1e-8, where the bracket is a ratio of vanishing differences
STACK_Q = (0.5, 0.9, 1.0, 1.0 + 1e-8, 1.0 - 1e-8, 2.0, 1e3)
# 200 q values with distinct %g labels, none equal to 1
MANY_Q = tuple(round(0.5 + 0.0075 * i, 6) for i in range(200))


def _one_q(cutoff, q, psi_a=1.0, psi_b=1.0, convention=OperatorConvention.MATRIX_ELEMENT):
    """The band of one q."""
    return make_ladder_band(cutoff, (q,), psi_a, psi_b, convention)


def _residuals(band):
    """The residuals and tested levels of a one-q band, per relation key."""
    residuals, levels = band_residuals(band)
    return {key: value for key, (value,) in residuals.items()}, {key: value for key, (value,) in levels.items()}


class TestOneQBand:
    def test_reduces_to_undeformed_at_q_one(self):
        mode = make_mode_ops(6)
        a_q, a_q_dag = band_matrices(_one_q(6, 1.0))
        assert np.array_equal(a_q[0], mode.a)
        assert np.array_equal(a_q_dag[0], mode.a_dag)

    def test_matrix_elements_are_bracket_roots(self):
        (a_q,), _ = band_matrices(_one_q(3, 2.0))
        assert a_q[1, 2] == pytest.approx(math.sqrt(2.5), abs=1e-15)
        ket = np.zeros(3, dtype=complex)
        ket[2] = 1.0
        out = a_q @ ket
        assert out[1] == pytest.approx(math.sqrt(2.5), abs=1e-15)

    @pytest.mark.parametrize("weight", [0.5, 3.0])
    def test_creation_from_vacuum_scales_with_weight(self, weight):
        band = _one_q(2, 2.0, weight, weight)
        assert band_matrices(band)[1][0, 1, 0] == pytest.approx(math.sqrt(weight), abs=1e-15)

    def test_default_convention_pairs_by_adjoint(self):
        band = _one_q(5, 2.0, 1.0, 3.0)
        a_q, a_q_dag = band_matrices(band)
        assert np.array_equal(a_q_dag[0], a_q[0].conj().T)
        assert np.array_equal(band.lowering, band.raising)

    def test_negative_bracket_is_rejected_with_level(self):
        # At q=2, wa=0.5, wb=4 the level-1 bracket is (1 - 2)/1.5 < 0.
        with pytest.raises(NegativeRadicandError) as excinfo:
            _one_q(4, 2.0, 0.5, 4.0)
        assert excinfo.value.level == 1

    def test_left_scaling_copies_raising_but_zeroes_bottom_lowering(self):
        hermitian = band_matrices(_one_q(4, 2.0))
        literal = band_matrices(_one_q(4, 2.0, convention=OperatorConvention.LEFT_SCALING))
        assert np.allclose(literal[1], hermitian[1], atol=1e-15)
        assert literal[0][0, 0, 1] == 0.0
        assert hermitian[0][0, 0, 1] == 1.0

    def test_left_scaling_is_not_an_adjoint_pair(self):
        a_q, a_q_dag = band_matrices(_one_q(4, 2.0, convention=OperatorConvention.LEFT_SCALING))
        assert np.max(np.abs(a_q_dag[0] - a_q[0].conj().T)) > 0.5


class TestAlgebraResiduals:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_uniform_weights_satisfy_all_relations(self, q):
        residuals, levels = _residuals(_one_q(8, q))
        assert max(residuals.values()) <= 1e-12
        assert levels["deformed_commutation"] == tuple(range(7))

    def test_reads_the_brackets_its_operators_were_built_from(self, monkeypatch):
        band = _one_q(6, 2.0, 1.0, 3.0)
        assert band.brackets[0].tolist() == [psi_bracket(n, 2.0, 1.0, 3.0) for n in range(7)]
        before = band_residuals(band)

        def refused(*args):
            raise AssertionError("band_residuals computed a bracket again")

        monkeypatch.setattr(qdeform, "bracket", refused)
        assert band_residuals(band) == before

    def test_unequal_weights_drop_the_bottom_level(self):
        residuals, levels = _residuals(_one_q(6, 2.0, 1.0, 3.0))
        assert max(residuals.values()) <= 1e-12
        assert levels["deformed_commutation"][0] == 1
        assert levels["lowering_product_diagonal"][0] == 1
        assert levels["raising_product_diagonal"][0] == 0

    @pytest.mark.parametrize("q", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize(("wa", "wb"), [(1.0, 1.0), (2.0, 1.0), (1.0, 0.5), (3.0, 2.0)])
    def test_number_commutators_hold_for_any_weights(self, q, wa, wb):
        try:
            band = _one_q(6, q, wa, wb)
        except NegativeRadicandError:
            pytest.skip("pair not admissible at this base")
        residuals, _ = _residuals(band)
        assert residuals["lowering_number_commutator"] <= 1e-12
        assert residuals["raising_number_commutator"] <= 1e-12

    def test_left_scaling_breaks_product_diagonal(self):
        residuals, _ = _residuals(_one_q(4, 2.0, convention=OperatorConvention.LEFT_SCALING))
        # The zeroed 1 -> 0 transition removes the level-1 diagonal entry,
        # whose exact value is the level-1 bracket: 1.
        assert residuals["lowering_product_diagonal"] == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_q_inversion(self):
        up = band_matrices(_one_q(8, 2.0))[0]
        down = band_matrices(_one_q(8, 0.5))[0]
        assert np.max(np.abs(up - down)) <= 1e-14

    def test_continuity_near_q_one(self):
        # This close to q = 1 the bracket is a ratio of two vanishing
        # differences, so residuals inherit rounding noise of order 1e-8;
        # the meaningful statement is closeness to the undeformed algebra.
        mode = make_mode_ops(8)
        near = _one_q(8, 1.0 + 1e-8)
        (a_q,), (a_q_dag,) = band_matrices(near)
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
        a_q, _ = band_matrices(make_ladder_band(8, (1.01, 1.0001)))
        coarse, fine = (np.linalg.norm(matrix - mode.a, 2) for matrix in a_q)
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
        n_q = deformed_number_op(4, q, wb)
        expected = np.arange(4, dtype=float) - shift
        assert n_q.shape == (4,)
        assert np.max(np.abs(n_q - expected)) <= 1e-12

    def test_rejected_at_q_one(self):
        with pytest.raises(ValueError):
            deformed_number_op(4, 1.0, 1.0)

    def test_rejected_for_nonpositive_weight(self):
        with pytest.raises(ValueError):
            deformed_number_op(4, 2.0, -1.0)

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


def _band_of(matrix: np.ndarray, offset: int) -> np.ndarray:
    """The one nonzero diagonal of a dense reference matrix, as reals; every other entry is zero."""
    band = np.diag(matrix, offset)
    assert not (matrix - np.diag(band, offset)).any() and not band.imag.any()
    return band.real


class TestLadderBand:
    @pytest.mark.parametrize("cutoff", [3, 8, 14])
    @pytest.mark.parametrize("convention", list(OperatorConvention))
    @pytest.mark.parametrize(
        ("q_values", "psi_b"),
        [(STACK_Q, 1.0)] + [((q, 1.0 / q, 2.7), psi_b) for q, psi_b in _GENERALIZED_POINTS],
    )
    def test_each_q_equals_the_dense_build_bit_for_bit(self, cutoff, convention, q_values, psi_b):
        mode = make_mode_ops(cutoff)
        band = make_ladder_band(cutoff, q_values, 1.0, psi_b, convention)
        all_residuals, all_levels = band_residuals(band)
        assert band.lowering.shape == band.raising.shape == (len(q_values), cutoff - 1)
        assert band.brackets.shape == (len(q_values), cutoff + 1)
        assert (band.q_values, band.psi_b, band.convention) == (q_values, psi_b, convention)
        assert all(len(values) == len(q_values) for values in [*all_residuals.values(), *all_levels.values()])
        for index, q in enumerate(q_values):
            a_q, a_q_dag, brackets = _reference_build(mode, q, psi_b, convention)
            residuals, levels = _reference_residuals(mode, q, psi_b, a_q, a_q_dag, brackets)
            assert band.lowering[index].tobytes() == _band_of(a_q, 1).tobytes()
            assert band.raising[index].tobytes() == _band_of(a_q_dag, -1).tobytes()
            assert band.brackets[index].tolist() == brackets
            assert {key: values[index] for key, values in all_residuals.items()} == residuals, q
            assert {key: values[index] for key, values in all_levels.items()} == levels

    def test_negative_bracket_names_the_first_q_and_level(self):
        # q = 4 admits the pair (0.5, 4) at level 1, q = 2 does not: (1 - 2) / 1.5 < 0
        with pytest.raises(NegativeRadicandError) as excinfo:
            make_ladder_band(4, (4.0, 2.0), 0.5, 4.0)
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
        band = _one_q(4, q, 1e308, 1e308)
        assert list(map(repr, band.brackets[0].tolist())) == list(map(repr, brackets))


def _limit_q() -> tuple:
    """The benchmark's limit q values, their inverses and a few farther from 1."""
    import workloads

    return tuple(workloads.DENSE_LIMIT_Q) + tuple(1.0 / q for q in workloads.DENSE_LIMIT_Q) + (0.5, 1.7, 3.0)


class TestLimitsSuiteBands:
    @pytest.mark.parametrize("convention", list(OperatorConvention))
    def test_lowering_gap_is_the_dense_largest_entry_and_the_operator_norm(self, monkeypatch, convention):
        # a_q - a has one nonzero band, so its operator norm is its largest entry; the SVD reaches it
        # to within 2 ulp
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        limit_q = _limit_q()
        for cutoff in range(3, 21):
            mode = make_mode_ops(cutoff)
            rows = limits_suite(RunConfig(suite="limits", cutoff=cutoff, limit_q=limit_q, operator=convention))
            gaps = {values[0]: gap for _, name, values, gap, _ in rows if name.startswith("limits/lowering-gap/")}
            assert sorted(gaps) == sorted(limit_q)
            for q, gap in gaps.items():
                difference = _reference_build(mode, q, 1.0, convention)[0] - mode.a
                assert gap == float(np.max(np.abs(difference))), (cutoff, q)
                assert abs(gap - np.linalg.norm(difference, 2)) <= 2 * math.ulp(gap), (cutoff, q)

    def test_a_gap_that_overflows_is_refused(self):
        # at q = 1.3, q**2704 is finite but B(2704) = q**2704 / (q - 1/q) is not
        cfg = RunConfig(suite="limits", cutoff=2705, limit_q=(1.3, 1.2))
        with pytest.raises(OverflowError, match=r"the lowering gap at q=1\.3 overflows"):
            limits_suite(cfg)


class TestAlgebraSuiteBands:
    def test_one_band_per_loop_and_each_q_gets_the_records_it_gets_alone(self, monkeypatch):
        # 200 q: one forward and one mirror band, and one-q bands only at the fixed generalized
        # (3, with residuals), number-shift (3) and convention-audit (2, with residuals) points
        built, reduced = [], []  # the q count of each band built, and of each band reduced

        def build(cutoff, q_values, *rest):
            built.append(len(q_values))
            return make_ladder_band(cutoff, q_values, *rest)

        def reduce(band):
            reduced.append(len(band.q_values))
            return band_residuals(band)

        monkeypatch.setattr(suites, "make_ladder_band", build)
        monkeypatch.setattr(suites, "band_residuals", reduce)
        records = algebra_suite(RunConfig(suite="algebra", q_values=MANY_Q))
        assert (built, reduced) == ([200, 200] + [1] * 8, [200] + [1] * 5)

        monkeypatch.undo()
        by_id = {row[1]: row for row in records}
        assert len(by_id) == len(records)
        alone = {}
        for q in MANY_Q:
            for row in algebra_suite(RunConfig(suite="algebra", q_values=(q,))):
                assert by_id[row[1]] == row, row[1]
                alone[row[1]] = row
        assert alone == by_id

    def test_limits_at_200_limit_q_and_cutoff_64_hold_no_full_stack(self):
        # one (200, 64, 64) complex stack would take 13 MB; the bands take kilobytes
        cfg = RunConfig(suite="limits", limit_q=tuple(round(1.01 + 0.005 * i, 6) for i in range(200)), cutoff=64)
        tracemalloc.start()
        try:
            limits_suite(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_cutoff_64_at_200_q_holds_no_full_stack(self):
        # one (200, 64, 64) complex stack is 13 MB and the relations would take several at once
        cfg = RunConfig(suite="algebra", q_values=MANY_Q, cutoff=64)
        tracemalloc.start()
        try:
            algebra_suite(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def test_the_band_code_builds_no_matrix():
    # no matrix product, no np.linalg, np.eye or np.diag in qdeform or in the two suites that use it
    trees = [ast.parse(Path(qdeform.__file__).read_text())]
    trees += [ast.parse(inspect.getsource(suite)) for suite in (algebra_suite, limits_suite)]
    found = [
        ast.unparse(node)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in ("linalg", "eye", "diag")
    ]
    assert not found, found
