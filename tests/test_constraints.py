"""Tests for the constraint lab: residual oracle points, sweep engine, verdicts."""

import ast
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qgatelab import (
    CLAIMS,
    DeformationParams,
    DeformedQubitSpec,
    ExponentConvention,
    GateKind,
    GateSpec,
    NegativeRadicandError,
    QubitEmbedding,
    RunConfig,
    canonical_json,
    deformed_qubit_state,
    discover_constraints,
    gate_matrix,
    hadamard_closure_ratio,
    psi_bracket,
)
from qgatelab import constraints
from qgatelab.constraints import _closed_forms, _dense_brackets, _grid_levels, _qubit_tuples, _strata
from qgatelab.dense import _dense_residuals, _dense_sides, _oracle_plan
from qgatelab.suites import constraints_suite
from sweep_oracle import assert_block_matches, check_dense, engine_block, grid_facts, ordered_patterns, pattern_mask
from sweep_oracle import strict_gap_50_digits, stratum_rows, whole_block

SQRT2 = math.sqrt(2.0)


def _counted(calls: dict, name: str, function):
    """function, adding one to calls[name] per call."""

    def counted(*args):
        calls[name] += 1
        return function(*args)

    return counted


def _params(q, *prefix):
    """Params from an explicit psi_1.. prefix, the rest 1."""
    return DeformationParams(q, (*prefix, *[1.0] * (12 - len(prefix))))


def test_the_sweep_takes_only_the_oracle_entry_points_from_dense():
    # the dense oracle shares no residual code with the sweep: constraints calls it and reads nothing else of it
    path = Path(__file__).resolve().parents[1] / "src" / "qgatelab" / "constraints.py"
    taken = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            taken += [alias.name for alias in node.names if "dense" in f"{node.module}.{alias.name}".split(".")]
        elif isinstance(node, ast.Import):
            taken += [alias.name for alias in node.names if "dense" in alias.name.split(".")]
    assert sorted(taken) == ["_dense_residuals", "_oracle_plan"]


def _residuals(spec, q, params) -> tuple:
    """(strict, collinear) gaps of one point through the dense path."""
    strict, collinear = _dense_residuals(_dense_brackets(spec.arity, [(q, params.psi)]), _oracle_plan(spec))
    return strict[0], collinear[0]


class TestIdentityResidual:
    @pytest.mark.parametrize(
        "kind", [GateKind.PS, GateKind.HAD, GateKind.NOT, GateKind.CNOT, GateKind.SWAP]
    )
    def test_uniform_weights_close_every_identity(self, kind):
        spec = GateSpec(kind, math.pi / 3)
        for q in (0.5, 2.0):
            params = DeformationParams.uniform(q, 3.0)
            assert _residuals(spec, q, params)[0] <= 1e-14

    @pytest.mark.parametrize(
        "prefix",
        [
            (0.5, 2.0, 4.0, 1.0, 2.0, 0.5, 1.0, 4.0),
            (4.0, 4.0, 0.5, 0.5, 1.0, 2.0, 2.0, 1.0),
        ],
    )
    def test_swap_closes_for_arbitrary_weights(self, prefix):
        params = _params(2.0, *prefix)
        strict, collinear = _residuals(GateSpec(GateKind.SWAP), 2.0, params)
        assert strict <= 1e-14
        assert collinear <= 1e-14

    def test_permutation_gates_close_for_arbitrary_weights(self):
        params = _params(2.0, 2.0, 0.5, 1.0, 4.0, 0.5, 0.5, 2.0, 1.0, 4.0, 1.0, 0.5, 2.0)
        assert _residuals(GateSpec(GateKind.FREDKIN), 2.0, params)[0] <= 1e-14

    def test_bit_flip_residual_is_amplitude_gap(self):
        # With pairs (a, a) on the odd mode and (b, b) on the even mode the
        # only mismatch is between the two creation amplitudes.
        params = _params(2.0, 4.0, 4.0, 1.0, 1.0)
        strict, collinear = _residuals(GateSpec(GateKind.NOT), 2.0, params)
        assert strict == pytest.approx(1.0, abs=1e-14)
        assert collinear <= 1e-14

    def test_parity_sum_closes_under_auxiliary_equalities_alone(self):
        # psi1 = psi3 and psi2 = psi4 with psi1 != psi2: the claimed equality
        # is violated yet the identity closes, the seed of the refuted verdict.
        params = _params(2.0, 2.0, 1.0, 2.0, 1.0)
        assert _residuals(GateSpec(GateKind.HAD), 2.0, params)[0] == 0.0

    def test_parity_sum_strict_residual_scales_as_root_of_weights(self):
        base = _residuals(GateSpec(GateKind.HAD), 2.0, _params(2.0, 1.0, 1.0, 2.0, 2.0))[0]
        scaled = _residuals(GateSpec(GateKind.HAD), 2.0, _params(2.0, 2.0, 2.0, 4.0, 4.0))[0]
        assert base == pytest.approx(SQRT2 - 1.0, abs=1e-14)
        assert scaled == pytest.approx(SQRT2 * base, rel=1e-12)

    def test_collinear_residual_ignores_overall_rescaling(self):
        spec = GateSpec(GateKind.HAD)
        base = _residuals(spec, 2.0, _params(2.0, 1.0, 1.0, 2.0, 2.0))[1]
        scaled = _residuals(spec, 2.0, _params(2.0, 2.0, 2.0, 4.0, 4.0))[1]
        assert base > 1e-3
        assert scaled == pytest.approx(base, abs=1e-14)

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_one_column_oracle_matches_the_full_ket_product(self, kind):
        # the dense pass compares each input's lhs row, in all_bits order, on the kets it reaches
        spec = GateSpec(kind, math.pi / 3)
        emb = QubitEmbedding(spec.arity)
        matrix = gate_matrix(spec)
        plan = _oracle_plan(spec)
        rng = np.random.default_rng(7)
        for q in (0.5, 2.0):
            # pair ratios of at most 4 keep every bracket nonnegative at q = 0.5 and 2
            points = [DeformationParams.uniform(q, 3.0)]
            points += [DeformationParams(q, tuple(rng.choice((0.5, 1.0, 2.0), 12))) for _ in range(3)]
            for params in points:
                (seen,), _ = _dense_sides(_dense_brackets(spec.arity, [(q, params.psi)]), plan)
                assert len(seen) == 2**spec.arity
                kets = plan[-1]
                for bits, lhs in zip(emb.all_bits(), seen):
                    full = matrix @ deformed_qubit_state(DeformedQubitSpec(bits, params), q).vector
                    # the plan's kets hold every nonzero entry of the full product
                    assert np.array_equal(lhs, full[kets]), (q, params, bits)
                    assert not np.delete(full, kets).any(), (q, params, bits)
        # mode 1 holds (1, 8): q psi_a - psi_b / q = 2 - 4 < 0 at q = 2
        with pytest.raises(NegativeRadicandError):
            _dense_residuals(_dense_brackets(spec.arity, [(2.0, _params(2.0, 1.0, 8.0).psi)]), plan)


class TestClosureRatio:
    @pytest.mark.parametrize("q", [0.5, 0.9, 1.1, 2.0, 4.0])
    def test_ground_occupation_gives_one(self, q):
        assert hadamard_closure_ratio(0, q) == 1.0

    @pytest.mark.parametrize("q", [0.5, 2.0, 4.0])
    def test_excited_occupation_gives_q_squared(self, q):
        assert hadamard_closure_ratio(1, q) == pytest.approx(q * q, rel=1e-15)

    def test_excited_occupation_is_benign_only_at_q_one(self):
        assert hadamard_closure_ratio(1, 1.0) == 1.0

    def test_rejects_other_occupations(self):
        with pytest.raises(ValueError):
            hadamard_closure_ratio(2, 2.0)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            hadamard_closure_ratio(0, -1.0)


@pytest.fixture(scope="module")
def reports():
    return {kind: discover_constraints(kind) for kind in GateKind}


class TestDiscoverConstraints:
    def test_unrestricted_claims_are_confirmed(self, reports):
        for kind in (GateKind.PS, GateKind.SWAP, GateKind.FREDKIN):
            rep = reports[kind]
            assert rep.verdict == "confirmed"
            assert rep.totals["max_strict"] <= 1e-12
            assert rep.totals["max_collinear"] <= 1e-12
            assert rep.minimal_pattern["strict"]["equalities"] == "none"

    @pytest.mark.parametrize(
        ("kind", "minimal"),
        [
            (GateKind.HAD, "psi1=psi3,psi2=psi4"),
            (GateKind.NOT, "psi1=psi3,psi2=psi4"),
            (GateKind.CNOT, "psi5=psi7,psi6=psi8"),
            (GateKind.TOFFOLI, "psi9=psi11,psi10=psi12"),
        ],
    )
    def test_equality_claims_are_sufficient_but_not_necessary(self, reports, kind, minimal):
        rep = reports[kind]
        assert rep.verdict == "refuted"
        assert "not necessary" in rep.notes
        # The claim itself does hold the identity wherever it is satisfied.
        assert rep.totals["claim_points"] > 0
        assert rep.totals["claim_max_strict"] <= 1e-12
        assert rep.totals["claim_max_collinear"] <= 1e-12
        # The weaker cross-mode equalities already suffice.
        assert rep.minimal_pattern["strict"]["name"] == "auxiliary"
        assert rep.minimal_pattern["strict"]["equalities"] == minimal
        assert rep.minimal_pattern["collinear"]["equalities"] == minimal

    @pytest.mark.parametrize(
        ("kind", "rows", "skipped"),
        [
            (GateKind.NOT, 1152, 388),
            (GateKind.CNOT, 264192, 141268),
            (GateKind.TOFFOLI, 819200, 430316),
        ],
    )
    def test_row_and_skip_totals_are_frozen(self, reports, kind, rows, skipped):
        rep = reports[kind]
        assert rep.totals["rows"] == rows
        assert rep.totals["skipped"] == skipped
        assert rep.totals["cross_checked"] > 0

    def test_every_gate_cross_checks_six_rows_per_stratum_and_q(self, reports):
        for kind, rep in reports.items():
            expected = 120 if GateSpec(kind).arity == 3 else 72
            assert rep.totals["cross_checked"] == expected, kind

    def test_totals_aggregate_the_strata(self, reports):
        vacuum = {
            kind: discover_constraints(kind, (0.7, 2.0), exponent=ExponentConvention.VACUUM)
            for kind in GateKind
        }
        for run in (reports, vacuum):
            for kind, rep in run.items():
                for key in ("rows", "admissible", "skipped"):
                    assert rep.totals[key] == sum(s[key] for s in rep.strata), (kind, key)
                for key in ("max_strict", "max_collinear"):
                    assert rep.totals[key] == max(s[key] for s in rep.strata), (kind, key)
        assert vacuum[GateKind.HAD].totals["max_strict"] > 0.0

    def test_inadmissible_points_record_an_exemplar(self, reports):
        rep = reports[GateKind.NOT]
        with_skips = [s for s in rep.strata if s["skipped"] > 0]
        assert with_skips
        assert all("skipped_exemplar" in s for s in with_skips)
        for stratum in rep.strata:
            assert len(stratum["exemplars"]) <= 4
            assert stratum["rows"] == stratum["admissible"] + stratum["skipped"]

    def test_claim_metadata_round_trips(self, reports):
        rep = reports[GateKind.CNOT]
        assert rep.claim["equalities"] == "psi5=psi6"
        assert rep.claim["auxiliary"] == "psi5=psi7,psi6=psi8"
        assert CLAIMS[GateKind.CNOT].text in rep.claim["text"]

    def test_reports_are_deterministic(self):
        first = discover_constraints(GateKind.HAD, q_values=(2.0,), grid=(0.5, 2.0))
        second = discover_constraints(GateKind.HAD, q_values=(2.0,), grid=(0.5, 2.0))
        assert canonical_json(first._asdict()) == canonical_json(second._asdict())

    def test_phase_gate_gets_a_nontrivial_angle(self, reports):
        assert reports[GateKind.PS].phi == pytest.approx(math.pi / 3)

    def test_rejects_q_one_and_degenerate_grids(self):
        with pytest.raises(ValueError):
            discover_constraints(GateKind.NOT, q_values=(1.0,))
        with pytest.raises(ValueError):
            discover_constraints(GateKind.NOT, q_values=())
        with pytest.raises(ValueError):
            discover_constraints(GateKind.NOT, grid=(2.0,))
        with pytest.raises(ValueError):
            discover_constraints(GateKind.NOT, grid=(2.0, -1.0))


def _reference_rows(slots, grid):
    """Float psi rows as itertools.product builds them, ones outside the stratum's slots."""
    combos = np.asarray(list(itertools.product(grid, repeat=len(slots))), dtype=float)
    rows = np.ones((combos.shape[0], 12))
    for position, indices in enumerate(slots):
        for index in indices:
            rows[:, index] = combos[:, position]
    return rows


def _float_equalities(rows, pattern):
    mask = np.ones(rows.shape[0], dtype=bool)
    for i, j in pattern:
        mask &= rows[:, i - 1] == rows[:, j - 1]
    return mask


def _tuple_rows(stratum, levels, patterns, count):
    """Per row of a stratum (C order), the psi of its qubits' tuples' mode pairs (rows x 4 * arity)
    and each pattern's restriction, from _qubit_tuples: a row takes its qubits' tuples in turn."""
    sizes, pairs, restrictions = stratum
    at = np.unravel_index(np.arange(count), sizes)
    codes = np.concatenate([pairs[j][:, at[j]].T for j in range(len(sizes))], axis=1)
    psi = np.stack([levels[codes // levels.size], levels[codes % levels.size]], axis=-1).reshape(count, -1)
    allowed = {
        pattern: np.logical_and.reduce([restrictions[j, k, at[j]] for j in range(len(sizes))])
        for k, pattern in enumerate(patterns)
    }
    return psi, allowed


# sweep strata per register width, in sweep order: per free grid slot, the
# 0-based psi columns it fills
_STRATA = {
    1: {
        "aux": ((0, 2), (1, 3)),
        "mode-pairs": ((0, 1), (2, 3)),
        "free": ((0,), (1,), (2,), (3,)),
    },
    2: {
        "aux": ((0, 2), (1, 3), (4, 6), (5, 7)),
        "mode-pairs": ((0, 1), (2, 3), (4, 5), (6, 7)),
        "free": ((0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,)),
    },
    3: {
        "aux": ((0, 2), (1, 3), (4, 6), (5, 7), (8, 10), (9, 11)),
        "mode-pairs": ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)),
        "free-q1q2": ((0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,)),
        "free-q1q3": ((0,), (1,), (2,), (3,), (8,), (9,), (10,), (11,)),
        "free-q2q3": ((4,), (5,), (6,), (7,), (8,), (9,), (10,), (11,)),
    },
}

_KINDS_BY_ARITY = {
    arity: [kind for kind in GateKind if GateSpec(kind).arity == arity] for arity in (1, 2, 3)
}


def _oracle_blocks(kind, grids, q_values):
    """Every stratum of every grid, every row a sample: the engine's blocks at all q_values against
    the whole-grid oracle at each q; yields (grid, stratum, q, engine block, oracle block, rows, facts)."""
    spec = GateSpec(kind, math.pi / 3)
    patterns = ordered_patterns(CLAIMS[kind], spec.arity)
    for grid in grids:
        for stratum, slots in _strata(spec.arity).items():
            rows = stratum_rows(slots, grid)
            got = engine_block(spec, q_values, grid, slots, patterns, list(range(len(rows))))
            for q, block in zip(q_values, got):
                facts = grid_facts(spec, q, rows)
                yield grid, stratum, q, block, whole_block(rows, facts, patterns), rows, facts


class TestLevelCodes:
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_strata_match_the_hand_written_table(self, arity):
        strata = _strata(arity)
        assert list(strata) == list(_STRATA[arity])
        assert strata == _STRATA[arity]

    @pytest.mark.parametrize("arity", [1, 2, 3])
    @pytest.mark.parametrize(
        "grid",
        [(1.0, 2.0, 1.0), (0.5, 2.0, 0.5), (0.3, 0.7, 1.9)],
        ids=["duplicates-with-one", "duplicates-without-one", "distinct-without-one"],
    )
    def test_codes_rebuild_product_rows_and_equality_masks(self, arity, grid):
        # each qubit's tuples, taken in turn, rebuild the product rows, and their restrictions
        # the float equality masks of every candidate pattern
        levels, grid_codes = _grid_levels(grid)
        assert grid_codes.dtype == np.uint8
        for kind in _KINDS_BY_ARITY[arity]:
            patterns = ordered_patterns(CLAIMS[kind], arity)
            for stratum, slots in _strata(arity).items():
                rows = _reference_rows(slots, grid)
                stratum_tuples = _qubit_tuples(slots, arity, levels, grid_codes, patterns)
                psi, allowed = _tuple_rows(stratum_tuples, levels, patterns, len(rows))
                assert np.array_equal(psi, rows[:, : 4 * arity]), stratum
                for pattern in patterns:
                    assert np.array_equal(allowed[pattern], _float_equalities(rows, pattern)), (stratum, kind, pattern)

    def test_more_than_256_levels_widen_the_codes(self):
        grid = tuple(2.0 + 0.01 * k for k in range(300))
        levels, grid_codes = _grid_levels(grid)
        assert levels.size == 301  # 300 grid values plus the 1.0 filler
        assert grid_codes.dtype == np.uint16
        patterns = ordered_patterns(CLAIMS[GateKind.NOT], 1)
        slots = _strata(1)["aux"]
        rows = _reference_rows(slots, grid)
        psi, allowed = _tuple_rows(_qubit_tuples(slots, 1, levels, grid_codes, patterns), levels, patterns, len(rows))
        assert np.array_equal(psi, rows[:, :4])
        for pattern in patterns:
            assert np.array_equal(allowed[pattern], _float_equalities(rows, pattern)), pattern

    @pytest.mark.parametrize("values", [15, 16, 255, 256])
    def test_pair_codes_address_every_level_pair(self, values):
        # with the 1.0 filler the grid makes 16, 17, 256 and 257 levels, so pair codes run past
        # what 8 and 16 bits hold; the sweep reads every row's admissibility from its own pair
        grid = tuple(float(v) for v in np.geomspace(0.05, 30.0, values))
        spec, q = GateSpec(GateKind.NOT), 2.0
        slots = _strata(1)["aux"]
        rows = _reference_rows(slots, grid)
        (block,) = engine_block(spec, (q,), grid, slots, [()], list(range(len(rows))))
        strict, collinear, admissible = (np.array([block[3][row][k] for row in range(len(rows))]) for k in range(3))
        expected = [psi_bracket(1, q, a, b) >= 0.0 and psi_bracket(1, q, c, d) >= 0.0 for a, b, c, d in rows[:, :4]]
        assert np.array_equal(admissible, expected)
        assert admissible.any() and not admissible.all()
        picked = np.linspace(0, rows.shape[0] - 1, 52).astype(int)
        check_dense(spec, q, rows[picked], strict[picked], collinear[picked], admissible[picked])

    @pytest.mark.parametrize("q", [0.5, 2.0])
    @pytest.mark.parametrize("kind", list(GateKind))
    def test_blocks_match_the_whole_grid_oracle(self, kind, q):
        # the default grid for one and two qubits, three values for three; every row is a sample
        grid = (0.5, 1.0, 2.0, 4.0) if GateSpec(kind).arity < 3 else (0.5, 1.0, 4.0)
        mixed = False
        for grid, stratum, q, block, expected, rows, facts in _oracle_blocks(kind, [grid], (q,)):
            assert_block_matches(block, expected, (grid, stratum, q))
            mixed |= facts["admissible"].any() and not facts["admissible"].all()
        assert mixed

    @pytest.mark.parametrize("q", [0.5, 2.0])
    @pytest.mark.parametrize("kind", list(GateKind))
    def test_sweep_rows_agree_with_the_dense_path_on_every_row(self, kind, q):
        # every row of a stratum that mixes admissible and inadmissible rows;
        # three-qubit gates use a qubit-pair block with the middle qubit pinned
        spec = GateSpec(kind, math.pi / 3)
        grid = (0.25, 1.0, 4.0) if spec.arity == 1 else (0.25, 4.0)
        slots = _strata(spec.arity)["free-q1q3" if spec.arity == 3 else "free"]
        rows = _reference_rows(slots, grid)
        patterns = ordered_patterns(CLAIMS[kind], spec.arity)
        (block,) = engine_block(spec, (q,), grid, slots, patterns, list(range(len(rows))))
        strict, collinear, admissible = (np.array([block[3][row][k] for row in range(len(rows))]) for k in range(3))
        assert admissible.any() and not admissible.all()
        assert not strict[~admissible].any() and not collinear[~admissible].any()
        check_dense(spec, q, rows, strict, collinear, admissible)


class TestStreamedBlocks:
    """The sweep's closed-form blocks, q values batched or one at a time, against whole-grid
    reductions (sweep_oracle) of the dense path and exact closure, on every gate and stratum."""

    @pytest.mark.parametrize("chunk_entries", [None, 1], ids=["q-batched", "one-q-at-a-time"])
    @pytest.mark.parametrize("kind", list(GateKind))
    def test_tallies_exemplars_and_samples_match_whole_grid_reductions(self, monkeypatch, kind, chunk_entries):
        # duplicate grid values, the 1.0 filler inside the grid, and pair ratios above
        # q^2 = 4, so that blocks mix admissible and inadmissible rows
        spec = GateSpec(kind, math.pi / 3)
        grids = [(0.5, 4.0, 0.5, 1.0)] if spec.arity == 1 else [(1.0, 8.0), (8.0, 8.0)]
        if chunk_entries is not None:
            monkeypatch.setattr(constraints, "_CHUNK_ENTRIES", chunk_entries)
        mixed = partial = False
        for grid, stratum, q, block, expected, rows, facts in _oracle_blocks(kind, grids, (2.0, 0.5)):
            assert_block_matches(block, expected, (grid, stratum, q))
            # every row is a sample: each engine row value lies within 1e-12 of the dense path
            for row, (strict, collinear, admissible) in block[3].items():
                assert admissible == facts["admissible"][row], (grid, stratum, row)
                dense = facts["dense"][:, row]
                assert abs(strict - dense[0]) <= 1e-12 and abs(collinear - dense[1]) <= 1e-12, (grid, stratum, row)
            mixed |= expected[2] is not None and expected[0][()]["admissible"] > 0
            partial |= any(0 < t["admissible"] < expected[0][()]["admissible"] for t in expected[0].values())
        assert mixed and partial

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_batched_q_values_match_the_single_q_oracle(self, kind):
        # q below and above 1 in one call: the sign of q - 1/q, and so which pair ratios are
        # admissible, flips inside the batch.  Pair ratios of q^2 = 4 and 1/4 give zero
        # amplitudes at q = 2 and 0.5 only, so a bit string's collinear gaps close every row at
        # the first q and not at later ones.
        grids = [(0.5, 4.0, 0.5, 1.0)] if GateSpec(kind).arity == 1 else [(1.0, 8.0), (8.0, 8.0), (1.0, 4.0)]
        q_values = (0.9, 2.0, 0.5, 1.1)
        skipped_rows = {q: set() for q in q_values}
        for grid, stratum, q, block, expected, rows, facts in _oracle_blocks(kind, grids, q_values):
            assert_block_matches(block, expected, (grid, stratum, q))
            skipped_rows[q] |= {(grid, stratum, row) for row in np.flatnonzero(~facts["admissible"]).tolist()}
        # every q skips rows, and q < 1 skips other rows than q > 1
        assert all(skipped_rows.values())
        assert skipped_rows[0.5] != skipped_rows[2.0]

    @pytest.mark.parametrize(
        ("kind", "grid"),
        [(kind, (0.5, 2.0)) for kind in (GateKind.HAD, GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI)]
        + [(kind, (0.5, 1.0, 3.0)) for kind in (GateKind.HAD, GateKind.NOT, GateKind.CNOT)],
    )
    def test_strict_maxima_match_a_50_digit_oracle(self, kind, grid):
        # per pattern, the largest strict gap over the allowed rows, each row's amplitudes and
        # gaps taken to 50 digits from the exact brackets, against the sweep's float maxima
        pytest.importorskip("mpmath")
        spec, q = GateSpec(kind), 2.0
        patterns = ordered_patterns(CLAIMS[kind], spec.arity)
        for stratum, slots in _strata(spec.arity).items():
            rows = stratum_rows(slots, grid)
            ((tallies, *_),) = engine_block(spec, (q,), grid, slots, patterns, [0])
            facts = grid_facts(spec, q, rows)
            for pattern in patterns:
                allowed = facts["admissible"] & pattern_mask(rows, pattern) & ~facts["closes"][0]
                gaps = [strict_gap_50_digits(spec, q, rows[row].tolist()) for row in np.flatnonzero(allowed)]
                largest = max(gaps, default=0)
                got = tallies[pattern]["max_strict"]
                assert (got == 0.0) == (largest == 0), (stratum, pattern, got, largest)
                assert abs(got - largest) <= 4 * 2.0**-52 * largest, (stratum, pattern, got, largest)

    def test_rounding_noise_no_longer_decides_the_controlled_swap(self):
        # on these grids the float residuals of exactly closing rows round above 1e-12, which the
        # float sweep counted as open rows; exact classes count them as closing
        for grid in ((0.5, 300.0, 1000.0), tuple(g * 2**20 for g in constraints.DEFAULT_GRID)):
            q_values = (2.0,) if grid[1] == 300.0 else constraints.DEFAULT_Q_VALUES
            rep = discover_constraints(GateKind.FREDKIN, q_values=q_values, grid=grid)
            assert rep.verdict == "confirmed", grid
            assert rep.totals["max_strict"] == 0.0 and rep.totals["max_collinear"] == 0.0
            assert all(s["zero_strict"] == s["admissible"] for s in rep.strata)

    @pytest.mark.parametrize(
        ("bit_plan", "message"),
        [
            (([0, 2], 1.0, [(1.0, [1, 3])]), "re-encodes more than one qubit"),
            (([0], 2.0, [(1.0, [1]), (1.0, [1])]), "need a permuting term and one qubit"),
        ],
        ids=["two-qubits-in-one-term", "flips-without-a-hold"],
    )
    def test_a_plan_outside_the_closed_form_is_refused(self, bit_plan, message):
        # every term may re-encode at most one qubit, and several terms need a hold on one qubit
        with pytest.raises(ValueError, match=message):
            _closed_forms((len(bit_plan[0]), bit_plan[1], [bit_plan]))

    def test_seven_value_grid_holds_no_block_size_array(self):
        # one free stratum of 7**8 = 5,764,801 rows: full-size strict, collinear and
        # admissible arrays would take 98 MB
        tracemalloc.start()
        try:
            discover_constraints(GateKind.CNOT, q_values=(2.0,), grid=(0.3, 0.7, 1.71, 2.02, 4.62, 5.94, 7.03))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_seven_value_grid_at_four_q_values_holds_no_block_size_array(self):
        # the same grid, every gate, at the default q values: a block sweeps its q values at
        # once only while its tables stay within _CHUNK_ENTRIES entries
        tracemalloc.start()
        try:
            for kind in GateKind:
                discover_constraints(kind, grid=(0.3, 0.7, 1.71, 2.02, 4.62, 5.94, 7.03))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSweepGuards:
    def test_overflowing_grid_raises_naming_gate_q_and_levels(self):
        with pytest.raises(OverflowError, match=r"cnot sweep at q=2\.0.*psi_a=1e\+300, psi_b=2\.0"):
            discover_constraints(GateKind.CNOT, q_values=(2.0,), grid=(1e200, 1e300, 2.0))

    def test_underflowing_grid_raises_naming_gate_q_level_and_power(self):
        # 1e-80 to the power 4 is subnormal: its products would test as false exact zeros
        message = (
            r"cnot sweep at q=2\.0 underflows double precision: amplitude 1e-80 at level pair "
            r"\(psi_a=1e-160, psi_b=1e-160\) raised to the power 4 is not a normal double"
        )
        with pytest.raises(FloatingPointError, match=message):
            discover_constraints(GateKind.CNOT, q_values=(2.0,), grid=(1e-160, 1.0))

    @pytest.mark.parametrize(
        ("q", "grid", "product"),
        [
            (1e308, (0.5, 2.0), "psi_a=2.0 overflows double precision at q**1"),
            (1e-308, (4.0, 2.0), "psi_b=2.0 overflows double precision at q**-1"),
        ],
    )
    def test_overflowing_bracket_table_names_q_the_psi_value_and_the_power(self, q, grid, product):
        # q^(+-1) times psi overflows before any amplitude exists, at the smallest psi level that
        # does so (a grid value: the 1.0 filler cannot); numpy's overflow warning is an error in
        # this suite, so the table must not raise one either
        with pytest.raises(OverflowError) as caught:
            discover_constraints(GateKind.NOT, q_values=(q,), grid=grid)
        assert str(caught.value) == f"the sweep's bracket table at q={q!r} and {product}"

    def test_first_failing_q_in_order_decides_the_error(self):
        # on this grid q = 2 fails the range guard and q = 5e-324 the table's q**-1
        grid = (1e200, 1e300, 2.0)
        with pytest.raises(OverflowError, match=r"^the cnot sweep at q=2\.0 overflows"):
            discover_constraints(GateKind.CNOT, q_values=(2.0, 5e-324), grid=grid)
        with pytest.raises(OverflowError, match=r"^the sweep's bracket table at q=5e-324 overflows .* at q\*\*-1$"):
            discover_constraints(GateKind.CNOT, q_values=(5e-324, 2.0), grid=grid)

    def test_single_qubit_products_of_the_same_grid_stay_normal(self):
        # 1e-80 ** 2 is normal, and the dense path agrees on every sample row
        rep = discover_constraints(GateKind.NOT, q_values=(2.0,), grid=(1e-160, 1.0))
        assert rep.totals["cross_checked"] > 0

    def test_single_qubit_amplitudes_of_the_same_grid_stay_finite(self):
        rep = discover_constraints(GateKind.NOT, q_values=(2.0,), grid=(1e200, 1e300, 2.0))
        assert math.isfinite(rep.totals["max_strict"])
        assert math.isfinite(rep.totals["max_collinear"])

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_sweep_agrees_with_the_dense_path_within_40_ulp_of_one(self, kind):
        # divided by q - 1/q ~ 1e-16, a one-ulp gap between the sweep's bracket
        # table and psi_bracket becomes a bracket gap of order 1
        q_values = []
        above = below = 1.0
        for _ in range(40):
            above, below = math.nextafter(above, 2.0), math.nextafter(below, 0.0)
            q_values += [above, below]
        rep = discover_constraints(kind, q_values=q_values, grid=(0.5, 1.0, 2.0))
        assert rep.totals["cross_checked"] == 6 * len(rep.strata)

    def test_default_sweep_makes_one_block_per_stratum_and_one_dense_pass_per_gate(self, monkeypatch):
        # every q of a stratum in one _sweep_block call (25 strata over the 7 gates), every
        # sample of a gate in one dense pass, and in that pass one psi_bracket call per
        # distinct (q, psi_a, psi_b)
        calls = {"_sweep_block": 0, "_dense_residuals": 0}
        brackets = []
        for name in calls:
            monkeypatch.setattr(constraints, name, _counted(calls, name, getattr(constraints, name)))

        def recorded(n, q, psi_a, psi_b):
            brackets.append((n, q, psi_a, psi_b))
            return psi_bracket(n, q, psi_a, psi_b)

        monkeypatch.setattr(constraints, "psi_bracket", recorded)
        for kind in GateKind:
            brackets.clear()
            discover_constraints(kind)
            assert brackets and len(brackets) == len(set(brackets)), kind
        assert calls == {"_sweep_block": 25, "_dense_residuals": len(GateKind)}

    def test_default_constraints_suite_builds_one_bracket_table_per_gate(self, monkeypatch):
        # one (q, level, level) table per discover_constraints call, which the range guard and
        # every block read, and one qnum.bracket call per q in it: the dense pass takes its
        # brackets from psi_bracket alone
        calls = {"_level_tables": 0, "bracket": 0}
        for name in calls:
            monkeypatch.setattr(constraints, name, _counted(calls, name, getattr(constraints, name)))
        constraints_suite(RunConfig())
        per_q = len(RunConfig().q_values)
        assert calls == {"_level_tables": len(GateKind), "bracket": len(GateKind) * per_q}

    def test_cross_check_names_the_first_failing_sample_in_sweep_order(self, monkeypatch):
        # every dense residual is NaN, so every admissible sample fails; the message names the
        # first one in sweep order, row 0 of the aux stratum at the first q
        dense = constraints._dense_residuals
        monkeypatch.setattr(constraints, "_dense_residuals", lambda *args: [g * np.nan for g in dense(*args)])
        where = f"had, q=0.5, psi={(0.5,) * 4 + (1.0,) * 8!r}"
        with pytest.raises(RuntimeError, match=re.escape(f"sweep engine disagrees with the dense path at {where}")):
            discover_constraints(GateKind.HAD, q_values=(0.5, 2.0), grid=(0.5, 2.0))

    def test_cross_check_names_an_inadmissible_row_marked_admissible(self, monkeypatch):
        # pair ratio 8 > q^2 = 4 makes rows inadmissible; the sweep is told every row is
        # admissible, and the dense brackets name the first such sample instead of raising
        # a NegativeRadicandError that names no point
        build = constraints._qubit_admissibility
        monkeypatch.setattr(constraints, "_qubit_admissibility", lambda *args: [a | True for a in build(*args)])
        where = "had, q=2.0, psi=(0.5, 4.0, 0.5, 4.0, 1.0, "
        with pytest.raises(RuntimeError, match=re.escape(f"sweep engine admitted an inadmissible point at {where}")):
            discover_constraints(GateKind.HAD, q_values=(2.0,), grid=(0.5, 4.0))

    @staticmethod
    def _tamper(monkeypatch, name, edit):
        """Run discover_constraints with edit applied to every result of constraints.<name>: a bit
        string's (strict, collinear) tables, the per-qubit admissibility tables, whose first
        entries row 0 (always picked, always admissible here) reads, or the dense path's
        (strict, collinear) arrays over the admissible sample rows."""
        build = getattr(constraints, name)

        def tampered(*args):
            tables = build(*args)
            edit(tables)
            return tables

        monkeypatch.setattr(constraints, name, tampered)
        return discover_constraints(GateKind.HAD, q_values=(2.0,), grid=(0.5, 2.0))

    @pytest.mark.parametrize("array", [0, 1], ids=["strict", "collinear"])
    def test_cross_check_catches_a_perturbed_residual(self, monkeypatch, array):
        def edit(tables):
            tables[array].flat[0] += 1e-6

        with pytest.raises(RuntimeError, match="disagrees with the dense path"):
            self._tamper(monkeypatch, "_bit_string_gaps", edit)

    def test_cross_check_catches_a_nan_dense_residual(self, monkeypatch):
        def edit(dense):
            dense[0][0] = np.nan

        with pytest.raises(RuntimeError, match="disagrees with the dense path"):
            self._tamper(monkeypatch, "_dense_residuals", edit)

    def test_cross_check_catches_an_admissible_row_marked_inadmissible(self, monkeypatch):
        def edit(admissible):
            assert admissible[0].flat[0]
            admissible[0].flat[0] = False

        with pytest.raises(RuntimeError, match="marked an admissible point as skipped"):
            self._tamper(monkeypatch, "_qubit_admissibility", edit)
