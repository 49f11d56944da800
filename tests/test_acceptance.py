"""End-to-end acceptance checks.

One test per acceptance criterion, in order; the conftest hook prints a
PASS/FAIL line per test at the end of the run.  Each test recomputes its
expectations independently of the library where the criterion asks for an
oracle (exact rational arithmetic, hardcoded truth tables).

Known failure: test_lowering_gap_shrinks_within_linear_band demands that the
operator gap shrink proportionally to |q - 1| within a two-sided band.  The
gap is an even function of ln q (inverting q leaves every bracket unchanged),
so the leading deviation is quadratic in q - 1 and a hundredfold step toward
q = 1 shrinks the gap roughly 10^4 times, far outside [90, 110].  The check is
kept as stated rather than weakened; it documents the measured behavior.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qgatelab import (
    DeformedQubitSpec,
    GateKind,
    GateSpec,
    QubitEmbedding,
    deformed_gate_matrix,
    deformed_qubit_state,
    discover_constraints,
    encode_basis,
    gate_action_traced,
    gate_matrix,
    hadamard_closure_ratio,
    make_deformed_stack,
    make_mode_ops,
    stack_residuals,
)
from qgatelab.cli import main

TOLERANCE = 1e-12
Q_REFERENCE = (0.5, 0.9, 1.1, 2.0)

# Literal truth tables, written out by hand; the library is never consulted
# when building these expectations.
REFERENCE_TABLES = {
    "not": {(0,): [(1, (1,))], (1,): [(1, (0,))]},
    "had": {(0,): [(1, (0,)), (1, (1,))], (1,): [(-1, (1,)), (1, (0,))]},
    "cnot": {
        (0, 0): [(1, (0, 0))],
        (0, 1): [(1, (0, 1))],
        (1, 0): [(1, (1, 1))],
        (1, 1): [(1, (1, 0))],
    },
    "swap": {
        (0, 0): [(1, (0, 0))],
        (0, 1): [(1, (1, 0))],
        (1, 0): [(1, (0, 1))],
        (1, 1): [(1, (1, 1))],
    },
    "fredkin": {
        (0, 0, 0): [(1, (0, 0, 0))],
        (0, 0, 1): [(1, (0, 0, 1))],
        (0, 1, 0): [(1, (0, 1, 0))],
        (0, 1, 1): [(1, (0, 1, 1))],
        (1, 0, 0): [(1, (1, 0, 0))],
        (1, 0, 1): [(1, (1, 1, 0))],
        (1, 1, 0): [(1, (1, 0, 1))],
        (1, 1, 1): [(1, (1, 1, 1))],
    },
    "toffoli": {
        (0, 0, 0): [(1, (0, 0, 0))],
        (0, 0, 1): [(1, (0, 0, 1))],
        (0, 1, 0): [(1, (0, 1, 0))],
        (0, 1, 1): [(1, (0, 1, 1))],
        (1, 0, 0): [(1, (1, 0, 0))],
        (1, 0, 1): [(1, (1, 0, 1))],
        (1, 1, 0): [(1, (1, 1, 1))],
        (1, 1, 1): [(1, (1, 1, 0))],
    },
}


def test_deformed_relations_hold_on_reference_grid_quickly():
    started = time.perf_counter()
    worst = 0.0
    residuals, levels = stack_residuals(make_deformed_stack(make_mode_ops(8), Q_REFERENCE))
    assert set(residuals) == set(levels) == {
        "deformed_commutation",
        "lowering_number_commutator",
        "raising_number_commutator",
        "lowering_product_diagonal",
        "raising_product_diagonal",
    }
    for key in residuals:
        assert len(residuals[key]) == len(Q_REFERENCE), key
        assert list(levels[key]) == [tuple(range(7))] * len(Q_REFERENCE), key
        worst = max(worst, *residuals[key])
    elapsed = time.perf_counter() - started
    assert worst <= TOLERANCE
    assert elapsed < 1.0


def test_scalar_shift_identity_exact_then_matrix_residuals():
    points = (
        (Fraction(2), Fraction(1)),
        (Fraction(2), Fraction(3)),
        (Fraction(1, 2), Fraction(7, 10)),
    )

    def bracket(n, q, wb):
        return (q**n - q**-n * wb) / (q - 1 / q)

    for q, wb in points:
        for n in range(7):
            assert bracket(n + 1, q, wb) - q * bracket(n, q, wb) == wb * q**-n

    for q, wb in points:
        residuals, _ = stack_residuals(make_deformed_stack(make_mode_ops(8), (float(q),), 1.0, float(wb)))
        assert max(residuals["deformed_commutation"]) <= TOLERANCE
        assert max(residuals["lowering_product_diagonal"]) <= TOLERANCE


def test_lowering_gap_shrinks_within_linear_band():
    mode = make_mode_ops(8)
    coarse, fine = make_deformed_stack(mode, (1.01, 1.0001)).a_q
    gap_coarse = np.linalg.norm(coarse - mode.a, 2)
    gap_fine = np.linalg.norm(fine - mode.a, 2)
    factor = gap_coarse / gap_fine
    assert 90.0 <= factor <= 110.0


def test_undeformed_involutions_square_to_projector():
    for kind in (GateKind.NOT, GateKind.CNOT, GateKind.SWAP, GateKind.FREDKIN, GateKind.TOFFOLI):
        spec = GateSpec(kind)
        proj = QubitEmbedding(spec.arity).projector()
        matrix = gate_matrix(spec)
        assert np.max(np.abs(matrix @ matrix - proj)) <= TOLERANCE, kind.value
    had = gate_matrix(GateSpec(GateKind.HAD))
    assert np.max(np.abs(had @ had - 2.0 * QubitEmbedding(1).projector())) <= TOLERANCE


def _action(spec, bits) -> list:
    return [(term.coeff, term.bits) for term in gate_action_traced(spec, bits)]


def test_gate_actions_match_independent_tables():
    for name, table in REFERENCE_TABLES.items():
        spec = GateSpec(GateKind(name))
        for bits, expected in table.items():
            got = sorted(_action(spec, bits), key=lambda t: t[1])
            want = sorted(((complex(c), b) for c, b in expected), key=lambda t: t[1])
            assert got == want, name
    phi = math.pi / 3
    assert _action(GateSpec(GateKind.PS, phi), (0,)) == [(complex(1), (0,))]
    ((coeff, bits),) = _action(GateSpec(GateKind.PS, phi), (1,))
    assert bits == (1,)
    assert abs(coeff - cmath.exp(1j * phi)) <= TOLERANCE


def test_constraint_verdicts_confirmed_or_deterministic():
    from qgatelab import canonical_json

    reports = {kind: discover_constraints(kind) for kind in GateKind}
    for kind in (GateKind.PS, GateKind.SWAP, GateKind.FREDKIN):
        rep = reports[kind]
        assert rep.verdict == "confirmed", kind.value
        assert rep.totals["max_strict"] <= TOLERANCE
        assert rep.totals["max_collinear"] <= TOLERANCE
    for kind in GateKind:
        assert reports[kind].verdict in {"confirmed", "refuted", "convention-dependent"}
        rerun = discover_constraints(kind)
        assert canonical_json(rerun._asdict()) == canonical_json(reports[kind]._asdict())


def test_closure_ratio_audited_at_both_occupations():
    for q in (0.5, 0.9, 1.1, 2.0, 4.0):
        assert abs(hadamard_closure_ratio(0, q) - 1.0) <= 1e-14
    # The excited-occupation value is q^2, not 1; the discrepancy with the
    # always-1 reading must be recorded, not assumed away.
    for q in (0.5, 2.0, 4.0):
        assert hadamard_closure_ratio(1, q) == pytest.approx(q * q, rel=1e-14)
    assert hadamard_closure_ratio(1, 1.0) == 1.0


def test_fixed_parameter_closure_and_classical_reduction():
    for q in (0.5, 2.0, 4.0):
        matrix = deformed_gate_matrix(GateSpec(GateKind.NOT), q)
        for x in (0, 1):
            ket_in = deformed_qubit_state(DeformedQubitSpec((x,)), q).vector
            ket_out = deformed_qubit_state(DeformedQubitSpec((1 - x,)), q).vector
            assert np.linalg.norm(matrix @ ket_in - ket_out) <= TOLERANCE

    q_near = 1.0 + 1e-7
    for kind in GateKind:
        spec = GateSpec(kind, math.pi / 3) if kind is GateKind.PS else GateSpec(kind)
        deformed = deformed_gate_matrix(spec, q_near)
        assert np.max(np.abs(deformed - gate_matrix(spec))) <= 1e-6, kind.value


def test_full_reports_are_byte_identical(tmp_path, all_report):
    code_first, payload = all_report
    second = tmp_path / "second.json"
    code_second = main(["all", "--out", str(second)])
    assert code_first == code_second == 0
    assert payload == second.read_bytes()
    assert payload.endswith(b"\n")


def test_encoded_kets_round_trip_through_the_tables():
    # Supporting sanity for the table criterion: matrix action on encoded
    # kets agrees with the listed outputs, not only the action lists.
    for name, table in REFERENCE_TABLES.items():
        spec = GateSpec(GateKind(name))
        matrix = gate_matrix(spec)
        for bits, expected in table.items():
            got = matrix @ encode_basis(bits).vector
            want = sum(coeff * encode_basis(out).vector for coeff, out in expected)
            assert np.max(np.abs(got - want)) <= TOLERANCE, name
