"""Verification suites: turn library checks into report records.

Each suite function returns a list of report rows (RecordShape.row), one shape
per family of records and one row per record; run_suites assembles them into a
VerificationReport.  Record content must be deterministic, so every id,
parameter set and note is derived from the configuration alone.
"""

import cmath
import math
import numbers
from enum import Enum

import numpy as np

from .fock import make_mode_ops
from .gates import (
    DISCOVERY_PHI,
    GateKind,
    GateSpec,
    _closure_residuals,
    deformed_gate_matrix,
    gate_matrix,
    toffoli_literal_matrix,
)
from .qdeform import OperatorConvention, deformed_number_op, make_deformed_stack, stack_residuals
from .qnum import DeformationParams, psi_bracket
from ._values import Record
from .report import VERSION, RecordShape, VerificationReport
from .schwinger import ExponentConvention, QubitEmbedding

__all__ = ["RunConfig", "SUITE_NAMES", "run_suites"]

SUITE_NAMES = ("algebra", "gates", "constraints", "limits")

_GENERALIZED_POINTS = ((2.0, 1.0), (2.0, 3.0), (0.5, 0.7))

# entries of one (Q, d, d) operator stack: algebra_suite builds a long q tuple in chunks of this size
_STACK_ENTRIES = 2**15

_RELATION_BY_KEY = {
    "deformed_commutation": "deformed-commutation",
    "lowering_number_commutator": "ladder-number-commutator",
    "raising_number_commutator": "ladder-number-commutator",
    "lowering_product_diagonal": "bracket-diagonal",
    "raising_product_diagonal": "bracket-diagonal",
}


def _real(name: str, value) -> float:
    """value as a float; a bool or a string is refused rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a number within double precision, got {value!r}") from None


def _reals(name: str, values) -> tuple:
    """values as a tuple of floats; a string is refused rather than read character by character."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}")
    return tuple(_real(f"each of the {name}", value) for value in values)


def _distinct_labels(name: str, values) -> None:
    """Refuse values that print alike under %g, the form check ids give them."""
    seen = {}
    for value in values:
        label = f"{value:g}"
        if label in seen:
            raise ValueError(
                f"{name} {seen[label]!r} and {value!r} both print as {label} in check ids; "
                "give values that differ within 6 significant digits"
            )
        seen[label] = value


def _integer(name: str, value) -> int:
    """value as an int; an integral float such as 8.0 is read as 8, 3.9 or a bool is refused."""
    integral = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class RunConfig(Record):
    """Settings shared by every suite; flags and config files both land here.  __slots__ is the
    field order, which the report's config block keeps."""

    __slots__ = (
        "suite",
        "q_values",
        "cutoff",
        "psi_grid",
        "limit_q",
        "operator",
        "exponent",
        "identity_threshold",
        "limit_threshold",
        "out",
        "format",
    )

    def __init__(
        self,
        suite: str = "all",
        q_values: tuple = (0.5, 0.9, 1.1, 2.0),
        cutoff: int = 8,
        psi_grid: tuple = (0.5, 1.0, 2.0, 4.0),
        limit_q: tuple = (1.1, 1.01, 1.001),
        operator: OperatorConvention = OperatorConvention.MATRIX_ELEMENT,
        exponent: ExponentConvention = ExponentConvention.RESULT,
        identity_threshold: float = 1e-12,
        limit_threshold: float = 1e-6,
        out: str | None = None,
        format: str = "json",
    ):
        if suite not in SUITE_NAMES and suite != "all":
            raise ValueError(f"unknown suite {suite!r}")
        self.suite = suite
        self.q_values = _reals("q values", q_values)
        if not self.q_values or any(not math.isfinite(q) or q <= 0.0 for q in self.q_values):
            raise ValueError(f"q values must be positive finite reals, got {self.q_values!r}")
        _distinct_labels("q values", self.q_values)
        near_one = [q for q in self.q_values if q != 1.0 and f"{q:g}" == "1"]
        if near_one and self.suite in ("constraints", "all"):
            raise ValueError(
                f"q value {near_one[0]!r} prints as 1 in check ids, like the closure-ratio audit at q = 1; "
                "give a q that differs from 1 within 6 significant digits"
            )
        self.cutoff = _integer("cutoff", cutoff)
        if self.cutoff < 3:
            raise ValueError(
                f"cutoff must be at least 3, got {self.cutoff}: the top level is a truncation "
                "artifact and the generalized algebra checks also drop level 0, so cutoff 2 "
                "leaves them no level to test"
            )
        self.psi_grid = _reals("psi grid", psi_grid)
        if len(self.psi_grid) < 2 or any(not math.isfinite(p) or p <= 0.0 for p in self.psi_grid):
            raise ValueError(f"psi grid needs at least two positive finite reals, got {self.psi_grid!r}")
        self.limit_q = _reals("limit q values", limit_q)
        if len(self.limit_q) < 2 or any(not math.isfinite(q) or q <= 0.0 or q == 1.0 for q in self.limit_q):
            raise ValueError(f"limit q values must be at least two positive reals different from 1, got {self.limit_q!r}")
        _distinct_labels("limit q values", self.limit_q)
        by_distance = {}
        for q in self.limit_q:
            if abs(q - 1.0) in by_distance:
                raise ValueError(
                    f"limit q values {by_distance[abs(q - 1.0)]!r} and {q!r} are equally far from 1, "
                    "so the gap shrink between them is undefined; give each a different distance from 1"
                )
            by_distance[abs(q - 1.0)] = q
        self.operator = OperatorConvention(operator)
        self.exponent = ExponentConvention(exponent)
        self.identity_threshold = _real("identity threshold", identity_threshold)
        self.limit_threshold = _real("limit threshold", limit_threshold)
        for threshold in (self.identity_threshold, self.limit_threshold):
            if not math.isfinite(threshold) or threshold <= 0.0:
                raise ValueError(f"thresholds must be positive finite reals, got {threshold!r}")
        if format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {format!r}")
        if out is not None and (not isinstance(out, str) or not out or "\0" in out):
            raise ValueError(f"out must be a file path string, not empty and without NUL characters, got {out!r}")
        self.out = out
        self.format = format

    def public_config(self) -> dict:
        """Config block embedded in reports; excludes the output path so two runs
        writing to different files still produce byte-identical payloads."""
        config = {}
        for name in self.__slots__:
            value = getattr(self, name)
            if isinstance(value, Enum):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            config[name] = value
        del config["out"]
        return config


def _conventions_block(cfg: RunConfig) -> dict:
    return {
        "operator": cfg.operator.value,
        "exponent": cfg.exponent.value,
        "bra_index_order": "matches-ket",
        "doubly_controlled_build": "truth-table; literal reading kept in audit records",
        "additive_gate_terms": "valid-subspace-projected",
        "vacuum_diagonal_levels": "dropped when the level-0 bracket is nonzero",
        "residual_modes": ["strict", "collinear"],
    }


def _convention_label(cfg: RunConfig) -> str:
    return f"operator={cfg.operator.value},exponent={cfg.exponent.value}"


def _max_abs(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix)))


# --- algebra -----------------------------------------------------------------


def _stack_chunks(q_values, cutoff: int) -> list:
    """q_values in consecutive runs, each as long as keeps a (Q, cutoff, cutoff) stack within
    _STACK_ENTRIES entries, and at least one q."""
    size = max(1, _STACK_ENTRIES // (cutoff * cutoff))
    return [tuple(q_values[start : start + size]) for start in range(0, len(q_values), size)]


def algebra_suite(cfg: RunConfig) -> list:
    thr = cfg.identity_threshold
    mode = make_mode_ops(cfg.cutoff)
    convention = f"operator={cfg.operator.value}"
    shapes, rows = {}, []

    def add_relations(stack, prefixes, keys=_RELATION_BY_KEY) -> None:
        """A row per q of the stack (id prefixes[i] at q_values[i]) and relation key, q-major with
        keys sorted, of one shape per key, levels and psi pair, whose rows vary in q only."""
        residuals, levels = stack_residuals(stack)
        psi_a, psi_b, keys = stack.psi_a, stack.psi_b, sorted(keys)
        for index, (q, prefix) in enumerate(zip(stack.q_values, prefixes)):
            for key in keys:
                tested = levels[key][index]
                shape = shapes.get((key, tested, psi_a, psi_b))
                if shape is None:
                    note = f"levels {tested[0]}..{tested[-1]}"
                    note += "; level 0 dropped, its bracket is nonzero" if tested[0] != 0 else ""
                    params = {"cutoff": cfg.cutoff, "psi_a": psi_a, "psi_b": psi_b, "levels": list(tested)}
                    shape = shapes[key, tested, psi_a, psi_b] = RecordShape(
                        _RELATION_BY_KEY[key], convention, thr, note, params, ("q",)
                    )
                rows.append(shape.row(f"{prefix}/{key}", (q,), residuals[key][index]))

    # every q of a chunk in one stack, and its mirror stack at 1/q for the symmetry records below
    mirror_gaps = []
    labels = {q: f"q={q:g}" for q in cfg.q_values}
    for chunk in _stack_chunks(cfg.q_values, cfg.cutoff):
        forward = make_deformed_stack(mode, chunk, 1.0, 1.0, cfg.operator)
        backward = make_deformed_stack(mode, tuple(1.0 / q for q in chunk), 1.0, 1.0, cfg.operator)
        add_relations(forward, [f"algebra/uniform/{labels[q]}" for q in chunk])
        mirror_gaps += np.abs(forward.a_q - backward.a_q).max(axis=(1, 2)).tolist()

    shape = RecordShape(
        "bracket-shift",
        "scalar",
        thr,
        "scalar recurrence bracket(n+1) - q*bracket(n) = psi_b * q^(-n)",
        {"psi_a": 1.0, "levels": list(range(7))},
        ("q", "psi_b"),
    )
    for q, psi_b in _GENERALIZED_POINTS:
        brackets = [psi_bracket(n, q, 1.0, psi_b) for n in range(8)]
        worst = max(abs(brackets[n + 1] - q * brackets[n] - psi_b * q**-n) for n in range(7))
        rows.append(shape.row(f"algebra/bracket-shift/q={q:g}/psi_b={psi_b:g}", (q, psi_b), worst))

    for q, psi_b in _GENERALIZED_POINTS:
        stack = make_deformed_stack(mode, (q,), 1.0, psi_b, cfg.operator)
        keys = ("deformed_commutation", "lowering_product_diagonal")  # the two reading the vacuum diagonal
        add_relations(stack, [f"algebra/generalized/q={q:g}/psi_b={psi_b:g}"], keys)

    shift_cases = (
        ("psi_b-one", 2.0, 1.0, 0.0),
        ("q-e-psi_b-e", math.e, math.e, 1.0),
        ("q-e2-psi_b-e", math.e**2, math.e, 0.5),
    )
    eye = np.eye(cfg.cutoff, dtype=complex)
    for case, q, psi_b, shift in shift_cases:
        # the shifted number operator belongs to this point's pair, so the pair must build
        make_deformed_stack(mode, (q,), 1.0, psi_b, cfg.operator)
        note = f"shifted number operator equals N - {shift:g}*I"
        params = {"q": q, "psi_b": psi_b, "expected_shift": shift, "cutoff": cfg.cutoff}
        residual = _max_abs(deformed_number_op(mode, q, psi_b) - (mode.n_op - shift * eye))
        shape = RecordShape("number-shift", convention, thr, note, params)
        rows.append(shape.row(f"algebra/number-shift/{case}", (), residual))

    note = "lowering operators at q and 1/q coincide at unit psi"
    shape = RecordShape("bracket-symmetry", convention, thr, note, {"cutoff": cfg.cutoff}, ("q", "mirror_q"))
    for q, gap in zip(cfg.q_values, mirror_gaps):
        if q != 1.0:
            rows.append(shape.row(f"algebra/bracket-symmetry/{labels[q]}", (q, 1.0 / q), gap))

    literal = make_deformed_stack(mode, (2.0,), 1.0, 1.0, OperatorConvention.LEFT_SCALING)
    hermitian = make_deformed_stack(mode, (2.0,), 1.0, 1.0, OperatorConvention.MATRIX_ELEMENT)
    literal_res, hermitian_res = (
        stack_residuals(stack)[0]["lowering_product_diagonal"][0] for stack in (literal, hermitian)
    )
    note = (
        "the literal scaled-lowering reading zeroes its singular vacuum scale and "
        "misses the level-1 product diagonal; the matrix-element reading satisfies it"
    )
    params = {
        "q": 2.0,
        "cutoff": cfg.cutoff,
        "matrix_element_residual": hermitian_res,
        "left_scaling_residual": literal_res,
    }
    passed = literal_res > thr and hermitian_res <= thr
    shape = RecordShape("convention-audit", "operator=both", thr, note, params)
    rows.append(shape.row("algebra/convention-audit/q=2", (), literal_res, passed))
    return rows


# --- gates -------------------------------------------------------------------


def _gate_specs() -> tuple:
    """Every gate in GateKind's declaration order, the phase shift at DISCOVERY_PHI."""
    return tuple(GateSpec(kind, DISCOVERY_PHI if kind is GateKind.PS else 0.0) for kind in GateKind)


def _table_action(kind: str, bits: tuple, phi: float) -> list:
    """Independent transcription of the truth tables (XOR form) for cross-validation."""
    if kind == "ps":
        (x,) = bits
        return [(cmath.exp(1j * phi * x), (x,))]
    if kind == "had":
        (x,) = bits
        return [((-1.0) ** x, (x,)), (1.0, (1 - x,))]
    if kind == "not":
        (x,) = bits
        return [(1.0, (1 - x,))]
    if kind == "cnot":
        x, y = bits
        return [(1.0, (x, y ^ x))]
    if kind == "swap":
        x, y = bits
        return [(1.0, (y, x))]
    if kind == "fredkin":
        x, y, z = bits
        return [(1.0, (x, z, y) if x else (x, y, z))]
    if kind == "toffoli":
        x, y, z = bits
        return [(1.0, (x, y, z ^ (x & y)))]
    raise ValueError(f"unknown gate kind {kind!r}")


def _square(matrix: np.ndarray) -> np.ndarray:
    """matrix @ matrix without BLAS: each product of nonzero entries (i, k) and (k, j) added into (i, j)."""
    rows, cols = np.nonzero(matrix)
    left, right = np.nonzero(cols[:, None] == rows[None, :])  # entry pairs that compose
    square = np.zeros_like(matrix)
    np.add.at(square, (rows[left], cols[right]), matrix[rows[left], cols[left]] * matrix[rows[right], cols[right]])
    return square


def gates_suite(cfg: RunConfig) -> list:
    thr = cfg.identity_threshold
    convention = _convention_label(cfg)
    rows = []

    note = "matrix columns match an independently transcribed truth table"
    shape = RecordShape("gate-table", convention, thr, note, {}, ("gate", "phi"))
    for spec in _gate_specs():
        emb = QubitEmbedding(spec.arity)
        matrix = gate_matrix(spec)
        worst = 0.0
        for bits in emb.all_bits():
            expected = np.zeros(emb.dim, dtype=complex)
            for coeff, out_bits in _table_action(spec.kind.value, bits, spec.phi):
                expected[emb.basis_index(out_bits)] += coeff
            worst = max(worst, float(np.linalg.norm(matrix[:, emb.basis_index(bits)] - expected)))
        rows.append(shape.row(f"gates/table/{spec.kind.value}", (spec.kind.value, spec.phi), worst))

    notes = {1.0: "squares to the valid-subspace projector", 2.0: "squares to twice the valid-subspace projector"}
    shapes = {
        factor: RecordShape("gate-involution", convention, thr, note, {}, ("gate", "square_factor"))
        for factor, note in notes.items()
    }
    for spec in _gate_specs():
        if spec.kind is GateKind.PS:
            continue
        matrix = gate_matrix(spec)
        factor = 2.0 if spec.kind is GateKind.HAD else 1.0
        residual = _max_abs(_square(matrix) - factor * QubitEmbedding(spec.arity).projector())
        rows.append(shapes[factor].row(f"gates/involution/{spec.kind.value}", (spec.kind.value, factor), residual))

    note = "opposite phases compose to the valid-subspace projector"
    shape = RecordShape("phase-inverse", convention, thr, note, {}, ("phi",))
    for phi in (0.0, math.pi / 3, math.pi):
        forward = gate_matrix(GateSpec(GateKind.PS, phi))
        backward = gate_matrix(GateSpec(GateKind.PS, -phi))
        residual = _max_abs(forward @ backward - QubitEmbedding(1).projector())
        rows.append(shape.row(f"gates/phase-inverse/phi={phi:g}", (phi,), residual))

    specs = _gate_specs()
    closure = _closure_residuals(specs, cfg.q_values, cfg.exponent).tolist()
    note = "deformed gate reproduces its table on fixed-parameter kets"
    shapes = []
    for spec in specs:
        params = {"gate": spec.kind.value, "phi": spec.phi, "assignment": "closing"}
        shapes.append((spec.kind.value, RecordShape("gate-closure", convention, thr, note, params, ("q",))))
    for q, residuals in zip(cfg.q_values, closure):
        label = f"q={q:g}"
        for (gate, shape), residual in zip(shapes, residuals):
            rows.append(shape.row(f"gates/closure/{gate}/{label}", (q,), residual))

    q_near_one = 1.0 + 1e-7
    note = "deformed matrix at q near 1 matches the undeformed gate elementwise"
    params = {"q": q_near_one, "assignment": "closing"}
    shape = RecordShape("gate-closure", convention, cfg.limit_threshold, note, params, ("gate", "phi"))
    for spec in _gate_specs():
        deformed = deformed_gate_matrix(spec, q_near_one, None, cfg.exponent)
        residual = _max_abs(deformed - gate_matrix(spec))
        rows.append(shape.row(f"gates/reduction/{spec.kind.value}", (spec.kind.value, spec.phi), residual))

    result_res, vacuum_res = (
        _closure_residuals((GateSpec(GateKind.NOT),), (2.0,), exponent).item()
        for exponent in (ExponentConvention.RESULT, ExponentConvention.VACUUM)
    )
    note = (
        "reading the parameter-fixing exponents on the created state closes the "
        "identity exactly; reading them on the vacuum leaves a finite mismatch on "
        "excited qubits"
    )
    params = {"gate": "not", "q": 2.0, "result_residual": result_res, "vacuum_residual": vacuum_res}
    shape = RecordShape("convention-audit", "exponent=both", thr, note, params)
    rows.append(shape.row("gates/exponent-compare/not/q=2", (), result_res))

    note = "deformed matrices at q and 1/q coincide at unit psi"
    params = {"q": 2.0, "mirror_q": 0.5, "psi": 1.0}
    shape = RecordShape("bracket-symmetry", convention, thr, note, params, ("gate", "phi"))
    for spec in _gate_specs():
        forward = deformed_gate_matrix(spec, 2.0, DeformationParams.uniform(2.0), cfg.exponent)
        backward = deformed_gate_matrix(spec, 0.5, DeformationParams.uniform(0.5), cfg.exponent)
        residual = _max_abs(forward - backward)
        rows.append(shape.row(f"gates/symmetry/{spec.kind.value}", (spec.kind.value, spec.phi), residual))

    toffoli, uniform = GateSpec(GateKind.TOFFOLI), DeformationParams.uniform(2.0)
    table = gate_matrix(toffoli)
    literal = toffoli_literal_matrix(2.0, uniform, cfg.exponent)
    faithful = deformed_gate_matrix(toffoli, 2.0, uniform, cfg.exponent)
    literal_gap = _max_abs(literal - table)
    faithful_gap = _max_abs(faithful - table)
    note = (
        "the literal control brackets sum to the identity and flip the target "
        "unconditionally; the table-faithful build matches the truth table"
    )
    params = {"q": 2.0, "psi": 1.0, "literal_gap": literal_gap, "table_faithful_gap": faithful_gap}
    passed = literal_gap > thr and faithful_gap <= thr
    shape = RecordShape("toffoli-literal-audit", convention, thr, note, params)
    rows.append(shape.row("gates/toffoli-literal-audit/q=2", (), literal_gap, passed))
    return rows


# --- constraints -------------------------------------------------------------


def constraints_suite(cfg: RunConfig) -> list:
    # the sweep module loads here, so processes that never sweep never compile it
    from .constraints import discover_constraints, hadamard_closure_ratio

    thr = cfg.identity_threshold
    convention = _convention_label(cfg)
    rows = []
    # q = 1 is undeformed (the brackets divide by q - 1/q), so the sweep drops it
    sweep_q = tuple(q for q in cfg.q_values if q != 1.0)
    q_note = ""
    if not sweep_q:
        sweep_q = (2.0,)
        q_note = "; q = 1 cannot be swept, so the sweep ran at q = 2 in its place"
    elif len(sweep_q) < len(cfg.q_values):
        q_note = "; q = 1 cannot be swept and was left out of the sweep q values"

    for spec in _gate_specs():
        result = discover_constraints(
            spec, sweep_q, cfg.psi_grid, thr, operator=cfg.operator, exponent=cfg.exponent
        )
        residual = max(result.totals["claim_max_strict"], result.totals["claim_max_collinear"])
        note = f"verdict: {result.verdict}; {result.notes}{q_note}"
        passed = result.verdict != "confirmed" or residual <= thr
        shape = RecordShape("constraint-verdict", convention, thr, note, result._asdict())
        rows.append(shape.row(f"constraints/verdict/{spec.kind.value}", (), residual, passed))

    ratio_q = tuple(sorted(set(cfg.q_values) | {1.0}))
    note = "the closure ratio at occupation 0 equals 1 as claimed"
    shape = RecordShape("ratio-audit", "scalar", 1e-14, note, {"n1": 0}, ("q", "value"))
    for q in ratio_q:
        value = hadamard_closure_ratio(0, q)
        rows.append(shape.row(f"constraints/ratio-audit/n1=0/q={q:g}", (q, value), abs(value - 1.0)))
    for q in ratio_q:
        value = hadamard_closure_ratio(1, q)
        claim_gap = abs(value - 1.0)
        note = (
            "matches the always-1 claim"
            if claim_gap <= 1e-14
            else f"literal value equals q^2 and differs from the always-1 claim by {claim_gap:.6g}"
        )
        params = {"n1": 1, "q": q, "value": value, "claim_gap": claim_gap}
        shape = RecordShape("ratio-audit", "scalar", 1e-14, note, params)
        rows.append(shape.row(f"constraints/ratio-audit/n1=1/q={q:g}", (), abs(value - q * q)))
    return rows


# --- limits ------------------------------------------------------------------


def limits_suite(cfg: RunConfig) -> list:
    mode = make_mode_ops(cfg.cutoff)
    convention = f"operator={cfg.operator.value}"
    thr = cfg.limit_threshold
    rows = []

    ordered = sorted(cfg.limit_q, key=lambda q: abs(q - 1.0), reverse=True)
    gaps = {}
    note = "operator-norm distance of the deformed lowering operator from its limit"
    shape = RecordShape("classical-limit", convention, None, note, {"cutoff": cfg.cutoff}, ("q", "eps"))
    for chunk in _stack_chunks(ordered, cfg.cutoff):
        for q, a_q in zip(chunk, make_deformed_stack(mode, chunk, 1.0, 1.0, cfg.operator).a_q):
            gaps[q] = float(np.linalg.norm(a_q - mode.a, 2))
            rows.append(shape.row(f"limits/lowering-gap/q={q:g}", (q, abs(q - 1.0)), gaps[q], True))

    for coarse, fine in zip(ordered, ordered[1:]):
        shrink = abs(coarse - 1.0) / abs(fine - 1.0)
        ratio = gaps[coarse] / gaps[fine] if gaps[fine] > 0.0 else math.inf
        order = math.log(ratio) / math.log(shrink) if ratio not in (0.0, math.inf) else math.inf
        note = "gap must shrink at least linearly in |q-1|"
        note += f"; measured order {order:.6g}" if math.isfinite(order) else ""
        params = {
            "q_coarse": coarse,
            "q_fine": fine,
            "gap_coarse": gaps[coarse],
            "gap_fine": gaps[fine],
            "shrink": shrink,
            "ratio": ratio if math.isfinite(ratio) else None,
            "measured_order": order if math.isfinite(order) else None,
        }
        shape = RecordShape("classical-limit", convention, None, note, params)
        rows.append(shape.row(f"limits/shrink-ratio/q={coarse:g}-to-q={fine:g}", (), None, ratio >= 0.9 * shrink))

    q_near = 1.0 + 1e-8
    near = make_deformed_stack(mode, (q_near,), 1.0, 1.0, cfg.operator)
    note = "deformed lowering operator is elementwise continuous at q = 1"
    shape = RecordShape("classical-limit", convention, thr, note, {"q": q_near, "cutoff": cfg.cutoff})
    rows.append(shape.row("limits/lowering-continuity", (), _max_abs(near.a_q[0] - mode.a)))

    base = tuple(range(cfg.cutoff - 1))
    eye = np.eye(cfg.cutoff, dtype=complex)
    undeformed = mode.a @ mode.a_dag - mode.a_dag @ mode.a - eye
    undeformed_res = float(np.max(np.abs(undeformed[np.ix_(base, base)])))
    deformed_res = stack_residuals(near)[0]["deformed_commutation"][0]
    note = "deformed commutation residual is continuous against the undeformed relation"
    params = {
        "q": q_near,
        "cutoff": cfg.cutoff,
        "deformed_residual": deformed_res,
        "undeformed_residual": undeformed_res,
    }
    shape = RecordShape("classical-limit", convention, thr, note, params)
    rows.append(shape.row("limits/commutation-continuity", (), abs(deformed_res - undeformed_res)))
    return rows


_SUITE_BUILDERS = {
    "algebra": algebra_suite,
    "gates": gates_suite,
    "constraints": constraints_suite,
    "limits": limits_suite,
}


def run_suites(cfg: RunConfig) -> VerificationReport:
    """Run the configured suite (or all of them) and assemble the report."""
    names = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)
    rows = []
    for name in names:
        rows += _SUITE_BUILDERS[name](cfg)
    return VerificationReport(VERSION, cfg.public_config(), _conventions_block(cfg), rows=rows)
