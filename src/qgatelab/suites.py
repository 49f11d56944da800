"""Verification suites: turn library checks into report records.

Each suite function returns a list of CheckRecord; run_suites assembles them
into a VerificationReport.  Record content must be deterministic, so every id,
parameter set and note is derived from the configuration alone.
"""

import cmath
import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial

import numpy as np

from .constraints import DISCOVERY_PHI, discover_constraints, hadamard_closure_ratio
from .fock import make_mode_ops
from .gates import (
    GateKind,
    GateSpec,
    deformed_gate_matrix,
    gate_action_traced,
    gate_matrix,
    toffoli_literal_matrix,
)
from .qdeform import (
    AlgebraResiduals,
    OperatorConvention,
    algebra_residuals,
    deformed_number_op,
    make_deformed_ops,
)
from .qnum import DeformationParams, psi_bracket
from .report import VERSION, CheckRecord, VerificationReport
from .schwinger import ExponentConvention, QubitEmbedding, amplitude_table, ket_amplitudes

__all__ = ["RunConfig", "SUITE_NAMES", "run_suites"]

SUITE_NAMES = ("algebra", "gates", "constraints", "limits")

_GENERALIZED_POINTS = ((2.0, 1.0), (2.0, 3.0), (0.5, 0.7))

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
    return float(value)


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


@dataclass
class RunConfig:
    """Settings shared by every suite; flags and config files both land here."""

    suite: str = "all"
    q_values: tuple = (0.5, 0.9, 1.1, 2.0)
    cutoff: int = 8
    psi_grid: tuple = (0.5, 1.0, 2.0, 4.0)
    limit_q: tuple = (1.1, 1.01, 1.001)
    operator: OperatorConvention = OperatorConvention.MATRIX_ELEMENT
    exponent: ExponentConvention = ExponentConvention.RESULT
    identity_threshold: float = 1e-12
    limit_threshold: float = 1e-6
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.suite not in SUITE_NAMES and self.suite != "all":
            raise ValueError(f"unknown suite {self.suite!r}")
        self.q_values = _reals("q values", self.q_values)
        if not self.q_values or any(not math.isfinite(q) or q <= 0.0 for q in self.q_values):
            raise ValueError(f"q values must be positive finite reals, got {self.q_values!r}")
        _distinct_labels("q values", self.q_values)
        near_one = [q for q in self.q_values if q != 1.0 and f"{q:g}" == "1"]
        if near_one and self.suite in ("constraints", "all"):
            raise ValueError(
                f"q value {near_one[0]!r} prints as 1 in check ids, like the closure-ratio audit at q = 1; "
                "give a q that differs from 1 within 6 significant digits"
            )
        self.cutoff = _integer("cutoff", self.cutoff)
        if self.cutoff < 3:
            raise ValueError(
                f"cutoff must be at least 3, got {self.cutoff}: the top level is a truncation "
                "artifact and the generalized algebra checks also drop level 0, so cutoff 2 "
                "leaves them no level to test"
            )
        self.psi_grid = _reals("psi grid", self.psi_grid)
        if len(self.psi_grid) < 2 or any(not math.isfinite(p) or p <= 0.0 for p in self.psi_grid):
            raise ValueError(f"psi grid needs at least two positive finite reals, got {self.psi_grid!r}")
        self.limit_q = _reals("limit q values", self.limit_q)
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
        self.operator = OperatorConvention(self.operator)
        self.exponent = ExponentConvention(self.exponent)
        self.identity_threshold = _real("identity threshold", self.identity_threshold)
        self.limit_threshold = _real("limit threshold", self.limit_threshold)
        for threshold in (self.identity_threshold, self.limit_threshold):
            if not math.isfinite(threshold) or threshold <= 0.0:
                raise ValueError(f"thresholds must be positive finite reals, got {threshold!r}")
        if self.format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.format!r}")

    def public_config(self) -> dict:
        """Config block embedded in reports; excludes the output path so two runs
        writing to different files still produce byte-identical payloads."""
        config = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Enum):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            config[f.name] = value
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


def _check(check_id, relation, params, residual, notes, passed=None, *, convention, threshold):
    """The one record builder.  A record passes when residual <= threshold, unless
    the check states its own outcome in passed (audits, verdicts, limit trends).

    Each suite binds its convention label and threshold once with partial; a
    record that differs passes its own as keywords.
    """
    if passed is None:
        passed = residual <= threshold
    return CheckRecord(check_id, relation, convention, params, residual, threshold, passed, notes)


# --- algebra -----------------------------------------------------------------


def _algebra_records(check, result: AlgebraResiduals, keys, prefix: str) -> list:
    """One record per relation key of an algebra_residuals result, naming the tested levels."""
    point = {"q": result.q, "cutoff": result.cutoff, "psi_a": result.psi_a, "psi_b": result.psi_b}
    records = []
    for key in keys:
        levels = result.levels[key]
        records.append(
            check(
                f"{prefix}/{key}",
                _RELATION_BY_KEY[key],
                {**point, "levels": [int(n) for n in levels]},
                result.residuals[key],
                f"levels {levels[0]}..{levels[-1]}"
                + ("; level 0 dropped, its bracket is nonzero" if levels[0] != 0 else ""),
            )
        )
    return records


def algebra_suite(cfg: RunConfig) -> list:
    thr = cfg.identity_threshold
    mode = make_mode_ops(cfg.cutoff)
    check = partial(_check, convention=f"operator={cfg.operator.value}", threshold=thr)
    records = []

    for q in cfg.q_values:
        result = algebra_residuals(make_deformed_ops(mode, q, 1.0, 1.0, cfg.operator))
        records += _algebra_records(check, result, sorted(result.residuals), f"algebra/uniform/q={q:g}")

    for q, psi_b in _GENERALIZED_POINTS:
        worst = max(
            abs(psi_bracket(n + 1, q, 1.0, psi_b) - q * psi_bracket(n, q, 1.0, psi_b) - psi_b * q**-n)
            for n in range(7)
        )
        records.append(
            check(
                f"algebra/bracket-shift/q={q:g}/psi_b={psi_b:g}",
                "bracket-shift",
                {"q": q, "psi_a": 1.0, "psi_b": psi_b, "levels": list(range(7))},
                worst,
                "scalar recurrence bracket(n+1) - q*bracket(n) = psi_b * q^(-n)",
                convention="scalar",
            )
        )

    for q, psi_b in _GENERALIZED_POINTS:
        result = algebra_residuals(make_deformed_ops(mode, q, 1.0, psi_b, cfg.operator))
        keys = ("deformed_commutation", "lowering_product_diagonal")  # the two reading the vacuum diagonal
        records += _algebra_records(check, result, keys, f"algebra/generalized/q={q:g}/psi_b={psi_b:g}")

    shift_cases = (
        ("psi_b-one", 2.0, 1.0, 0.0),
        ("q-e-psi_b-e", math.e, math.e, 1.0),
        ("q-e2-psi_b-e", math.e**2, math.e, 0.5),
    )
    eye = np.eye(cfg.cutoff, dtype=complex)
    for case, q, psi_b, shift in shift_cases:
        ops = make_deformed_ops(mode, q, 1.0, psi_b, cfg.operator)
        records.append(
            check(
                f"algebra/number-shift/{case}",
                "number-shift",
                {"q": q, "psi_b": psi_b, "expected_shift": shift, "cutoff": cfg.cutoff},
                _max_abs(deformed_number_op(ops) - (mode.n_op - shift * eye)),
                f"shifted number operator equals N - {shift:g}*I",
            )
        )

    for q in cfg.q_values:
        if q == 1.0:
            continue
        forward = make_deformed_ops(mode, q, 1.0, 1.0, cfg.operator)
        backward = make_deformed_ops(mode, 1.0 / q, 1.0, 1.0, cfg.operator)
        records.append(
            check(
                f"algebra/bracket-symmetry/q={q:g}",
                "bracket-symmetry",
                {"q": q, "mirror_q": 1.0 / q, "cutoff": cfg.cutoff},
                _max_abs(forward.a_q - backward.a_q),
                "lowering operators at q and 1/q coincide at unit psi",
            )
        )

    literal = make_deformed_ops(mode, 2.0, 1.0, 1.0, OperatorConvention.LEFT_SCALING)
    hermitian = make_deformed_ops(mode, 2.0, 1.0, 1.0, OperatorConvention.MATRIX_ELEMENT)
    literal_res = algebra_residuals(literal).residuals["lowering_product_diagonal"]
    hermitian_res = algebra_residuals(hermitian).residuals["lowering_product_diagonal"]
    records.append(
        check(
            "algebra/convention-audit/q=2",
            "convention-audit",
            {
                "q": 2.0,
                "cutoff": cfg.cutoff,
                "matrix_element_residual": hermitian_res,
                "left_scaling_residual": literal_res,
            },
            literal_res,
            "the literal scaled-lowering reading zeroes its singular vacuum scale and "
            "misses the level-1 product diagonal; the matrix-element reading satisfies it",
            passed=literal_res > thr and hermitian_res <= thr,
            convention="operator=both",
        )
    )
    return records


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


def _closure_residual(spec: GateSpec, q: float, exponent: ExponentConvention) -> float:
    """Worst gap between the deformed gate applied to fixed-parameter kets and its table.

    A fixed-parameter ket has one nonzero entry, so the gate applied to it is
    that column of the matrix times the ket's amplitude, bit for bit.  A
    non-finite gap raises OverflowError.
    """
    emb = QubitEmbedding(spec.arity)
    matrix = deformed_gate_matrix(spec, q, None, exponent)
    index, amps = emb.basis_indices(), ket_amplitudes(amplitude_table(q, spec.arity, None, exponent))
    worst = 0.0
    for bits, col in index.items():
        lhs = matrix[:, col] * amps[bits]
        rhs = np.zeros(emb.dim, dtype=complex)
        for term in gate_action_traced(spec, bits):
            rhs[index[term.bits]] += term.coeff * amps[term.bits]
        with np.errstate(over="ignore"):  # an overflowing norm is reported below, naming the input
            gap = float(np.linalg.norm(lhs - rhs))
        if not math.isfinite(gap):
            name = f"{spec.kind.value} closure residual at q={q!r} under the {exponent.value} exponent"
            raise OverflowError(f"{name} is {gap!r} on input bits {bits}")
        worst = max(worst, gap)
    return worst


def gates_suite(cfg: RunConfig) -> list:
    thr = cfg.identity_threshold
    check = partial(_check, convention=_convention_label(cfg), threshold=thr)
    records = []

    for spec in _gate_specs():
        emb = QubitEmbedding(spec.arity)
        matrix = gate_matrix(spec)
        worst = 0.0
        for bits in emb.all_bits():
            expected = np.zeros(emb.dim, dtype=complex)
            for coeff, out_bits in _table_action(spec.kind.value, bits, spec.phi):
                expected[emb.basis_index(out_bits)] += coeff
            worst = max(worst, float(np.linalg.norm(matrix[:, emb.basis_index(bits)] - expected)))
        records.append(
            check(
                f"gates/table/{spec.kind.value}",
                "gate-table",
                {"gate": spec.kind.value, "phi": spec.phi},
                worst,
                "matrix columns match an independently transcribed truth table",
            )
        )

    for spec in _gate_specs():
        if spec.kind is GateKind.PS:
            continue
        matrix = gate_matrix(spec)
        factor = 2.0 if spec.kind is GateKind.HAD else 1.0
        records.append(
            check(
                f"gates/involution/{spec.kind.value}",
                "gate-involution",
                {"gate": spec.kind.value, "square_factor": factor},
                _max_abs(matrix @ matrix - factor * QubitEmbedding(spec.arity).projector()),
                "squares to twice the valid-subspace projector"
                if factor == 2.0
                else "squares to the valid-subspace projector",
            )
        )

    for phi in (0.0, math.pi / 3, math.pi):
        forward = gate_matrix(GateSpec(GateKind.PS, phi))
        backward = gate_matrix(GateSpec(GateKind.PS, -phi))
        records.append(
            check(
                f"gates/phase-inverse/phi={phi:g}",
                "phase-inverse",
                {"phi": phi},
                _max_abs(forward @ backward - QubitEmbedding(1).projector()),
                "opposite phases compose to the valid-subspace projector",
            )
        )

    for q in cfg.q_values:
        for spec in _gate_specs():
            records.append(
                check(
                    f"gates/closure/{spec.kind.value}/q={q:g}",
                    "gate-closure",
                    {"gate": spec.kind.value, "phi": spec.phi, "q": q, "assignment": "closing"},
                    _closure_residual(spec, q, cfg.exponent),
                    "deformed gate reproduces its table on fixed-parameter kets",
                )
            )

    q_near_one = 1.0 + 1e-7
    for spec in _gate_specs():
        deformed = deformed_gate_matrix(spec, q_near_one, None, cfg.exponent)
        records.append(
            check(
                f"gates/reduction/{spec.kind.value}",
                "gate-closure",
                {"gate": spec.kind.value, "phi": spec.phi, "q": q_near_one, "assignment": "closing"},
                _max_abs(deformed - gate_matrix(spec)),
                "deformed matrix at q near 1 matches the undeformed gate elementwise",
                threshold=cfg.limit_threshold,
            )
        )

    result_res = _closure_residual(GateSpec(GateKind.NOT), 2.0, ExponentConvention.RESULT)
    vacuum_res = _closure_residual(GateSpec(GateKind.NOT), 2.0, ExponentConvention.VACUUM)
    records.append(
        check(
            "gates/exponent-compare/not/q=2",
            "convention-audit",
            {"gate": "not", "q": 2.0, "result_residual": result_res, "vacuum_residual": vacuum_res},
            result_res,
            "reading the parameter-fixing exponents on the created state closes the "
            "identity exactly; reading them on the vacuum leaves a finite mismatch on "
            "excited qubits",
            convention="exponent=both",
        )
    )

    for spec in _gate_specs():
        forward = deformed_gate_matrix(spec, 2.0, DeformationParams.uniform(2.0), cfg.exponent)
        backward = deformed_gate_matrix(spec, 0.5, DeformationParams.uniform(0.5), cfg.exponent)
        records.append(
            check(
                f"gates/symmetry/{spec.kind.value}",
                "bracket-symmetry",
                {"gate": spec.kind.value, "phi": spec.phi, "q": 2.0, "mirror_q": 0.5, "psi": 1.0},
                _max_abs(forward - backward),
                "deformed matrices at q and 1/q coincide at unit psi",
            )
        )

    toffoli, uniform = GateSpec(GateKind.TOFFOLI), DeformationParams.uniform(2.0)
    table = gate_matrix(toffoli)
    literal = toffoli_literal_matrix(2.0, uniform, cfg.exponent)
    faithful = deformed_gate_matrix(toffoli, 2.0, uniform, cfg.exponent)
    literal_gap = _max_abs(literal - table)
    faithful_gap = _max_abs(faithful - table)
    records.append(
        check(
            "gates/toffoli-literal-audit/q=2",
            "toffoli-literal-audit",
            {"q": 2.0, "psi": 1.0, "literal_gap": literal_gap, "table_faithful_gap": faithful_gap},
            literal_gap,
            "the literal control brackets sum to the identity and flip the target "
            "unconditionally; the table-faithful build matches the truth table",
            passed=literal_gap > thr and faithful_gap <= thr,
        )
    )
    return records


# --- constraints -------------------------------------------------------------


def constraints_suite(cfg: RunConfig) -> list:
    thr = cfg.identity_threshold
    check = partial(_check, convention=_convention_label(cfg), threshold=thr)
    records = []
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
        records.append(
            check(
                f"constraints/verdict/{spec.kind.value}",
                "constraint-verdict",
                result.as_dict(),
                residual,
                f"verdict: {result.verdict}; {result.notes}{q_note}",
                passed=result.verdict != "confirmed" or residual <= thr,
            )
        )

    ratio_check = partial(check, convention="scalar", threshold=1e-14)
    ratio_q = tuple(sorted(set(cfg.q_values) | {1.0}))
    for q in ratio_q:
        value = hadamard_closure_ratio(0, q)
        records.append(
            ratio_check(
                f"constraints/ratio-audit/n1=0/q={q:g}",
                "ratio-audit",
                {"n1": 0, "q": q, "value": value},
                abs(value - 1.0),
                "the closure ratio at occupation 0 equals 1 as claimed",
            )
        )
    for q in ratio_q:
        value = hadamard_closure_ratio(1, q)
        claim_gap = abs(value - 1.0)
        records.append(
            ratio_check(
                f"constraints/ratio-audit/n1=1/q={q:g}",
                "ratio-audit",
                {"n1": 1, "q": q, "value": value, "claim_gap": claim_gap},
                abs(value - q * q),
                "matches the always-1 claim"
                if claim_gap <= 1e-14
                else f"literal value equals q^2 and differs from the always-1 claim by {claim_gap:.6g}",
            )
        )
    return records


# --- limits ------------------------------------------------------------------


def limits_suite(cfg: RunConfig) -> list:
    mode = make_mode_ops(cfg.cutoff)
    check = partial(_check, convention=f"operator={cfg.operator.value}", threshold=cfg.limit_threshold)
    records = []

    ordered = sorted(cfg.limit_q, key=lambda q: abs(q - 1.0), reverse=True)
    gaps = {}
    for q in ordered:
        ops = make_deformed_ops(mode, q, 1.0, 1.0, cfg.operator)
        gaps[q] = float(np.linalg.norm(ops.a_q - mode.a, 2))
        records.append(
            check(
                f"limits/lowering-gap/q={q:g}",
                "classical-limit",
                {"q": q, "eps": abs(q - 1.0), "cutoff": cfg.cutoff},
                gaps[q],
                "operator-norm distance of the deformed lowering operator from its limit",
                passed=True,
                threshold=None,
            )
        )

    for coarse, fine in zip(ordered, ordered[1:]):
        shrink = abs(coarse - 1.0) / abs(fine - 1.0)
        ratio = gaps[coarse] / gaps[fine] if gaps[fine] > 0.0 else math.inf
        order = math.log(ratio) / math.log(shrink) if ratio not in (0.0, math.inf) else math.inf
        records.append(
            check(
                f"limits/shrink-ratio/q={coarse:g}-to-q={fine:g}",
                "classical-limit",
                {
                    "q_coarse": coarse,
                    "q_fine": fine,
                    "gap_coarse": gaps[coarse],
                    "gap_fine": gaps[fine],
                    "shrink": shrink,
                    "ratio": ratio if math.isfinite(ratio) else None,
                    "measured_order": order if math.isfinite(order) else None,
                },
                None,
                f"gap must shrink at least linearly in |q-1|; measured order {order:.6g}"
                if math.isfinite(order)
                else "gap must shrink at least linearly in |q-1|",
                passed=ratio >= 0.9 * shrink,
                threshold=None,
            )
        )

    q_near = 1.0 + 1e-8
    near = make_deformed_ops(mode, q_near, 1.0, 1.0, cfg.operator)
    records.append(
        check(
            "limits/lowering-continuity",
            "classical-limit",
            {"q": q_near, "cutoff": cfg.cutoff},
            _max_abs(near.a_q - mode.a),
            "deformed lowering operator is elementwise continuous at q = 1",
        )
    )

    base = tuple(range(cfg.cutoff - 1))
    eye = np.eye(cfg.cutoff, dtype=complex)
    undeformed = mode.a @ mode.a_dag - mode.a_dag @ mode.a - eye
    undeformed_res = float(np.max(np.abs(undeformed[np.ix_(base, base)])))
    deformed_res = algebra_residuals(near).residuals["deformed_commutation"]
    records.append(
        check(
            "limits/commutation-continuity",
            "classical-limit",
            {
                "q": q_near,
                "cutoff": cfg.cutoff,
                "deformed_residual": deformed_res,
                "undeformed_residual": undeformed_res,
            },
            abs(deformed_res - undeformed_res),
            "deformed commutation residual is continuous against the undeformed relation",
        )
    )
    return records


_SUITE_BUILDERS = {
    "algebra": algebra_suite,
    "gates": gates_suite,
    "constraints": constraints_suite,
    "limits": limits_suite,
}


def run_suites(cfg: RunConfig) -> VerificationReport:
    """Run the configured suite (or all of them) and assemble the report."""
    names = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)
    records = []
    for name in names:
        records.extend(_SUITE_BUILDERS[name](cfg))
    return VerificationReport(
        version=VERSION,
        config=cfg.public_config(),
        conventions=_conventions_block(cfg),
        records=records,
    )
