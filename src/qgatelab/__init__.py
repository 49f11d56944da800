"""Verification toolkit for q-deformed oscillator algebra and deformed qubit gates.

The library layers are importable on their own: qnum (scalar brackets), fock
(truncated modes and tensor plumbing), qdeform (deformed ladder operator stacks
and algebra residuals), schwinger (two-modes-per-qubit encoding and deformed
states), gates (truth tables, matrices and deformed dyad builds), constraints
(the exact grid sweep that audits claimed parameter restrictions), with claims
(the claimed restrictions and their scoring) and dense (the dense Fock-space
cross-check) beside it.  report and suites feed the qgatelab command-line
driver, and reportdiff compares two reports check by check.

constraints loads on first use of one of its names, so a process that never
sweeps neither compiles nor runs it.
"""

import importlib

from .fock import (
    ModeOperators,
    MultiModeState,
    basis_state,
    lift,
    make_mode_ops,
    occupation_index,
)
from .gates import (
    GateKind,
    GateSpec,
    GateTerm,
    deformed_gate_matrix,
    gate_action_traced,
    gate_matrix,
    toffoli_literal_matrix,
)
from .qdeform import (
    AlgebraResiduals,
    DeformedModeStack,
    OperatorConvention,
    deformed_number_op,
    make_deformed_stack,
    stack_residuals,
)
from .qnum import (
    DeformationParams,
    NegativeRadicandError,
    q_bracket,
    psi_bracket,
)
from .report import (
    CSV_COLUMNS,
    RELATION_TAGS,
    VERSION,
    RecordShape,
    VerificationReport,
    canonical_json,
    serialize_report,
)
from .schwinger import (
    DeformedQubitSpec,
    ExponentConvention,
    QubitEmbedding,
    closing_params,
    deformed_qubit_state,
    encode_basis,
    qubit_amplitude,
)
from .suites import RunConfig, SUITE_NAMES, run_suites

__version__ = VERSION

_SWEEP_NAMES = frozenset(
    {"CLAIMS", "ConstraintClaim", "ConstraintReport", "discover_constraints", "hadamard_closure_ratio"}
)


def __getattr__(name):
    if name in _SWEEP_NAMES:
        value = getattr(importlib.import_module(".constraints", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AlgebraResiduals",
    "CLAIMS",
    "CSV_COLUMNS",
    "ConstraintClaim",
    "ConstraintReport",
    "DeformationParams",
    "DeformedModeStack",
    "DeformedQubitSpec",
    "ExponentConvention",
    "GateKind",
    "GateSpec",
    "GateTerm",
    "ModeOperators",
    "MultiModeState",
    "NegativeRadicandError",
    "OperatorConvention",
    "QubitEmbedding",
    "RELATION_TAGS",
    "RecordShape",
    "RunConfig",
    "SUITE_NAMES",
    "VERSION",
    "VerificationReport",
    "basis_state",
    "canonical_json",
    "closing_params",
    "deformed_gate_matrix",
    "deformed_number_op",
    "deformed_qubit_state",
    "discover_constraints",
    "encode_basis",
    "gate_action_traced",
    "gate_matrix",
    "hadamard_closure_ratio",
    "lift",
    "make_deformed_stack",
    "make_mode_ops",
    "occupation_index",
    "psi_bracket",
    "q_bracket",
    "qubit_amplitude",
    "run_suites",
    "serialize_report",
    "stack_residuals",
    "toffoli_literal_matrix",
]
