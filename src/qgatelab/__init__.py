"""Verification toolkit for q-deformed oscillator algebra and deformed qubit gates.

The library layers are importable on their own: qnum (scalar brackets), fock
(occupation indexing and multi-mode states), qdeform (the band of the deformed
ladder operators and their algebra residuals), schwinger (two-modes-per-qubit
encoding and deformed states), gates (truth tables, matrices and deformed dyad
builds), constraints (the exact grid sweep that audits claimed parameter
restrictions), with claims (the claimed restrictions and their scoring) and
dense (the dense Fock-space cross-check) beside it.  report and suites feed the
qgatelab command-line driver, and reportdiff compares two reports check by check.

The package's names are declared once, in _EXPORTS, by the module that defines
them; each one loads its module on first use, so `import qgatelab` alone loads
no layer and no numpy.
"""

import importlib

_EXPORTS = {
    "constraints": ("CLAIMS", "ConstraintClaim", "ConstraintReport", "discover_constraints", "hadamard_closure_ratio"),
    "fock": ("MultiModeState", "basis_state", "occupation_index"),
    "gates": (
        "GateKind",
        "GateSpec",
        "GateTerm",
        "deformed_gate_matrix",
        "gate_action_traced",
        "gate_matrix",
        "toffoli_literal_matrix",
    ),
    "qdeform": (
        "LadderBand",
        "OperatorConvention",
        "band_residuals",
        "deformed_number_op",
        "make_ladder_band",
    ),
    "qnum": ("DeformationParams", "NegativeRadicandError", "q_bracket", "psi_bracket"),
    "report": (
        "CSV_COLUMNS",
        "RELATION_TAGS",
        "VERSION",
        "RecordShape",
        "VerificationReport",
        "canonical_json",
        "serialize_report",
    ),
    "schwinger": (
        "DeformedQubitSpec",
        "ExponentConvention",
        "QubitEmbedding",
        "closing_params",
        "deformed_qubit_state",
        "encode_basis",
        "qubit_amplitude",
    ),
    "suites": ("RunConfig", "SUITE_NAMES", "run_suites"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    source = "VERSION" if name == "__version__" else name
    if source not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[source]}", __name__), source)
    return value
