"""One admissibility rule: every consumer of a bracket agrees at its boundary B(1) = 0.

Each deformed amplitude is sqrt(B) of a two-parameter bracket, admissible iff B >= 0.0.  At q = 2
the mode pair (1, 4) gives B(1) = (2 - 4 / 2) / 1.5 = 0.0 exactly, and (1, nextafter(4, inf)) one
negative ulp-sized value.  The scalar amplitude, the operator stack, the sweep's level table and
the dense path must all draw the line at the same place, and the raising ones name level 1 and the
bracket's own value.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from qgatelab import DeformationParams, GateKind, GateSpec, NegativeRadicandError, make_mode_ops, psi_bracket
from qgatelab import make_deformed_stack, qubit_amplitude
from qgatelab.constraints import _cross_check_samples, _dense_brackets, _grid_levels, _level_tables, _sweep_plan
from qgatelab.dense import _dense_residuals, _dense_sides, _oracle_plan
from qgatelab.qnum import bracket_roots

Q = 2.0
AT_ZERO = (1.0, 4.0)
JUST_BELOW = (1.0, math.nextafter(4.0, math.inf))
SPEC = GateSpec(GateKind.NOT)
PLAN = _oracle_plan(SPEC)


def _psi(pair) -> tuple:
    """Twelve psi values with mode 1, the mode qubit 1's bit 1 excites, holding pair."""
    return (*pair, *(1.0,) * 10)


def _sweep_tables(pair) -> tuple:
    """The sweep's (admissible, amplitude) entries at q = 2 for the level pair (psi_a, psi_b)."""
    levels, grid_codes = _grid_levels(pair)
    admissible, amps = _level_tables(SPEC, _sweep_plan(SPEC), (Q,), levels, grid_codes)
    at = (0, *np.searchsorted(levels, pair))
    return bool(admissible[at]), float(amps[at])


def test_the_boundary_pairs_sit_on_either_side_of_zero():
    assert psi_bracket(1, Q, *AT_ZERO) == 0.0
    below = psi_bracket(1, Q, *JUST_BELOW)
    assert -3e-16 < below < -2.9e-16


def test_every_consumer_admits_a_zero_bracket_with_a_zero_amplitude():
    params = DeformationParams(Q, _psi(AT_ZERO))
    assert qubit_amplitude(1, 1, Q, params) == 0.0
    stack = make_deformed_stack(make_mode_ops(3), (Q,), *AT_ZERO)
    assert stack.brackets[0, 1] == 0.0 and stack.a_q[0, 0, 1] == 0.0
    assert _sweep_tables(AT_ZERO) == (True, 0.0)
    brackets = _dense_brackets(SPEC.arity, [(Q, params.psi)])
    lhs, _ = _dense_sides(brackets, PLAN)
    # bit 1 reads mode 1, whose amplitude is 0.0; bit 0 reads mode 2, (1, 1), amplitude 1.0
    assert not lhs[0, 1].any() and lhs[0, 0].any()
    strict, collinear = _dense_residuals(brackets, PLAN)
    assert _cross_check_samples(SPEC, PLAN, [(Q, params.psi, strict[0], collinear[0], True)]) == 1


def test_every_consumer_refuses_a_bracket_one_ulp_below_zero():
    value = psi_bracket(1, Q, *JUST_BELOW)
    params = DeformationParams(Q, _psi(JUST_BELOW))
    raisers = {
        "qubit_amplitude": lambda: qubit_amplitude(1, 1, Q, params),
        "make_deformed_stack": lambda: make_deformed_stack(make_mode_ops(3), (Q,), *JUST_BELOW),
        "dense path": lambda: _dense_sides(_dense_brackets(SPEC.arity, [(Q, params.psi)]), PLAN),
    }
    for name, call in raisers.items():
        with pytest.raises(NegativeRadicandError) as excinfo:
            call()
        assert (excinfo.value.level, excinfo.value.value) == (1, value), name
    assert _sweep_tables(JUST_BELOW) == (False, 0.0)
    # the cross-check refuses a sample the sweep called admissible, and accepts it marked skipped
    with pytest.raises(RuntimeError, match="admitted an inadmissible point"):
        _cross_check_samples(SPEC, PLAN, [(Q, params.psi, 0.0, 0.0, True)])
    assert _cross_check_samples(SPEC, PLAN, [(Q, params.psi, 0.0, 0.0, False)]) == 1


class TestBracketRoots:
    def test_a_float_and_an_array_get_the_same_mask_and_roots(self):
        values = [4.0, 0.0, -0.0, -1e-300, math.inf, -math.inf, math.nan]
        admissible, roots = bracket_roots(values)
        assert admissible.tolist() == [True, True, True, False, True, False, False]
        assert roots.tolist() == [2.0, 0.0, 0.0, 0.0, math.inf, 0.0, 0.0]
        # a root of exactly zero is +0.0, whatever the sign of the zero bracket
        assert not np.signbit(roots).any()
        for value, ok, root in zip(values, admissible.tolist(), roots.tolist()):
            scalar_ok, scalar_root = bracket_roots(value)
            assert (scalar_ok.shape, scalar_ok.item(), scalar_root.item()) == ((), ok, root)

    def test_roots_are_correctly_rounded_square_roots(self):
        values = np.array([2.0, 1e-310, 0.5, 3.0e300, 7.25])
        assert bracket_roots(values, 1)[1].tolist() == [math.sqrt(v) for v in values.tolist()]

    def test_levels_name_the_first_inadmissible_bracket_in_c_order(self):
        table = np.array([[1.0, 2.0, 3.0], [4.0, -5.0, -6.0], [-7.0, 8.0, 9.0]])
        with pytest.raises(NegativeRadicandError) as excinfo:
            bracket_roots(table, np.arange(1, 4))
        assert (excinfo.value.level, excinfo.value.value) == (2, -5.0)
        with pytest.raises(NegativeRadicandError) as excinfo:
            bracket_roots(-0.5, 1)
        assert (excinfo.value.level, excinfo.value.value) == (1, -0.5)
        # without levels the same table only reports its mask
        assert bracket_roots(table)[0].sum() == 6


def test_only_qnum_constructs_a_negative_radicand_error():
    def constructs(path: Path) -> bool:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "NegativeRadicandError":
                    return True
        return False

    package = Path(__file__).resolve().parents[1] / "src" / "qgatelab"
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 10
    assert [path.name for path in modules if constructs(path)] == ["qnum.py"]
