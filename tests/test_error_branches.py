"""Error branches no other test reaches, each with its exact text, and where
numpy may be imported."""

import ast
import pathlib

import pytest

import quantind
from quantind import (
    DomainError,
    ExponentVector,
    RaySpec,
    check_gr2,
    dual_pair_bound,
    gaussian_moment,
    odd_case_bound,
    oscillator_coefficient,
    ss_bound_O_to_Sp,
    ss_bound_Sp_to_O,
)

ERRORS = [
    (lambda: check_gr2(ExponentVector([-1]), 1, 1, [RaySpec([1.0, 0.5], [1.0, 2.0, 3.0])]),
     "ray dimension must equal n"),
    (lambda: ss_bound_O_to_Sp(0, 3, 1), "need p >= 1 and n >= 1"),
    (lambda: ss_bound_Sp_to_O(1, 0, 3), "need p >= 1"),
    (lambda: odd_case_bound(0, 3, 1), "need p >= 1 and n >= 1"),
    (lambda: odd_case_bound(1, 3, 2), "p+q must be odd"),
    (lambda: odd_case_bound(2, 3, 1), "requires p+q <= 2n+1"),
    (lambda: oscillator_coefficient([1.0], [0, 0], [0]), "alpha must have length 1"),
    (lambda: oscillator_coefficient([1.0], [0], [-1]), "beta entries must be nonnegative"),
    (lambda: dual_pair_bound([1.0], [1.0, 1.0], 2, 1), "need 0 <= p <= q"),
    (lambda: dual_pair_bound([1.0], [1.0], 2, 3), "b must have length p=2"),
    (lambda: gaussian_moment(-1), "moment order must be nonnegative"),
]


@pytest.mark.parametrize("call,text", ERRORS)
def test_error_text(call, text):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == text


def test_numpy_is_imported_only_by_the_panel_recursion():
    # every numpy import under src/quantind, by file and enclosing function
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "numpy" for name in names):
                found.add((path.name, where))
            visit(child, where)

    for path in sorted(pathlib.Path(quantind.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), None)
    assert found == {("twisted.py", "_panel_rule"), ("twisted.py", "_iterated")}
