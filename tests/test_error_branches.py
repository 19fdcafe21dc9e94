"""Error branches no other test reaches, each with its exact text, and where
numpy may be imported."""

import ast
import pathlib

import pytest

import quantind
from quantind import (
    DomainError,
    DualPairChain,
    ExponentVector,
    InfChar,
    Orthogonal,
    Partition,
    RaySpec,
    Symplectic,
    check_gr2,
    constant_vector,
    cover_info,
    detect_limit_case,
    dual_pair_bound,
    gaussian_moment,
    infchar_Q,
    infchar_theta,
    lpn_oracle,
    odd_case_bound,
    oscillator_bound,
    oscillator_coefficient,
    oscillator_coefficient_quadrature,
    parabolic_infchar_match,
    predict_associated_variety,
    ss_bound_O_to_Sp,
    ss_bound_Sp_to_O,
)

# (call, error, text) for branches a line trace of the suite found unreached
ERRORS = [
    (lambda: check_gr2(ExponentVector([-1]), 1, 1, [RaySpec([1.0, 0.5], [1.0, 2.0, 3.0])]),
     DomainError, "ray dimension must equal n"),
    (lambda: ss_bound_O_to_Sp(0, 3, 1), DomainError, "need p >= 1 and n >= 1"),
    (lambda: ss_bound_Sp_to_O(1, 0, 3), DomainError, "need p >= 1"),
    (lambda: odd_case_bound(0, 3, 1), DomainError, "need p >= 1 and n >= 1"),
    (lambda: odd_case_bound(1, 3, 2), DomainError, "p+q must be odd"),
    (lambda: odd_case_bound(2, 3, 1), DomainError, "requires p+q <= 2n+1"),
    (lambda: oscillator_coefficient([1.0], [0, 0], [0]), DomainError,
     "alpha must have length 1"),
    (lambda: oscillator_coefficient([1.0], [0], [-1]), DomainError,
     "beta entries must be nonnegative"),
    (lambda: dual_pair_bound([1.0], [1.0, 1.0], 2, 1), DomainError, "need 0 <= p <= q"),
    (lambda: dual_pair_bound([1.0], [1.0], 2, 3), DomainError, "b must have length p=2"),
    (lambda: gaussian_moment(-1), DomainError, "moment order must be nonnegative"),
    # the probe of the extreme nodes passes at order 371 (alpha + beta = 740);
    # only the full build refuses, from 372 on the probe does
    (lambda: oscillator_coefficient_quadrature([1.0], [740], [0]), OverflowError,
     "Gauss-Hermite weights of order 371 exceed the double range"),
    (lambda: oscillator_bound([1.0, 0.0]), DomainError,
     "torus entries must be strictly positive"),
    (lambda: lpn_oracle(ExponentVector([-1] * 5), 5, 4), DomainError,
     "oracle limited to 16 cells, got 20"),
    (lambda: DualPairChain("Mp", (Orthogonal(1, 1), Symplectic(1)), ExponentVector([-1])),
     DomainError, "start_kind must be 'O' or 'Sp'"),
    (lambda: infchar_theta("o2o", 1, 1, 1, InfChar()), DomainError,
     "direction must be 'o2sp' or 'sp2o'"),
    (lambda: infchar_Q("U", (1, 1, 1), InfChar()), DomainError, "kind must be 'O' or 'Sp'"),
    (lambda: detect_limit_case("U", (1, 1, 1)), DomainError, "kind must be 'O' or 'Sp'"),
    (lambda: predict_associated_variety("U", (1, 1, 1), Partition()), DomainError,
     "kind must be 'O' or 'Sp'"),
    (lambda: parabolic_infchar_match("Sp", (1, 2, 3, 1), InfChar()), DomainError,
     "sizes do not satisfy the case III relation"),
    (lambda: Orthogonal(-1, 2), DomainError, "p, q must be nonnegative"),
    (lambda: cover_info((Orthogonal(1, 1), Orthogonal(1, 1)), "O"), DomainError,
     "pair must consist of one O(p,q) and one Sp(2n)"),
    (lambda: cover_info((Orthogonal(1, 1), Symplectic(1)), "Mp"), DomainError,
     "side must be 'O' or 'Sp', got 'Mp'"),
    (lambda: ExponentVector([]), DomainError, "ExponentVector needs dimension >= 1"),
    (lambda: ExponentVector([1]) + ExponentVector([1, 2]), DomainError, "dimension mismatch"),
    (lambda: ExponentVector([1]) - ExponentVector([1, 2]), DomainError, "dimension mismatch"),
    (lambda: constant_vector(1, 0), DomainError, "dim must be >= 1"),
]


@pytest.mark.parametrize("call,error,text", ERRORS)
def test_raises(call, error, text):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
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
