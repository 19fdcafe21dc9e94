"""The public namespace of `quantind`, which loads each layer on first use."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import quantind

# the 59 names the package imported eagerly before it loaded them lazily
PUBLIC = sorted("""
    AVPrediction BreakpointSequence CoverInfo DomainError DualPairChain
    EtaAssignment ExponentVector Gr2Report GroupDescriptor InfChar
    IntegralEstimate LpnResult Orthogonal Partition RayCheck RaySpec
    StepRecord Symplectic ValidationReport as_fraction bound_O_to_Sp
    bound_Sp_to_O breakpoints check_assignment check_gr2 constant_vector
    converges cover_info detect_limit_case dual_pair_bound evaluate fit_decay
    gaussian_moment greedy_eta h_kernel in_odd_range_O_to_Sp
    in_semistable_O_to_Sp in_semistable_Sp_to_O in_ss_O_to_Sp in_ss_Sp_to_O
    infchar_Q infchar_theta lpn lpn_oracle odd_case_bound oscillator_bound
    oscillator_coefficient oscillator_coefficient_quadrature
    parabolic_infchar_match predict_associated_variety rho ss_bound_O_to_Sp
    ss_bound_Sp_to_O strictly_dominated transpose validate_chain
    validate_one_step_O validate_one_step_Sp weakly_dominated
""".split())


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 59
    assert quantind.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_resolves_from_its_layer(name):
    value = getattr(quantind, name)
    layers = ["vectors", "lpn", "oscillator", "twisted", "transfer", "induction"]
    assert any(getattr(importlib.import_module(f"quantind.{layer}"), name, None)
               is value for layer in layers)
    assert getattr(quantind, name) is value


def test_lpn_is_the_function_not_the_module():
    from quantind import lpn
    from quantind.lpn import LpnResult

    assert callable(quantind.lpn) and quantind.lpn is lpn
    assert isinstance(lpn(quantind.ExponentVector([-1, -2]), 2, 2), LpnResult)


def test_star_import_binds_every_name():
    ns = {}
    exec("from quantind import *", ns)
    assert set(PUBLIC) <= set(ns)


def test_dir_lists_every_name():
    assert set(PUBLIC) <= set(dir(quantind))


def test_every_public_class_has_a_docstring():
    classes = [name for name in PUBLIC if isinstance(getattr(quantind, name), type)]
    assert len(classes) == 18
    assert [name for name in classes if not getattr(quantind, name).__doc__] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quantind.no_such_name


PACKAGE = os.path.dirname(os.path.abspath(quantind.__file__))
MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py"))
LAYERS = [m for m in MODULES if m != "__init__"]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_typing(module):
    # records are `_record` named tuples and unions are PEP 604 ones
    with open(os.path.join(PACKAGE, f"{module}.py")) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a for a in node.names if a.name.split(".")[0] == "typing"]
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "typing"


def test_importing_every_layer_leaves_typing_unloaded():
    # -S: no `site`, which may preload typing itself
    script = ("import sys, importlib; [importlib.import_module(f'quantind.{m}') "
              f"for m in {LAYERS!r}]; print(sorted(m for m in sys.modules "
              "if m.startswith('quantind')), 'typing' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(PACKAGE)}
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    layers = sorted(["quantind"] + [f"quantind.{m}" for m in LAYERS])
    assert proc.stdout == f"{layers} False\n"
