"""Growth-exponent calculus for compositions of dual-pair correspondences.

Each public name is loaded from its layer on first use (PEP 562), so a
process imports only the layers it runs.  `lpn` is imported eagerly:
loading the submodule `quantind.lpn` would rebind the name to the module.
"""

import importlib

from .lpn import lpn

_LAYERS = {
    "vectors": "CoverInfo DomainError ExponentVector GroupDescriptor InfChar "
    "Orthogonal Partition Symplectic as_fraction constant_vector cover_info rho "
    "strictly_dominated transpose weakly_dominated",
    "lpn": "BreakpointSequence EtaAssignment LpnResult breakpoints "
    "check_assignment greedy_eta lpn lpn_oracle",
    "oscillator": "dual_pair_bound gaussian_moment h_kernel oscillator_bound "
    "oscillator_coefficient oscillator_coefficient_quadrature",
    "twisted": "Gr2Report IntegralEstimate RayCheck RaySpec check_gr2 converges "
    "evaluate fit_decay",
    "transfer": "bound_O_to_Sp bound_Sp_to_O odd_case_bound ss_bound_O_to_Sp "
    "ss_bound_Sp_to_O",
    "induction": "AVPrediction DualPairChain StepRecord ValidationReport "
    "detect_limit_case in_odd_range_O_to_Sp in_semistable_O_to_Sp "
    "in_semistable_Sp_to_O in_ss_O_to_Sp in_ss_Sp_to_O infchar_Q infchar_theta "
    "parabolic_infchar_match predict_associated_variety validate_chain "
    "validate_one_step_O validate_one_step_Sp",
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
