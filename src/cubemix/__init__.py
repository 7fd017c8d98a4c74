"""Exact mixing analysis of k-flip walks on the hypercube and (Z/mZ)^n.

The package computes eigenvalue tables, exact total-variation and l^2
distance curves, coupling coalescence tails (exact and Monte Carlo), and
closed-form step bounds, all with a rational backend below
EXACT_BACKEND_MAX_N coordinates and a log-space float backend above it.

Names resolve on first use: `import cubemix` loads no submodule, and
`cubemix.evolve` (or `from cubemix import evolve`) imports the module that
defines the name, then reads the name from that module on every access, so
a name patched in its module is seen through the package too.  Submodules
(`cubemix.exactdist`) resolve the same way.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "bounds": (
        "BoundReport",
        "MomentPair",
        "REPORTED_MIXING_TIME_EXAMPLES",
        "chebyshev_lower_bound",
        "comparison_step_bound",
        "coupling_upper_bound_steps",
        "cyclic_step_bound",
        "exact_weight_statistic_moments",
        "half_flip_step_bound",
        "reported_steps_comparison",
        "second_moment_lower_bound",
        "weight_eigenfunction",
        "weight_statistic_moments",
    ),
    "coupling": (
        "CoupledState",
        "CouplingTailReport",
        "HalfPickCertificate",
        "MarginalCheckReport",
        "PickBoundsCertificate",
        "coupled_step",
        "coupling_tail_curve",
        "coupling_weight_kernel",
        "expected_coupling_time",
        "marginal_check",
        "simulate_coupling",
        "verify_half_flip_pick_bounds",
        "verify_pick_fraction_bounds",
    ),
    "exactdist": (
        "FullDistribution",
        "WeightDistribution",
        "WeightKernel",
        "brute_force_curve",
        "brute_force_dist",
        "evolve",
        "flip_weight_kernel",
        "full_transition_matrix",
        "l2_to_uniform",
        "separation_tail",
        "spectral_dist",
        "support_weight_kernel",
        "touched_weight_kernel",
        "tv_to_uniform",
        "zmn_exact_tv",
    ),
    "krawtchouk": (
        "kraw_eval",
        "kraw_half",
        "kraw_integer_table",
        "kraw_symmetry_holds",
        "verify_symmetry_sweep",
    ),
    "numerics": ("EXACT_BACKEND_MAX_N", "log_binom"),
    "spectrum": (
        "CyclicWalkSpec",
        "EigenvalueCertificate",
        "SpectrumTable",
        "WalkSpec",
        "cube_eigenvalue",
        "cube_spectrum",
        "l2_lower_bound_odd_levels",
        "l2_upper_bound",
        "verify_eigenvalue_three_quarters",
        "zmn_eigenvalue",
        "zmn_l2_upper_bound",
        "zmn_spectrum",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
