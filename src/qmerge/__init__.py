"""Partial quantum information: signed conditional entropy, state merging,
and entropic rate regions for multipartite coding tasks.

``import qmerge`` loads no submodule and no numpy, and sets nothing: each
name below is read from its submodule when it is looked up (PEP 562), which
imports the submodule on first use. The names are not copied here, so a
function patched in its submodule is patched under ``qmerge`` too.
"""

import importlib

_EXPORTS = {
    "core": (
        "ChannelSpec", "DensityOperator", "PureState", "SubsystemLayout",
        "apply_channel", "haar_unitary", "partial_trace", "reduced_density",
        "stream_rng", "tensor",
    ),
    "limits": ("DEFAULT_DENSITY_CAP", "DEFAULT_PURE_CAP", "DimensionCapError"),
    "entropy": (
        "EntropyReport", "conditional_entropy", "subset_entropy", "von_neumann_entropy",
    ),
    "merging": (
        "CurveRow", "MergeOutcome", "MergePlan", "hadamard_basis", "merge_trials",
        "monte_carlo_merge", "plan_merge", "run_merge", "run_merge_exhaustive",
    ),
    "applications": (
        "EoAResult", "EpEstimate", "RateConstraint", "RateRegion", "SideInfoResult",
        "compression_region", "entanglement_of_purification", "eoa", "mac_region",
        "side_info_rates",
    ),
}
_SUBMODULES = frozenset((*_EXPORTS, "presets"))
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "presets"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
