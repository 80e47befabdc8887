"""Partial quantum information: signed conditional entropy, state merging,
and entropic rate regions for multipartite coding tasks."""

from .core import (
    ChannelSpec,
    DEFAULT_DENSITY_CAP,
    DEFAULT_PURE_CAP,
    DensityOperator,
    DimensionCapError,
    PureState,
    SubsystemLayout,
    apply_channel,
    haar_unitary,
    partial_trace,
    reduced_density,
    stream_rng,
    tensor,
)
from .entropy import (
    EntropyReport,
    coherent_information,
    conditional_entropy,
    mutual_information,
    ssa_margin,
    subset_entropy,
    von_neumann_entropy,
)
from .merging import (
    CurveRow,
    MergeOutcome,
    MergePlan,
    ensemble_reference_check,
    hadamard_basis,
    merge_trials,
    monte_carlo_merge,
    plan_merge,
    run_merge,
    run_merge_exhaustive,
)
from .applications import (
    EoAResult,
    EpEstimate,
    RateConstraint,
    RateRegion,
    SideInfoResult,
    compression_region,
    entanglement_of_purification,
    eoa,
    mac_region,
    side_info_rates,
)
from . import presets

__version__ = "0.1.0"
