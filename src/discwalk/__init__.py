"""Workbench for the oscillating triple-correlation average over a
deterministic-walk skew product."""

from .errors import (
    BadOrder,
    BudgetExceeded,
    ConfigError,
    DiscwalkError,
    EmptyAfterFilter,
    FiniteCF,
    InsufficientSamples,
    MissingEntries,
    OverlappingIntervals,
    PaperModeNotQueryable,
    UnboundedQuotients,
    UnknownPreset,
    WindowExceeded,
)
from .rotation import AlphaSpec, FixedAngle, advance, phi, resolve_alpha
from .walk import (
    ConstantsTable,
    WalkSummary,
    estimate_constants,
    occupation_band,
    run_walk,
    sample_thetas,
)
from .eset import (
    ESet,
    Interval,
    LogNum,
    Schedule,
    generate_paper_schedule,
    make_desk_schedule,
    verify_schedule,
)
from .symbolic import (
    CylinderSpec,
    SymbolWindow,
    SymbolicPoint,
    apply_S,
    apply_T,
    apply_pi_E,
    mc_triple_average,
    sample_omega,
)
from .series import AverageEntry, AverageSeries
from .filters import AcceptAll, QuantileFilter
from .averages import (
    OscillationReport,
    PartitionStepFn,
    ergodicity_correlation,
    exact_average_series,
    exact_level_measures,
    oscillation_report,
    ratio_check,
    reduced_average_series,
    zero_entropy_proxy,
)

__version__ = "0.1.0"
