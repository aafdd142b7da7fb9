"""Regime-stratified stress-test harness for CGM time-series imputation."""

from .core import (
    Episode,
    build_inputs,
    ingest_csv,
    linear_fill,
    time_encoding,
)
from .errors import RegimeBenchError
from .imputers import Imputation, impute_lerp, impute_locf, impute_mean, impute_median, load_external
from .masks import Mask, apply_mask, generate_mask, sample_duration
from .metrics import (
    CalibrationSummary,
    MetricsReport,
    aggregate,
    dtw_distance,
    pointwise_metrics,
    pooled_calibration,
    score_episode,
    segment_dtw,
)
from .missingness import (
    DurationMixture,
    GapEvent,
    MissingnessModel,
    extract_gaps,
    fit_mixture,
    fit_model,
    onset_probabilities,
    short_gap_probability,
    valid_days,
)
from .protocols import (
    RegimeWindow,
    StabilityCriteria,
    aggregate_meals,
    allocate_stationary_mask,
    build_hypo_masks,
    build_peak_masks,
    find_stable_windows,
    gradient,
)
from .router import RoutingDecision, adaptive_impute, classify_gap
from .synth import SynthConfig, generate

__version__ = "0.1.0"
