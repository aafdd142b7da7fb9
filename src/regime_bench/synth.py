"""Deterministic synthetic CGM-like fixtures: baselines, meal peaks, hypo dips.

Geometric stand-in for simulator cohorts: a flat (optionally drifting)
baseline, asymmetric-triangle meal excursions, and an optional
hypoglycemic dip placed inside one TCR window per day. Per-sample regime
labels are emitted for router and calibration tests.

Days are spaced two calendar days apart so the exported CSV partitions
back into the same per-day episodes on ingestion (the inter-day gap
exceeds any episode-split threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats
from .core import (EUGLYCEMIC_HIGH, EUGLYCEMIC_LOW, GLUCOSE_MAX, GLUCOSE_MIN, Episode,
                   SAMPLES_PER_DAY, export_csv)
from .errors import ConfigError
from .protocols import write_tcr_csv

REGIME_NAMES = ("stationary", "peak", "hypo")
LABEL_STATIONARY, LABEL_PEAK, LABEL_HYPO = 0, 1, 2

TCR_DELAY_MIN = 150  # activation 2.5 h post-meal
TCR_DURATION_MIN = 240  # active for 4 h
TCR_BASAL_FACTOR = 0.05

BOLUS_UNITS = 5.0  # insulin with each meal
BASAL_RATE = 1.0
PEAK_RISE, PEAK_FALL = 60, 120  # minutes to the meal peak, then back to baseline
HYPO_FALL, HYPO_RISE = 30, 30  # minutes down to the dip's bottom, then back up


@dataclass(frozen=True)
class SynthConfig:
    days: int
    baseline: float = 100.0
    meal_times: tuple[int, ...] = (480, 780, 1140)  # minutes of day
    meal_carbs: float = 40.0
    peak_amplitude: float = 80.0
    hypo_depth: float = 0.0  # mg/dL below 70; 0 disables the dip
    tcr_meal: int = 0  # which meal gets the TCR intervention
    drift_amplitude: float = 0.0  # triangular baseline drift, piecewise affine
    drift_period: int = 480
    noise_std: float = 0.0
    patient_id: str = "synth-001"
    seed: int = 0


@dataclass(frozen=True)
class SynthResult:
    episodes: list[Episode]
    tcr: list[tuple[str, int, int, int]]  # (patient_id, episode_id, start, end)
    labels: dict[int, np.ndarray]  # episode_id -> per-sample regime codes


def _validate(config: SynthConfig) -> tuple[int | None, int | None]:
    """Reject an unusable config; return the TCR meal's minute and the dip's centre.

    Each is None where there is none: no meals, or no hypoglycemic dip.
    """
    if config.days < 1:
        raise ConfigError("days must be >= 1")
    if config.seed < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"seed must be >= 0, got {config.seed}")
    # the CGM readers strip the id and the TCR reader does not, so only a stripped id
    # reads back the same from both
    if not config.patient_id or config.patient_id != config.patient_id.strip():
        raise ConfigError("patient_id must be non-empty, with no leading or trailing "
                          f"whitespace, got {config.patient_id!r}")
    if not EUGLYCEMIC_LOW <= config.baseline <= EUGLYCEMIC_HIGH:
        raise ConfigError("baseline must lie in the euglycemic band "
                          f"[{EUGLYCEMIC_LOW:g}, {EUGLYCEMIC_HIGH:g}]")
    for name in ("meal_carbs", "peak_amplitude", "hypo_depth", "noise_std"):
        value = getattr(config, name)
        if not 0 <= value < math.inf:
            raise ConfigError(f"{name} must be a finite number >= 0, got {value!r}")
    if not math.isfinite(config.drift_amplitude):
        raise ConfigError(f"drift_amplitude must be a finite number, got {config.drift_amplitude!r}")
    if config.drift_period <= 0:
        raise ConfigError("drift_period must be positive")
    for mt in config.meal_times:
        if mt % 5 or not 0 <= mt < 1440:
            raise ConfigError(f"meal time {mt} must be a 5-min multiple in [0, 1440)")
    if config.meal_times and not 0 <= config.tcr_meal < len(config.meal_times):
        raise ConfigError("tcr_meal must index into meal_times")
    if config.hypo_depth > 0 and not config.meal_times:
        raise ConfigError("hypoglycemic dip needs a meal to anchor the TCR window")
    meal = config.meal_times[config.tcr_meal] if config.meal_times else None
    center = meal + TCR_DELAY_MIN + TCR_DURATION_MIN // 2 if config.hypo_depth > 0 else None
    spans = [
        (float(mt), float(mt + PEAK_RISE + PEAK_FALL), "peak")
        for mt in config.meal_times
    ]
    if center is not None:
        spans.append((float(center - HYPO_FALL), float(center + HYPO_RISE), "hypo"))
    spans.sort()
    for (s0, e0, k0), (s1, e1, k1) in zip(spans, spans[1:]):
        if e0 > s1:
            raise ConfigError(f"{k0} excursion [{s0}, {e0}] overlaps {k1} at {s1}")
    return meal, center


def _triangle(tt: np.ndarray, start: float, up: float, down: float) -> np.ndarray:
    """Unit triangle rising over `up` minutes from `start`, falling over `down`."""
    ramp = np.minimum((tt - start) / up, 1.0 - (tt - start - up) / down)
    return np.clip(ramp, 0.0, 1.0)


def _drift(tt: np.ndarray, amplitude: float, period: int) -> np.ndarray:
    if amplitude == 0.0:
        return np.zeros_like(tt, dtype=float)
    # triangular wave from -amplitude up to +amplitude and back, piecewise affine;
    # kept in ratio-of-integers form so friendly parameter choices stay float-exact
    m = tt % period
    tri = np.where(2.0 * m <= period, 4.0 * m - period, 3.0 * period - 4.0 * m)
    return amplitude * tri / period


@np.errstate(over="raise", invalid="raise")
def _day(config: SynthConfig, meal: int | None, center: int | None, tt: np.ndarray):
    """The noise-free day at minutes tt: glucose, regime labels and the TCR span (or None).

    An overflow raises FloatingPointError instead of leaving an inf or NaN.
    """
    drift = _drift(tt, config.drift_amplitude, config.drift_period)
    signal = config.baseline + drift
    labels = np.full(SAMPLES_PER_DAY, LABEL_STATIONARY, dtype=np.int8)
    # labels carry a one-sample guard band: central differences at a sample
    # touch its neighbors, so the excursion's influence extends one step out
    for mt in config.meal_times:
        signal = signal + config.peak_amplitude * _triangle(tt, mt, PEAK_RISE, PEAK_FALL)
        labels[(tt >= mt - 5) & (tt <= mt + PEAK_RISE + PEAK_FALL + 5)] = LABEL_PEAK

    tcr_span = None
    if meal is not None:
        tcr_start = meal + TCR_DELAY_MIN
        tcr_end = tcr_start + TCR_DURATION_MIN
        if tcr_end <= 1440:
            tcr_span = (tcr_start // 5, tcr_end // 5)
        elif config.hypo_depth > 0:
            raise ConfigError("TCR window for the selected meal does not fit in the day")
    if center is not None:
        # depth chosen so the dip bottoms out at exactly 70 - hypo_depth
        center_level = config.baseline + float(
            _drift(np.array([float(center)]), config.drift_amplitude, config.drift_period)[0]
        )
        depth = center_level - (EUGLYCEMIC_LOW - config.hypo_depth)
        signal = signal - depth * _triangle(tt, center - HYPO_FALL, HYPO_FALL, HYPO_RISE)
        labels[(tt >= center - HYPO_FALL - 5) & (tt <= center + HYPO_RISE + 5)] = LABEL_HYPO
    return signal, labels, tcr_span


def generate(config: SynthConfig) -> SynthResult:
    """Build one Episode per day plus TCR metadata and per-sample regime labels."""
    meal, center = _validate(config)
    rng = np.random.default_rng(config.seed)
    tt = np.arange(SAMPLES_PER_DAY, dtype=float) * 5.0

    try:
        signal, labels, tcr_span = _day(config, meal, center, tt)
    except FloatingPointError:
        # with no drift the day stays finite for any config _validate accepts
        raise ConfigError(f"drift_amplitude {config.drift_amplitude!r} is too large: "
                          "the synthetic day overflows") from None

    carbs = np.zeros(SAMPLES_PER_DAY)
    bolus = np.zeros(SAMPLES_PER_DAY)
    for mt in config.meal_times:
        carbs[mt // 5] = config.meal_carbs
        bolus[mt // 5] = BOLUS_UNITS
    basal = np.full(SAMPLES_PER_DAY, BASAL_RATE)
    if tcr_span is not None:
        basal[tcr_span[0] : tcr_span[1]] = BASAL_RATE * TCR_BASAL_FACTOR
    exog = np.column_stack([carbs, bolus, basal])

    episodes = []
    tcr_rows = []
    label_map = {}
    for day in range(config.days):
        glucose = signal.copy()
        if config.noise_std > 0:
            # a draw past the float range is inf, with no warning, and the sum can overflow
            # with one: check the trace instead of letting numpy warn
            with np.errstate(over="ignore"):
                glucose = glucose + rng.normal(0.0, config.noise_std, SAMPLES_PER_DAY)
            if not np.isfinite(glucose).all():
                raise ConfigError(f"noise_std {config.noise_std!r} is too large: "
                                  "the noisy trace overflows")
        glucose = np.clip(glucose, GLUCOSE_MIN, GLUCOSE_MAX)
        episodes.append(
            Episode(
                config.patient_id,
                day,
                day * 2880,  # every other calendar day; see module docstring
                glucose,
                exog,
                np.ones(SAMPLES_PER_DAY, dtype=np.uint8),
            )
        )
        if tcr_span is not None:
            tcr_rows.append((config.patient_id, day, tcr_span[0], tcr_span[1]))
        label_map[day] = labels.copy()
    return SynthResult(episodes, tcr_rows, label_map)


def write_labels_csv(result: SynthResult, path) -> None:
    longest = max(map(len, result.labels.values()), default=0)
    heads = [f"{t}," for t in range(longest)]

    def chunk(episode_id) -> str:
        rows = map(str.__add__, heads, map(REGIME_NAMES.__getitem__,
                                           result.labels[episode_id].tolist()))
        # the separator ends one row and starts the next with the episode id
        text = f"\r\n{episode_id},".join(rows)
        return f"{episode_id},{text}\r\n" if text else ""

    formats.write_lines(path, ["episode_id", "t", "regime"], map(chunk, sorted(result.labels)))


def fixture_names(gapped: bool) -> tuple[str, ...]:
    """The files write_fixture writes, in its order; with gap masks, cgm_gapped.csv last."""
    return ("cgm.csv", "tcr.csv", "labels.csv", *(("cgm_gapped.csv",) if gapped else ()))


def write_fixture(result: SynthResult, out_dir, gap_masks=None) -> dict[str, Path]:
    """Write fixture_names' files into out_dir; returns their paths, keyed by stem, in that order.

    They are cgm.csv, tcr.csv and labels.csv and, given gap_masks, one mask
    per episode of result, cgm_gapped.csv: the episodes as
    masks.apply_mask shows them. Each mask is checked as apply_mask checks
    it before any file is written, and both CGM files are written in one pass.
    """
    out_dir = Path(out_dir)
    paths = {name.removesuffix(".csv"): out_dir / name
             for name in fixture_names(gap_masks is not None)}
    gapped = None
    if gap_masks is not None:
        from . import masks

        retained = [masks.retained_by(ep, mask)
                    for ep, mask in zip(result.episodes, gap_masks, strict=True)]
        gapped = (paths["cgm_gapped"], retained)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_csv(result.episodes, paths["cgm"], gapped=gapped)
    write_tcr_csv(result.tcr, paths["tcr"])
    write_labels_csv(result, paths["labels"])
    return paths
