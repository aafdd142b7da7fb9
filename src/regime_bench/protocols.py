"""Regime detection and protocol-specific evaluation masks.

Protocol A masks stable 30-minute homeostatic windows, Protocol B masks
3.5-4 h windows centered on post-prandial peaks, Protocol C masks 1-hour
windows around hypoglycemic onsets during TCR activation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import formats
from .core import EUGLYCEMIC_HIGH, EUGLYCEMIC_LOW, Episode, runs_to_bits
from .errors import AllocationError, DimensionError, IntegrityError, ParseError, SelectionError
from .masks import Mask, round5

WINDOW_SAMPLES_A = 6  # 30 minutes
MIN_SAMPLES_B = 42  # 3.5 hours
POST_MEAL_SCAN = 48  # 4-hour peak scan


@dataclass(frozen=True)
class StabilityCriteria:
    """Thresholds for the five homeostatic-window criteria."""

    glucose_low: float = EUGLYCEMIC_LOW
    glucose_high: float = EUGLYCEMIC_HIGH
    gradient_threshold: float = 0.6  # mg/dL per minute
    gradient_quorum: float = 0.85
    washout_minutes: int = 60
    max_range: float = 25.0


@dataclass(frozen=True)
class RegimeWindow:
    """A protocol-labeled evaluation interval, half-open [start, end)."""

    protocol: str
    start_index: int
    end_index: int
    anchor_index: int | None = None
    meal_index: int | None = None
    meal_carbs: float | None = None


@dataclass(frozen=True)
class MealEvent:
    index: int
    carbs: float


def gradient_of(values: np.ndarray) -> np.ndarray:
    """Glucose gradient in mg/dL/min: central differences, one-sided at the ends."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise DimensionError("gradient needs a span of at least 2 samples")
    grad = np.empty_like(values)
    grad[1:-1] = (values[2:] - values[:-2]) / 10.0
    grad[0] = (values[1] - values[0]) / 5.0
    grad[-1] = (values[-1] - values[-2]) / 5.0
    return grad


def gradient(episode: Episode) -> np.ndarray:
    if not episode.fully_observed():
        raise IntegrityError("gradient requires complete glucose")
    return gradient_of(episode.glucose)


def _event_flags(episode: Episode) -> np.ndarray:
    # meal and bolus are discrete events; basal is background delivery
    return (episode.exog[:, 0] > 0) | (episode.exog[:, 1] > 0)


def find_stable_windows(
    episode: Episode, criteria: StabilityCriteria = StabilityCriteria()
) -> list[RegimeWindow]:
    """All 30-min windows meeting the five stability criteria.

    The 60-min washout span must lie fully inside the episode, so windows
    starting in the first hour are never candidates. Every start is tested
    at once: sliding-window min, max and gradient quorum, and cumulative
    event counts over the window and its washout.
    """
    if not episode.fully_observed():
        raise IntegrityError("stable-window detection requires complete glucose")
    grad = np.abs(gradient_of(episode.glucose))
    washout = criteria.washout_minutes // 5
    if washout < 0:
        raise DimensionError(f"washout_minutes must be >= 0, got {criteria.washout_minutes}")
    last = episode.T - WINDOW_SAMPLES_A  # last start whose window fits
    if last < washout:
        return []
    seg = sliding_window_view(episode.glucose[washout:], WINDOW_SAMPLES_A)
    lo, hi = seg.min(axis=1), seg.max(axis=1)
    steady = sliding_window_view(grad[washout:] < criteria.gradient_threshold, WINDOW_SAMPLES_A)
    n_events = np.concatenate(([0], np.cumsum(_event_flags(episode))))  # events before t
    starts = np.arange(washout, last + 1)
    # negated comparisons keep the loop's handling of ties and NaN
    keep = (
        ~((lo < criteria.glucose_low) | (hi > criteria.glucose_high))
        & ~(steady.mean(axis=1) < criteria.gradient_quorum)
        & (n_events[starts + WINDOW_SAMPLES_A] == n_events[starts])
        & (n_events[starts] == n_events[starts - washout])
        & ~(hi - lo >= criteria.max_range)
    )
    return [RegimeWindow("A", s, s + WINDOW_SAMPLES_A) for s in starts[keep].tolist()]


def _greedy_select(windows, order, needed: int, T: int) -> list[RegimeWindow]:
    """Up to ``needed`` pairwise disjoint windows, each taken in ``order`` if it fits."""
    chosen, occupied = [], np.zeros(T, dtype=bool)
    for idx in order:
        if len(chosen) == needed:
            break
        w = windows[idx]
        if not occupied[w.start_index : w.end_index].any():
            chosen.append(w)
            occupied[w.start_index : w.end_index] = True
    return chosen


def _runs(windows: list[RegimeWindow]) -> list[tuple[int, int]]:
    return [(w.start_index, w.end_index - w.start_index) for w in windows]


def check_ratio(ratio: float) -> None:
    """Raise AllocationError unless 0 < ratio < 1."""
    if not 0.0 < ratio < 1.0:
        raise AllocationError(f"ratio must be in (0, 1), got {ratio}")


def allocate_stationary_mask(
    episode: Episode, windows: list[RegimeWindow], ratio: float, seed: int
) -> tuple[Mask, list[RegimeWindow]]:
    """Mask round(ratio*T) samples as full 30-min stable windows plus one partial.

    Full windows are drawn at random (seeded) from the non-overlapping
    candidates; a residual of r samples masks the first r samples of one
    extra window. When the random order finds too few disjoint windows, the
    earliest-end selection is used; when that one finds too few, no
    selection can, and AllocationError names the episode and the ceiling.
    A target of 0 samples selects no window.
    """
    check_ratio(ratio)
    T = episode.T
    target = int(np.floor(ratio * T + 0.5))
    n_full, residual = divmod(target, WINDOW_SAMPLES_A)
    needed = n_full + (1 if residual else 0)
    # earliest end first is optimal interval scheduling: short of needed, it is the capacity
    by_end = np.argsort([w.end_index for w in windows], kind="stable")
    earliest = _greedy_select(windows, by_end, needed, T)
    if len(earliest) < needed:
        achievable = len(earliest) * WINDOW_SAMPLES_A / T
        raise AllocationError(
            f"episode {episode.patient_id}/{episode.episode_id} has only {len(earliest)} "
            f"disjoint stable windows; achievable ratio <= {achievable:.4f}"
        )
    rng = np.random.default_rng(seed)
    chosen = _greedy_select(windows, rng.permutation(len(windows)), needed, T)
    if len(chosen) < needed:  # the random maximal set fell short of the optimum
        chosen = earliest
    runs = _runs(chosen[:n_full])
    if residual:
        runs.append((chosen[n_full].start_index, residual))
    return Mask(runs_to_bits(T, runs), seed=seed, provenance="protocol_A"), chosen


def aggregate_meals(episode: Episode) -> list[MealEvent]:
    """Merge carb entries separated by less than one hour into single events."""
    carb_idx = np.flatnonzero(episode.exog[:, 0] > 0)
    events: list[MealEvent] = []
    last = None
    for i in carb_idx:
        i = int(i)
        carbs = float(episode.exog[i, 0])
        if last is not None and i - last < 12:
            events[-1] = MealEvent(events[-1].index, events[-1].carbs + carbs)
        else:
            events.append(MealEvent(i, carbs))
        last = i
    return events


def check_n_peaks(n_peaks: int) -> None:
    """Raise SelectionError unless n_peaks >= 1."""
    if n_peaks < 1:
        raise SelectionError("n_peaks must be >= 1")


def build_peak_masks(
    episode: Episode, n_peaks: int, seed: int
) -> tuple[Mask, list[RegimeWindow]]:
    """Mask 3.5-4 h windows centered on the first n_peaks post-prandial peaks.

    Windows never cover pre-meal indices (shifted later instead) and are
    clipped at the end of the peak's day; a window truncated below 3.5 h is
    skipped and the next eligible meal is tried.
    """
    if not episode.fully_observed():
        raise IntegrityError("peak masking requires complete glucose")
    check_n_peaks(n_peaks)
    rng = np.random.default_rng(seed)
    g = episode.glucose
    windows = []
    for ev in aggregate_meals(episode):
        if len(windows) == n_peaks:
            break
        if ev.index + POST_MEAL_SCAN > episode.T - 1:
            continue
        post = g[ev.index + 1 : ev.index + POST_MEAL_SCAN + 1]
        peak = ev.index + 1 + int(np.argmax(post))
        length = round5(rng.uniform(210.0, 240.0)) // 5
        start = peak - length // 2
        if start <= ev.index:
            start = ev.index + 1
        end = start + length
        day = episode.day_at(peak)
        next_day_index = ((day + 1) * 1440 - episode.start_minute) // 5
        end = min(end, episode.T, next_day_index)
        if end - start < MIN_SAMPLES_B:
            continue
        windows.append(
            RegimeWindow("B", start, end, anchor_index=peak, meal_index=ev.index, meal_carbs=ev.carbs)
        )
    if len(windows) < n_peaks:
        raise SelectionError(
            f"episode {episode.patient_id}/{episode.episode_id} yields "
            f"{len(windows)} peak windows, requested {n_peaks}"
        )
    bits = runs_to_bits(episode.T, _runs(windows))
    return Mask(bits, seed=seed, provenance="protocol_B"), windows


def check_window_minutes(window_minutes: int) -> None:
    """Raise DimensionError unless window_minutes is a positive multiple of 5."""
    if window_minutes <= 0 or window_minutes % 5:
        raise DimensionError(f"window_minutes must be a positive multiple of 5, got {window_minutes}")


def build_hypo_masks(
    episode: Episode, tcr_intervals, window_minutes: int = 60
) -> tuple[Mask, list[RegimeWindow]]:
    """Mask a window centered on the first hypoglycemic sample of each TCR interval."""
    check_window_minutes(window_minutes)
    if not episode.fully_observed():
        raise IntegrityError("hypoglycemia masking requires complete glucose")
    length = window_minutes // 5
    g = episode.glucose
    windows = []
    for ts, te in tcr_intervals:
        ts = max(0, int(ts))
        te = min(episode.T, int(te))
        below = np.flatnonzero(g[ts:te] < EUGLYCEMIC_LOW)
        if below.size == 0:
            continue
        anchor = ts + int(below[0])
        start = anchor - length // 2
        end = min(episode.T, start + length)
        start = max(0, start)
        windows.append(RegimeWindow("C", start, end, anchor_index=anchor))
    return Mask(runs_to_bits(episode.T, _runs(windows)), provenance="protocol_C"), windows


def write_windows_json(entries, path, protocol: str, condition: str | None = None):
    """entries: iterable of (patient_id, episode_id, RegimeWindow)."""
    records = [
        {"patient_id": patient_id, "episode_id": episode_id, **asdict(w)}
        for patient_id, episode_id, w in sorted(
            entries, key=lambda e: (e[0], e[1], e[2].start_index)
        )
    ]
    doc = {"protocol": protocol, "windows": records}
    if condition is not None:
        doc["condition"] = condition
    formats.write_json(path, doc)


def read_windows_json(path):
    """Load windows; returns (metadata, [(patient_id, episode_id, RegimeWindow), ...]).

    A record missing a field, or holding one of the wrong type, raises
    ParseError naming the file, the record's position in the ``windows``
    list and the field; so does a ``protocol`` or ``condition`` label that
    is not a string, naming the label.
    """
    return formats.read_records(path, "windows", _window_record, ("protocol", "condition"))


# a window record's fields and their JSON types; the optional ones may also be null or absent
_WINDOW_FIELDS = (("patient_id", str), ("episode_id", int), ("protocol", str),
                  ("start_index", int), ("end_index", int))
_OPTIONAL_WINDOW_FIELDS = (("anchor_index", int), ("meal_index", int), ("meal_carbs", (int, float)))


def _window_record(rec) -> tuple[str, int, RegimeWindow]:
    patient, episode, *required = [formats.record_field(rec, *field) for field in _WINDOW_FIELDS]
    optional = [formats.record_field(rec, name, (kind, type(None))) if name in rec else None
                for name, kind in _OPTIONAL_WINDOW_FIELDS]
    return patient, episode, RegimeWindow(*required, *optional)


TCR_HEADER = ["patient_id", "episode_id", "tcr_start_index", "tcr_end_index"]


def write_tcr_csv(rows, path):
    """rows: iterable of (patient_id, episode_id, start_index, end_index)."""
    lines = (f"{formats.quote(patient)},{episode},{start},{end}\r\n"
             for patient, episode, start, end in sorted(rows))
    formats.write_lines(path, TCR_HEADER, lines)


def read_tcr_csv(path, lengths=None) -> dict[tuple[str, int], list[tuple[int, int]]]:
    """Load TCR intervals; returns {(patient_id, episode_id): [(start, end), ...]}.

    Each interval must satisfy 0 <= tcr_start_index < tcr_end_index. Given
    lengths, {(patient_id, episode_id): T} of the CGM input, each row must
    also name one of its episodes and start before that episode's T (an end
    past T is clamped where the interval is used). A row that breaks a rule
    raises ParseError ``<path>: line N: ...``.
    """
    out: dict[tuple[str, int], list[tuple[int, int]]] = {}

    def parse(row):
        try:
            key = (row[0], int(row[1]))
            start, end = int(row[2]), int(row[3])
        except ValueError as exc:
            raise ParseError("bad TCR interval") from exc
        if start < 0:
            raise ParseError(f"tcr_start_index {start} is negative")
        if end <= start:
            raise ParseError(f"tcr_end_index {end} is not after tcr_start_index {start}")
        if lengths is not None:
            if key not in lengths:
                raise ParseError(f"episode {key[0]}/{key[1]} is not in the CGM input")
            if start >= lengths[key]:
                raise ParseError(f"tcr_start_index {start} is not before the end of episode "
                                 f"{key[0]}/{key[1]} (T = {lengths[key]})")
        out.setdefault(key, []).append((start, end))

    formats.read_csv(path, TCR_HEADER, parse)
    return out
