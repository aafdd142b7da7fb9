"""Regime-conditional routing: send each masked gap to Lerp or the external model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formats
from .core import Episode, bits_to_runs, split_mask
from .errors import ConfigError, DimensionError, RoutingError
from .imputers import Imputation, impute_lerp
from .masks import Mask, masked_view
from .protocols import StabilityCriteria, gradient_of


@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of classifying one masked gap from its observed context."""

    start_index: int
    length: int
    label: str  # "stationary" | "transient"
    gradient_fraction: float
    left_boundary: float | None
    right_boundary: float | None


def _context(episode: Episode, outward: np.ndarray) -> np.ndarray:
    """Glucose along ``outward``, indices ordered away from a gap, up to the first unobserved one."""
    kept = episode.observed[outward] != 0
    return episode.glucose[outward[: kept.size if kept.all() else int(kept.argmin())]]


def check_context_minutes(context_minutes: int) -> None:
    """Raise DimensionError unless context_minutes >= 0."""
    if context_minutes < 0:
        raise DimensionError(f"context_minutes must be >= 0, got {context_minutes}")


def check_gradient_threshold(gradient_threshold: float) -> None:
    """Raise ConfigError unless gradient_threshold >= 0; NaN is not."""
    if not gradient_threshold >= 0:
        raise ConfigError(f"gradient_threshold must be >= 0, got {gradient_threshold!r}")


def classify_gap(
    episode: Episode,
    gap: tuple[int, int],
    criteria: StabilityCriteria = StabilityCriteria(),
    context_minutes: int = 30,
) -> RoutingDecision:
    """Label a gap stationary iff its observed context is flat and euglycemic.

    Only retained samples within context_minutes on each side are consulted;
    gradients never bridge the gap itself. With no usable context the gap is
    conservatively transient.
    """
    check_context_minutes(context_minutes)
    check_gradient_threshold(criteria.gradient_threshold)
    start, length = gap
    end = start + length
    n_ctx = max(1, context_minutes // 5)
    left = _context(episode, np.arange(start - 1, max(start - n_ctx, 0) - 1, -1))[::-1]
    right = _context(episode, np.arange(end, min(end + n_ctx, episode.T)))
    gradients = [np.abs(gradient_of(span)) for span in (left, right) if span.size >= 2]
    left_boundary = float(left[-1]) if left.size else None
    right_boundary = float(right[0]) if right.size else None

    fraction = (
        float(np.mean(np.concatenate(gradients) < criteria.gradient_threshold)) if gradients else 0.0
    )
    boundaries = [b for b in (left_boundary, right_boundary) if b is not None]
    euglycemic = bool(boundaries) and all(
        criteria.glucose_low <= b <= criteria.glucose_high for b in boundaries
    )
    stationary = bool(gradients) and fraction >= criteria.gradient_quorum and euglycemic
    return RoutingDecision(
        start_index=start,
        length=length,
        label="stationary" if stationary else "transient",
        gradient_fraction=fraction,
        left_boundary=left_boundary,
        right_boundary=right_boundary,
    )


def adaptive_impute(
    episode: Episode,
    mask: Mask,
    external: Imputation | None = None,
    criteria: StabilityCriteria = StabilityCriteria(),
    context_minutes: int = 30,
) -> tuple[Imputation, list[RoutingDecision]]:
    """Splice per-gap fills: Lerp for stationary gaps, external for transient ones.

    Each gap is classified on the pair's retained samples only, so truth may
    itself be gapped: an index the truth never observed may be hidden too.
    """
    gapped = masked_view(episode, split_mask(mask.bits, episode.observed)[0])
    runs = bits_to_runs(mask.bits)
    values = episode.glucose.copy()
    lerp_fill = None
    decisions = []
    for start, length in runs:
        decision = classify_gap(gapped, (start, length), criteria, context_minutes)
        decisions.append(decision)
        if decision.label == "stationary":
            if lerp_fill is None:
                lerp_fill = impute_lerp(episode, mask)
            values[start : start + length] = lerp_fill.values[start : start + length]
        else:
            if external is None:
                raise RoutingError(
                    f"transient gap at index {start} (length {length}) has no external source"
                )
            values[start : start + length] = external.values[start : start + length]
    imputation = Imputation(values, "adaptive", (episode.patient_id, episode.episode_id))
    return imputation, decisions


def routing_summary(decisions: list[RoutingDecision]) -> dict:
    n = len(decisions)
    stationary = sum(1 for d in decisions if d.label == "stationary")
    return {
        "n_gaps": n,
        "stationary_fraction": stationary / n if n else 0.0,
        "transient_fraction": (n - stationary) / n if n else 0.0,
    }


def write_routing_json(entries, path) -> None:
    """entries: iterable of (patient_id, episode_id, RoutingDecision)."""
    entries = sorted(entries, key=lambda e: (e[0], e[1], e[2].start_index))
    decisions = [
        {
            "patient_id": patient_id,
            "episode_id": episode_id,
            "start_index": d.start_index,
            "length_samples": d.length,
            "label": d.label,
            "gradient_fraction": d.gradient_fraction,
            "left_boundary": d.left_boundary,
            "right_boundary": d.right_boundary,
        }
        for patient_id, episode_id, d in entries
    ]
    formats.write_json(
        path, {"summary": routing_summary([d for _, _, d in entries]), "decisions": decisions}
    )
