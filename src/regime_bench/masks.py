"""Generative masking: sample the fitted gap process over a fully observed series."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import formats
from .core import Episode, bits_to_runs, runs_to_bits, split_mask
from .errors import DimensionError, IntegrityError, ParseError
from .missingness import (
    DELTA_MAX,
    DELTA_MIN_SUSTAINED,
    DurationMixture,
    MissingnessModel,
    regime_of_hour,
)

PROVENANCES = ("empirical", "protocol_A", "protocol_B", "protocol_C")


@dataclass(frozen=True)
class GapDraw:
    """One onset event produced while walking the generative process."""

    t_start: int
    hour: int
    regime: str
    kind: str  # "short" | "sustained"
    minutes: int


@dataclass(frozen=True, eq=False)
class Mask:
    """Binary retention vector (1 = retained, 0 = masked)."""

    bits: np.ndarray
    seed: int = 0
    provenance: str = "empirical"
    events: tuple[GapDraw, ...] = field(default=(), repr=False)

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.size < 1:
            raise DimensionError("mask bits must be a 1-D vector with T >= 1")
        if self.provenance not in PROVENANCES:
            raise DimensionError(f"unknown provenance {self.provenance!r}")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    @property
    def T(self) -> int:
        return self.bits.size


def round5(x: float) -> int:
    """Nearest multiple of 5, half-up."""
    return int(math.floor(x / 5.0 + 0.5)) * 5


def derive_seed(master_seed: int, patient_id: str, episode_id: int) -> int:
    """Stable per-episode stream seed, independent of execution order."""
    # only the commands that derive seeds load it; under cli it computes SHA-256 with
    # CPython's built-in module, not OpenSSL's, and the digest is the same
    import hashlib

    digest = hashlib.sha256(f"{master_seed}:{patient_id}:{episode_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _trunc_exp_ppf(u: float, k: float) -> float:
    span = DELTA_MAX - DELTA_MIN_SUSTAINED
    c = -math.expm1(-k * span)
    return DELTA_MIN_SUSTAINED - math.log1p(-u * c) / k


def _ndtr(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _trunc_norm_ppf(u: float, mu: float, sigma: float) -> float:
    """Quantile u of N(mu, sigma) truncated to [10, 240], from the standard library.

    It differs from scipy's ndtr/ndtri in the last bits only; sample_duration
    rounds to the 5-minute grid, and tests pin the rounded durations to the
    scipy formula.
    """
    from statistics import NormalDist  # loaded only when a Gaussian duration is drawn

    if sigma <= 1e-12:
        return min(max(mu, DELTA_MIN_SUSTAINED), DELTA_MAX)
    lo = _ndtr((DELTA_MIN_SUSTAINED - mu) / sigma)
    hi = _ndtr((DELTA_MAX - mu) / sigma)
    p = min(max(lo + u * (hi - lo), 1e-15), 1.0 - 1e-15)
    return mu + sigma * NormalDist().inv_cdf(p)


def sample_duration(model: MissingnessModel, regime: str, rng) -> int:
    """Draw one sustained-gap duration in minutes (grid-aligned, in [10, 240]) from a numpy Generator."""
    mix = model.regime_model(regime).mixture
    u = rng.random()
    v = rng.random()
    if u < mix.w_exp:
        x = _trunc_exp_ppf(v, mix.k)
    elif u < mix.w_exp + mix.w_gauss:
        x = _trunc_norm_ppf(v, mix.mu, mix.sigma)
    else:
        x = DELTA_MIN_SUSTAINED + (DELTA_MAX - DELTA_MIN_SUSTAINED) * v
    return min(max(round5(x), DELTA_MIN_SUSTAINED), DELTA_MAX)


def sampled_duration_pmf(mixture: DurationMixture) -> tuple[np.ndarray, np.ndarray]:
    """Exact distribution of sample_duration's output on the 5-min grid.

    Accounts for the round-to-grid step, so it is the right reference for
    goodness-of-fit checks against generated durations.
    """
    grid = np.arange(DELTA_MIN_SUSTAINED, DELTA_MAX + 1, 5)
    upper = mixture.cdf(grid + 2.5)
    lower = mixture.cdf(grid - 2.5)
    probs = upper - lower
    probs[0] = upper[0]  # everything below 12.5 rounds to 10
    probs[-1] = 1.0 - lower[-1]
    return grid, probs


def generate_mask(T: int, start_time_of_day: int, model: MissingnessModel, seed: int) -> Mask:
    """Walk the hourly Bernoulli onset process and carve gaps (Algorithm-1 style).

    Hours consumed by a gap are skipped; the walk resumes at the first index
    after the gap. The onset index is uniform over the tested hour's grid
    indices that fall inside [0, T).
    """
    if T < 1:
        raise DimensionError("mask length must be >= 1")
    rng = np.random.default_rng(seed)
    onset = model.onset_prob
    runs, events = [], []
    t = 0
    while t < T:
        minute = start_time_of_day + 5 * t
        hour = (minute % 1440) // 60
        boundary = (minute // 60 + 1) * 60
        t_next = t + (boundary - minute + 4) // 5
        if rng.random() < onset[hour]:
            regime = regime_of_hour(hour)
            rm = model.regime_model(regime)
            if rng.random() < rm.pi_short:
                kind, delta = "short", 5
            else:
                kind, delta = "sustained", sample_duration(model, regime, rng)
            length = -(-delta // 5)
            t_start = int(rng.integers(t, min(t_next, T)))
            runs.append((t_start, min(length, T - t_start)))
            events.append(GapDraw(t_start, int(hour), regime, kind, delta))
            t = t_start + length
        else:
            t = t_next
    bits = runs_to_bits(T, runs)
    return Mask(bits, seed=int(seed), provenance="empirical", events=tuple(events))


def sample_masks(episodes, model: MissingnessModel, master_seed: int) -> list[Mask]:
    """One generated mask per episode, each seeded by derive_seed from master_seed."""
    return [
        generate_mask(ep.T, ep.start_time_of_day, model,
                      derive_seed(master_seed, ep.patient_id, ep.episode_id))
        for ep in episodes
    ]


def masked_view(episode: Episode, retained: np.ndarray) -> Episode:
    """The episode as a mask shows it: observed is the retained set, glucose NaN off it."""
    glucose = np.where(retained, episode.glucose, np.nan)
    return Episode(episode.patient_id, episode.episode_id, episode.start_minute, glucose,
                   episode.exog, retained)


def retained_by(episode: Episode, mask: Mask) -> np.ndarray:
    """The indices the mask retains, as booleans, once the mask is checked against the truth.

    The mask must pair with the episode (core.split_mask) and hide only
    observed indices, so that every index is retained or scored.
    """
    retained, scored = split_mask(mask.bits, episode.observed)
    if not np.all(retained | scored):  # an index in neither set was never observed
        raise IntegrityError("mask hides indices that were never observed")
    return retained


def apply_mask(episode: Episode, mask: Mask) -> Episode:
    """Hide glucose where the mask is 0; the original episode keeps ground truth."""
    return masked_view(episode, retained_by(episode, mask))


def write_masks_json(entries, path, provenance: str = "empirical", condition: str | None = None):
    """Serialize masks as run-length encoded JSON.

    entries: iterable of (patient_id, episode_id, Mask).
    """
    records = [
        {
            "patient_id": patient_id,
            "episode_id": episode_id,
            "T": mask.T,
            "seed": mask.seed,
            "provenance": mask.provenance,
            "gaps": [{"start_index": s, "length_samples": n} for s, n in bits_to_runs(mask.bits)],
        }
        for patient_id, episode_id, mask in sorted(entries, key=lambda e: (e[0], e[1]))
    ]
    doc = {"provenance": provenance, "masks": records}
    if condition is not None:
        doc["condition"] = condition
    formats.write_json(path, doc)


def _mask_record(rec) -> tuple[tuple[str, int], Mask]:
    patient = formats.record_field(rec, "patient_id", str)
    key = (patient, formats.record_field(rec, "episode_id", int))
    T = rec["T"]
    gaps = formats.record_field(rec, "gaps", list)
    for j, gap in enumerate(gaps):
        if not isinstance(gap, dict):
            raise ParseError(f"gaps[{j}]: expected an object, got {type(gap).__name__}")
    runs = [(g["start_index"], g["length_samples"]) for g in gaps]
    if any(type(v) is not int for v in [T, *(x for run in runs for x in run)]) or T < 1:
        raise ParseError("T, start_index and length_samples must be integers, with T >= 1")
    seed = formats.record_field(rec, "seed", int) if "seed" in rec else 0
    bits = runs_to_bits(T, runs)
    return key, Mask(bits, seed=seed, provenance=rec.get("provenance", "empirical"))


def read_masks_json(path):
    """Load masks; returns (metadata, {(patient_id, episode_id): Mask}).

    A malformed or duplicated record raises ParseError naming the file and
    the record's position in the ``masks`` list; so does a ``provenance`` or
    ``condition`` label that is not a string, naming the field, a
    ``provenance`` outside PROVENANCES, and a record whose ``provenance``
    differs from the document's (each defaults to ``empirical``).
    """
    meta, records = formats.read_records(path, "masks", _mask_record, ("provenance", "condition"))
    provenance = meta.get("provenance", "empirical")
    if provenance not in PROVENANCES:
        raise ParseError(f"{path}: unknown provenance {provenance!r}")
    masks = {}
    for i, (key, mask) in enumerate(records):
        if mask.provenance != provenance:
            raise ParseError(f"{path}: masks[{i}]: provenance {mask.provenance!r} does not "
                             f"match the document's {provenance!r}")
        if key in masks:
            raise ParseError(f"{path}: masks[{i}]: duplicate record for {key[0]}/{key[1]}")
        masks[key] = mask
    return meta, masks
