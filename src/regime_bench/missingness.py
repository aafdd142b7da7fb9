"""Empirical missingness process: valid days, gap stats, duration mixture fit.

The gap process has three estimated parts: an hourly Bernoulli onset
probability, a per-regime probability of a single-point (5 min) dropout,
and a per-regime duration mixture (shifted exponential + truncated
Gaussian + uniform floor) for sustained gaps of 10-240 minutes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import formats
from .core import SAMPLES_PER_DAY, Episode, bits_to_runs
from .errors import ConvergenceError, EstimationError, FitError

DELTA_MAX = 240
DELTA_MIN_SUSTAINED = 10
VALID_DAY_FRACTION = 0.50
NIGHT_HOURS = range(0, 6)

# 5-min histogram bin centers spanning the sustained-gap support
BIN_CENTERS = np.arange(DELTA_MIN_SUSTAINED, DELTA_MAX + 1, 5, dtype=float)


@dataclass(frozen=True)
class GapEvent:
    """One maximal missing run, attributed to its start day and hour."""

    patient_id: str
    day: int
    start_hour: int
    start_index: int
    duration: int  # minutes


@dataclass(frozen=True)
class DurationMixture:
    """Fitted sustained-gap duration model and its normalized component weights."""

    A: float
    k: float
    B: float
    mu: float
    sigma: float
    gamma: float
    w_exp: float
    w_gauss: float
    w_unif: float

    def density(self, delta):
        """Unnormalized fitted density on the sustained support."""
        delta = np.asarray(delta, dtype=float)
        inside = (delta >= DELTA_MIN_SUSTAINED) & (delta <= DELTA_MAX)
        gauss = self.B * np.exp(-((delta - self.mu) ** 2) / (2.0 * self.sigma**2))
        return (
            self.A * np.exp(-self.k * (delta - DELTA_MIN_SUSTAINED))
            + gauss
            + self.gamma * inside
        )

    def component_masses(self) -> tuple[float, float, float]:
        """Closed-form integrals of each component over [10, 240]."""
        from .lsq import ndtr  # loaded only where it is called

        span = DELTA_MAX - DELTA_MIN_SUSTAINED
        m_exp = self.A * (1.0 - math.exp(-self.k * span)) / self.k
        lo = (DELTA_MIN_SUSTAINED - self.mu) / self.sigma
        hi = (DELTA_MAX - self.mu) / self.sigma
        m_gauss = self.B * self.sigma * math.sqrt(2.0 * math.pi) * (ndtr(hi) - ndtr(lo))
        m_unif = self.gamma * span
        return m_exp, m_gauss, m_unif

    def cdf(self, x):
        """CDF of the normalized sustained-duration distribution on [10, 240]."""
        from .lsq import ndtr

        x = np.clip(np.asarray(x, dtype=float), DELTA_MIN_SUSTAINED, DELTA_MAX)
        span = DELTA_MAX - DELTA_MIN_SUSTAINED
        f_exp = -np.expm1(-self.k * (x - DELTA_MIN_SUSTAINED))
        f_exp /= -math.expm1(-self.k * span)
        lo = (DELTA_MIN_SUSTAINED - self.mu) / self.sigma
        hi = (DELTA_MAX - self.mu) / self.sigma
        denom = ndtr(hi) - ndtr(lo)
        if denom <= 0.0:  # sigma collapsed onto a point mass
            f_gauss = (x >= self.mu).astype(float)
        else:
            f_gauss = (ndtr((x - self.mu) / self.sigma) - ndtr(lo)) / denom
        f_unif = (x - DELTA_MIN_SUSTAINED) / span
        return self.w_exp * f_exp + self.w_gauss * f_gauss + self.w_unif * f_unif


@dataclass(frozen=True)
class RegimeModel:
    pi_short: float
    mixture: DurationMixture


@dataclass(frozen=True)
class MissingnessModel:
    """Fitted stochastic gap process (onsets + per-regime duration models)."""

    onset_prob: tuple[float, ...]
    day: RegimeModel
    night: RegimeModel

    def __post_init__(self):
        if len(self.onset_prob) != 24:
            raise EstimationError("onset_prob must have 24 entries")
        if any(p < 0.0 or p > 1.0 for p in self.onset_prob):
            raise EstimationError("onset probabilities must lie in [0, 1]")

    def regime_model(self, regime: str) -> RegimeModel:
        return self.night if regime == "night" else self.day


def regime_of_hour(hour: int) -> str:
    return "night" if hour in NIGHT_HOURS else "day"


def valid_days(episodes: list[Episode]) -> set[tuple[str, int]]:
    """Days with at least half of the 288 expected samples observed."""
    counts: dict[tuple[str, int], int] = {}
    for ep in episodes:
        days = (ep.start_minute + 5 * np.flatnonzero(ep.observed)) // 1440
        for day, n in zip(*np.unique(days, return_counts=True)):
            key = (ep.patient_id, int(day))
            counts[key] = counts.get(key, 0) + int(n)
    threshold = VALID_DAY_FRACTION * SAMPLES_PER_DAY
    return {key for key, n in counts.items() if n >= threshold}


def extract_gaps(episodes: list[Episode], valid: set[tuple[str, int]]) -> list[GapEvent]:
    """Maximal missing runs whose start falls on a valid day."""
    gaps = []
    for ep in episodes:
        for s, n in bits_to_runs(ep.observed):
            day = ep.day_at(s)
            if (ep.patient_id, day) in valid:
                gaps.append(GapEvent(ep.patient_id, day, ep.hour_at(s), s, n * 5))
    return gaps


def onset_probabilities(gaps: list[GapEvent], valid: set[tuple[str, int]]) -> np.ndarray:
    """Per-hour fraction of valid days on which at least one gap begins."""
    if not valid:
        raise EstimationError("cannot estimate onset probabilities without valid days")
    days_with_onset: list[set[tuple[str, int]]] = [set() for _ in range(24)]
    for gap in gaps:
        days_with_onset[gap.start_hour].add((gap.patient_id, gap.day))
    return np.array([len(d) / len(valid) for d in days_with_onset])


def _regime_gaps(gaps: list[GapEvent], regime: str) -> list[GapEvent]:
    return [g for g in gaps if regime_of_hour(g.start_hour) == regime]


def short_gap_probability(gaps: list[GapEvent], regime: str) -> float:
    """Fraction of the regime's gaps that are single-point (5 min) dropouts."""
    selected = _regime_gaps(gaps, regime)
    if not selected:
        raise EstimationError(f"no gaps start in the {regime} regime")
    return sum(1 for g in selected if g.duration == 5) / len(selected)


def duration_histogram(durations) -> np.ndarray:
    """Unit-mass histogram of sustained durations on the 5-min bin centers."""
    durations = np.asarray(durations)
    idx = (durations - DELTA_MIN_SUSTAINED) // 5
    counts = np.bincount(idx.astype(int), minlength=BIN_CENTERS.size).astype(float)
    return counts / counts.sum()


def make_mixture(
    A: float, k: float, B: float, mu: float, sigma: float, gamma: float
) -> DurationMixture:
    """Assemble a DurationMixture from raw density parameters, deriving weights."""
    partial = DurationMixture(A, k, B, mu, sigma, gamma, 0.0, 0.0, 0.0)
    masses = partial.component_masses()
    total = sum(masses)
    if total <= 0.0:
        raise FitError("duration density has zero total mass on [10, 240]")
    return DurationMixture(A, k, B, mu, sigma, gamma, *(m / total for m in masses))


def fit_duration_density(centers: np.ndarray, values: np.ndarray) -> DurationMixture:
    """Bounded nonlinear least squares for the three-component duration density.

    The fitted curve is ``DurationMixture.density``, so centers belong on the
    sustained support [10, 240], where its uniform floor applies.
    """
    from .lsq import least_squares

    centers = np.asarray(centers, dtype=float)
    values = np.asarray(values, dtype=float)
    if centers.shape != values.shape or centers.size == 0:
        raise FitError("centers and values must be aligned, non-empty vectors")

    near_120 = int(np.argmin(np.abs(centers - 120.0)))
    x0 = np.array(
        [values.max(), 0.02, max(values[near_120], 1e-12), 120.0, 20.0, values.min()]
    )
    lb = np.array([0.0, 1e-6, 0.0, DELTA_MIN_SUSTAINED, 1e-6, 0.0])
    ub = np.array([np.inf, 1.0, np.inf, DELTA_MAX, 120.0, np.inf])
    x0 = np.clip(x0, lb, ub)
    x, residuals, status = least_squares(
        lambda th: DurationMixture(*th, 0.0, 0.0, 0.0).density(centers) - values,
        x0, lb, ub, max_nfev=20000,
    )
    if status <= 0:
        raise ConvergenceError(
            f"duration fit did not converge (residual norm {np.linalg.norm(residuals):.3e})"
        )
    return make_mixture(*(float(v) for v in x))


def fit_mixture(gaps: list[GapEvent], regime: str, min_gaps: int = 30) -> DurationMixture:
    """Fit the sustained-gap duration mixture for one regime, from at least max(min_gaps, 1) gaps.

    Durations above the 240-min cap are excluded; the empirical histogram is
    normalized to unit mass before fitting, so A, B and gamma carry
    per-5-min-bin mass units (the weights are invariant to that scale).
    """
    durations = [
        g.duration
        for g in _regime_gaps(gaps, regime)
        if DELTA_MIN_SUSTAINED <= g.duration <= DELTA_MAX
    ]
    need = max(min_gaps, 1)  # an empty histogram has nothing to fit
    if len(durations) < need:
        raise FitError(f"{regime} regime has {len(durations)} sustained gaps, need >= {need}")
    return fit_duration_density(BIN_CENTERS, duration_histogram(durations))


def fit_onsets(episodes: list[Episode]) -> tuple[list[GapEvent], np.ndarray]:
    """Valid days -> gaps -> hourly onset probabilities; returns (gaps, onset)."""
    valid = valid_days(episodes)
    gaps = extract_gaps(episodes, valid)
    return gaps, onset_probabilities(gaps, valid)


def fit_regimes(gaps: list[GapEvent], onset, min_gaps: int = 30) -> MissingnessModel:
    """Per-regime short-dropout probability and duration mixture, joined with the onsets."""
    regimes = {
        regime: RegimeModel(
            pi_short=short_gap_probability(gaps, regime),
            mixture=fit_mixture(gaps, regime, min_gaps=min_gaps),
        )
        for regime in ("day", "night")
    }
    return MissingnessModel(tuple(float(p) for p in onset), regimes["day"], regimes["night"])


def fit_model(episodes: list[Episode], min_gaps: int = 30) -> MissingnessModel:
    """Full estimation pipeline: valid days -> gaps -> onsets + per-regime models."""
    gaps, onset = fit_onsets(episodes)
    return fit_regimes(gaps, onset, min_gaps)


_MODEL_FIELDS = ("onset_prob", "day", "night")
_MIXTURE_FIELDS = tuple(f.name for f in fields(DurationMixture))
_REGIME_FIELDS = ("pi_short", *_MIXTURE_FIELDS)


def _regime_to_dict(rm: RegimeModel) -> dict:
    return {"pi_short": rm.pi_short, **asdict(rm.mixture)}


# what the duration sampler needs: it divides by k and sigma and picks a component by weight
_REGIME_RULES = {
    "pi_short": ("lie in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "k": ("be positive", lambda v: v > 0.0),
    "sigma": ("be positive", lambda v: v > 0.0),
    **dict.fromkeys(("w_exp", "w_gauss", "w_unif"), ("be non-negative", lambda v: v >= 0.0)),
}


def _number(value, field: str) -> float:
    """A finite JSON number as a float; anything else, a bool included, raises EstimationError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise EstimationError(f"{field} must be a finite number, got {value!r}")
    return float(value)


def _regime_from_dict(d: dict, regime: str) -> RegimeModel:
    missing = [f for f in _REGIME_FIELDS if f not in d]
    if missing:
        raise EstimationError(f"regime record is missing fields: {missing}")
    values = {name: _number(d[name], f"{regime}.{name}") for name in _REGIME_FIELDS}
    for name, (rule, ok) in _REGIME_RULES.items():
        if not ok(values[name]):
            raise EstimationError(f"{regime}.{name} must {rule}, got {d[name]!r}")
    return RegimeModel(values.pop("pi_short"), DurationMixture(**values))


def model_to_dict(model: MissingnessModel) -> dict:
    return {
        "schema_version": formats.SCHEMA_VERSION,
        "delta_max": DELTA_MAX,
        "onset_prob": list(model.onset_prob),
        "day": _regime_to_dict(model.day),
        "night": _regime_to_dict(model.night),
    }


def model_from_dict(data: dict) -> MissingnessModel:
    """Build a model from its JSON fields; the envelope is checked by ``load_model``.

    Every field is a finite number, never a bool; ``pi_short`` lies in
    [0, 1], ``k`` and ``sigma`` are positive and the weights non-negative.
    Each failure raises EstimationError naming the field, e.g. ``day.k``.
    """
    missing = [f for f in _MODEL_FIELDS if f not in data]
    if missing:
        raise EstimationError(f"model is missing fields: {missing}")
    if data.get("delta_max", DELTA_MAX) != DELTA_MAX:
        # sample_duration caps every gap at DELTA_MAX; another cap would be ignored
        raise EstimationError(f"delta_max must be {DELTA_MAX}, got {data['delta_max']!r}")
    return MissingnessModel(
        onset_prob=tuple(_number(p, f"onset_prob[{i}]") for i, p in enumerate(data["onset_prob"])),
        day=_regime_from_dict(data["day"], "day"),
        night=_regime_from_dict(data["night"], "night"),
    )


def save_model(model: MissingnessModel, path) -> None:
    formats.write_json(path, model_to_dict(model))


def load_model(path) -> MissingnessModel:
    doc = formats.read_json(path, error=EstimationError)
    try:
        return model_from_dict(doc)
    except EstimationError as exc:
        raise EstimationError(f"{path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise EstimationError(f"{path}: malformed model field: {exc}") from exc
