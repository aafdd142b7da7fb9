"""Shared test utilities: episode construction and independent oracles."""

import math

import numpy as np

from regime_bench import metrics
from regime_bench.core import Episode, bits_to_runs
from regime_bench.errors import IntegrityError, MetricDomainError
from regime_bench.protocols import WINDOW_SAMPLES_A, RegimeWindow, StabilityCriteria, gradient


def make_episode(
    glucose,
    start_minute=0,
    carbs=None,
    bolus=None,
    basal=0.0,
    patient_id="p1",
    episode_id=0,
):
    """Episode from a glucose list (NaN = missing) and sparse event dicts."""
    glucose = np.asarray(glucose, dtype=float)
    exog = np.zeros((glucose.size, 3))
    for idx, grams in (carbs or {}).items():
        exog[idx, 0] = grams
    for idx, units in (bolus or {}).items():
        exog[idx, 1] = units
    exog[:, 2] = basal
    observed = (~np.isnan(glucose)).astype(np.uint8)
    return Episode(patient_id, episode_id, start_minute, glucose, exog, observed)


def brute_force_dtw(a, b):
    """Minimal cumulative |a_i - b_j| over explicit enumeration of monotone paths.

    Exponential-time oracle, only usable for short sequences. Kept free of
    dynamic programming so it stays independent of the implementation it
    checks.
    """
    n, m = len(a), len(b)
    best = [float("inf")]

    def walk(i, j, acc):
        acc = acc + abs(a[i] - b[j])
        if i == n - 1 and j == m - 1:
            best[0] = min(best[0], acc)
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def table_dtw(a, b):
    """DTW over the full (n+1, m+1) table with numpy scalars.

    The cell-by-cell loop that dtw_distance replaced; a bit-for-bit oracle,
    NaN and inf included.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n, m = a.size, b.size
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in the kernel
        for i in range(1, n + 1):
            row = acc[i]
            prev = acc[i - 1]
            ai = a[i - 1]
            for j in range(1, m + 1):
                row[j] = abs(ai - b[j - 1]) + min(prev[j], row[j - 1], prev[j - 1])
    return float(acc[n, m])


def loop_stable_windows(episode, criteria=StabilityCriteria()):
    """find_stable_windows as one start at a time; the oracle for the array search."""
    if not episode.fully_observed():
        raise IntegrityError("stable-window detection requires complete glucose")
    g = episode.glucose
    grad = np.abs(gradient(episode))
    events = (episode.exog[:, 0] > 0) | (episode.exog[:, 1] > 0)
    washout = criteria.washout_minutes // 5
    out = []
    for s in range(washout, episode.T - WINDOW_SAMPLES_A + 1):
        e = s + WINDOW_SAMPLES_A
        seg = g[s:e]
        lo, hi = seg.min(), seg.max()
        if lo < criteria.glucose_low or hi > criteria.glucose_high:
            continue
        if np.mean(grad[s:e] < criteria.gradient_threshold) < criteria.gradient_quorum:
            continue
        if events[s:e].any():
            continue
        if events[s - washout : s].any():
            continue
        if hi - lo >= criteria.max_range:
            continue
        out.append(RegimeWindow("A", s, e))
    return out


def _masked_pairs(truth, imputed, mask):
    truth = np.asarray(truth, dtype=float)
    imputed = np.asarray(imputed, dtype=float)
    if truth.shape != imputed.shape or truth.shape != (mask.T,):
        raise MetricDomainError("truth, imputed and mask lengths must agree")
    hidden = mask.bits == 0
    if not hidden.any():
        raise MetricDomainError("mask has no masked indices to score")
    return truth, imputed, hidden


def masked_pairs_score_episode(truth, imputed, mask):
    """score_episode as it was before the core split: every hidden index is scored.

    The oracle for metrics on complete truth, where the split's scored set
    is exactly the hidden bits.
    """
    truth, imputed, hidden = _masked_pairs(truth, imputed, mask)
    y = truth[hidden]
    y_hat = imputed[hidden]
    if np.any(y <= 0):
        raise MetricDomainError("MARD needs strictly positive truth at masked indices")
    residual = y_hat - y
    bias = float(residual.mean())
    rmse = float(np.sqrt(np.mean(residual**2)))
    emp_se = math.sqrt(max(rmse**2 - bias**2, 0.0))
    mard = float(np.mean(np.abs(residual) / y) * 100.0)
    truth, imputed, hidden = _masked_pairs(truth, imputed, mask)
    runs = bits_to_runs(mask.bits)
    dtw = 0.0
    for start, length in runs:
        dtw += metrics.dtw_distance(truth[start : start + length], imputed[start : start + length])
    return metrics.MetricsReport(rmse=rmse, bias=bias, emp_se=emp_se, mard=mard, dtw=dtw,
                                 n_points=int(hidden.sum()), n_gaps=len(runs))


def masked_pairs_pooled_calibration(triples, regime_filter=None):
    """pooled_calibration as it was before the core split; the oracle on complete truth."""
    ys, yhs = [], []
    for truth, imputed, mask in triples:
        if not (mask.bits == 0).any():
            continue
        truth, imputed, hidden = _masked_pairs(truth, imputed, mask)
        select = hidden.copy()
        if regime_filter is not None:
            select &= np.asarray(regime_filter(truth)).astype(bool)
        ys.append(truth[select])
        yhs.append(imputed[select])
    y = np.concatenate(ys) if ys else np.array([])
    y_hat = np.concatenate(yhs) if yhs else np.array([])
    if y.size == 0:
        raise MetricDomainError("no masked indices fall in the requested regime")
    edges = metrics.HIST_EDGES
    truth_mean = float(y.mean())
    imputed_mean = float(y_hat.mean())
    return metrics.CalibrationSummary(
        truth_mean=truth_mean,
        truth_std=float(y.std()),
        imputed_mean=imputed_mean,
        imputed_std=float(y_hat.std()),
        delta=imputed_mean - truth_mean,
        truth_hist=np.histogram(np.clip(y, 20.0, 500.0), bins=edges)[0],
        imputed_hist=np.histogram(np.clip(y_hat, 20.0, 500.0), bins=edges)[0],
        n_points=int(y.size),
    )
