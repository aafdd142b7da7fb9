"""Shared test utilities: episode construction and independent oracles."""

import numpy as np

from regime_bench.core import Episode
from regime_bench.errors import IntegrityError
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
