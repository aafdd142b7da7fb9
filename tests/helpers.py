"""Shared test utilities: episode construction and independent oracles."""

import csv
import math

import numpy as np

from regime_bench import metrics
from regime_bench.core import Episode, bits_to_runs, runs_to_bits
from regime_bench.errors import AllocationError, ConvergenceError, IntegrityError, MetricDomainError
from regime_bench.masks import Mask
from regime_bench.missingness import DELTA_MAX, DELTA_MIN_SUSTAINED, make_mixture
from regime_bench.protocols import (
    WINDOW_SAMPLES_A,
    RegimeWindow,
    StabilityCriteria,
    gradient,
    gradient_of,
)
from regime_bench.router import RoutingDecision
from regime_bench.synth import REGIME_NAMES


def scipy_trunc_norm_ppf(u, mu, sigma):
    """masks._trunc_norm_ppf as scipy's ndtr and ndtri compute it; the oracle for the stdlib one."""
    from scipy.special import ndtr, ndtri

    if sigma <= 1e-12:
        return min(max(mu, DELTA_MIN_SUSTAINED), DELTA_MAX)
    lo = ndtr((DELTA_MIN_SUSTAINED - mu) / sigma)
    hi = ndtr((DELTA_MAX - mu) / sigma)
    p = min(max(lo + u * (hi - lo), 1e-15), 1.0 - 1e-15)
    return mu + sigma * float(ndtri(p))


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


def max_disjoint(windows):
    """Largest number of pairwise disjoint windows (earliest end first)."""
    count, cursor = 0, -1
    for w in sorted(windows, key=lambda w: w.end_index):
        if w.start_index >= cursor:
            count += 1
            cursor = w.end_index
    return count


def _pick_then_check(windows, order, needed, T):
    chosen, occupied = [], np.zeros(T, dtype=bool)
    for idx in order:
        w = windows[idx]
        if not occupied[w.start_index : w.end_index].any():
            chosen.append(w)
            occupied[w.start_index : w.end_index] = True
            if len(chosen) == needed:
                break
    return chosen


def max_disjoint_allocate_stationary_mask(episode, windows, ratio, seed):
    """allocate_stationary_mask as it was with a separate capacity count.

    The oracle for the one earliest-end greedy on every target of at least
    one sample; its error names no episode.
    """
    if not 0.0 < ratio < 1.0:
        raise AllocationError(f"ratio must be in (0, 1), got {ratio}")
    T = episode.T
    target = int(np.floor(ratio * T + 0.5))
    n_full, residual = divmod(target, WINDOW_SAMPLES_A)
    needed = n_full + (1 if residual else 0)
    capacity = max_disjoint(windows)
    if capacity < needed:
        achievable = capacity * WINDOW_SAMPLES_A / T
        raise AllocationError(
            f"only {capacity} disjoint stable windows; achievable ratio <= {achievable:.4f}"
        )
    rng = np.random.default_rng(seed)
    chosen = _pick_then_check(windows, rng.permutation(len(windows)), needed, T)
    if len(chosen) < needed:
        order = np.argsort([w.end_index for w in windows], kind="stable")
        chosen = _pick_then_check(windows, order, needed, T)
    runs = [(w.start_index, w.end_index - w.start_index) for w in chosen[:n_full]]
    if residual:
        runs.append((chosen[n_full].start_index, residual))
    return Mask(runs_to_bits(T, runs), seed=seed, provenance="protocol_A"), chosen


def closure_density(theta, centers):
    """The duration-density closure fit_duration_density used to carry; a bitwise oracle."""
    a, k, b, mu, sigma, gamma = theta
    return (
        a * np.exp(-k * (centers - DELTA_MIN_SUSTAINED))
        + b * np.exp(-((centers - mu) ** 2) / (2.0 * sigma**2))
        + gamma
    )


def closure_fit_duration_density(centers, values, max_nfev=20000):
    """fit_duration_density on the closure; the oracle for the fit on the support."""
    from scipy.optimize import least_squares

    centers = np.asarray(centers, dtype=float)
    values = np.asarray(values, dtype=float)
    near_120 = int(np.argmin(np.abs(centers - 120.0)))
    x0 = np.array(
        [values.max(), 0.02, max(values[near_120], 1e-12), 120.0, 20.0, values.min()]
    )
    lb = np.array([0.0, 1e-6, 0.0, DELTA_MIN_SUSTAINED, 1e-6, 0.0])
    ub = np.array([np.inf, 1.0, np.inf, DELTA_MAX, 120.0, np.inf])
    x0 = np.clip(x0, lb, ub)
    result = least_squares(
        lambda th: closure_density(th, centers) - values, x0, bounds=(lb, ub), max_nfev=max_nfev
    )
    if result.status <= 0:
        raise ConvergenceError("duration fit did not converge")
    return make_mixture(*(float(v) for v in result.x))


def loop_classify_gap(episode, gap, criteria=StabilityCriteria(), context_minutes=30):
    """classify_gap as two mirrored sample-by-sample walks; the oracle for the array walk."""
    start, length = gap
    end = start + length
    n_ctx = max(1, context_minutes // 5)
    observed = episode.observed.astype(bool)
    g = episode.glucose

    left = []
    i = start - 1
    while i >= 0 and i >= start - n_ctx and observed[i]:
        left.append(float(g[i]))
        i -= 1
    left.reverse()
    right = []
    i = end
    while i < episode.T and i < end + n_ctx and observed[i]:
        right.append(float(g[i]))
        i += 1

    gradients = []
    for span in (left, right):
        if len(span) >= 2:
            gradients.extend(np.abs(gradient_of(np.array(span))))
    left_boundary = left[-1] if left else None
    right_boundary = right[0] if right else None

    fraction = float(np.mean(np.array(gradients) < criteria.gradient_threshold)) if gradients else 0.0
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


def csv_writer_export_csv(episodes, path):
    """export_csv as one csv.writer row per sample; the byte oracle for the line writer."""
    rows = (
        [ep.patient_id, ep.minute_at(t), "" if math.isnan(g) else repr(float(g)),
         *(repr(float(v)) for v in ep.exog[t])]
        for ep in sorted(episodes, key=lambda e: (e.patient_id, e.episode_id))
        for t, g in enumerate(ep.glucose)
    )
    _csv_writer_rows(path, ["patient_id", "timestamp", "glucose", "carbs", "bolus", "basal"], rows)


def csv_writer_write_imputations_csv(imputations, path):
    """write_imputations_csv as one csv.writer row per value; the byte oracle."""
    rows = (
        [*imp.episode_ref, t, repr(float(value)), imp.method]
        for imp in sorted(imputations, key=lambda i: i.episode_ref)
        for t, value in enumerate(imp.values)
    )
    _csv_writer_rows(path, ["patient_id", "episode_id", "t", "value", "method"], rows)


def csv_writer_write_labels_csv(result, path):
    """write_labels_csv as one csv.writer row per sample; the byte oracle."""
    rows = (
        [episode_id, t, REGIME_NAMES[code]]
        for episode_id in sorted(result.labels)
        for t, code in enumerate(result.labels[episode_id])
    )
    _csv_writer_rows(path, ["episode_id", "t", "regime"], rows)


def csv_writer_write_tcr_csv(rows, path):
    """write_tcr_csv as one csv.writer row per interval; the byte oracle."""
    header = ["patient_id", "episode_id", "tcr_start_index", "tcr_end_index"]
    _csv_writer_rows(path, header, sorted(rows))


def csv_writer_export_inputs(inputs, path):
    """export_inputs of build_inputs' (T, 6) array as csv.writer rows; the byte oracle."""
    rows = ([t, *map(repr, row)] for t, row in enumerate(inputs.tolist()))
    header = ["t", "masked_glucose", "carbs", "bolus", "basal", "sin_t", "cos_t"]
    _csv_writer_rows(path, header, rows)


def csv_writer_calibration_histogram(summary, path):
    """calibrate's calibration_<model>.csv for a pooled summary as csv.writer rows; the oracle."""
    edges = metrics.HIST_EDGES
    bins = zip(edges[:-1], edges[1:], summary.truth_hist, summary.imputed_hist)
    rows = ([f"{lo:g}", f"{hi:g}", int(n_t), int(n_i)] for lo, hi, n_t, n_i in bins)
    _csv_writer_rows(path, ["bin_left", "bin_right", "truth_count", "imputed_count"], rows)


def _csv_writer_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
