"""Scoring on the scored indices of the core split (hidden and observed):
pointwise, morphological (DTW), distributional."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import formats
from .core import GLUCOSE_MAX, GLUCOSE_MIN, bits_to_runs, split_mask
from .errors import MetricDomainError, ParseError
from .masks import Mask

HIST_EDGES = np.arange(GLUCOSE_MIN, GLUCOSE_MAX + 5.0, 5.0)  # 5 mg/dL bins over the sensor range

METRIC_FIELDS = ("rmse", "bias", "emp_se", "mard", "dtw")


@dataclass(frozen=True)
class MetricsReport:
    """Per-episode scores over scored indices only."""

    rmse: float
    bias: float
    emp_se: float
    mard: float
    dtw: float
    n_points: int
    n_gaps: int


@dataclass(frozen=True, eq=False)
class CalibrationSummary:
    """Conditional moments and 5 mg/dL histograms of truth vs imputed values."""

    truth_mean: float
    truth_std: float
    imputed_mean: float
    imputed_std: float
    delta: float
    truth_hist: np.ndarray
    imputed_hist: np.ndarray
    n_points: int


def _split_pairs(truth, imputed, mask: Mask):
    """(truth, imputed, scored), observed read from truth: NaN marks a never-observed index."""
    truth = np.asarray(truth, dtype=float)
    imputed = np.asarray(imputed, dtype=float)
    if truth.shape != imputed.shape or truth.shape != (mask.T,):
        raise MetricDomainError("truth, imputed and mask lengths must agree")
    _, scored = split_mask(mask.bits, ~np.isnan(truth))
    return truth, imputed, scored


def _scored_pairs(truth, imputed, mask: Mask):
    truth, imputed, scored = _split_pairs(truth, imputed, mask)
    if not scored.any():
        raise MetricDomainError("mask hides no observed index to score")
    return truth, imputed, scored


def _pointwise(y: np.ndarray, y_hat: np.ndarray) -> tuple[float, float, float, float]:
    if np.any(y <= 0):
        raise MetricDomainError("MARD needs strictly positive truth at masked indices")
    residual = y_hat - y
    bias = float(residual.mean())
    rmse = float(np.sqrt(np.mean(residual**2)))
    emp_se = math.sqrt(max(rmse**2 - bias**2, 0.0))
    mard = float(np.mean(np.abs(residual) / y) * 100.0)
    return rmse, bias, emp_se, mard


def pointwise_metrics(truth, imputed, mask: Mask) -> tuple[float, float, float, float]:
    """(rmse, bias, emp_se, mard) over scored indices.

    emp_se is the population standard deviation of the residuals, recovered
    from the decomposition rmse^2 = bias^2 + emp_se^2.
    """
    truth, imputed, scored = _scored_pairs(truth, imputed, mask)
    return _pointwise(truth[scored], imputed[scored])


def dtw_distance(a, b) -> float:
    """Classic unconstrained DTW with |a_i - b_j| local cost.

    Exact two-row recurrence on Python floats. The predecessor is picked in
    the order min(up, left, diag) picks it, so each cell is the same add of
    the same operands as in the full (n+1, m+1) table, NaN and inf included.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise MetricDomainError("DTW needs two non-empty sequences")
    bs = b.tolist()
    prev = [0.0] + [math.inf] * len(bs)
    for ai in a.tolist():
        row = [math.inf]
        append = row.append
        left = math.inf
        for bj, diag, best in zip(bs, prev, prev[1:]):  # best starts as up
            if left < best:
                best = left
            if diag < best:
                best = diag
            left = abs(ai - bj) + best
            append(left)
        prev = row
    return prev[-1]


def _runs_dtw(truth: np.ndarray, imputed: np.ndarray, runs) -> float:
    total = 0.0
    for start, length in runs:
        total += dtw_distance(truth[start : start + length], imputed[start : start + length])
    return total


def segment_dtw(truth, imputed, mask: Mask) -> float:
    """DTW restricted to each contiguous scored run, summed over runs."""
    truth, imputed, scored = _scored_pairs(truth, imputed, mask)
    return _runs_dtw(truth, imputed, bits_to_runs(~scored))


def score_episode(truth, imputed, mask: Mask) -> MetricsReport:
    truth, imputed, scored = _scored_pairs(truth, imputed, mask)
    rmse, bias, emp_se, mard = _pointwise(truth[scored], imputed[scored])
    runs = bits_to_runs(~scored)
    return MetricsReport(
        rmse=rmse,
        bias=bias,
        emp_se=emp_se,
        mard=mard,
        dtw=_runs_dtw(truth, imputed, runs),
        n_points=int(scored.sum()),
        n_gaps=len(runs),
    )


def score_pairs(pairs, imputation_sets, scenario) -> tuple[list[dict], int, int]:
    """Score each set of imputations on its (episode, mask) pairs and aggregate them.

    imputation_sets yields one list of imputations per method, each aligned
    with pairs, and is consumed one set at a time; scenario is the
    (protocol, condition) of every row. An episode whose mask hides no
    observed sample has nothing to score and is skipped. Returns (rows,
    unmasked, unobserved): the aggregated rows, [] when nothing is scored,
    the number of episodes whose mask hides no sample and the number whose
    masked samples were never observed.
    """
    scored = [split_mask(mask.bits, ep.observed)[1].any() for ep, mask in pairs]
    entries = [((imp.method, *scenario), score_episode(ep.glucose, imp.values, mask))
               for imputations in imputation_sets
               for (ep, mask), imp, score in zip(pairs, imputations, scored) if score]
    hiding = sum(not mask.bits.all() for _, mask in pairs)  # a scored episode hides something
    return aggregate(entries) if entries else [], len(pairs) - hiding, hiding - sum(scored)


def _summarize(y: np.ndarray, y_hat: np.ndarray) -> CalibrationSummary:
    truth_hist = np.histogram(np.clip(y, GLUCOSE_MIN, GLUCOSE_MAX), bins=HIST_EDGES)[0]
    imputed_hist = np.histogram(np.clip(y_hat, GLUCOSE_MIN, GLUCOSE_MAX), bins=HIST_EDGES)[0]
    truth_mean = float(y.mean())
    imputed_mean = float(y_hat.mean())
    return CalibrationSummary(
        truth_mean=truth_mean,
        truth_std=float(y.std()),
        imputed_mean=imputed_mean,
        imputed_std=float(y_hat.std()),
        delta=imputed_mean - truth_mean,
        truth_hist=truth_hist,
        imputed_hist=imputed_hist,
        n_points=int(y.size),
    )


def pooled_calibration(triples, regime_filter=None) -> CalibrationSummary:
    """Conditional calibration over scored indices whose truth is in-regime.

    Scored values are pooled across (truth, imputed, mask) triples; pass one
    triple to summarize a single series. Triples with nothing scored
    contribute nothing. regime_filter maps the truth array to a boolean array.
    """
    ys, yhs = [], []
    for truth, imputed, mask in triples:
        truth, imputed, select = _split_pairs(truth, imputed, mask)
        if not select.any():
            continue
        if regime_filter is not None:
            select &= np.asarray(regime_filter(truth), dtype=bool)
        ys.append(truth[select])
        yhs.append(imputed[select])
    y = np.concatenate(ys) if ys else np.array([])
    y_hat = np.concatenate(yhs) if yhs else np.array([])
    if y.size == 0:
        raise MetricDomainError("no masked indices fall in the requested regime")
    return _summarize(y, y_hat)


# the fields of each calibration.json record after its model and filter
_CALIBRATION_FIELDS = ("n_points", "truth_mean", "truth_std", "imputed_mean", "imputed_std", "delta")


def write_calibration_json(summaries, filter_name: str, path) -> None:
    """Write one record per (model, CalibrationSummary) of summaries, each labelled filter_name."""
    records = [{"model": model, "filter": filter_name,
                **{name: getattr(summary, name) for name in _CALIBRATION_FIELDS}}
               for model, summary in summaries]
    formats.write_json(path, {"summaries": records})


def write_calibration_csv(summary: CalibrationSummary, path) -> None:
    """Write the truth and imputed histograms, one row per HIST_EDGES bin."""
    bins = zip(HIST_EDGES[:-1], HIST_EDGES[1:], summary.truth_hist, summary.imputed_hist)
    formats.write_lines(path, ["bin_left", "bin_right", "truth_count", "imputed_count"],
                        (f"{lo:g},{hi:g},{int(n_t)},{int(n_i)}\r\n" for lo, hi, n_t, n_i in bins))


def _by_scenario(rows: list[dict]) -> dict[tuple, list[dict]]:
    """Rows grouped by (protocol, condition), each group in row order."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["protocol"], row["condition"]), []).append(row)
    return groups


def aggregate(entries) -> list[dict]:
    """Mean metrics per (model, protocol, condition) group with ranking flags.

    entries: iterable of ((model, protocol, condition), MetricsReport).
    Best/second-best flags are computed per (protocol, condition) across
    models; bias is ranked by absolute value.
    """
    groups: dict[tuple, list[MetricsReport]] = {}
    for key, report in entries:
        groups.setdefault(tuple(key), []).append(report)
    if not groups:
        warnings.warn("aggregate called with no reports; table is empty")
        return []
    rows = []
    for key in sorted(groups):
        reports = groups[key]
        model, protocol, condition = key
        row = {
            "model": model,
            "protocol": protocol,
            "condition": condition,
            "n_episodes": len(reports),
        }
        for field in METRIC_FIELDS:
            row[field] = float(np.mean([getattr(r, field) for r in reports]))
        row["best"] = []
        row["second"] = []
        rows.append(row)
    for scenario_rows in _by_scenario(rows).values():
        for field in METRIC_FIELDS:
            ranking = sorted(
                scenario_rows,
                key=lambda r: abs(r[field]) if field == "bias" else r[field],
            )
            if len(ranking) >= 1:
                ranking[0]["best"].append(field)
            if len(ranking) >= 2:
                ranking[1]["second"].append(field)
    return rows


def render_table(rows: list[dict]) -> str:
    """Plain-text table mirroring the (model x metric) results layout.

    '*' marks the best value in a scenario, '+' the second best.
    """
    if not rows:
        return "(no results)\n"
    lines = []
    header = f"{'model':<12}" + "".join(f"{name.upper():>12}" for name in METRIC_FIELDS) + f"{'episodes':>10}"
    for (protocol, condition), scenario_rows in sorted(_by_scenario(rows).items()):
        lines.append(f"protocol={protocol} condition={condition}")
        lines.append(header)
        for row in scenario_rows:
            cells = []
            for field in METRIC_FIELDS:
                flag = "*" if field in row["best"] else "+" if field in row["second"] else " "
                cells.append(f"{flag}{row[field]:>10.2f} ")
            lines.append(f"{row['model']:<12}" + "".join(cells) + f"{row['n_episodes']:>9}")
        lines.append("")
    lines.append("* best, + second best per scenario")
    return "\n".join(lines) + "\n"


# the fields render_table reads from each report group, with their JSON types
_GROUP_FIELDS = {
    "model": str, "protocol": str, "condition": str, "n_episodes": int,
    **dict.fromkeys(METRIC_FIELDS, (int, float)), "best": list, "second": list,
}


def write_report(rows: list[dict], path) -> None:
    """Write aggregate's rows as the groups of a report.json."""
    formats.write_json(path, {"groups": rows})


def read_report(path) -> list[dict]:
    """Load the groups of a report.json; a malformed group raises ParseError naming it."""
    return formats.read_records(path, "groups", _group_record)[1]


def _group_record(rec) -> dict:
    for name, kind in _GROUP_FIELDS.items():
        if name not in rec:
            raise ParseError(f"missing field {name!r}")
        if not isinstance(rec[name], kind) or isinstance(rec[name], bool):
            raise ParseError(f"field {name!r} has type {type(rec[name]).__name__}")
    return rec
