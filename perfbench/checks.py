"""Correctness gate: readers for the program's files and independent re-computations.

Standard library only. Every check is one operation in the benchmark's
`attempted` count; a check that does not hold is one `failed`.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
from pathlib import Path

# Report numbers are recomputed here and compared at this relative/absolute
# tolerance: wide enough for reassociated floating-point sums (~1e-12),
# far below any real change of a metric.
REL_TOL = 1e-7
ABS_TOL = 1e-7
RETAINED_TOL = 1e-6
METRIC_FIELDS = ("rmse", "bias", "emp_se", "mard", "dtw")
HIST_EDGES = [20.0 + 5.0 * i for i in range(97)]
CAL_FILTERS = {"all": lambda y: True, "below-70": lambda y: y < 70.0}


class Gate:
    """Counts checks attempted and failed; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def run(self, name: str, fn, *args) -> None:
        """Run a check function that raises on a malformed or missing file."""
        try:
            fn(self, *args)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.check(name, False, f"{type(exc).__name__}: {exc}")


# ------------------------------------------------------------------ readers
def read_cgm(path, partition_gap: int = 240) -> dict:
    """Complete truth CSV -> {(patient_id, episode_id): [glucose, ...]}."""
    out: dict = {}
    last: dict = {}
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            patient, minute, glucose = row[0], int(row[1]), float(row[2])
            if patient not in last or minute - last[patient][0] > partition_gap:
                ep = last[patient][1] + 1 if patient in last else 0
                out[(patient, ep)] = []
            else:
                ep = last[patient][1]
            last[patient] = (minute, ep)
            out[(patient, ep)].append(glucose)
    return out


def read_masks(path):
    """-> (metadata, {(patient_id, episode_id): (T, [(start, length), ...])})."""
    doc = json.loads(Path(path).read_text())
    masks = {}
    for rec in doc["masks"]:
        key = (rec["patient_id"], rec["episode_id"])
        if key in masks:
            raise ValueError(f"duplicate mask record {key}")
        masks[key] = (rec["T"], [(g["start_index"], g["length_samples"]) for g in rec["gaps"]])
    return {k: v for k, v in doc.items() if k != "masks"}, masks


def hidden_indices(mask) -> set:
    return {t for start, length in mask[1] for t in range(start, start + length)}


def read_imputed(path):
    """-> (method, {(patient_id, episode_id): [value by t]})."""
    series: dict = {}
    methods = set()
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            key = (row[0], int(row[1]))
            values = series.setdefault(key, [])
            if int(row[2]) != len(values):
                raise ValueError(f"{path}: rows of {key} out of order at t={row[2]}")
            values.append(float(row[3]))
            methods.add(row[4])
    if len(methods) != 1:
        raise ValueError(f"{path}: expected one method, found {sorted(methods)}")
    return methods.pop(), series


def read_tcr(path) -> dict:
    out: dict = {}
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            out.setdefault((row[0], int(row[1])), []).append((int(row[2]), int(row[3])))
    return out


def tree_digest(root: Path) -> dict:
    """{relative path: sha256} of every file under root."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def same_outputs(gate: Gate, digest: dict, reference: dict, label: str) -> None:
    """Deterministic outputs must be byte-identical to the run's first repetition."""
    differ = sorted(n for n in set(digest) | set(reference) if digest.get(n) != reference.get(n))
    gate.check("outputs.byte_identical", not differ, f"{label} differs in {differ[:5]}")


# ----------------------------------------------------------------- oracles
def dtw(a, b) -> float:
    """Classic unconstrained DTW with |a_i - b_j| cost, two-row dynamic programme."""
    inf = math.inf
    prev = [0.0] + [inf] * len(b)
    for ai in a:
        row = [inf]
        for j, bj in enumerate(b, start=1):
            row.append(abs(ai - bj) + min(prev[j], row[j - 1], prev[j - 1]))
        prev = row
    return prev[-1]


def _mean(values) -> float:
    return math.fsum(values) / len(values)


def episode_scores(truth, imputed, mask) -> dict:
    hidden = sorted(hidden_indices(mask))
    resid = [imputed[t] - truth[t] for t in hidden]
    bias = _mean(resid)
    rmse = math.sqrt(_mean([r * r for r in resid]))
    return {
        "rmse": rmse,
        "bias": bias,
        "emp_se": math.sqrt(max(rmse * rmse - bias * bias, 0.0)),
        "mard": _mean([abs(r) / truth[t] for r, t in zip(resid, hidden)]) * 100.0,
        "dtw": math.fsum(
            dtw(truth[s : s + n], imputed[s : s + n]) for s, n in mask[1]
        ),
    }


def expected_report_row(truth, imputed, mask_map) -> dict:
    per_episode = [
        episode_scores(truth[key], imputed[key], mask)
        for key, mask in sorted(mask_map.items())
        if mask[1]
    ]
    row = {f: _mean([s[f] for s in per_episode]) for f in METRIC_FIELDS}
    row["n_episodes"] = len(per_episode)
    return row


def expected_calibration(truth, imputed, mask_map, regime: str) -> dict:
    keep = CAL_FILTERS[regime]
    ys, yhs = [], []
    for key, mask in sorted(mask_map.items()):
        for t in sorted(hidden_indices(mask)):
            if keep(truth[key][t]):
                ys.append(truth[key][t])
                yhs.append(imputed[key][t])

    def moments(v):
        mean = _mean(v)
        return mean, math.sqrt(_mean([(x - mean) ** 2 for x in v]))

    truth_mean, truth_std = moments(ys)
    imputed_mean, imputed_std = moments(yhs)
    return {
        "n_points": len(ys),
        "truth_mean": truth_mean,
        "truth_std": truth_std,
        "imputed_mean": imputed_mean,
        "imputed_std": imputed_std,
        "delta": imputed_mean - truth_mean,
        "truth_hist": histogram(ys),
        "imputed_hist": histogram(yhs),
    }


def histogram(values) -> list[int]:
    """Counts on 5 mg/dL bins over [20, 500], last bin closed, values clipped."""
    counts = [0] * (len(HIST_EDGES) - 1)
    for v in values:
        v = min(max(v, 20.0), 500.0)
        counts[min(bisect.bisect_right(HIST_EDGES, v) - 1, len(counts) - 1)] += 1
    return counts


def lerp_oracle(truth, mask) -> list[float]:
    hidden = hidden_indices(mask)
    kept = [t for t in range(len(truth)) if t not in hidden]
    out = list(truth)
    for t in sorted(hidden):
        i = bisect.bisect_left(kept, t)
        if i == 0:
            out[t] = truth[kept[0]]
        elif i == len(kept):
            out[t] = truth[kept[-1]]
        else:
            lo, hi = kept[i - 1], kept[i]
            out[t] = truth[lo] + (truth[hi] - truth[lo]) * (t - lo) / (hi - lo)
    return out


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _echoes_truth(values, truth, hidden) -> bool:
    """Full length, and every retained index carries the true value."""
    return len(values) == len(truth) and all(
        abs(values[t] - truth[t]) <= RETAINED_TOL for t in range(len(truth)) if t not in hidden
    )


# -------------------------------------------------------------- file checks
def check_model(gate: Gate, path: Path) -> None:
    doc = json.loads(path.read_text())
    onset = doc["onset_prob"]
    gate.check("model.onset", len(onset) == 24 and all(0.0 <= p <= 1.0 for p in onset),
               f"{path}: onset_prob {onset!r}")
    for regime in ("day", "night"):
        rec = doc[regime]
        total = rec["w_exp"] + rec["w_gauss"] + rec["w_unif"]
        gate.check("model.weights", _close(total, 1.0) and 0.0 <= rec["pi_short"] <= 1.0,
                   f"{path}: {regime} weights sum {total}")


def check_masks(gate: Gate, path: Path, truth: dict, provenance: str, condition: str,
                expected_keys) -> dict:
    meta, mask_map = read_masks(path)
    gate.check("masks.meta", meta.get("provenance") == provenance
               and meta.get("condition") == condition, f"{path}: {meta}")
    gate.check("masks.episodes", set(mask_map) == set(expected_keys),
               f"{path}: {len(mask_map)} records, expected {len(expected_keys)}")
    bad = []
    for key, (T, runs) in mask_map.items():
        cursor = 0
        ok = key in truth and T == len(truth[key])
        for start, length in runs:
            ok = ok and length > 0 and start >= cursor and start + length <= T
            cursor = start + length
        if not ok:
            bad.append(key)
    gate.check("masks.runs", not bad, f"{path}: bad runs in {bad[:3]}")
    return mask_map


def check_imputed(gate: Gate, path: Path, truth: dict, mask_map: dict, method: str,
                  lerp: bool) -> dict:
    got_method, series = read_imputed(path)
    gate.check("imputed.method", got_method == method, f"{path}: method {got_method!r}")
    gate.check("imputed.episodes", set(series) == set(mask_map),
               f"{path}: {len(series)} episodes, expected {len(mask_map)}")
    echo_bad, lerp_bad = [], []
    for key, mask in mask_map.items():
        values, g = series[key], truth[key]
        if not _echoes_truth(values, g, hidden_indices(mask)):
            echo_bad.append(key)
        elif lerp and any(not _close(a, b) for a, b in zip(values, lerp_oracle(g, mask))):
            lerp_bad.append(key)
    gate.check("imputed.retained_echo", not echo_bad,
               f"{path}: retained truth altered in {echo_bad[:3]}")
    if lerp:
        gate.check("imputed.lerp", not lerp_bad, f"{path}: not a linear fill in {lerp_bad[:3]}")
    return series


def check_report(gate: Gate, path: Path, truth: dict, mask_map: dict, imputed: dict,
                 protocol: str, condition: str) -> None:
    """imputed: {model name: series}. Every model must appear once, with oracle numbers."""
    groups = json.loads(path.read_text())["groups"]
    got = {(g["model"], g["protocol"], g["condition"]): g for g in groups}
    want = {(m, protocol, condition) for m in imputed}
    gate.check("report.groups", set(got) == want and len(groups) == len(want),
               f"{path}: groups {sorted(got)}, expected {sorted(want)}")
    for model, series in imputed.items():
        row = got.get((model, protocol, condition))
        if row is None:
            continue
        ref = expected_report_row(truth, series, mask_map)
        off = [f for f in METRIC_FIELDS if not _close(row[f], ref[f])]
        if row["n_episodes"] != ref["n_episodes"]:
            off.append("n_episodes")
        gate.check("report.values", not off,
                   f"{path}: {model} fields {off} differ from recomputation "
                   + ", ".join(f"{f}={row.get(f)!r} vs {ref.get(f)!r}" for f in off[:2]))


def check_calibration(gate: Gate, out_dir: Path, truth: dict, mask_map: dict, imputed: dict,
                      regime: str) -> None:
    records = json.loads((out_dir / "calibration.json").read_text())["summaries"]
    got = {r["model"]: r for r in records}
    gate.check("calibration.models", set(got) == set(imputed) and len(records) == len(imputed),
               f"{out_dir}: models {sorted(got)}, expected {sorted(imputed)}")
    for model, series in imputed.items():
        rec = got.get(model)
        if rec is None:
            continue
        ref = expected_calibration(truth, series, mask_map, regime)
        off = [f for f in ("truth_mean", "truth_std", "imputed_mean", "imputed_std", "delta")
               if not _close(rec[f], ref[f])]
        if rec["n_points"] != ref["n_points"] or rec["filter"] != regime:
            off.append("n_points/filter")
        with (out_dir / f"calibration_{model}.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        hists = ([int(r[2]) for r in rows], [int(r[3]) for r in rows])
        if hists != (ref["truth_hist"], ref["imputed_hist"]):
            off.append("histogram")
        gate.check("calibration.values", not off, f"{out_dir}: {model} fields {off} differ")


def check_routing(gate: Gate, out_dir: Path, truth: dict, mask_map: dict, lerp: dict,
                  external: dict) -> None:
    doc = json.loads((out_dir / "routing.json").read_text())
    decisions = {(d["patient_id"], d["episode_id"], d["start_index"]): d for d in doc["decisions"]}
    runs = {(k[0], k[1], s): n for k, m in mask_map.items() for s, n in m[1]}
    gate.check("routing.gaps", doc["summary"]["n_gaps"] == len(runs) == len(decisions)
               and all(decisions.get(k, {}).get("length_samples") == n for k, n in runs.items()),
               f"{out_dir}: {len(decisions)} decisions for {len(runs)} gaps")
    method, routed = read_imputed(out_dir / "routed.csv")
    bad = []
    for key, mask in mask_map.items():
        values = routed.get(key, [])
        if not _echoes_truth(values, truth[key], hidden_indices(mask)):
            bad.append(key)
            continue
        for s, n in mask[1]:
            label = decisions.get((key[0], key[1], s), {}).get("label")
            source = lerp[key] if label == "stationary" else external[key]
            if values[s : s + n] != source[s : s + n]:
                bad.append(key)
                break
    gate.check("routing.routed", method == "adaptive" and not bad,
               f"{out_dir}: routed.csv wrong in {bad[:3]} (method {method!r})")


def check_windows(gate: Gate, path: Path, mask_map: dict, protocol: str, per_episode) -> None:
    """per_episode: {key: expected window count} or None to skip the count check.

    Protocol A marks the masked samples inside its windows; B and C mask
    exactly the union of their windows.
    """
    doc = json.loads(path.read_text())
    spans: dict = {}
    for w in doc["windows"]:
        spans.setdefault((w["patient_id"], w["episode_id"]), []).append(
            (w["start_index"], w["end_index"])
        )
    gate.check("windows.protocol", doc["protocol"] == protocol
               and all(w["protocol"] == protocol for w in doc["windows"]), f"{path}")
    if per_episode is not None:
        wrong = [k for k, n in per_episode.items() if len(spans.get(k, [])) != n]
        gate.check("windows.count", not wrong and set(spans) <= set(per_episode),
                   f"{path}: window count wrong for {wrong[:3]}")
    bad = []
    for key, mask in mask_map.items():
        covered = {t for s, e in spans.get(key, []) for t in range(s, e)}
        hidden = hidden_indices(mask)
        if not hidden <= covered or (protocol != "A" and hidden != covered):
            bad.append(key)
    gate.check("windows.masks", not bad, f"{path}: masks and windows disagree in {bad[:3]}")


# ---------------------------------------------------------- sequence gates
def check_empirical(gate: Gate, fx: Path, out: Path, mask_seed: int, ext_method: str) -> None:
    truth = read_cgm(fx / "cgm.csv")
    gate.run("model", check_model, out / "model.json")
    state: dict = {}

    def masks_and_imputations(g):
        state["masks"] = check_masks(g, out / "masks.json", truth, "empirical",
                                     f"seed={mask_seed}", truth.keys())
        state["lerp"] = check_imputed(g, out / "lerp.csv", truth, state["masks"], "lerp", True)
        state["ext"] = check_imputed(g, out / "external.csv", truth, state["masks"],
                                     ext_method, False)

    gate.run("empirical.inputs", masks_and_imputations)
    if len(state) < 3:
        return
    imputed = {"lerp": state["lerp"], ext_method: state["ext"]}
    gate.run("report", check_report, out / "eval" / "report.json", truth, state["masks"],
             imputed, "empirical", f"seed={mask_seed}")
    gate.run("calibration", check_calibration, out / "cal", truth, state["masks"], imputed, "all")
    gate.run("routing", check_routing, out / "routed", truth, state["masks"], state["lerp"],
             state["ext"])


def check_protocols(gate: Gate, fx: Path, out: Path, ratio: float, n_peaks: int,
                    hypo_window_min: int) -> None:
    truth = read_cgm(fx / "cgm.csv")
    tcr = read_tcr(fx / "tcr.csv")
    hypo = {
        key: sum(1 for s, e in tcr.get(key, []) if any(v < 70.0 for v in g[max(0, s) : e]))
        for key, g in truth.items()
    }
    hypo = {k: n for k, n in hypo.items() if n}
    setups = {
        "A": (f"ratio={ratio:g}", truth.keys(), None),
        "B": (f"peaks={n_peaks}", truth.keys(), {k: n_peaks for k in truth}),
        "C": (f"hypo={hypo_window_min}min", hypo.keys(), hypo),
    }
    for p, (condition, keys, windows) in setups.items():
        sdir = out / f"stress{p}"

        def one(g, p=p, condition=condition, keys=keys, windows=windows, sdir=sdir):
            mask_map = check_masks(g, sdir / "masks.json", truth, f"protocol_{p}", condition, keys)
            check_windows(g, sdir / "windows.json", mask_map, p, windows)
            if p == "A":
                off = [k for k, m in mask_map.items()
                       if len(hidden_indices(m)) != math.floor(ratio * m[0] + 0.5)]
                g.check("protocol_A.ratio", not off, f"masked fraction != {ratio} in {off[:3]}")
            lerp = check_imputed(g, out / f"lerp{p}.csv", truth, mask_map, "lerp", True)
            check_report(g, out / f"eval{p}" / "report.json", truth, mask_map, {"lerp": lerp},
                         p, condition)
            if p == "C":
                check_calibration(g, out / "calC", truth, mask_map, {"lerp": lerp}, "below-70")

        gate.run(f"protocol_{p}", one)
