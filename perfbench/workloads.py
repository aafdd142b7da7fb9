"""Workload definitions: corpora, seeds, command sequences and bench-made inputs.

Everything here is standard library. The program under test only ever sees
the files these functions write and the command lines they return.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import checks

# Why each workload exists; BENCHMARK.json carries the same sentences.
# `min_gaps` is fit's --min-gaps: 50 days can hold as few as two sustained
# night gaps, so `small` asks for one and no seed makes fit fail.
WORKLOADS = {
    "empirical": {
        "days": 500,
        "sequences": ("empirical",),
        "min_gaps": 30,
        "why": "realistic-gap path on 500 days: CSV ingest and external-file validation "
        "dominate, the per-gap router is small; bypasses DTW and stable-window search",
    },
    "protocols": {
        "days": 500,
        "sequences": ("protocols",),
        "min_gaps": 30,
        "why": "stress A/B/C with impute and evaluate on 500 days: stable-window search and "
        "protocol-B DTW dominate; fit, mask and router idle",
    },
    "small": {
        "days": 50,
        "sequences": ("empirical", "protocols"),
        "min_gaps": 1,
        "why": "both sequences on 50 days: interpreter start and imports are most of each "
        "command, so added fixed per-command cost shows",
    },
}

# Corpus shape shared by every workload; only the day count and seeds vary.
HYPO_DEPTH = 12
NOISE_STD = 2.0
RATIO_A = 0.1
N_PEAKS_B = 2
HYPO_WINDOW_MIN = 60
EXTERNAL_METHOD = "ext"
EXTERNAL_NOISE_STD = 8.0

# Hand-built gap process that seeds the gapped copy `fit` learns from
# (the same parameters the test suite injects).
BOOT_ONSET = (
    0.06, 0.05, 0.07, 0.06, 0.05, 0.06,
    0.04, 0.03, 0.05, 0.04, 0.03, 0.04,
    0.05, 0.03, 0.04, 0.05, 0.04, 0.03,
    0.04, 0.05, 0.03, 0.04, 0.05, 0.04,
)
BOOT_REGIMES = {
    "day": (0.3, (0.02, 0.05, 0.01, 120.0, 15.0, 0.0005)),
    "night": (0.5, (0.05, 0.08, 0.004, 100.0, 25.0, 0.0008)),
}
DELTA_MIN, DELTA_MAX = 10, 240


def derive_seeds(seed: int) -> dict:
    """Independent sub-seeds for every random choice a workload makes."""
    rng = random.Random(seed)
    return {name: rng.randrange(2**31) for name in ("synth", "gap", "mask", "stress", "external")}


def _ndtr(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _regime_record(pi_short: float, params) -> dict:
    a, k, b, mu, sigma, gamma = params
    span = DELTA_MAX - DELTA_MIN
    masses = (
        a * (1.0 - math.exp(-k * span)) / k,
        b * sigma * math.sqrt(2.0 * math.pi)
        * (_ndtr((DELTA_MAX - mu) / sigma) - _ndtr((DELTA_MIN - mu) / sigma)),
        gamma * span,
    )
    total = sum(masses)
    return {
        "pi_short": pi_short, "A": a, "k": k, "B": b, "mu": mu, "sigma": sigma, "gamma": gamma,
        "w_exp": masses[0] / total, "w_gauss": masses[1] / total, "w_unif": masses[2] / total,
    }


def write_bootstrap_model(path: Path) -> None:
    doc = {
        "schema_version": 1,
        "delta_max": DELTA_MAX,
        "onset_prob": list(BOOT_ONSET),
        **{name: _regime_record(*spec) for name, spec in BOOT_REGIMES.items()},
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def synth_args(days: int, seeds: dict, model: Path, out: Path) -> list[str]:
    return [
        "synth", "--days", str(days), "--hypo-depth", str(HYPO_DEPTH),
        "--noise-std", str(NOISE_STD), "--seed", str(seeds["synth"]),
        "--gap-model", str(model), "--gap-seed", str(seeds["gap"]), "--out", str(out),
    ]


def write_external(cgm: Path, masks_path: Path, out: Path, seed: int) -> None:
    """Seeded stand-in for an external model: truth plus noise where masked.

    Retained indices echo the truth exactly, as the program requires.
    """
    truth = checks.read_cgm(cgm)
    _, mask_map = checks.read_masks(masks_path)
    rng = random.Random(seed)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "episode_id", "t", "value", "method"])
        for key in sorted(mask_map):
            glucose = truth[key]
            hidden = checks.hidden_indices(mask_map[key])
            for t, g in enumerate(glucose):
                value = g + rng.gauss(0.0, EXTERNAL_NOISE_STD) if t in hidden else g
                writer.writerow([key[0], key[1], t, repr(value), EXTERNAL_METHOD])


def empirical_steps(fx: Path, out: Path, seeds: dict, min_gaps: int) -> list:
    """fit -> mask -> (external model) -> impute -> evaluate -> calibrate -> route."""
    cgm = str(fx / "cgm.csv")
    masks = str(out / "masks.json")
    lerp = str(out / "lerp.csv")
    ext = out / "external.csv"
    return [
        ("fit", ["fit", "--input", str(fx / "cgm_gapped.csv"), "--min-gaps", str(min_gaps),
                 "--out", str(out / "model.json")]),
        ("mask", ["mask", "--input", cgm, "--model", str(out / "model.json"),
                  "--seed", str(seeds["mask"]), "--out", masks]),
        ("external", (fx / "cgm.csv", out / "masks.json", ext, seeds["external"])),
        ("impute", ["impute", "--input", cgm, "--masks", masks, "--method", "lerp", "--out", lerp]),
        ("evaluate", ["evaluate", "--input", cgm, "--imputed", lerp, "--imputed", str(ext),
                      "--masks", masks, "--out", str(out / "eval")]),
        ("calibrate", ["calibrate", "--input", cgm, "--imputed", lerp, "--imputed", str(ext),
                       "--masks", masks, "--out", str(out / "cal")]),
        ("route", ["route", "--input", cgm, "--masks", masks, "--external", str(ext),
                   "--out", str(out / "routed")]),
    ]


def protocol_steps(fx: Path, out: Path, seeds: dict) -> list:
    """stress A/B/C, each followed by lerp impute and evaluate; calibrate below-70 on C."""
    cgm = str(fx / "cgm.csv")
    extra = {
        "A": ["--ratio", str(RATIO_A)],
        "B": ["--n-peaks", str(N_PEAKS_B)],
        "C": ["--tcr", str(fx / "tcr.csv"), "--hypo-window-min", str(HYPO_WINDOW_MIN)],
    }
    steps = []
    for p in "ABC":
        sdir = out / f"stress{p}"
        lerp = str(out / f"lerp{p}.csv")
        steps += [
            (f"stress_{p}", ["stress", "--input", cgm, "--protocol", p, *extra[p],
                             "--seed", str(seeds["stress"]), "--out", str(sdir)]),
            ("impute", ["impute", "--input", cgm, "--masks", str(sdir / "masks.json"),
                        "--method", "lerp", "--out", lerp]),
            ("evaluate", ["evaluate", "--input", cgm, "--imputed", lerp,
                          "--masks", str(sdir / "masks.json"),
                          "--windows", str(sdir / "windows.json"), "--out", str(out / f"eval{p}")]),
        ]
    steps.append(
        ("calibrate", ["calibrate", "--input", cgm, "--imputed", str(out / "lerpC.csv"),
                       "--masks", str(out / "stressC" / "masks.json"), "--filter", "below-70",
                       "--out", str(out / "calC")])
    )
    return steps


def steps_for(workload: str, fx: Path, out: Path, seeds: dict) -> list:
    spec = WORKLOADS[workload]
    steps = []
    for seq in spec["sequences"]:
        sub = out / seq
        sub.mkdir(parents=True, exist_ok=True)
        if seq == "empirical":
            steps += empirical_steps(fx, sub, seeds, spec["min_gaps"])
        else:
            steps += protocol_steps(fx, sub, seeds)
    return steps
