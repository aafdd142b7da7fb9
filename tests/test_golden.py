"""Byte identity across commits: one fixture through every command, pinned by digest.

One 20-day seed-7 fixture runs in-process through every command and every
option that writes different bytes. ``golden.json`` holds each command's exit
code, stdout and stderr and the SHA-256 of every file the run leaves behind.
The pipeline runs twice, first with an empty read cache and then with the
cache the first run filled; both runs must match the JSON.

A change that alters an output on purpose regenerates the JSON and names each
changed file in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import csv
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")

FIXTURE = ["--days", "20", "--seed", "7", "--hypo-depth", "12", "--noise-std", "2"]
PROTOCOL_OPTIONS = {
    "A": ["--ratio", "0.1"],
    "B": ["--n-peaks", "2"],
    "C": ["--tcr", "fx/tcr.csv", "--hypo-window-min", "60"],
}


def _write_inputs(cgm, masks_path, seed=11):
    """The inputs no command writes, from the truth in cgm and the empirical masks.

    ``ext.csv`` stands in for an external model: the truth where retained,
    truth plus seeded noise where hidden. ``lead.json`` hides the first hour
    and the tenth hour of every episode, so that every imputer fills a
    leading gap.
    """
    from regime_bench import core, masks

    episodes = core.ingest_csv(cgm, 240)
    truth = {(ep.patient_id, ep.episode_id): ep.glucose for ep in episodes}
    _, mask_map = masks.read_masks_json(masks_path)
    rng = random.Random(seed)
    with open("ext.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "episode_id", "t", "value", "method"])
        for key in sorted(mask_map):
            for t, (g, kept) in enumerate(zip(truth[key].tolist(), mask_map[key].bits.tolist())):
                value = g if kept else g + rng.gauss(0.0, 8.0)
                writer.writerow([key[0], key[1], t, repr(value), "ext"])
    hours = [(0, 12), (108, 12)]
    lead = [(ep.patient_id, ep.episode_id, masks.Mask(core.runs_to_bits(ep.T, hours)))
            for ep in episodes]
    masks.write_masks_json(lead, "lead.json", condition="leading")


def _commands():
    """The pipeline as argv lists, relative to the run's directory; None marks _write_inputs."""
    truth = ["--input", "fx/cgm.csv"]
    empirical = [*truth, "--masks", "masks.json"]
    imputed = [f"imp-{name}.csv" for name in ("lerp", "locf", "mean", "median", "ext")]
    steps = [
        ["synth", *FIXTURE, "--gap-model", "injected.json", "--gap-seed", "5", "--out", "fx"],
        ["fit", "--input", "fx/cgm_gapped.csv", "--min-gaps", "1", "--out", "model.json"],
        ["mask", *truth, "--model", "injected.json", "--seed", "9", "--out", "masks.json"],
        None,
        *(["impute", *empirical, "--method", method, "--out", f"imp-{method}.csv"]
          for method in ("lerp", "locf", "mean", "median")),
        ["impute", *empirical, "--external", "ext.csv", "--out", "imp-ext.csv"],
        *(["impute", *truth, "--masks", "lead.json", "--method", method,
           "--out", f"lead-{method}.csv"] for method in ("lerp", "locf", "mean", "median")),
        ["evaluate", *empirical, *(a for path in imputed for a in ("--imputed", path)),
         "--out", "eval"],
        *(["calibrate", *empirical, "--imputed", "imp-lerp.csv", "--imputed", "imp-ext.csv",
           "--filter", name, "--out", f"cal-{name}"] for name in ("all", "below-70", "above-140")),
        ["route", *empirical, "--external", "ext.csv", "--out", "route-ext"],
        ["route", *empirical, "--external", "ext.csv", "--gradient-threshold", "1.2",
         "--context-min", "15", "--out", "route-ext-1.2"],
        ["report", "--input", "eval/report.json", "--out", "report.txt"],
    ]
    for p, options in PROTOCOL_OPTIONS.items():
        masks_path = f"stress{p}/masks.json"
        steps += [
            ["stress", *truth, "--protocol", p, *options, "--seed", "3", "--out", f"stress{p}"],
            ["impute", *truth, "--masks", masks_path, "--method", "lerp", "--out", f"lerp{p}.csv"],
            ["evaluate", *truth, "--masks", masks_path, "--imputed", f"lerp{p}.csv",
             "--windows", f"stress{p}/windows.json", "--out", f"eval{p}"],
        ]
    return steps


def run_pipeline(root, cache):
    """Run every command in root with cache as XDG_CACHE_HOME; the record golden.json holds."""
    from conftest import build_injected_model
    from regime_bench import cli, missingness

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    old_cwd, old_cache = os.getcwd(), os.environ.get("XDG_CACHE_HOME")
    os.chdir(root)
    os.environ["XDG_CACHE_HOME"] = str(cache)
    commands = []
    try:
        missingness.save_model(build_injected_model(), "injected.json")
        for argv in _commands():
            if argv is None:
                _write_inputs("fx/cgm.csv", "masks.json")
                continue
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            commands.append({"argv": argv, "exit": code, "stdout": out.getvalue(),
                             "stderr": err.getvalue()})
    finally:
        os.chdir(old_cwd)
        if old_cache is None:
            del os.environ["XDG_CACHE_HOME"]
        else:
            os.environ["XDG_CACHE_HOME"] = old_cache
    files = {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(root.rglob("*")) if path.is_file()}
    return {"commands": commands, "files": files}


def test_every_output_matches_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    cache = tmp_path / "cache"
    for run in ("cold", "warm"):
        got = run_pipeline(tmp_path / run, cache)
        assert [c["argv"] for c in got["commands"]] == [c["argv"] for c in golden["commands"]]
        for have, want in zip(got["commands"], golden["commands"]):
            assert have == want, (run, want["argv"][0])
        assert got["files"] == golden["files"], run
        assert any((cache / "regime-bench").iterdir()), "the cold run stored no cache entry"


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    with tempfile.TemporaryDirectory() as tmp:
        record = run_pipeline(Path(tmp) / "run", Path(tmp) / "cache")
    if any(c["exit"] != 0 for c in record["commands"]):
        sys.exit(f"a command failed: {[c for c in record['commands'] if c['exit'] != 0]}")
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{GOLDEN}: {len(record['commands'])} commands, {len(record['files'])} files")
