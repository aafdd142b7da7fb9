"""Accounting for traced commands: per-command parts, self time and per-layer totals.

Standard library only; reads the JSON-lines spans tracer.py writes.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMANDS = ("synth", "fit", "mask", "stress", "impute", "evaluate", "calibrate", "route")
LAYER_SPANS = (
    ("core.ingest_csv", ("calls", "rows", "episodes")),
    ("core.export_csv", ("rows",)),
    ("missingness.valid_days", ()),
    ("missingness.extract_gaps", ("gaps",)),
    ("missingness.fit_mixture", ()),
    ("missingness.load_model", ()),
    ("masks.generate_mask", ("calls", "gaps")),
    ("masks.read_masks_json", ()),
    ("masks.write_masks_json", ()),
    ("protocols.find_stable_windows", ("calls", "windows")),
    ("protocols.allocate_stationary_mask", ()),
    ("protocols.build_peak_masks", ()),
    ("protocols.build_hypo_masks", ()),
    ("protocols.write_windows_json", ()),
    ("imputers.impute", ()),
    ("imputers.write_imputations_csv", ("rows",)),
    ("imputers.load_external", ("rows",)),
    ("metrics.score_episode", ("calls",)),
    ("metrics.dtw_distance", ("calls", "cells")),
    ("metrics.pooled_calibration", ()),
    ("router.adaptive_impute", ()),
    ("router.classify_gap", ("calls",)),
    ("synth.generate", ()),
    ("synth.write_fixture", ()),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [("cli.import_s", "s", "lower"), ("cli.startup_s", "s", "lower"),
           ("cli.commands", "count", "lower")]
    for cmd in COMMANDS:
        out += [(f"cli.{cmd}.s", "s", "lower"), (f"cli.{cmd}.self_s", "s", "lower")]
    for name, counts in LAYER_SPANS:
        out.append((f"{name}.s", "s", "lower"))
        out += [(f"{name}.{c}", "count", "lower") for c in counts]
    out += [("router.stationary_frac", "frac", "higher"), ("trace.overhead_s", "s", "lower")]
    return out


def read_spans(path: Path) -> list[dict]:
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def command_parts(spans: list[dict], wall_start: float, wall_end: float):
    """Split one traced command's wall time into parts that add up exactly.

    wall = startup + import + layers + self, where startup is interpreter
    start and exit outside the traced root, import is `import
    regime_bench.cli`, layers are the root's direct child spans and self is
    what the root covers outside its children (argparse, pairing, JSON
    dumps). The parts add up by construction once spans nest: every span
    lies inside its parent and siblings never overlap. Returns (parts,
    problems); problems lists every span that breaks that nesting.
    """
    problems = []
    by_parent: dict = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['name']} has no valid end")
            continue
        by_parent.setdefault(s["parent"], []).append(s)
    root = by_id.get(0)
    if root is None or problems:
        return None, problems or ["no root span"]
    if not wall_start <= root["start"] <= root["end"] <= wall_end:
        problems.append("root span lies outside the measured command wall time")
    for parent_id, children in by_parent.items():
        if parent_id is None:
            continue
        parent = by_id[parent_id]
        cursor = parent["start"]
        for child in sorted(children, key=lambda c: c["start"]):
            if child["start"] < cursor or child["end"] > parent["end"]:
                problems.append(
                    f"span {child['name']} overlaps a sibling or leaves {parent['name']}"
                )
            cursor = max(cursor, child["end"])
    top = by_parent.get(0, [])
    imports = sum(c["end"] - c["start"] for c in top if c["name"] == "cli.import")
    layers = sum(c["end"] - c["start"] for c in top if c["name"] != "cli.import")
    wall = wall_end - wall_start
    root_s = root["end"] - root["start"]
    parts = {
        "command": root["name"].split(".", 1)[1],
        "wall": wall,
        "startup": wall - root_s,
        "import": imports,
        "layers": layers,
        "self": root_s - imports - layers,
    }
    return parts, problems


def layer_totals(commands) -> dict:
    """Per-layer totals over a sequence of traced commands.

    commands: iterable of (parts, spans) as command_parts and read_spans give them.
    Time metrics end in `.s` / `_s`; everything else is an exact count.
    """
    tot: dict = {}

    def add(key, value):
        tot[key] = tot.get(key, 0) + value

    for parts, spans in commands:
        cmd = parts["command"]
        add("cli.import_s", parts["import"])
        add("cli.startup_s", parts["startup"])
        add("cli.commands", 1)
        add(f"cli.{cmd}.s", parts["wall"])
        add(f"cli.{cmd}.self_s", parts["self"])
        for s in spans:
            if s["parent"] is None or s["name"] == "cli.import":
                continue
            add(f"{s['name']}.s", s["end"] - s["start"])
            add(f"{s['name']}.calls", 1)
            for key, value in s["counts"].items():
                add(f"{s['name']}.{key}", value)
    return tot


def is_count(name: str) -> bool:
    return not (name.endswith(".s") or name.endswith("_s") or name.endswith("_frac"))
