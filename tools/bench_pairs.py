"""Alternating parent/change pairs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_N.json \
        --workload protocols:2601-2610 [--workload empirical:2611-2620 ...] \
        [--seconds 30] [--work DIR]

Run from the repository root. Each side runs from its own ``git archive``
tree of REV, so uncommitted files take no part. For every seed of a
workload, one pair runs ``python3 perfbench/run.py --workload W --seed S
--seconds N --trace 0`` once in each tree: the parent first in odd pairs,
the change first in even ones, each run with its own empty
``XDG_CACHE_HOME``. The rest of the environment is passed on as it is.

The output holds every run's result line (the last line that run.py
prints) and, per workload and end-to-end metric, each side's median and
quartiles (``statistics.quantiles(n=4, method="inclusive")``), how many
pairs the change was lower in, and whether the change's median stays
within the metric's bound in BENCHMARK.json. It is rewritten after each
pair, so a run cut short keeps the pairs it finished. The script uses the
standard library only and imports nothing of the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def seeds_of(spec: str) -> tuple[str, list[int]]:
    """``workload:first-last`` as (workload, [first, ..., last])."""
    workload, _, span = spec.partition(":")
    first, _, last = span.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        seeds = []
    if not workload or not seeds:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:FIRST-LAST, got {spec!r}")
    return workload, seeds


def export(rev: str, dest: Path) -> str:
    """Write the tree of rev to dest; returns the full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], check=True,
                         capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    with subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            # the "data" filter where this Python has it (3.10.12, 3.11.4 and later)
            tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    if proc.returncode:
        raise SystemExit(f"git archive {rev} failed")
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: int, work: Path) -> dict:
    """One benchmark run in tree with an empty cache; its result line, or the failure."""
    cache = Path(tempfile.mkdtemp(prefix="xdg-", dir=work))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, env=dict(os.environ, XDG_CACHE_HOME=str(cache)),
            capture_output=True, text=True)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "exit_code": proc.returncode, "stderr": proc.stderr[-1500:]}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: dict, bounds: dict) -> dict:
    """Per end-to-end metric: each side's quartiles, the change's wins, and its bound."""
    done = [p for p in pairs.values() if "parent" in p and "change" in p]
    summary = {"pairs": len(done),
               "failed": {side: [p[side].get("failed") for p in done] for side in SIDES},
               "correct": {side: all(p[side].get("correct") for p in done) for side in SIDES}}
    for name, bound in bounds.items():
        values = {side: [p[side]["metrics"][name]["value"] for p in done
                         if p[side].get("metrics", {}).get(name, {}).get("value") is not None]
                  for side in SIDES}
        if not all(values.values()) or len(values["parent"]) != len(values["change"]):
            continue
        parent, change = (quartiles(values[side]) for side in SIDES)
        summary[name] = {
            "parent": parent, "change": change,
            "change_lower_in": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "relative": change["median"] / parent["median"] - 1.0,
            "beyond_parent_iqr": abs(change["median"] - parent["median"]) > parent["iqr"],
            "bound": bound,
            "within_bound": change["median"] <= parent["median"] * (1.0 + bound),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--change", required=True, help="the commit that claims a change")
    parser.add_argument("--workload", action="append", type=seeds_of, required=True,
                        help="WORKLOAD:FIRST-LAST, one pair per seed; repeatable")
    parser.add_argument("--seconds", type=int, default=30, help="run.py --seconds (default 30)")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    parser.add_argument("--work", type=Path, help="where the trees go (default: a temporary "
                        "directory, removed at the end)")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.work))
    try:
        commits = {side: export(getattr(args, side), work / side) for side in SIDES}
        spec = json.loads((work / "change" / "BENCHMARK.json").read_text())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        doc = {
            "what": "alternating parent/change pairs of `python3 perfbench/run.py --workload W "
                    f"--seed S --seconds {args.seconds} --trace 0`, one seed per pair, each run "
                    "from a `git archive` tree of its commit with its own empty XDG_CACHE_HOME; "
                    "odd pairs ran the parent first, even pairs the change first",
            "commits": commits,
            "host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                     "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
            "quartiles": "statistics.quantiles(n=4, method='inclusive'); change_lower_in counts "
                         "the pairs in which the change was lower",
            "summary": {}, "runs": {},
        }
        for workload, seeds in args.workload:
            pairs = doc["runs"][workload] = {}
            for i, seed in enumerate(seeds, start=1):
                pair = pairs[str(i)] = {"seed": seed, "first": SIDES[(i - 1) % 2]}
                order = SIDES if i % 2 else SIDES[::-1]
                for side in order:
                    pair[side] = run_once(work / side, workload, seed, args.seconds, work)
                doc["summary"][workload] = summarize(pairs, bounds)
                args.out.write_text(json.dumps(doc, indent=2) + "\n")
                print(f"{workload} pair {i}/{len(seeds)} seed {seed}: " + ", ".join(
                    f"{side} {pair[side].get('metrics', {}).get('pipeline_s', {}).get('value')}"
                    for side in SIDES), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
