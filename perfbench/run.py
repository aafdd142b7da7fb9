"""regime-bench benchmark: wall time of each CLI command on seeded synthetic corpora.

    python3 perfbench/run.py --workload {empirical,protocols,small} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. Every command runs as its own process, the
way users run it, so interpreter start and imports are part of each
command's time. One client, one command at a time (closed loop). The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of a separate traced run with --trace 1. README.md is
the reading guide.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import spans as spanlib
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# the same call the installed `regime-bench` console script makes
CLI_ENTRY = "import sys; from regime_bench.cli import main; sys.exit(main())"
SETUPS = 3
MIN_TRACED_REPS = 2
RUN_LIMIT_S = 160.0  # no new repetition starts that could end past this
# Gated end-to-end metrics: every workload has them, none reads zero, and
# their run-to-run spread stays within the bounds on a host whose speed
# drifts by tens of percent over minutes. Per-stage times (`<stage>_s`) are
# printed as well but not gated: not every workload runs every stage, and a
# stage of one to three commands spread up to 43% from run to run.
END_TO_END = (
    ("pipeline_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
STAGES = ("fit", "mask", "stress_A", "stress_B", "stress_C", "impute", "evaluate", "calibrate",
          "route")


@dataclass
class Child:
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    code: int
    stderr: str
    stdout: str

    @property
    def wall(self) -> float:
        return self.end - self.start


class Runner:
    """Starts one child process at a time; measures wall time and max RSS (wait4)."""

    def __init__(self, work: Path, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.out_path = work / "child.out"
        self.err_path = work / "child.err"
        self.deadline = deadline

    def run(self, cmd) -> Child:
        with self.out_path.open("w") as out, self.err_path.open("w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode,
                     self.err_path.read_text()[-1500:], self.out_path.read_text())

    def cli(self, argv, spans_file: Path | None = None, rep: str = "") -> Child:
        if spans_file is None:
            return self.run([sys.executable, "-c", CLI_ENTRY, *argv])
        tracer = str(HERE / "tracer.py")
        return self.run([sys.executable, tracer, str(spans_file), rep, "--", *argv])

    def probe(self) -> dict | None:
        child = self.run([sys.executable, str(HERE / "probe.py")])
        return json.loads(child.stdout) if child.code == 0 else None


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, spec, seeds) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "days": spec["days"],
        "seed": args.seed,
        "derived_seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Bench:
    def __init__(self, args, work: Path, start: float):
        self.args = args
        self.spec = workloads.WORKLOADS[args.workload]
        self.seeds = workloads.derive_seeds(args.seed)
        self.work = work
        self.start = start
        self.runner = Runner(work, start + 175.0)
        self.gate = checks.Gate()
        self.fixture = work / "fixture0"
        self.setups: list[dict] = []
        self.reps: list[dict] = []
        self.fixture_digest: dict | None = None
        self.reference: dict | None = None
        self.keep_outputs = False

    # -------------------------------------------------------------- set-up
    def setup(self, i: int, traced: bool) -> bool:
        """Bootstrap model + `synth --gap-model`, timed together; fixtures must repeat."""
        fx = self.work / f"fixture{i}"
        model = self.work / f"bootstrap{i}.json"
        spans_file = self.work / f"setup{i}.jsonl" if traced else None
        t0 = time.perf_counter()
        workloads.write_bootstrap_model(model)
        child = self.runner.cli(workloads.synth_args(self.spec["days"], self.seeds, model, fx),
                                spans_file, f"setup{i}")
        rec = {"setup_s": time.perf_counter() - t0, "commands": []}
        if not self.gate.check("command synth", child.code == 0, child.stderr):
            return False
        accounted = self.account(child, spans_file) if traced else None
        if accounted:
            rec["commands"].append(accounted)
        digest = checks.tree_digest(fx)
        digest["bootstrap.json"] = hashlib.sha256(model.read_bytes()).hexdigest()
        if i == 0:
            self.fixture_digest = digest
        else:
            self.gate.check("setup.repeatable", digest == self.fixture_digest,
                            f"set-up {i} wrote different fixture files")
            shutil.rmtree(fx)
        self.setups.append(rec)
        return True

    # --------------------------------------------------------- repetitions
    def account(self, child: Child, spans_file: Path):
        spans = spanlib.read_spans(spans_file)
        parts, problems = spanlib.command_parts(spans, child.start, child.end)
        self.gate.check("trace.additive", not problems, "; ".join(problems[:3]))
        return (parts, spans) if parts else None

    def repetition(self, k: int, traced: bool) -> dict:
        t0 = time.perf_counter()
        out = self.work / f"rep{k}"
        rec = {"kind": "traced" if traced else "plain", "stages": {}, "cpu_s": {}, "ok": True,
               "commands": [], "peak_rss_mb": 0.0, "pipeline_s": 0.0}
        # a repetition's closing probe is the next one's opening probe
        rec["probe_before"] = self.reps[-1]["probe_after"] if self.reps else self.runner.probe()
        for i, (stage, action) in enumerate(workloads.steps_for(self.args.workload, self.fixture,
                                                                out, self.seeds)):
            if stage == "external":
                e0 = time.perf_counter()
                workloads.write_external(*action)
                rec["external_s"] = time.perf_counter() - e0
                continue
            spans_file = self.work / f"rep{k}-{i}.jsonl" if traced else None
            child = self.runner.cli(action, spans_file, f"rep{k}")
            if not self.gate.check(f"command {stage}", child.code == 0,
                                   f"{' '.join(action[:1])}: {child.stderr}"):
                rec["ok"] = False
                break
            rec["stages"][stage] = rec["stages"].get(stage, 0.0) + child.wall
            rec["cpu_s"][stage] = rec["cpu_s"].get(stage, 0.0) + child.cpu_s
            rec["pipeline_s"] += child.wall
            rec["peak_rss_mb"] = max(rec["peak_rss_mb"], child.rss_mb)
            if traced:
                accounted = self.account(child, spans_file)
                if accounted:
                    rec["commands"].append(accounted)
        rec["probe_after"] = self.runner.probe()
        check_s = 0.0
        if rec["ok"]:
            digest = checks.tree_digest(out)
            if self.reference is None:
                c0 = time.perf_counter()
                self.reference = digest
                self.semantic_checks(out)
                check_s = time.perf_counter() - c0
            else:
                checks.same_outputs(self.gate, digest, self.reference, f"repetition {k}")
        if not self.keep_outputs:
            shutil.rmtree(out, ignore_errors=True)
        rec["cost_s"] = time.perf_counter() - t0 - check_s
        return rec

    def semantic_checks(self, out: Path) -> None:
        for seq in self.spec["sequences"]:
            if seq == "empirical":
                self.gate.run(seq, checks.check_empirical, self.fixture, out / seq,
                              self.seeds["mask"], workloads.EXTERNAL_METHOD)
            else:
                self.gate.run(seq, checks.check_protocols, self.fixture, out / seq,
                              workloads.RATIO_A, workloads.N_PEAKS_B, workloads.HYPO_WINDOW_MIN)

    def measure(self) -> None:
        traced = bool(self.args.trace)
        for i in range(SETUPS):
            if not self.setup(i, traced):
                return
        plan = [False] + [True] * (MIN_TRACED_REPS if traced else 0)
        t0 = time.perf_counter()
        k = 0
        while True:
            if k >= len(plan):
                now = time.perf_counter()
                cost = self.reps[-1]["cost_s"]
                if now - t0 + cost > self.args.seconds or now + cost > self.start + RUN_LIMIT_S:
                    break
                plan.append(traced and not plan[-1])
            rep = self.repetition(k, plan[k])
            self.reps.append(rep)
            if not rep["ok"]:
                return
            k += 1

    # ------------------------------------------------------------- metrics
    def end_to_end(self) -> dict:
        plain = [r for r in self.reps if r["kind"] == "plain" and r["ok"]]
        if not plain:
            return {}
        samples = {
            "pipeline_s": [r["pipeline_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        for stage in STAGES:
            values = [r["stages"][stage] for r in plain if stage in r["stages"]]
            if values:
                samples[f"{stage}_s"] = values
        setup = [s["setup_s"] for s in self.setups]
        external = [r["external_s"] for r in plain if "external_s" in r]
        if setup:
            samples["setup_s"] = [statistics.median(setup)
                                  + (statistics.median(external) if external else 0.0)]
        return samples

    def per_layer(self) -> dict:
        traced = [r for r in self.reps if r["kind"] == "traced" and r["ok"]]
        rep_tot = [spanlib.layer_totals(r["commands"]) for r in traced]
        setup_tot = [spanlib.layer_totals(s["commands"]) for s in self.setups]
        for label, totals in (("repetitions", rep_tot), ("set-ups", setup_tot)):
            counts = {n for t in totals for n in t if spanlib.is_count(n)}
            varying = sorted(n for n in counts if len({t.get(n, 0) for t in totals}) > 1)
            self.gate.check("trace.exact_counts", not varying,
                            f"counts vary across traced {label}: {varying[:5]}")
        values = {}
        for name, _, _ in spanlib.per_layer_metrics():
            values[name] = sum(statistics.median(t.get(name, 0) for t in tot) if tot else 0.0
                               for tot in (rep_tot, setup_tot))
        calls = values.get("router.classify_gap.calls", 0)
        stationary = statistics.median(t.get("router.classify_gap.stationary", 0)
                                       for t in rep_tot) if rep_tot else 0
        values["router.stationary_frac"] = stationary / calls if calls else 0.0
        plain = [r["pipeline_s"] for r in self.reps if r["kind"] == "plain" and r["ok"]]
        if traced and plain:
            values["trace.overhead_s"] = (statistics.median(r["pipeline_s"] for r in traced)
                                          - statistics.median(plain))
        return values


def summarize(samples: list[float]) -> dict:
    """Median, count and maximum.

    A run has at most a few repetitions, so no percentile above the median
    has ten samples beyond it.
    """
    return {"median": statistics.median(samples), "n": len(samples), "max": max(samples)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "regime_bench" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'regime_bench'} is missing", file=sys.stderr)
        return 2

    start = time.perf_counter()
    work = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(args, work, start)
    try:
        bench.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = bench.per_layer()
        units = {name: unit for name, unit, _ in spanlib.per_layer_metrics()}
        metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}
        stats = {}
    else:
        samples = bench.end_to_end()
        stats = {name: summarize(v) for name, v in samples.items()}
        metrics = {name: {"value": stats[name]["median"] if name in stats else None, "unit": unit}
                   for name, unit in END_TO_END}
    gate = bench.gate
    details = {
        "provenance": provenance(args, bench.spec, bench.seeds),
        "why": bench.spec["why"],
        "stats": stats,
        "repetitions": [
            {k: r.get(k) for k in ("kind", "pipeline_s", "stages", "cpu_s", "peak_rss_mb",
                                   "external_s", "probe_before", "probe_after")}
            for r in bench.reps
        ],
        "setup_s": [s["setup_s"] for s in bench.setups],
        "failures": gate.failures,
        "elapsed_s": time.perf_counter() - start,
    }
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(bench.reps)} checks={gate.attempted} failed={gate.failed}")
    for name, metric in metrics.items():
        extra = stats.get(name, {})
        tail = f"  (n={extra['n']}, max={extra['max']:.4f})" if extra else ""
        value = "-" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{name:<40} {value:>14} {metric['unit']}{tail}")
    for name in sorted(set(stats) - set(metrics)):
        print(f"{name:<40} {stats[name]['median']:>14.6g} s  (n={stats[name]['n']}, not gated)")
    for failure in gate.failures:
        print(f"FAILED {failure}")
    print("details " + json.dumps(details))
    correct = gate.failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
