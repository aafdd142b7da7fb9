"""Run one regime-bench command with spans around calls into each module.

    python3 perfbench/tracer.py SPANS_FILE REP_ID -- <regime-bench arguments>

The wrappers live here, not in the program: each public function is
replaced where the CLI looks it up, timed with perf_counter (the same
monotonic clock as the parent benchmark process) and counted. Spans are
kept in memory and appended to SPANS_FILE as JSON lines when the command
ends. Exits with the command's exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _episode_rows(episodes) -> int:
    return sum(ep.T for ep in episodes)


def _imputed_rows(imputations) -> int:
    return sum(len(imp.values) for imp in imputations)


# span name -> (module whose attribute is replaced, counts from (args, result)); the
# attribute is the span name's last part. core's functions are looked up in cli.
PATCHES = {
    "core.ingest_csv": ("cli", lambda a, r: {"rows": _episode_rows(r), "episodes": len(r)}),
    "core.export_csv": ("cli", lambda a, r: {"rows": _episode_rows(a[0])}),
    "missingness.valid_days": ("missingness", None),
    "missingness.extract_gaps": ("missingness", lambda a, r: {"gaps": len(r)}),
    "missingness.fit_mixture": ("missingness", None),
    "missingness.load_model": ("missingness", None),
    "masks.generate_mask": ("masks", lambda a, r: {"gaps": len(r.events)}),
    "masks.read_masks_json": ("masks", None),
    "masks.write_masks_json": ("masks", None),
    "protocols.find_stable_windows": ("protocols", lambda a, r: {"windows": len(r)}),
    "protocols.allocate_stationary_mask": ("protocols", None),
    "protocols.build_peak_masks": ("protocols", None),
    "protocols.build_hypo_masks": ("protocols", None),
    "protocols.write_windows_json": ("protocols", None),
    "imputers.write_imputations_csv": ("imputers", lambda a, r: {"rows": _imputed_rows(a[0])}),
    "imputers.load_external": ("imputers", lambda a, r: {"rows": _imputed_rows(r)}),
    "metrics.score_episode": ("metrics", None),
    "metrics.dtw_distance": ("metrics", lambda a, r: {"cells": len(a[0]) * len(a[1])}),
    "metrics.pooled_calibration": ("metrics", None),
    "router.adaptive_impute": ("router", None),
    "router.classify_gap": ("router", lambda a, r: {"stationary": int(r.label == "stationary")}),
    "synth.generate": ("synth", None),
    "synth.write_fixture": ("synth", None),
}


class Recorder:
    """In-memory span list with a stack giving each span its parent."""

    def __init__(self, rep: str):
        self.rep = rep
        self.spans: list[dict] = []
        self.stack = [0]  # span 0 is the whole command

    def add(self, name, start, end, parent, counts=None) -> int:
        span_id = len(self.spans) + 1
        self.spans.append({"id": span_id, "parent": parent, "name": name, "rep": self.rep,
                           "start": start, "end": end, "counts": counts or {}})
        return span_id

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            parent = self.stack[-1]
            span = self.add(name, time.perf_counter(), None, parent)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[span - 1]["end"] = time.perf_counter()
            if count is not None:
                self.spans[span - 1]["counts"] = count(args, result)
            return result

        return traced


def main(argv) -> int:
    spans_path, rep, sep, *cli_args = argv
    if sep != "--" or not cli_args:
        raise SystemExit("usage: tracer.py SPANS_FILE REP_ID -- <regime-bench arguments>")
    # keep the benchmark's own modules from shadowing anything the program imports
    if sys.path and sys.path[0] == os.path.dirname(os.path.abspath(__file__)):
        del sys.path[0]
    rec = Recorder(rep)
    t0 = time.perf_counter()
    import regime_bench.cli as cli  # noqa: E402 - the import is itself a span
    from regime_bench import imputers, masks, metrics, missingness, protocols, router, synth

    rec.add("cli.import", t0, time.perf_counter(), 0)
    modules = {"cli": cli, "imputers": imputers, "masks": masks, "metrics": metrics,
               "missingness": missingness, "protocols": protocols, "router": router,
               "synth": synth}
    for name, (module, count) in PATCHES.items():
        attr = name.rsplit(".", 1)[1]
        setattr(modules[module], attr, rec.wrap(name, getattr(modules[module], attr), count))
    # synth.write_fixture reaches export_csv through its own module namespace
    synth.export_csv = rec.wrap("core.export_csv", synth.export_csv, PATCHES["core.export_csv"][1])
    for method, fn in list(imputers.BUILTIN_IMPUTERS.items()):
        imputers.BUILTIN_IMPUTERS[method] = rec.wrap("imputers.impute", fn, None)
    try:
        code = cli.main(cli_args)
    finally:
        end = time.perf_counter()
        root = {"id": 0, "parent": None, "name": f"cli.{cli_args[0]}", "rep": rep,
                "start": t0, "end": end, "counts": {}}
        with open(spans_path, "a") as fh:
            for span in [root, *rec.spans]:
                fh.write(json.dumps(span) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
