"""Command-line surface: synth, fit, mask, stress, impute, evaluate, calibrate, route, report.

Every command reads its inputs and computes its outputs, then hands them,
as (names, write) pairs plus any table to print, to one output step,
``_write_outputs``: the only place that writes a file, creates a directory
or prints to stdout, but for ``fit``'s onset line. Each pair declares the
files its write fills, so the step knows every output path before its
first write. An input file that cannot be read fails naming its option,
as typed.

A command parses its arguments, loads its inputs, composes library calls
and runs the output step. It lays out no file and checks none: each file's
layout and rules belong to the module that owns its data (``metrics``
scores and writes the report and calibration files, ``protocols`` checks a
windows file, ``masks`` reads a masks file). Every error reaches ``main``,
which prints the one ``error:`` line.

Each command runs in a fresh process, so each imports only the modules it
runs: at module level this file imports just ``errors`` and ``core``, and
every ``cmd_*`` (or the helper it calls) imports the rest; no command
loads scipy. ``ingest_csv`` stays a name of this module, looked up at call
time, so that a caller can replace it here. ``export_csv`` stays one as
well, for callers that look it up here; ``synth`` calls it through its own
module. Importing
this module defaults OPENBLAS_NUM_THREADS to 1, so that no command starts
a BLAS thread pool, and, when CPython's built-in hash modules are all
present, marks OpenSSL's ``_hashlib`` unimportable, so that no command maps
libcrypto: ``hashlib`` and ``hmac`` then use the built-in hashes.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

# before numpy loads: no command's BLAS work needs a thread pool; an explicit setting wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# likewise, no command maps OpenSSL's libcrypto, megabytes of RSS: numpy.random (through
# secrets and hmac) and derive_seed import hashlib, which then takes CPython's own hashes,
# the same digests. Only when all of them are there: hashlib logs a traceback for each
# one missing.
_BUILTIN_HASHES = ("_md5", "_sha1", "_sha3", "_blake2",
                   *(("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")))
if all(importlib.util.find_spec(name) is not None for name in _BUILTIN_HASHES):
    sys.modules.setdefault("_hashlib", None)

from .core import (  # noqa: E402 - after the BLAS and hash defaults
    EUGLYCEMIC_HIGH, EUGLYCEMIC_LOW, export_csv, ingest_csv, split_mask)
from .errors import (ConfigError, CoverageError, DimensionError, EstimationError, FitError,
                     IntegrityError, MetricDomainError, RegimeBenchError)

# the --method choices, kept here so that building the parser imports no imputers;
# a test pins them to sorted(imputers.BUILTIN_IMPUTERS)
IMPUTE_METHODS = ("lerp", "locf", "mean", "median")


def _check_worker_cap() -> None:
    """Reject a REGIME_BENCH_THREADS that is not a positive integer; the commands run one thread."""
    raw = os.environ.get("REGIME_BENCH_THREADS")
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise RegimeBenchError(f"REGIME_BENCH_THREADS must be a positive integer, got {raw!r}")


@contextmanager
def _naming(errors, before="", after=""):
    """Re-raise a harness error, one of errors, as its own type with before and after
    put around its message."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{before}{exc}{after}") from exc


def _for_episode(key, path=None, errors=RegimeBenchError):
    """_naming with `` for <patient_id>/<episode_id>`` after, and ``<path>: `` before if path
    is given."""
    return _naming(errors, "" if path is None else f"{path}: ", f" for {key[0]}/{key[1]}")


# the options that name a file that a command reads: no output may overwrite one. Not every
# string option: `impute --method lerp --out lerp` writes a file named lerp.
_INPUTS = ("input", "masks", "model", "tcr", "imputed", "external", "windows", "gap_model")


def _given_inputs(args):
    """(option, path as typed) for each file of the _INPUTS options that the command was given."""
    for option in _INPUTS:
        given = getattr(args, option, None)
        for value in given if isinstance(given, list) else [given]:
            if value is not None:
                yield option.replace("_", "-"), value


def _write_outputs(args, files, text="") -> None:
    """Write each (names, write) pair, then print text and every path written.

    Each pair declares the files that its write fills, so every output path
    is known before anything is written. A file command passes one pair whose
    names is None: it fills --out itself, passed and printed as typed, and
    --out's directory is created; text, if given, is printed in place of the
    path (report's table). Otherwise --out is a directory, created with its
    parents, and names lists the files that the write fills in it. A write
    is handed the one path it fills, or --out when it fills several
    (synth.write_fixture).

    Every command calls this last, once every input is read and every output
    computed. Before anything is written, an output that resolves to one of
    the _INPUTS options fails; an OSError fails naming the path the write
    was handed. stdout is printed only once every write has succeeded, so a
    command that fails prints nothing to it, though a directory command whose
    write fails part way keeps the files written before it.
    """
    out = Path(args.out)
    single = files[0][0] is None
    groups = [[args.out] if names is None else [out / name for name in names]
              for names, _ in files]
    paths = [path for group in groups for path in group]
    outputs = {Path(path).resolve() for path in paths}
    for option, value in _given_inputs(args):
        if Path(value).resolve() in outputs:
            raise ConfigError(f"--out {args.out} would overwrite --{option} {value}")
    folder = out.parent if single else out
    try:
        folder.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the --out directory {folder}: {exc.strerror}") from exc
    for group, (_, write) in zip(groups, files):
        path = group[0] if len(group) == 1 else out
        try:
            write(path)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {path}: {exc.strerror}") from exc
    print(text + "".join(f"{path}\n" for path in ([] if single and text else paths)), end="")


def _load_pairs(args):
    """Ingest --input and read --masks; returns (mask metadata, [(episode, mask), ...]).

    The mask file defines the episode set, in sorted key order. Each pair must
    pass the pairing rule of core.split_mask; each error names the masks file
    and the episode. A record's bits are built only once its T is the
    episode's length, so a T that no episode has allocates nothing.
    """
    from . import masks

    episodes = ingest_csv(args.input, args.partition_gap)
    meta, records = masks._read_mask_records(args.masks)
    by_key = {(ep.patient_id, ep.episode_id): ep for ep in episodes}
    pairs = []
    for key in sorted(records):
        ep = by_key.get(key)
        if ep is None:
            raise CoverageError(f"{args.masks}: mask references unknown episode {key[0]}/{key[1]}")
        try:
            with _for_episode(key, args.masks):
                mask = records[key].mask(ep.T)
                split_mask(mask.bits, ep.observed)
        except DimensionError as exc:
            # --partition-gap decides where an episode ends, and so its length
            raise DimensionError(f"{exc}: the masks file's lengths do not match the episodes of "
                                 f"{args.input}; was it made with another --partition-gap?") from exc
        pairs.append((ep, mask))
    return meta, pairs


def _load_imputed(paths, pairs):
    """load_external for each --imputed file in turn; one file per method."""
    from . import imputers

    seen = {}
    for path in paths:
        imputations = imputers.load_external(path, pairs)
        if imputations:
            method = imputations[0].method
            if method in seen:
                raise RegimeBenchError(f"method {method!r} is in both {seen[method]} and {path}")
            seen[method] = path
        yield imputations


def cmd_synth(args) -> int:
    import dataclasses

    from . import synth

    fields = {f.name for f in dataclasses.fields(synth.SynthConfig)}
    given = {name: value for name, value in vars(args).items() if name in fields and value is not None}
    if args.meal_times is not None:
        try:
            given["meal_times"] = tuple(int(v) for v in args.meal_times.split(",") if v.strip())
        except ValueError:
            raise ConfigError(f"--meal-times must be comma-separated integers, got {args.meal_times!r}")
    result = synth.generate(synth.SynthConfig(**given))
    gap_masks = None
    if args.gap_model is not None:
        # a realistically gapped copy as well, for fitting exercises; its masks are drawn
        # before any file is written, so that a bad model leaves --out as it was
        from . import masks, missingness

        model = missingness.load_model(args.gap_model)
        gap_masks = masks.sample_masks(result.episodes, model, args.gap_seed)
    names = synth.fixture_names(gap_masks is not None)
    _write_outputs(args, [(names, partial(synth.write_fixture, result, gap_masks=gap_masks))])
    return 0


def cmd_fit(args) -> int:
    from . import missingness

    # no name holds the episodes or the block they view, so both are freed before
    # fit_regimes runs
    with _naming(EstimationError, f"{args.input}: "):
        gaps, onset = missingness.fit_onsets(ingest_csv(args.input, args.partition_gap))
    print("onset probabilities:", " ".join(f"{p:.4f}" for p in onset))
    with _naming((EstimationError, FitError), "mixture estimation failed: "):
        model = missingness.fit_regimes(gaps, onset, min_gaps=args.min_gaps)
    _write_outputs(args, [(None, partial(missingness.save_model, model))])
    return 0


def cmd_mask(args) -> int:
    from . import masks, missingness

    episodes = ingest_csv(args.input, args.partition_gap)
    model = missingness.load_model(args.model)
    samples = masks.sample_masks(episodes, model, args.seed)
    entries = [(ep.patient_id, ep.episode_id, mask) for ep, mask in zip(episodes, samples)]
    _write_outputs(args, [(None, partial(masks.write_masks_json, entries, provenance="empirical",
                                         condition=f"seed={args.seed}"))])
    return 0


_CONDITIONS = {"A": "ratio={ratio:g}", "B": "peaks={n_peaks}", "C": "hypo={hypo_window_min}min"}


def _protocol_mask(args, ep, tcr_map):
    """One episode's (mask, windows) under --protocol."""
    from . import masks, protocols

    if args.protocol == "C":
        intervals = tcr_map.get((ep.patient_id, ep.episode_id), [])
        return protocols.build_hypo_masks(ep, intervals, args.hypo_window_min)
    seed = masks.derive_seed(args.seed, ep.patient_id, ep.episode_id)
    if args.protocol == "A":
        candidates = protocols.find_stable_windows(ep)
        return protocols.allocate_stationary_mask(ep, candidates, args.ratio, seed)
    return protocols.build_peak_masks(ep, args.n_peaks, seed)


def cmd_stress(args) -> int:
    from . import masks, protocols

    # before any input, for every protocol: the library checks each only in the protocol
    # that uses it, once per episode
    protocols.check_ratio(args.ratio)
    protocols.check_n_peaks(args.n_peaks)
    protocols.check_window_minutes(args.hypo_window_min)
    episodes = ingest_csv(args.input, args.partition_gap)
    tcr_map = None
    if args.protocol == "C":
        if args.tcr is None:
            raise RegimeBenchError("protocol C requires --tcr metadata")
        lengths = {(ep.patient_id, ep.episode_id): ep.T for ep in episodes}
        tcr_map = protocols.read_tcr_csv(args.tcr, lengths)
    condition = _CONDITIONS[args.protocol].format(**vars(args))
    mask_entries, window_entries = [], []
    for ep in episodes:
        # every protocol needs complete glucose, and protocol A's gradient two samples; either
        # error names the input and the episode
        with _for_episode((ep.patient_id, ep.episode_id), args.input,
                          (IntegrityError, DimensionError)):
            mask, windows = _protocol_mask(args, ep, tcr_map)
        if args.protocol == "C" and not windows:
            continue  # protocol C masks only episodes with a hypoglycemic onset
        mask_entries.append((ep.patient_id, ep.episode_id, mask))
        window_entries.extend((ep.patient_id, ep.episode_id, w) for w in windows)
    _write_outputs(args, [
        (["masks.json"], partial(masks.write_masks_json, mask_entries,
                                 provenance=f"protocol_{args.protocol}", condition=condition)),
        (["windows.json"], partial(protocols.write_windows_json, window_entries,
                                   protocol=args.protocol, condition=condition)),
    ])
    return 0


def cmd_impute(args) -> int:
    from . import imputers

    _, pairs = _load_pairs(args)
    if args.external is not None:
        imputations = imputers.load_external(args.external, pairs)
    else:
        impute = imputers.BUILTIN_IMPUTERS[args.method]
        imputations = []
        for ep, mask in pairs:
            with _for_episode((ep.patient_id, ep.episode_id)):
                imputations.append(impute(ep, mask))
    _write_outputs(args, [(None, partial(imputers.write_imputations_csv, imputations))])
    return 0


def cmd_evaluate(args) -> int:
    from . import metrics

    meta, pairs = _load_pairs(args)
    protocol = meta.get("provenance", "empirical").removeprefix("protocol_")
    condition = meta.get("condition", "-")
    if args.windows is not None:
        from . import protocols

        protocols.check_windows(args.windows, protocol, condition, pairs)
    rows, unmasked, unobserved = metrics.score_pairs(
        pairs, _load_imputed(args.imputed, pairs), (protocol, condition))
    for skipped, reason in ((unmasked, "with no masked samples"),
                            (unobserved, "whose masked samples were never observed")):
        if skipped:
            print(f"evaluate: skipped {skipped} of {len(pairs)} episodes {reason}", file=sys.stderr)
    table = metrics.render_table(rows)
    _write_outputs(args, [
        (["report.json"], partial(metrics.write_report, rows)),
        (["table.txt"], partial(Path.write_text, data=table)),
    ], text=table)
    return 0


_CAL_FILTERS = {
    "all": None,
    "below-70": lambda y: y < EUGLYCEMIC_LOW,
    "above-140": lambda y: y > EUGLYCEMIC_HIGH,
}


def cmd_calibrate(args) -> int:
    from . import metrics

    _, pairs = _load_pairs(args)
    if not pairs:
        raise CoverageError(f"{args.masks}: no mask records to calibrate")
    summaries, files = [], []
    for path, imputations in zip(args.imputed, _load_imputed(args.imputed, pairs)):
        method = imputations[0].method
        if "/" in method or "\0" in method or method in (".", ".."):
            raise RegimeBenchError(f"{path}: method {method!r} is not a plain file name, so it "
                                   "cannot name calibration_<method>.csv")
        triples = [(ep.glucose, imp.values, mask) for (ep, mask), imp in zip(pairs, imputations)]
        with _naming(MetricDomainError, f"{path}: ", f" (--filter {args.filter})"):
            summary = metrics.pooled_calibration(triples, _CAL_FILTERS[args.filter])
        summaries.append((method, summary))
        files.append(([f"calibration_{method}.csv"], partial(metrics.write_calibration_csv, summary)))
    files.append((["calibration.json"], partial(metrics.write_calibration_json, summaries,
                                                args.filter)))
    _write_outputs(args, files)
    return 0


def cmd_route(args) -> int:
    from . import imputers, protocols, router

    # before any input: classify_gap, which checks both too, runs only when a mask hides a gap
    router.check_context_minutes(args.context_min)
    router.check_gradient_threshold(args.gradient_threshold)
    _, pairs = _load_pairs(args)
    if args.external is not None:
        externals = imputers.load_external(args.external, pairs)
    else:
        externals = [None] * len(pairs)
    criteria = protocols.StabilityCriteria(gradient_threshold=args.gradient_threshold)
    imputations, decision_entries = [], []
    for (ep, mask), external in zip(pairs, externals):
        with _for_episode((ep.patient_id, ep.episode_id)):
            imputation, decisions = router.adaptive_impute(
                ep, mask, external, criteria, args.context_min
            )
        imputations.append(imputation)
        decision_entries.extend((ep.patient_id, ep.episode_id, d) for d in decisions)
    _write_outputs(args, [
        (["routed.csv"], partial(imputers.write_imputations_csv, imputations)),
        (["routing.json"], partial(router.write_routing_json, decision_entries)),
    ])
    return 0


def cmd_report(args) -> int:
    from . import metrics

    table = metrics.render_table(metrics.read_report(args.input))
    _write_outputs(args, [(None, lambda path: Path(path).write_text(table))], text=table)
    return 0


def _add_truth_inputs(parser, masks=False, input_help=None):
    """Declare --input, then --masks if asked, then --partition-gap."""
    parser.add_argument("--input", required=True, help=input_help)
    if masks:
        parser.add_argument("--masks", required=True)
    parser.add_argument(
        "--partition-gap",
        type=int,
        default=240,
        help="episode split threshold in minutes (default 240)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regime-bench",
        description="Regime-stratified stress-test harness for CGM imputation. "
        "It runs single-threaded; REGIME_BENCH_THREADS, if set, must be a positive integer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic fixture")
    p.add_argument("--days", type=int, required=True)
    # no defaults here: cmd_synth passes only the flags that are set, so an unset one
    # takes SynthConfig's default
    p.add_argument("--baseline", type=float)
    p.add_argument("--meal-times", help="comma-separated minutes of day")
    p.add_argument("--meal-carbs", type=float)
    p.add_argument("--peak-amplitude", type=float)
    p.add_argument("--hypo-depth", type=float)
    p.add_argument("--tcr-meal", type=int)
    p.add_argument("--drift-amplitude", type=float)
    p.add_argument("--noise-std", type=float)
    p.add_argument("--patient-id")
    p.add_argument("--seed", type=int)
    p.add_argument("--gap-model", help="missingness model JSON; also write cgm_gapped.csv")
    p.add_argument("--gap-seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="estimate the missingness model from gapped data")
    _add_truth_inputs(p)
    p.add_argument("--min-gaps", type=int, default=30)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("mask", help="sample empirical masks for every episode")
    _add_truth_inputs(p)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="masks JSON path")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("stress", help="build protocol A/B/C evaluation masks")
    _add_truth_inputs(p)
    p.add_argument("--protocol", choices=("A", "B", "C"), required=True)
    p.add_argument("--ratio", type=float, default=0.1)
    p.add_argument("--n-peaks", type=int, default=1)
    p.add_argument("--hypo-window-min", type=int, default=60)
    p.add_argument("--tcr", help="TCR metadata CSV (protocol C)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_stress)

    p = sub.add_parser("impute", help="run a baseline or attach external imputations")
    _add_truth_inputs(p, masks=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--method", choices=IMPUTE_METHODS)
    group.add_argument("--external", help="external imputation CSV")
    p.add_argument("--out", required=True, help="imputed CSV path")
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("evaluate", help="score imputations and render the results table")
    _add_truth_inputs(p, masks=True, input_help="ground-truth CGM CSV")
    p.add_argument("--imputed", action="append", required=True)
    p.add_argument("--windows", help="windows JSON, checked against --masks")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("calibrate", help="conditional distribution summaries")
    _add_truth_inputs(p, masks=True)
    p.add_argument("--imputed", action="append", required=True)
    p.add_argument("--filter", choices=sorted(_CAL_FILTERS), default="all")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("route", help="adaptive imputation: Lerp vs external per gap")
    _add_truth_inputs(p, masks=True)
    p.add_argument("--external")
    p.add_argument("--gradient-threshold", type=float, default=0.6)
    p.add_argument("--context-min", type=int, default=30)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("report", help="re-render a report JSON as a plain-text table")
    p.add_argument("--input", required=True, help="report.json path")
    p.add_argument("--out", required=True, help="table text path")
    p.set_defaults(func=cmd_report)

    return parser


def _unreadable_input(args, exc):
    """The error line for an OSError on a file of an _INPUTS option, naming it as typed, or None.

    The readers open each path as given, so Path equality finds it (``./a`` is ``a``); resolving
    would raise RuntimeError on a symlink loop.
    """
    if isinstance(exc, OSError) and isinstance(exc.filename, str):
        for option, value in _given_inputs(args):
            if Path(value) == Path(exc.filename):
                return f"cannot read --{option} {value}: {exc.strerror}"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_worker_cap()
        return args.func(args)
    except (RegimeBenchError, OSError) as exc:
        print(f"error: {_unreadable_input(args, exc) or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
