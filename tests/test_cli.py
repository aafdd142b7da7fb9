import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import build_injected_model, gapped_days
from regime_bench import cli, core, imputers, masks, missingness, protocols, synth
from regime_bench.errors import RegimeBenchError
from regime_bench.imputers import Imputation


def run(*args):
    return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Gapped 300-day corpus on disk plus its in-memory twin."""
    root = tmp_path_factory.mktemp("cli-corpus")
    model = build_injected_model()
    truth, gapped = gapped_days(model, 300, master_seed=55, synth_seed=23)
    truth_csv = root / "truth.csv"
    gapped_csv = root / "gapped.csv"
    core.export_csv(truth, truth_csv)
    core.export_csv(gapped, gapped_csv)
    return {"root": root, "truth_csv": truth_csv, "gapped_csv": gapped_csv, "truth": truth}


class TestSynthCommand:
    def test_writes_fixture_files(self, tmp_path, capsys):
        assert run("synth", "--days", 2, "--hypo-depth", 10, "--out", tmp_path / "fx") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        for name in ("cgm.csv", "tcr.csv", "labels.csv"):
            assert (tmp_path / "fx" / name).exists()

    def test_deterministic_bytes(self, tmp_path):
        for sub in ("a", "b"):
            assert run("synth", "--days", 2, "--noise-std", 1.5, "--seed", 3, "--out", tmp_path / sub) == 0
        for name in ("cgm.csv", "tcr.csv", "labels.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_bad_config_rejected(self, tmp_path, capsys):
        assert run("synth", "--days", 1, "--baseline", 200, "--out", tmp_path) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_integer_meal_time_rejected(self, tmp_path, capsys):
        assert run("synth", "--days", 1, "--meal-times", "480,abc", "--out", tmp_path) == 1
        assert capsys.readouterr().err == (
            "error: --meal-times must be comma-separated integers, got '480,abc'\n"
        )


class TestFitCommand:
    def test_matches_library_pipeline(self, corpus, tmp_path):
        model_path = tmp_path / "model.json"
        assert run("fit", "--input", corpus["gapped_csv"], "--out", model_path) == 0
        via_cli = missingness.load_model(model_path)
        episodes = core.ingest_csv(corpus["gapped_csv"], 240)
        assert missingness.model_to_dict(via_cli) == missingness.model_to_dict(
            missingness.fit_model(episodes)
        )

    def test_gapless_input_reports_and_fails(self, tmp_path, capsys):
        assert run("synth", "--days", 3, "--out", tmp_path / "fx") == 0
        code = run("fit", "--input", tmp_path / "fx" / "cgm.csv", "--out", tmp_path / "model.json")
        captured = capsys.readouterr()
        assert code == 1
        assert "onset probabilities:" in captured.out
        assert "0.0000" in captured.out
        assert "mixture estimation failed" in captured.err
        assert not (tmp_path / "model.json").exists()

    def test_malformed_csv_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("patient_id,timestamp,glucose,carbs,bolus,basal\np1,zero,100,0,0,0\n")
        assert run("fit", "--input", bad, "--out", tmp_path / "m.json") == 1
        assert "error:" in capsys.readouterr().err


class TestMaskCommand:
    @pytest.fixture()
    def model_path(self, corpus, tmp_path):
        path = tmp_path / "model.json"
        episodes = core.ingest_csv(corpus["gapped_csv"], 240)
        missingness.save_model(missingness.fit_model(episodes), path)
        return path

    def test_same_seed_identical_files(self, corpus, model_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(
                "mask", "--input", corpus["truth_csv"], "--model", model_path,
                "--seed", 7, "--out", path,
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_onset_model_empty_gaps(self, corpus, tmp_path):
        mix = missingness.make_mixture(0.02, 0.05, 0.01, 120.0, 15.0, 0.0005)
        model = missingness.MissingnessModel(
            (0.0,) * 24, missingness.RegimeModel(0.3, mix), missingness.RegimeModel(0.5, mix)
        )
        model_path = tmp_path / "zero.json"
        missingness.save_model(model, model_path)
        out = tmp_path / "masks.json"
        assert run(
            "mask", "--input", corpus["truth_csv"], "--model", model_path,
            "--seed", 1, "--out", out,
        ) == 0
        doc = json.loads(out.read_text())
        assert all(rec["gaps"] == [] for rec in doc["masks"])

    @pytest.mark.parametrize("record, field, value, message", [
        ("day", "k", 0, "day.k must be positive, got 0"),
        ("night", "sigma", 0.0, "night.sigma must be positive, got 0.0"),
        ("day", "pi_short", "0.3", "day.pi_short must be a finite number, got '0.3'"),
        ("night", "pi_short", 7.0, "night.pi_short must lie in [0, 1], got 7.0"),
        ("onset_prob", 0, True, "onset_prob[0] must be a finite number, got True"),
        ("day", "w_exp", -3.0, "day.w_exp must be non-negative, got -3.0"),
        ("night", "mu", None, "night.mu must be a finite number, got None"),
    ], ids=["k zero", "sigma zero", "pi_short text", "pi_short 7", "onset bool", "weight negative",
            "mu null"])
    def test_bad_model_field_names_the_file_and_the_field(self, protocol_fixture, tmp_path, capsys,
                                                          record, field, value, message):
        bad = tmp_path / "model.json"
        missingness.save_model(build_injected_model(), bad)
        doc = json.loads(bad.read_text())
        doc[record][field] = value
        bad.write_text(json.dumps(doc))
        out = tmp_path / "masks.json"
        assert run("mask", "--input", protocol_fixture / "cgm.csv", "--model", bad,
                   "--seed", 1, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def protocol_fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-protocol")
    assert run(
        "synth", "--days", 6, "--hypo-depth", 15, "--noise-std", 1.0,
        "--seed", 2, "--out", root,
    ) == 0
    return root


class TestStressCommand:
    def test_protocol_a_outputs(self, protocol_fixture, tmp_path):
        out = tmp_path / "A"
        assert run(
            "stress", "--input", protocol_fixture / "cgm.csv", "--protocol", "A",
            "--ratio", 0.1, "--seed", 4, "--out", out,
        ) == 0
        meta, mask_map = masks.read_masks_json(out / "masks.json")
        assert meta["provenance"] == "protocol_A"
        assert meta["condition"] == "ratio=0.1"
        assert all(int((m.bits == 0).sum()) == 29 for m in mask_map.values())
        assert (out / "windows.json").exists()

    def test_protocol_b_runs(self, protocol_fixture, tmp_path):
        out = tmp_path / "B"
        assert run(
            "stress", "--input", protocol_fixture / "cgm.csv", "--protocol", "B",
            "--n-peaks", 2, "--seed", 4, "--out", out,
        ) == 0
        doc = json.loads((out / "windows.json").read_text())
        assert doc["protocol"] == "B"
        per_episode = {}
        for rec in doc["windows"]:
            per_episode.setdefault(rec["episode_id"], []).append(rec)
            assert rec["start_index"] > rec["meal_index"]
        assert all(len(v) == 2 for v in per_episode.values())

    def test_protocol_b_too_many_peaks_fails(self, tmp_path, capsys):
        assert run(
            "synth", "--days", 1, "--meal-times", "480,900", "--out", tmp_path / "fx",
        ) == 0
        code = run(
            "stress", "--input", tmp_path / "fx" / "cgm.csv", "--protocol", "B",
            "--n-peaks", 3, "--seed", 1, "--out", tmp_path / "B",
        )
        assert code == 1
        assert "peak windows" in capsys.readouterr().err

    def test_protocol_c_requires_tcr(self, protocol_fixture, tmp_path, capsys):
        code = run(
            "stress", "--input", protocol_fixture / "cgm.csv", "--protocol", "C",
            "--seed", 1, "--out", tmp_path / "C",
        )
        assert code == 1
        assert "requires --tcr" in capsys.readouterr().err

    def test_protocol_c_leaves_out_episodes_without_onset(self, protocol_fixture, tmp_path):
        # episode 1's interval is pre-meal and euglycemic, episodes 2-5 have none
        rows = [("synth-001", 0, 126, 174), ("synth-001", 1, 0, 12)]
        tcr = tmp_path / "tcr.csv"
        protocols.write_tcr_csv(rows, tcr)
        out = tmp_path / "C"
        assert run("stress", "--input", protocol_fixture / "cgm.csv", "--protocol", "C",
                   "--tcr", tcr, "--seed", 1, "--out", out) == 0
        _, mask_map = masks.read_masks_json(out / "masks.json")
        assert list(mask_map) == [("synth-001", 0)]
        _, windows = protocols.read_windows_json(out / "windows.json")
        assert [(patient, episode) for patient, episode, _ in windows] == [("synth-001", 0)]

    def test_protocol_c_windows_contain_hypoglycemia(self, protocol_fixture, tmp_path):
        out = tmp_path / "C"
        assert run(
            "stress", "--input", protocol_fixture / "cgm.csv", "--protocol", "C",
            "--tcr", protocol_fixture / "tcr.csv", "--seed", 1, "--out", out,
        ) == 0
        episodes = {
            (ep.patient_id, ep.episode_id): ep
            for ep in core.ingest_csv(protocol_fixture / "cgm.csv", 240)
        }
        doc = json.loads((out / "windows.json").read_text())
        assert doc["windows"], "expected at least one hypoglycemia window"
        for rec in doc["windows"]:
            ep = episodes[(rec["patient_id"], rec["episode_id"])]
            seg = ep.glucose[rec["start_index"] : rec["end_index"]]
            assert (seg < 70).any()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, protocol_fixture):
    """Protocol-A masks plus all four baseline imputations."""
    root = tmp_path_factory.mktemp("cli-pipeline")
    cgm = protocol_fixture / "cgm.csv"
    stress_dir = root / "stress"
    assert run(
        "stress", "--input", cgm, "--protocol", "A", "--ratio", 0.2,
        "--seed", 11, "--out", stress_dir,
    ) == 0
    imputed = {}
    for method in ("mean", "median", "locf", "lerp"):
        path = root / f"{method}.csv"
        assert run(
            "impute", "--input", cgm, "--masks", stress_dir / "masks.json",
            "--method", method, "--out", path,
        ) == 0
        imputed[method] = path
    return {"root": root, "cgm": cgm, "masks": stress_dir / "masks.json",
            "windows": stress_dir / "windows.json", "imputed": imputed}


def _unknown_episode(rec):
    rec["patient_id"] = "ghost"
    return "{masks}: mask references unknown episode ghost/{episode_id}"


# the pairing error for masks whose lengths are not those of --input's episodes
LENGTH_MISMATCH = (
    "{masks}: mask length {T} != episode length {T_truth} for {patient_id}/{episode_id}: the masks "
    "file's lengths do not match the episodes of {cgm}; was it made with another --partition-gap?"
)


def _length_mismatch(rec):
    rec["T"] += 1
    return LENGTH_MISMATCH


class TestMaskEpisodePairing:
    """impute, evaluate, calibrate and route share one truth+masks loader."""

    @pytest.mark.parametrize("edit", [_unknown_episode, _length_mismatch], ids=["unknown", "length"])
    @pytest.mark.parametrize("command", ["impute", "evaluate", "calibrate", "route"])
    def test_mismatch_fails_with_coverage_error(self, pipeline, tmp_path, capsys, command, edit):
        doc = json.loads(pipeline["masks"].read_text())
        rec = doc["masks"][0]
        T_truth = rec["T"]
        bad = tmp_path / "masks.json"
        expected = edit(rec).format(T_truth=T_truth, masks=bad, cgm=pipeline["cgm"], **rec)
        bad.write_text(json.dumps(doc))
        extra = {
            "impute": ["--method", "lerp", "--out", tmp_path / "out.csv"],
            "evaluate": ["--imputed", pipeline["imputed"]["lerp"], "--out", tmp_path / "out"],
            "calibrate": ["--imputed", pipeline["imputed"]["lerp"], "--out", tmp_path / "out"],
            "route": ["--out", tmp_path / "out"],
        }[command]
        code = run(command, "--input", pipeline["cgm"], "--masks", bad, *extra)
        assert code == 1
        assert capsys.readouterr().err == f"error: {expected}\n"

    def test_another_partition_gap_names_both_files(self, pipeline, tmp_path, capsys):
        """Masks made on --input's episodes, paired with that file cut by another --partition-gap."""
        merged = core.ingest_csv(pipeline["cgm"], 5000)[0]
        assert run("impute", "--input", pipeline["cgm"], "--masks", pipeline["masks"],
                   "--partition-gap", 5000, "--method", "lerp", "--out", tmp_path / "out.csv") == 1
        _, mask_map = masks.read_masks_json(pipeline["masks"])
        key = min(mask_map)
        assert key == (merged.patient_id, merged.episode_id) and mask_map[key].T < merged.T
        expected = LENGTH_MISMATCH.format(
            masks=pipeline["masks"], T=mask_map[key].T, T_truth=merged.T, patient_id=key[0],
            episode_id=key[1], cgm=pipeline["cgm"])
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (tmp_path / "out.csv").exists()


class TestImputeCommand:
    def test_unknown_method_usage_error(self, pipeline):
        with pytest.raises(SystemExit) as exc:
            run(
                "impute", "--input", pipeline["cgm"], "--masks", pipeline["masks"],
                "--method", "spline", "--out", "x.csv",
            )
        assert exc.value.code == 2

    def test_external_integrity_failure_names_episode(self, pipeline, tmp_path, capsys):
        text = pipeline["imputed"]["lerp"].read_text()
        lines = text.splitlines()
        patient, episode, t, value, method = lines[1].split(",")
        lines[1] = ",".join([patient, episode, t, str(float(value) + 1.0), method])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = run(
            "impute", "--input", pipeline["cgm"], "--masks", pipeline["masks"],
            "--external", bad, "--out", tmp_path / "out.csv",
        )
        assert code == 1
        assert f"{patient}/{episode}" in capsys.readouterr().err

    def test_external_echo_accepted(self, pipeline, tmp_path):
        out = tmp_path / "echo.csv"
        assert run(
            "impute", "--input", pipeline["cgm"], "--masks", pipeline["masks"],
            "--external", pipeline["imputed"]["lerp"], "--out", out,
        ) == 0
        assert out.read_bytes() == pipeline["imputed"]["lerp"].read_bytes()


class TestEvaluateCommand:
    def test_perfect_imputation_all_zero(self, pipeline, tmp_path):
        episodes = core.ingest_csv(pipeline["cgm"], 240)
        _, mask_map = masks.read_masks_json(pipeline["masks"])
        perfect = [
            Imputation(ep.glucose.copy(), "oracle", (ep.patient_id, ep.episode_id))
            for ep in episodes
        ]
        perfect_csv = tmp_path / "oracle.csv"
        imputers.write_imputations_csv(perfect, perfect_csv)
        out = tmp_path / "eval"
        assert run(
            "evaluate", "--input", pipeline["cgm"], "--imputed", perfect_csv,
            "--masks", pipeline["masks"], "--out", out,
        ) == 0
        (group,) = json.loads((out / "report.json").read_text())["groups"]
        assert group["model"] == "oracle"
        for metric in ("rmse", "bias", "emp_se", "mard", "dtw"):
            assert group[metric] == 0.0

    def test_two_methods_ranked(self, pipeline, tmp_path):
        out = tmp_path / "eval"
        assert run(
            "evaluate", "--input", pipeline["cgm"],
            "--imputed", pipeline["imputed"]["lerp"], "--imputed", pipeline["imputed"]["mean"],
            "--masks", pipeline["masks"], "--windows", pipeline["windows"],
            "--out", out,
        ) == 0
        doc = json.loads((out / "report.json").read_text())
        by_model = {g["model"]: g for g in doc["groups"]}
        assert by_model["lerp"]["protocol"] == "A"
        assert by_model["lerp"]["rmse"] <= by_model["mean"]["rmse"]
        assert "rmse" in by_model["lerp"]["best"]
        table = (out / "table.txt").read_text()
        assert "protocol=A" in table and "lerp" in table

    def test_skipped_episodes_reported_on_stderr(self, pipeline, tmp_path, capsys):
        doc = json.loads(pipeline["masks"].read_text())
        doc["masks"][0]["gaps"] = []  # nothing masked on the first episode
        masks_path = tmp_path / "masks.json"
        masks_path.write_text(json.dumps(doc))
        imputed = tmp_path / "lerp.csv"
        assert run("impute", "--input", pipeline["cgm"], "--masks", masks_path,
                   "--method", "lerp", "--out", imputed) == 0
        capsys.readouterr()
        out = tmp_path / "eval"
        assert run("evaluate", "--input", pipeline["cgm"], "--imputed", imputed,
                   "--masks", masks_path, "--out", out) == 0
        captured = capsys.readouterr()
        n = len(doc["masks"])
        assert captured.err == f"evaluate: skipped 1 of {n} episodes with no masked samples\n"
        assert captured.out.endswith(f"{out / 'report.json'}\n{out / 'table.txt'}\n")
        (group,) = json.loads((out / "report.json").read_text())["groups"]
        assert group["n_episodes"] == n - 1

    def test_nothing_skipped_nothing_on_stderr(self, pipeline, tmp_path, capsys):
        assert run("evaluate", "--input", pipeline["cgm"], "--imputed", pipeline["imputed"]["lerp"],
                   "--masks", pipeline["masks"], "--out", tmp_path / "eval") == 0
        assert capsys.readouterr().err == ""

    def test_missing_mask_file_fails(self, pipeline, tmp_path, capsys):
        code = run(
            "evaluate", "--input", pipeline["cgm"], "--imputed", pipeline["imputed"]["lerp"],
            "--masks", tmp_path / "nope.json", "--out", tmp_path / "eval",
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_summary_and_histogram(self, pipeline, tmp_path):
        out = tmp_path / "cal"
        assert run(
            "calibrate", "--input", pipeline["cgm"], "--imputed", pipeline["imputed"]["lerp"],
            "--masks", pipeline["masks"], "--out", out,
        ) == 0
        doc = json.loads((out / "calibration.json").read_text())
        (summary,) = doc["summaries"]
        assert summary["model"] == "lerp"
        assert summary["delta"] == summary["imputed_mean"] - summary["truth_mean"]
        hist_lines = (out / "calibration_lerp.csv").read_text().strip().splitlines()
        assert hist_lines[0] == "bin_left,bin_right,truth_count,imputed_count"
        total = sum(int(line.split(",")[2]) for line in hist_lines[1:])
        assert total == summary["n_points"]

    def test_empty_masks_file_fails(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "masks.json"
        empty.write_text(json.dumps({"schema_version": 1, "masks": []}))
        code = run(
            "calibrate", "--input", pipeline["cgm"], "--imputed", pipeline["imputed"]["lerp"],
            "--masks", empty, "--out", tmp_path / "cal",
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {empty}: no mask records to calibrate\n"


class TestImputedFiles:
    """evaluate and calibrate take one --imputed file per method."""

    @pytest.mark.parametrize("command, output", [("evaluate", "report.json"),
                                                 ("calibrate", "calibration.json")])
    def test_repeated_method_rejected(self, pipeline, tmp_path, capsys, command, output):
        first = pipeline["imputed"]["lerp"]
        second = tmp_path / "lerp-again.csv"
        second.write_bytes(first.read_bytes())
        out = tmp_path / "out"
        code = run(
            command, "--input", pipeline["cgm"], "--masks", pipeline["masks"],
            "--imputed", first, "--imputed", second, "--out", out,
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: method 'lerp' is in both {first} and {second}\n"
        assert not (out / output).exists()


class TestRouteCommand:
    def test_stationary_corpus_routes_to_lerp(self, tmp_path):
        # meal-free fixture: every masked window has flat, euglycemic context
        fx = tmp_path / "fx"
        assert run(
            "synth", "--days", 2, "--meal-times", "", "--noise-std", 0.5,
            "--seed", 6, "--out", fx,
        ) == 0
        stress_dir = tmp_path / "A"
        assert run(
            "stress", "--input", fx / "cgm.csv", "--protocol", "A",
            "--ratio", 0.2, "--seed", 9, "--out", stress_dir,
        ) == 0
        lerp_csv = tmp_path / "lerp.csv"
        assert run(
            "impute", "--input", fx / "cgm.csv", "--masks", stress_dir / "masks.json",
            "--method", "lerp", "--out", lerp_csv,
        ) == 0
        out = tmp_path / "route"
        assert run(
            "route", "--input", fx / "cgm.csv", "--masks", stress_dir / "masks.json",
            "--out", out,
        ) == 0
        doc = json.loads((out / "routing.json").read_text())
        assert doc["summary"]["stationary_fraction"] == 1.0
        routed = (out / "routed.csv").read_text()
        assert routed.replace("adaptive", "lerp") == lerp_csv.read_text()

    def test_transient_without_external_fails(self, protocol_fixture, tmp_path, capsys):
        stress_dir = tmp_path / "B"
        assert run(
            "stress", "--input", protocol_fixture / "cgm.csv", "--protocol", "B",
            "--n-peaks", 1, "--seed", 5, "--out", stress_dir,
        ) == 0
        code = run(
            "route", "--input", protocol_fixture / "cgm.csv",
            "--masks", stress_dir / "masks.json", "--out", tmp_path / "route",
        )
        assert code == 1
        assert "no external source" in capsys.readouterr().err


class TestReportCommand:
    def test_rerender_matches_table(self, pipeline, tmp_path):
        out = tmp_path / "eval"
        assert run(
            "evaluate", "--input", pipeline["cgm"], "--imputed", pipeline["imputed"]["lerp"],
            "--masks", pipeline["masks"], "--out", out,
        ) == 0
        rendered = tmp_path / "again.txt"
        assert run("report", "--input", out / "report.json", "--out", rendered) == 0
        assert rendered.read_bytes() == (out / "table.txt").read_bytes()

    @pytest.mark.parametrize(
        "group, detail",
        [
            ({}, "missing field 'model'"),
            ("rmse-text", "field 'rmse' has type str"),
            (5, "expected an object, got int"),
        ],
        ids=["empty", "rmse-text", "not-object"],
    )
    def test_malformed_group_names_the_record(self, pipeline, tmp_path, capsys, group, detail):
        out = tmp_path / "eval"
        assert run(
            "evaluate", "--input", pipeline["cgm"], "--imputed", pipeline["imputed"]["lerp"],
            "--masks", pipeline["masks"], "--out", out,
        ) == 0
        doc = json.loads((out / "report.json").read_text())
        if group == "rmse-text":
            group = dict(doc["groups"][0], rmse="x")
        doc["groups"].append(group)
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("report", "--input", bad, "--out", tmp_path / "table.txt") == 1
        assert capsys.readouterr().err == f"error: {bad}: groups[1]: {detail}\n"
        assert not (tmp_path / "table.txt").exists()


ENVELOPE_CASES = {
    "array": lambda key: "[]",
    "not-json": lambda key: "not json",
    "version": lambda key: json.dumps({"schema_version": 2, key: []}),
    "no-records": lambda key: json.dumps({"schema_version": 1}),
}


class TestFileEnvelope:
    """Every JSON reader rejects a malformed document with one error naming the file."""

    def readers(self, pipeline, bad, out):
        # reader -> (records key, library loader, CLI run that reads the document)
        cgm = pipeline["cgm"]
        return {
            "masks": ("masks", masks.read_masks_json,
                      ["impute", "--input", cgm, "--masks", bad, "--method", "lerp",
                       "--out", out / "lerp.csv"]),
            "model": ("onset_prob", missingness.load_model,
                      ["mask", "--input", cgm, "--model", bad, "--seed", 1,
                       "--out", out / "masks.json"]),
            "windows": ("windows", protocols.read_windows_json,
                        ["evaluate", "--input", cgm, "--imputed", pipeline["imputed"]["lerp"],
                         "--masks", pipeline["masks"], "--windows", bad, "--out", out / "eval"]),
            "report": ("groups", None, ["report", "--input", bad, "--out", out / "table.txt"]),
        }

    @pytest.mark.parametrize("case", sorted(ENVELOPE_CASES))
    @pytest.mark.parametrize("reader", ["masks", "model", "windows", "report"])
    def test_malformed_document_names_the_file(self, pipeline, tmp_path, capsys, reader, case):
        bad = tmp_path / f"{reader}.json"
        key, load, argv = self.readers(pipeline, bad, tmp_path)[reader]
        bad.write_text(ENVELOPE_CASES[case](key))
        if load is not None:
            with pytest.raises(RegimeBenchError, match=re.escape(str(bad))):
                load(bad)
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert err.count("\n") == 1


    @pytest.mark.parametrize(
        "reader, constant",
        [("model", "NaN"), ("masks", "-Infinity"), ("report", "Infinity")],
    )
    def test_non_finite_number_names_the_file(self, pipeline, tmp_path, capsys, reader, constant):
        bad = tmp_path / f"{reader}.json"
        _, load, argv = self.readers(pipeline, bad, tmp_path)[reader]
        value = float(constant.lower().replace("infinity", "inf"))
        if reader == "model":
            missingness.save_model(build_injected_model(), bad)
            doc = json.loads(bad.read_text())
            doc["onset_prob"][0] = value
        elif reader == "masks":
            doc = json.loads(pipeline["masks"].read_text())
            doc["masks"][0]["seed"] = value
        else:
            assert run("evaluate", "--input", pipeline["cgm"],
                       "--imputed", pipeline["imputed"]["lerp"],
                       "--masks", pipeline["masks"], "--out", tmp_path / "eval") == 0
            doc = json.loads((tmp_path / "eval" / "report.json").read_text())
            doc["groups"][0]["rmse"] = value
        bad.write_text(json.dumps(doc))
        assert constant in bad.read_text()
        if load is not None:
            with pytest.raises(RegimeBenchError, match=re.escape(str(bad))):
                load(bad)
        capsys.readouterr()
        assert run(*argv) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: invalid JSON: non-finite number {constant}\n"
        )

    @pytest.mark.parametrize("shape", ["5000-digit condition", "nested 100000 deep"])
    def test_json_the_decoder_cannot_hold_names_the_file(self, pipeline, tmp_path, capsys, shape):
        bad = tmp_path / "masks.json"
        if shape.startswith("5000"):
            doc = json.loads(pipeline["masks"].read_text())
            doc["condition"] = 0
            text = json.dumps(doc).replace('"condition": 0', '"condition": ' + "7" * 5000)
        else:
            text = '{"schema_version": 1, "masks": ' + "[" * 100_000 + "]" * 100_000 + "}"
        bad.write_text(text)
        with pytest.raises((ValueError, RecursionError)) as raised:
            json.loads(text)
        capsys.readouterr()
        assert run("impute", "--input", pipeline["cgm"], "--masks", bad, "--method", "lerp",
                   "--out", tmp_path / "lerp.csv") == 1
        assert capsys.readouterr().err == f"error: {bad}: invalid JSON: {raised.value}\n"
        assert not (tmp_path / "lerp.csv").exists()


class TestGappedTruthScoring:
    """Masks over gapped truth: a never-observed index is imputed but never scored."""

    @pytest.fixture(scope="class")
    def gapped(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-gapped")
        model = root / "model.json"
        missingness.save_model(build_injected_model(), model)
        assert run("synth", "--days", 4, "--noise-std", 1.0, "--seed", 5,
                   "--gap-model", model, "--gap-seed", 3, "--out", root) == 0
        cgm = root / "cgm_gapped.csv"
        entries, scored = [], {}
        for ep in core.ingest_csv(cgm, 240):
            observed = np.flatnonzero(ep.observed)
            bits = ep.observed.copy()  # hides every never-observed index
            picks = observed[[observed.size // 3, 2 * observed.size // 3]]
            bits[picks] = 0  # and two observed ones
            entries.append((ep.patient_id, ep.episode_id, masks.Mask(bits)))
            scored[(ep.patient_id, ep.episode_id)] = (ep.glucose[picks], picks)
        # some episode hides never-observed indices besides its two picks
        assert any((mask.bits == 0).sum() > 2 for _, _, mask in entries)
        masks_path = root / "masks.json"
        masks.write_masks_json(entries, masks_path)
        lerp = root / "lerp.csv"
        assert run("impute", "--input", cgm, "--masks", masks_path, "--method", "lerp",
                   "--out", lerp) == 0
        return {"root": root, "cgm": cgm, "masks": masks_path, "lerp": lerp, "scored": scored}

    @staticmethod
    def _lerp_values(path):
        values = {}
        for line in path.read_text().splitlines()[1:]:
            patient, episode, t, value, _ = line.split(",")
            values.setdefault((patient, int(episode)), []).append(float(value))
        return {key: np.array(v) for key, v in values.items()}

    def test_evaluate_scores_observed_hidden_samples_only(self, gapped, tmp_path):
        out = tmp_path / "eval"
        assert run("evaluate", "--input", gapped["cgm"], "--imputed", gapped["lerp"],
                   "--masks", gapped["masks"], "--out", out) == 0
        for name in ("report.json", "table.txt"):
            assert "nan" not in (out / name).read_text().lower()
        (group,) = json.loads((out / "report.json").read_text())["groups"]
        imputed = self._lerp_values(gapped["lerp"])
        rmse = [
            float(np.sqrt(np.mean((imputed[key][picks] - truth) ** 2)))
            for key, (truth, picks) in gapped["scored"].items()
        ]
        assert group["n_episodes"] == len(gapped["scored"])
        assert group["rmse"] == pytest.approx(float(np.mean(rmse)), rel=1e-12)

    def test_calibrate_pools_observed_hidden_samples_only(self, gapped, tmp_path):
        out = tmp_path / "cal"
        assert run("calibrate", "--input", gapped["cgm"], "--imputed", gapped["lerp"],
                   "--masks", gapped["masks"], "--out", out) == 0
        for name in ("calibration.json", "calibration_lerp.csv"):
            assert "nan" not in (out / name).read_text().lower()
        (summary,) = json.loads((out / "calibration.json").read_text())["summaries"]
        truth = np.concatenate([truth for truth, _ in gapped["scored"].values()])
        assert summary["n_points"] == truth.size == 2 * len(gapped["scored"])
        assert summary["truth_mean"] == pytest.approx(float(truth.mean()), rel=1e-12)

    def test_route_fills_from_the_retained_samples(self, gapped, tmp_path):
        out = tmp_path / "route"
        assert run("route", "--input", gapped["cgm"], "--masks", gapped["masks"],
                   "--external", gapped["lerp"], "--out", out) == 0
        truth = {(ep.patient_id, ep.episode_id): ep for ep in core.ingest_csv(gapped["cgm"], 240)}
        _, mask_map = masks.read_masks_json(gapped["masks"])
        decisions = json.loads((out / "routing.json").read_text())["decisions"]
        assert len(decisions) == sum(len(core.bits_to_runs(m.bits)) for m in mask_map.values())
        for d in decisions:
            key, start = (d["patient_id"], d["episode_id"]), d["start_index"]
            bits, glucose = mask_map[key].bits, truth[key].glucose
            for boundary, t in ((d["left_boundary"], start - 1),
                                (d["right_boundary"], start + d["length_samples"])):
                if boundary is not None:
                    assert bits[t] == 1 and boundary == glucose[t]
        routed, lerp = self._lerp_values(out / "routed.csv"), self._lerp_values(gapped["lerp"])
        assert routed.keys() == truth.keys()
        for key, values in routed.items():
            retained = mask_map[key].bits == 1
            assert np.array_equal(values[retained], truth[key].glucose[retained])
            assert np.array_equal(values[~retained], lerp[key][~retained])


class TestWorkerCap:
    def test_invalid_thread_cap_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REGIME_BENCH_THREADS", "zero")
        assert run("synth", "--days", 1, "--out", tmp_path / "fx") == 1
        assert "REGIME_BENCH_THREADS" in capsys.readouterr().err

    def test_valid_thread_cap_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REGIME_BENCH_THREADS", "4")
        assert run("synth", "--days", 1, "--out", tmp_path / "fx") == 0


def _fresh(code, **overrides):
    """Run code in a fresh interpreter with this package importable; returns the process.

    overrides set environment variables of the child; None unsets one.
    """
    src = Path(cli.__file__).resolve().parents[1]
    path = [str(src), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **overrides}
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def _last_line_of(code, **overrides):
    """Run code as _fresh does; returns its last output line."""
    proc = _fresh(code, **overrides)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _scipy_modules_after(code):
    """Run code in a fresh interpreter; returns the scipy modules it loaded."""
    return _last_line_of(
        code + "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )


class TestScipyLoadedOnlyWhereCalled:
    """No command loads scipy: fit's least squares and normal CDF are regime_bench.lsq's."""

    def test_importing_the_package_loads_no_scipy(self):
        assert _scipy_modules_after("import regime_bench, regime_bench.cli") == "[]"

    def test_protocol_a_stress_impute_evaluate_load_no_scipy(self, tmp_path):
        assert run("synth", "--days", 10, "--noise-std", 1.0, "--seed", 3, "--out", tmp_path) == 0
        cgm, stress, imputed = tmp_path / "cgm.csv", tmp_path / "A", tmp_path / "lerp.csv"
        steps = [
            ["stress", "--input", cgm, "--protocol", "A", "--seed", 1, "--out", stress],
            ["impute", "--input", cgm, "--masks", stress / "masks.json", "--method", "lerp",
             "--out", imputed],
            ["evaluate", "--input", cgm, "--imputed", imputed, "--masks", stress / "masks.json",
             "--windows", stress / "windows.json", "--out", tmp_path / "eval"],
        ]
        code = "from regime_bench.cli import main\n" + "\n".join(
            f"assert main({[str(a) for a in step]!r}) == 0" for step in steps
        )
        assert _scipy_modules_after(code) == "[]"
        assert (tmp_path / "eval" / "report.json").exists()


def _gapped_fixture(root):
    """An 8-day gapped fixture, drawn from the injected gap model; returns its gapped CGM file."""
    model = root / "bootstrap.json"
    missingness.save_model(build_injected_model(), model)
    assert run("synth", "--days", 8, "--hypo-depth", 12, "--noise-std", 1.0, "--seed", 3,
               "--gap-model", model, "--gap-seed", 5, "--out", root) == 0
    return root / "cgm_gapped.csv"


class TestFitDropsTheCorpus:
    def test_fresh_fit_loads_no_scipy_and_holds_no_episode(self, tmp_path):
        """No name holds the corpus while fit_regimes runs, and no scipy module is loaded."""
        argv = ["fit", "--input", str(_gapped_fixture(tmp_path)), "--min-gaps", "1",
                "--out", str(tmp_path / "model.json")]
        code = (
            "import gc, sys\n"
            "from regime_bench import cli, core, missingness\n"
            "alive, fit_regimes = [], missingness.fit_regimes\n"
            "def probe(*args, **kwargs):\n"
            "    alive.append(sum(isinstance(o, core.Episode) for o in gc.get_objects()))\n"
            "    return fit_regimes(*args, **kwargs)\n"
            "missingness.fit_regimes = probe\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(alive, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert _last_line_of(code) == "[0] []"


class TestFitWithoutScipy:
    def test_fit_runs_where_scipy_cannot_be_imported(self, tmp_path):
        """The same stdout and model.json with scipy refused by an import hook as without it."""
        out = tmp_path / "model.json"
        argv = ["fit", "--input", str(_gapped_fixture(tmp_path)), "--min-gaps", "1",
                "--out", str(out)]
        runs = {}
        for refused in (False, True):
            proc = _fresh(
                "import sys\n"
                "class RefuseScipy:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        if name.split('.')[0] == 'scipy':\n"
                "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
                f"if {refused!r}:\n"
                "    sys.meta_path.insert(0, RefuseScipy())\n"
                "    try:\n"
                "        import scipy.optimize\n"
                "        sys.exit('the hook let scipy through')\n"
                "    except ModuleNotFoundError:\n"
                "        pass\n"
                "from regime_bench.cli import main\n"
                f"sys.exit(main({argv!r}))"
            )
            assert (proc.returncode, proc.stderr) == (0, ""), refused
            runs[refused] = (proc.stdout, out.read_bytes())
            out.unlink()
        assert runs[True] == runs[False]


# the variables OpenBLAS reads for its thread count
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class TestBlasThreads:
    """Every command runs BLAS on one thread, decided in cli before numpy loads."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_cli_import_starts_no_blas_thread(self):
        # this process imported cli, so its own environment already holds the default
        code = ("import os, regime_bench.cli, numpy\n"
                "numpy.linalg.svd(numpy.ones((60, 6)))  # fit's BLAS and LAPACK work\n"
                "print(len(os.listdir('/proc/self/task')))")
        assert _last_line_of(code, **dict.fromkeys(BLAS_THREAD_VARIABLES)) == "1"

    def test_explicit_setting_wins(self):
        code = "import os, regime_bench.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
        assert _last_line_of(code, OPENBLAS_NUM_THREADS="3") == "3"

    def test_importing_the_package_loads_no_numpy(self):
        assert _last_line_of("import sys, regime_bench\nprint('numpy' in sys.modules)") == "False"


# module -> the commands that load it; no other command may
LOADED_ONLY_BY = {
    "regime_bench.router": {"route"},
    "regime_bench.synth": {"synth"},
    "regime_bench.metrics": {"evaluate", "calibrate", "report"},
    "regime_bench.imputers": {"impute", "evaluate", "calibrate", "route"},
    "regime_bench.lsq": {"fit"},
    # fit's least squares and normal CDF are regime_bench.lsq's
    "scipy": set(),
    # OpenSSL's hashes, megabytes of RSS: cli blocks them, so numpy.random and seed
    # derivation take CPython's own, as the read cache's BLAKE2b does
    "_hashlib": set(),
    # about 13 ms of imports; scipy's least_squares loaded it
    "numpy.ma": set(),
}


class TestEachCommandLoadsOnlyWhatItRuns:
    """Each command, in a fresh interpreter, imports only the modules it runs."""

    def test_modules_loaded_by_each_command(self, tmp_path):
        model = tmp_path / "bootstrap.json"
        missingness.save_model(build_injected_model(), model)
        cgm, gapped, fx = tmp_path / "cgm.csv", tmp_path / "cgm_gapped.csv", tmp_path
        steps = [
            ["synth", "--days", 8, "--hypo-depth", 12, "--noise-std", 1.0, "--seed", 3,
             "--gap-model", model, "--gap-seed", 5, "--out", fx],
            ["fit", "--input", gapped, "--min-gaps", 1, "--out", fx / "model.json"],
            ["mask", "--input", cgm, "--model", model, "--seed", 1, "--out", fx / "masks.json"],
            ["stress", "--input", cgm, "--protocol", "A", "--seed", 1, "--out", fx / "A"],
            ["impute", "--input", cgm, "--masks", fx / "A" / "masks.json", "--method", "lerp",
             "--out", fx / "lerp.csv"],
            ["evaluate", "--input", cgm, "--imputed", fx / "lerp.csv",
             "--masks", fx / "A" / "masks.json", "--windows", fx / "A" / "windows.json",
             "--out", fx / "eval"],
            ["calibrate", "--input", cgm, "--imputed", fx / "lerp.csv",
             "--masks", fx / "A" / "masks.json", "--out", fx / "cal"],
            ["route", "--input", cgm, "--masks", fx / "A" / "masks.json", "--external",
             fx / "lerp.csv", "--out", fx / "route"],
            ["report", "--input", fx / "eval" / "report.json", "--out", fx / "table.txt"],
        ]
        names = sorted(LOADED_ONLY_BY)
        for step in steps:
            argv = [str(a) for a in step]
            loaded = _last_line_of(
                "import sys\nfrom regime_bench.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                # a blocked module is a None entry
                f"print(sorted(m for m in {names!r} if sys.modules.get(m) is not None))"
            )
            expected = [m for m in names if argv[0] in LOADED_ONLY_BY[m]]
            assert loaded == str(expected), argv[0]

    def test_openssl_when_a_builtin_hash_is_missing(self, two_days, tmp_path):
        """Without CPython's own SHA-256, cli leaves hashlib to OpenSSL: the same bytes, and
        no hashlib traceback on stderr."""
        blocked = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
        loaded, written = {}, {}
        for missing in (None, blocked):
            out = tmp_path / str(missing)
            argv = ["stress", "--input", str(two_days / "cgm.csv"), "--protocol", "A",
                    "--seed", "1", "--out", str(out)]
            proc = _fresh(
                "import sys\n"
                f"if {missing!r}:\n    sys.modules[{missing!r}] = None\n"
                "from regime_bench.cli import main\n"
                f"code = main({argv!r})\n"
                "print(sys.modules.get('_hashlib') is not None)\n"
                "sys.exit(code)"
            )
            assert (proc.returncode, proc.stderr) == (0, "")
            loaded[missing] = proc.stdout.splitlines()[-1]
            written[missing] = (out / "masks.json").read_bytes()
        assert loaded == {None: "False", blocked: "True"}
        assert written[None] == written[blocked]

    def test_method_choices_are_the_builtin_imputers(self):
        assert list(cli.IMPUTE_METHODS) == sorted(imputers.BUILTIN_IMPUTERS)


@pytest.fixture(scope="module")
def two_days(tmp_path_factory):
    """A 2-day fixture with 28 disjoint stable windows in episode 0."""
    root = tmp_path_factory.mktemp("cli-two-days")
    assert run("synth", "--days", 2, "--noise-std", 1, "--seed", 3, "--out", root) == 0
    return root


class TestProtocolAEdges:
    def test_zero_sample_target_masks_and_selects_nothing(self, two_days, tmp_path):
        out = tmp_path / "A"
        assert run("stress", "--input", two_days / "cgm.csv", "--protocol", "A",
                   "--ratio", 0.001, "--seed", 1, "--out", out) == 0
        assert json.loads((out / "windows.json").read_text())["windows"] == []
        records = json.loads((out / "masks.json").read_text())["masks"]
        assert records and all(rec["gaps"] == [] for rec in records)

    def test_capacity_error_names_the_episode(self, two_days, tmp_path, capsys):
        assert run("stress", "--input", two_days / "cgm.csv", "--protocol", "A",
                   "--ratio", 0.6, "--seed", 1, "--out", tmp_path / "A") == 1
        assert capsys.readouterr().err == (
            "error: episode synth-001/0 has only 28 disjoint stable windows; "
            "achievable ratio <= 0.5833\n"
        )


class TestProtocolCIntervals:
    """Protocol C rejects a TCR row it cannot use, naming the file and the line."""

    def _stress_c(self, fixture, tmp_path, rows):
        tcr = tmp_path / "tcr.csv"
        protocols.write_tcr_csv(rows, tcr)
        code = run("stress", "--input", fixture / "cgm.csv", "--protocol", "C", "--tcr", tcr,
                   "--seed", 1, "--out", tmp_path / "C")
        return code, tcr

    @pytest.mark.parametrize("patient, episode, line", [("synth-001", 7, 3), ("ghost", 0, 2)])
    def test_unknown_episode_rejected(self, protocol_fixture, tmp_path, capsys, patient, episode,
                                      line):
        code, tcr = self._stress_c(protocol_fixture, tmp_path,
                                   [("synth-001", 0, 126, 174), (patient, episode, 126, 174)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {tcr}: line {line}: episode {patient}/{episode} is not in the CGM input\n"
        )

    @pytest.mark.parametrize("start", [288, 300])
    def test_start_at_or_past_the_end_rejected(self, protocol_fixture, tmp_path, capsys, start):
        code, tcr = self._stress_c(protocol_fixture, tmp_path,
                                   [("synth-001", 0, 126, 174), ("synth-001", 1, start, 400)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {tcr}: line 3: tcr_start_index {start} is not before the end of episode "
            "synth-001/1 (T = 288)\n"
        )

    def test_end_past_the_episode_is_clamped(self, protocol_fixture, tmp_path, capsys):
        # an end past T reads as T
        code, _ = self._stress_c(protocol_fixture, tmp_path, [("synth-001", 0, 126, 400)])
        assert code == 0 and capsys.readouterr().err == ""
        clamped = json.loads((tmp_path / "C" / "windows.json").read_text())
        assert len(clamped["windows"]) == 1
        code, _ = self._stress_c(protocol_fixture, tmp_path, [("synth-001", 0, 126, 288)])
        assert code == 0
        assert json.loads((tmp_path / "C" / "windows.json").read_text()) == clamped


class TestEvaluateNothingScored:
    def test_stderr_is_the_skip_line_only(self, two_days, tmp_path):
        cgm, stress, lerp = two_days / "cgm.csv", tmp_path / "A", tmp_path / "lerp.csv"
        assert run("stress", "--input", cgm, "--protocol", "A", "--ratio", 0.001, "--seed", 1,
                   "--out", stress) == 0
        assert run("impute", "--input", cgm, "--masks", stress / "masks.json",
                   "--method", "lerp", "--out", lerp) == 0
        out = tmp_path / "eval"
        argv = ["evaluate", "--input", cgm, "--imputed", lerp, "--masks", stress / "masks.json",
                "--out", out]
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        code = f"import sys; from regime_bench.cli import main; sys.exit(main({[str(a) for a in argv]!r}))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == "evaluate: skipped 2 of 2 episodes with no masked samples\n"
        assert json.loads((out / "report.json").read_text())["groups"] == []
        assert (out / "table.txt").read_text() == "(no results)\n"


class TestMaskRetainsNeverObserved:
    """Empirical masks sampled over gapped data retain indices the truth never observed."""

    @pytest.fixture(scope="class")
    def sampled(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-retained")
        model = root / "model.json"
        missingness.save_model(build_injected_model(), model)
        assert run("synth", "--days", 4, "--noise-std", 1.0, "--seed", 5,
                   "--gap-model", model, "--gap-seed", 3, "--out", root) == 0
        cgm = root / "cgm_gapped.csv"
        assert run("mask", "--input", cgm, "--model", model, "--seed", 1,
                   "--out", root / "masks.json") == 0
        episodes = {(ep.patient_id, ep.episode_id): ep for ep in core.ingest_csv(cgm, 240)}
        _, mask_map = masks.read_masks_json(root / "masks.json")
        first = next(key for key in sorted(mask_map)
                     if np.any((mask_map[key].bits != 0) & (episodes[key].observed == 0)))
        return {"root": root, "cgm": cgm, "masks": root / "masks.json", "first": first}

    @pytest.mark.parametrize("command", ["impute", "route"])
    def test_error_names_the_episode(self, sampled, tmp_path, capsys, command):
        capsys.readouterr()
        extra = ["--method", "lerp", "--out", tmp_path / "out.csv"] if command == "impute" else [
            "--out", tmp_path / "out"]
        assert run(command, "--input", sampled["cgm"], "--masks", sampled["masks"], *extra) == 1
        patient, episode = sampled["first"]
        assert capsys.readouterr().err == (
            f"error: {sampled['masks']}: mask retains an index with no ground-truth observation"
            f" for {patient}/{episode}\n"
        )
        assert patient == "synth-001"


class TestEvaluateSkipReasons:
    def test_masks_hiding_only_never_observed_samples_counted_apart(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        missingness.save_model(build_injected_model(), model)
        assert run("synth", "--days", 4, "--noise-std", 1.0, "--seed", 5,
                   "--gap-model", model, "--gap-seed", 3, "--out", tmp_path) == 0
        cgm, masks_path = tmp_path / "cgm_gapped.csv", tmp_path / "masks.json"
        lerp = tmp_path / "lerp.csv"
        episodes = core.ingest_csv(cgm, 240)
        # each mask hides exactly its episode's never-observed samples
        masks.write_masks_json([(ep.patient_id, ep.episode_id, masks.Mask(ep.observed))
                                for ep in episodes], masks_path)
        assert run("impute", "--input", cgm, "--masks", masks_path, "--method", "lerp",
                   "--out", lerp) == 0
        capsys.readouterr()
        assert run("evaluate", "--input", cgm, "--imputed", lerp, "--masks", masks_path,
                   "--out", tmp_path / "eval") == 0
        n, complete = len(episodes), sum(ep.fully_observed() for ep in episodes)
        assert 0 < complete < n
        assert capsys.readouterr().err == (
            f"evaluate: skipped {complete} of {n} episodes with no masked samples\n"
            f"evaluate: skipped {n - complete} of {n} episodes whose masked samples were never "
            "observed\n"
        )


class TestMetadataLabels:
    """evaluate groups its results by these labels, so each must be a string."""

    @pytest.mark.parametrize("value", [["A"], 7], ids=["list", "number"])
    @pytest.mark.parametrize("kind, field", [
        ("masks", "provenance"), ("masks", "condition"),
        ("windows", "protocol"), ("windows", "condition"),
    ])
    def test_label_that_is_not_a_string_names_the_field(self, pipeline, tmp_path, capsys, kind,
                                                        field, value):
        doc = json.loads(pipeline[kind].read_text())
        doc[field] = value
        bad = tmp_path / f"{kind}.json"
        bad.write_text(json.dumps(doc))
        files = {"masks": pipeline["masks"], "windows": pipeline["windows"], kind: bad}
        capsys.readouterr()
        assert run("evaluate", "--input", pipeline["cgm"], "--imputed", pipeline["imputed"]["lerp"],
                   "--masks", files["masks"], "--windows", files["windows"],
                   "--out", tmp_path / "eval") == 1
        assert capsys.readouterr().err == f"error: {bad}: {field!r} must be a string\n"
        assert not (tmp_path / "eval" / "report.json").exists()


    def test_unknown_provenance_names_the_file(self, pipeline, tmp_path, capsys):
        doc = json.loads(pipeline["masks"].read_text())
        doc["provenance"] = "protocol_Z"
        bad = tmp_path / "masks.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("evaluate", "--input", pipeline["cgm"], "--imputed", pipeline["imputed"]["lerp"],
                   "--masks", bad, "--out", tmp_path / "eval") == 1
        assert capsys.readouterr().err == f"error: {bad}: unknown provenance 'protocol_Z'\n"
        assert not (tmp_path / "eval" / "report.json").exists()


class TestUndecodableInput:
    """Bytes that are not UTF-8 fail with one error line naming the file, not a traceback."""

    @pytest.mark.parametrize("line", [3, 3000])
    def test_cgm_csv_names_the_line(self, tmp_path, capsys, line):
        rows = [f"p1,{5 * i},100.0,0.0,0.0,0.0\r\n".encode() for i in range(line)]
        rows[line - 2] = rows[line - 2].replace(b"p1", b"p\xff")
        bad = tmp_path / "cgm.csv"
        bad.write_bytes(b"patient_id,timestamp,glucose,carbs,bolus,basal\r\n" + b"".join(rows))
        assert run("fit", "--input", bad, "--out", tmp_path / "model.json") == 1
        assert capsys.readouterr().err == f"error: {bad}: line {line}: not utf-8 text\n"

    def test_tcr_csv_names_the_line(self, protocol_fixture, tmp_path, capsys):
        bad = tmp_path / "tcr.csv"
        bad.write_bytes(b"patient_id,episode_id,tcr_start_index,tcr_end_index\r\n"
                        b"synth-001,0,126,174\r\nsynth-\xff,1,126,174\r\n")
        assert run("stress", "--input", protocol_fixture / "cgm.csv", "--protocol", "C",
                   "--tcr", bad, "--seed", 1, "--out", tmp_path / "C") == 1
        assert capsys.readouterr().err == f"error: {bad}: line 3: not utf-8 text\n"

    def test_masks_json_names_the_file(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "masks.json"
        bad.write_bytes(b'{"schema_version": 1, "provenance": "\xff", "masks": []}\n')
        assert run("evaluate", "--input", pipeline["cgm"], "--imputed", pipeline["imputed"]["lerp"],
                   "--masks", bad, "--out", tmp_path / "eval") == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: invalid JSON: 'utf-8' codec can't decode byte 0xff in position 37: "
            "invalid start byte\n"
        )


BIG_FIELD = "1" * 140_000  # over the csv module's default limit of 131,072 bytes per field
TOO_BIG = "field larger than field limit (131072)"
CGM_HEAD = ",".join(core.CGM_HEADER) + "\r\n"
IMPUTATION_HEAD = ",".join(imputers.EXTERNAL_HEADER) + "\r\n"
TCR_HEAD = ",".join(protocols.TCR_HEADER) + "\r\n"


def _csv_case(kind, text, detail):
    """A CSV file of kind holding text, read by the command that takes it."""

    def build(fx, bad, out):
        bad.write_text(text)
        return {
            "cgm": ["fit", "--input", bad, "--out", out / "model.json"],
            "imputation": ["impute", "--input", fx["cgm"], "--masks", fx["masks"],
                           "--external", bad, "--out", out / "out.csv"],
            "tcr": ["stress", "--input", fx["cgm"], "--protocol", "C", "--tcr", bad,
                    "--seed", 1, "--out", out / "C"],
        }[kind], detail

    return build


def _doc_edit(kind, edit, detail, command="evaluate"):
    """A copy of the pipeline's masks or windows file changed in place by edit(doc)."""

    def build(fx, bad, out):
        doc = json.loads(fx[kind].read_text())
        edit(doc)
        bad.write_text(json.dumps(doc))
        masks_path = bad if kind == "masks" else fx["masks"]
        argv = [command, "--input", fx["cgm"], "--masks", masks_path, "--out", out / "out"]
        if command == "impute":
            argv += ["--method", "lerp"]
        else:
            argv += ["--imputed", fx["imputed"]["lerp"]]
        if kind == "windows":
            argv += ["--windows", bad]
        return argv, detail

    return build


def _record_edit(kind, field, value, command):
    """A copy of the pipeline's masks or windows file with record 0's field set to value."""

    def edit(doc):
        doc[kind][0][field] = value

    return _doc_edit(kind, edit, f"{kind}[0]: missing or malformed field: '{field}'", command)


def _first_window(detail, **fields):
    """A copy of the pipeline's windows file with record 0 updated by fields."""
    return _doc_edit("windows", lambda doc: doc["windows"][0].update(fields), detail)


def _protocol_a_windows_on_b_masks(fx, bad, out):
    masks_b, lerp_b = out / "B" / "masks.json", out / "lerp_b.csv"
    assert run("stress", "--input", fx["cgm"], "--protocol", "B", "--n-peaks", 1,
               "--seed", 5, "--out", out / "B") == 0
    assert run("impute", "--input", fx["cgm"], "--masks", masks_b, "--method", "lerp",
               "--out", lerp_b) == 0
    bad.write_bytes(fx["windows"].read_bytes())
    argv = ["evaluate", "--input", fx["cgm"], "--imputed", lerp_b, "--masks", masks_b,
            "--windows", bad, "--out", out / "eval"]
    return argv, "protocol 'A' does not match the masks file's 'B'"


def _route_without_source(fx, bad, out):
    assert run("stress", "--input", fx["cgm"], "--protocol", "B", "--n-peaks", 1,
               "--seed", 5, "--out", out / "B") == 0
    argv = ["route", "--input", fx["cgm"], "--masks", out / "B" / "masks.json",
            "--out", out / "route"]
    return argv, None


READER_CASES = {
    "cgm-big-header": _csv_case("cgm", f"patient_id,{BIG_FIELD}\r\n", f"line 1: {TOO_BIG}"),
    "cgm-big-field": _csv_case(
        "cgm", CGM_HEAD + f"p1,0,100.0,0,0,0\r\np1,5,100.0,0,0,{BIG_FIELD}\r\n",
        f"line 3: {TOO_BIG}"),
    "imputation-big-field": _csv_case(
        "imputation",
        IMPUTATION_HEAD + "".join(f"synth-001,0,{t},100.0,m\r\n" for t in range(3))
        + f"synth-001,0,3,{BIG_FIELD},m\r\n",
        f"line 5: {TOO_BIG}"),
    "imputation-short-row": _csv_case(
        "imputation", IMPUTATION_HEAD + "synth-001,0,0,100.0\r\n",
        "line 2: expected 5 fields, got 4"),
    "tcr-big-field": _csv_case(
        "tcr", TCR_HEAD + f"synth-001,0,126,{BIG_FIELD}\r\n", f"line 2: {TOO_BIG}"),
    "tcr-long-row": _csv_case(
        "tcr", TCR_HEAD + "synth-001,0,126,174,9\r\n", "line 2: expected 4 fields, got 5"),
    "tcr-end-before-start": _csv_case(
        "tcr", TCR_HEAD + "synth-001,0,200,100\r\nsynth-001,1,-50,30\r\n",
        "line 2: tcr_end_index 100 is not after tcr_start_index 200"),
    "tcr-negative-start": _csv_case(
        "tcr", TCR_HEAD + "synth-001,0,126,174\r\nsynth-001,1,-50,30\r\n",
        "line 3: tcr_start_index -50 is negative"),
    "tcr-empty-interval": _csv_case(
        "tcr", TCR_HEAD + "synth-001,0,126,126\r\n",
        "line 2: tcr_end_index 126 is not after tcr_start_index 126"),
    "masks-patient-list": _record_edit("masks", "patient_id", ["x"], "evaluate"),
    "masks-record-provenance": _doc_edit(
        "masks", lambda doc: doc["masks"][1].update(provenance="protocol_C"),
        "masks[1]: provenance 'protocol_C' does not match the document's 'protocol_A'"),
    "masks-record-provenance-default": _doc_edit(
        "masks", lambda doc: doc["masks"][0].pop("provenance"),
        "masks[0]: provenance 'empirical' does not match the document's 'protocol_A'"),
    "masks-document-provenance-default": _doc_edit(
        "masks", lambda doc: doc.pop("provenance"),
        "masks[0]: provenance 'protocol_A' does not match the document's 'empirical'"),
    "masks-t-text": _doc_edit(
        "masks", lambda doc: doc["masks"][0].update(T="288"),
        "masks[0]: T, start_index and length_samples must be integers, with T >= 1", "impute"),
    "masks-t-float": _doc_edit(
        "masks", lambda doc: doc["masks"][0].update(T=288.0),
        "masks[0]: T, start_index and length_samples must be integers, with T >= 1", "impute"),
    "masks-gap-start-float": _doc_edit(
        "masks", lambda doc: doc["masks"][0]["gaps"][0].update(start_index=1.5),
        "masks[0]: T, start_index and length_samples must be integers, with T >= 1", "impute"),
    "masks-episode-bool": _record_edit("masks", "episode_id", True, "evaluate"),
    "masks-seed-list": _record_edit("masks", "seed", [1], "impute"),
    "masks-seed-text": _record_edit("masks", "seed", "x", "impute"),
    "masks-seed-float": _record_edit("masks", "seed", 1.5, "impute"),
    "windows-start-text": _record_edit("windows", "start_index", "x", "evaluate"),
    "windows-anchor-text": _record_edit("windows", "anchor_index", "x", "evaluate"),
    "route-no-source": _route_without_source,
    "masks-record-int": _doc_edit("masks", lambda doc: doc["masks"].insert(0, 5),
                                  "masks[0]: expected an object, got int", "impute"),
    "masks-gaps-int": _record_edit("masks", "gaps", 5, "impute"),
    "masks-gap-text": _doc_edit("masks", lambda doc: doc["masks"][0].update(gaps=["x"]),
                                "masks[0]: gaps[0]: expected an object, got str", "impute"),
    "windows-record-text": _doc_edit("windows", lambda doc: doc["windows"].insert(0, "x"),
                                     "windows[0]: expected an object, got str"),
    "windows-unknown-episode": _first_window(
        "windows[0]: episode synth-001/999 is not in the masks file",
        episode_id=999, start_index=1_000_000, end_index=5),
    # every episode of the protocol fixture is one day, 288 samples
    "windows-past-the-end": _first_window(
        "windows[0]: expected 0 <= start_index < end_index <= 288, got 1000000 and 5",
        start_index=1_000_000, end_index=5),
    "windows-negative-start": _first_window(
        "windows[0]: expected 0 <= start_index < end_index <= 288, got -1 and 5",
        start_index=-1, end_index=5),
    "windows-empty": _first_window(
        "windows[0]: expected 0 <= start_index < end_index <= 288, got 5 and 5",
        start_index=5, end_index=5),
    "windows-end-past-t": _first_window(
        "windows[0]: expected 0 <= start_index < end_index <= 288, got 280 and 289",
        start_index=280, end_index=289),
    "windows-record-protocol": _first_window(
        "windows[0]: protocol 'B' does not match the masks file's 'A'", protocol="B"),
    "windows-condition": _doc_edit(
        "windows", lambda doc: doc.update(condition="ratio=0.1"),
        "condition 'ratio=0.1' does not match the masks file's 'ratio=0.2'"),
    "windows-on-other-protocol": _protocol_a_windows_on_b_masks,
}


class TestReaderContract:
    """Malformed input exits 1 with one error line naming the file and the line or record."""

    @pytest.mark.parametrize("case", list(READER_CASES))
    def test_error_names_the_file_and_the_record(self, pipeline, tmp_path, capsys, case):
        bad = tmp_path / "bad"
        argv, detail = READER_CASES[case](pipeline, bad, tmp_path)
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        if detail is None:  # route names the episode whose transient gap has no source
            assert re.fullmatch(r"error: transient gap at index \d+ \(length \d+\) has no "
                                r"external source for synth-001/\d+\n", err)
        else:
            assert err == f"error: {bad}: {detail}\n"


class TestSynthRejectsUnusableNumbers:
    """synth names the field of a non-finite or negative number and writes nothing."""

    @pytest.mark.parametrize("option, value, detail", [
        ("--meal-carbs", "-5", "meal_carbs must be a finite number >= 0, got -5.0"),
        ("--meal-carbs", "nan", "meal_carbs must be a finite number >= 0, got nan"),
        ("--meal-carbs", "inf", "meal_carbs must be a finite number >= 0, got inf"),
        ("--noise-std", "nan", "noise_std must be a finite number >= 0, got nan"),
        ("--peak-amplitude", "nan", "peak_amplitude must be a finite number >= 0, got nan"),
        ("--peak-amplitude", "inf", "peak_amplitude must be a finite number >= 0, got inf"),
        ("--hypo-depth", "inf", "hypo_depth must be a finite number >= 0, got inf"),
        ("--hypo-depth", "nan", "hypo_depth must be a finite number >= 0, got nan"),
        ("--drift-amplitude", "nan", "drift_amplitude must be a finite number, got nan"),
        ("--drift-amplitude", "inf", "drift_amplitude must be a finite number, got inf"),
    ])
    def test_error_names_the_field(self, tmp_path, capsys, option, value, detail):
        out = tmp_path / "fx"
        assert run("synth", "--days", 1, option, value, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {detail}\n"
        assert not out.exists()


class TestSynthRejectsIdsNoReaderKeeps:
    """The CGM readers strip the patient id and the TCR reader does not: synth writes only
    an id that reads back the same from both."""

    @pytest.mark.parametrize("patient_id", ["", " ", " p", "p\t", "\x0cp"])
    def test_error_names_the_field(self, tmp_path, capsys, patient_id):
        out = tmp_path / "fx"
        assert run("synth", "--days", 2, "--hypo-depth", 12, "--patient-id", patient_id,
                   "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: patient_id must be non-empty, with no leading or trailing whitespace, "
            f"got {patient_id!r}\n")
        assert not out.exists()

    def test_inner_space_reads_back_through_protocol_c(self, tmp_path, capsys):
        assert run("synth", "--days", 2, "--hypo-depth", 12, "--patient-id", "p 1",
                   "--out", tmp_path / "fx") == 0
        assert run("stress", "--input", tmp_path / "fx" / "cgm.csv", "--protocol", "C",
                   "--tcr", tmp_path / "fx" / "tcr.csv", "--seed", 1,
                   "--out", tmp_path / "C") == 0


class TestSynthOverflow:
    @pytest.mark.parametrize("extra", [[], ["--hypo-depth", 10]], ids=["drift", "drift and dip"])
    def test_one_error_line_and_no_warning(self, tmp_path, capsys, extra):
        out = tmp_path / "fx"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # pytest captures warnings apart from stderr
            assert run("synth", "--days", 1, "--drift-amplitude", "1e308", *extra,
                       "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: drift_amplitude 1e+308 is too large: the synthetic day overflows\n")
        assert not out.exists()

    def test_stderr_of_the_command(self, tmp_path):
        """The whole stderr of a fresh process: one line, and no numpy RuntimeWarning."""
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        argv = ["synth", "--days", "1", "--drift-amplitude", "1e308", "--hypo-depth", "10",
                "--out", str(tmp_path / "fx")]
        code = f"import sys; from regime_bench.cli import main; sys.exit(main({argv!r}))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: drift_amplitude 1e+308 is too large: the synthetic day overflows\n")

    def test_a_dip_that_overflows_names_the_drift(self, tmp_path, capsys):
        assert run("synth", "--days", 1, "--drift-amplitude", "3e305", "--hypo-depth", "1.797e308",
                   "--out", tmp_path / "fx") == 1
        assert capsys.readouterr().err == (
            "error: drift_amplitude 3e+305 is too large: the synthetic day overflows\n")


class TestFitNeedsOneSustainedGap:
    @pytest.mark.parametrize("min_gaps", [0, -3])
    def test_min_gaps_below_one_fails_cleanly(self, tmp_path, capsys, min_gaps):
        # every night gap is a single-sample dropout; each day has one 30-minute gap at noon
        truth = synth.generate(synth.SynthConfig(days=4)).episodes
        mask = masks.Mask(core.runs_to_bits(288, [(12, 1), (40, 1), (150, 6)]))
        cgm = tmp_path / "cgm.csv"
        core.export_csv([masks.apply_mask(ep, mask) for ep in truth], cgm)
        capsys.readouterr()
        assert run("fit", "--input", cgm, "--min-gaps", min_gaps,
                   "--out", tmp_path / "model.json") == 1
        assert capsys.readouterr().err == (
            "error: mixture estimation failed: night regime has 0 sustained gaps, need >= 1\n"
        )
        assert not (tmp_path / "model.json").exists()


class TestImputeErrorNamesTheEpisode:
    @pytest.mark.parametrize("method", cli.IMPUTE_METHODS)
    def test_nothing_retained(self, two_days, tmp_path, capsys, method):
        masks_path = tmp_path / "masks.json"
        masks.write_masks_json([("synth-001", 0, masks.Mask(np.zeros(288)))], masks_path)
        assert run("impute", "--input", two_days / "cgm.csv", "--masks", masks_path,
                   "--method", method, "--out", tmp_path / "out.csv") == 1
        assert capsys.readouterr().err == (
            "error: imputer needs at least one retained observation for synth-001/0\n"
        )


class TestSynthFixtureBytes:
    """The noise-free fixture's bytes, so that a changed shape constant shows."""

    DIGESTS = {
        "cgm.csv": "e8d292e48b9b6e84788d26de5cef0fb0d8b24f23f4351bb957cb72452001920f",
        "labels.csv": "64efebb8020b2f14a645ccac68d07b9760b3d77ce3c9c75556ac5e2943af625c",
        "tcr.csv": "d59d0f93258489837ae60dfab00e85569aad6746291d9c7e0cad142f4725a1c5",
    }

    def test_sha256_of_each_file(self, tmp_path):
        import hashlib

        assert run("synth", "--days", 2, "--hypo-depth", 12, "--drift-amplitude", 10,
                   "--out", tmp_path) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in self.DIGESTS} == self.DIGESTS


class TestSynthNoiseOverflow:
    """A noise_std whose draws leave the float range fails naming it, with no numpy warning."""

    @pytest.mark.parametrize("extra", [[], ["--peak-amplitude", "1.7e308"]],
                             ids=["noise", "noise on a peak"])
    def test_stderr_of_the_command(self, tmp_path, extra):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "fx"
        argv = ["synth", "--days", "1", "--noise-std", "1e308", *extra, "--out", str(out)]
        code = f"import sys; from regime_bench.cli import main; sys.exit(main({argv!r}))"
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == "error: noise_std 1e+308 is too large: the noisy trace overflows\n"
        assert not out.exists()


class TestSynthBadGapModel:
    """The gap model is loaded and the masks drawn before any fixture file is written."""

    @pytest.mark.parametrize("existing", [True, False], ids=["empty out", "no out"])
    def test_nothing_is_written(self, tmp_path, capsys, existing):
        bad = tmp_path / "model.json"
        missingness.save_model(build_injected_model(), bad)
        doc = json.loads(bad.read_text())
        doc["day"]["k"] = 0
        bad.write_text(json.dumps(doc))
        out = tmp_path / "fx"
        if existing:
            out.mkdir()
        assert run("synth", "--days", 2, "--gap-model", bad, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: day.k must be positive, got 0\n"
        assert captured.out == ""
        assert list(out.glob("*")) == [] and out.exists() == existing


@pytest.fixture(scope="module")
def gapped_fixture(tmp_path_factory):
    """The 50-day seed-7 fixture and its gapped copy."""
    root = tmp_path_factory.mktemp("cli-gapped-50")
    model = root / "bootstrap.json"
    missingness.save_model(build_injected_model(), model)
    assert run("synth", "--days", 50, "--hypo-depth", 12, "--noise-std", 2, "--seed", 7,
               "--gap-model", model, "--gap-seed", 7, "--out", root / "fx") == 0
    return root / "fx"


class TestStressNeedsCompleteGlucose:
    @pytest.mark.parametrize("protocol, extra, check", [
        ("A", [], "stable-window detection"),
        ("B", [], "peak masking"),
        ("C", ["--tcr", "tcr.csv"], "hypoglycemia masking"),
    ], ids=["A", "B", "C"])
    def test_error_names_the_input_and_the_episode(self, gapped_fixture, tmp_path, capsys,
                                                   protocol, extra, check):
        cgm = gapped_fixture / "cgm_gapped.csv"
        extra = [gapped_fixture / arg if arg.endswith(".csv") else arg for arg in extra]
        assert run("stress", "--input", cgm, "--protocol", protocol, *extra, "--seed", 3,
                   "--out", tmp_path / protocol) == 1
        assert capsys.readouterr().err == (
            f"error: {cgm}: {check} requires complete glucose for synth-001/0\n")


class TestHypoWindowMinutes:
    @pytest.mark.parametrize("minutes", [-60, 0, 62])
    def test_not_a_positive_multiple_of_5_rejected(self, protocol_fixture, tmp_path, capsys,
                                                   minutes):
        out = tmp_path / "C"
        assert run("stress", "--input", protocol_fixture / "cgm.csv", "--protocol", "C",
                   "--tcr", protocol_fixture / "tcr.csv", "--hypo-window-min", minutes,
                   "--seed", 1, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: window_minutes must be a positive multiple of 5, got {minutes}\n")
        assert not (out / "masks.json").exists()

    @pytest.mark.parametrize("protocol", ["A", "B"])
    def test_checked_for_every_protocol(self, protocol_fixture, tmp_path, capsys, protocol):
        out = tmp_path / protocol
        assert run("stress", "--input", protocol_fixture / "cgm.csv", "--protocol", protocol,
                   "--hypo-window-min", -5, "--seed", 1, "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: window_minutes must be a positive multiple of 5, got -5\n")
        assert not out.exists()


class TestRouteContextMinutes:
    def test_negative_rejected(self, two_days, tmp_path, capsys):
        stress_dir = tmp_path / "A"
        assert run("stress", "--input", two_days / "cgm.csv", "--protocol", "A",
                   "--ratio", 0.1, "--seed", 1, "--out", stress_dir) == 0
        capsys.readouterr()
        assert run("route", "--input", two_days / "cgm.csv", "--masks", stress_dir / "masks.json",
                   "--context-min", -30, "--out", tmp_path / "route") == 1
        assert capsys.readouterr().err == "error: context_minutes must be >= 0, got -30\n"

    def test_negative_rejected_when_the_masks_hide_nothing(self, two_days, tmp_path, capsys):
        stress_dir = tmp_path / "A"
        assert run("stress", "--input", two_days / "cgm.csv", "--protocol", "A",
                   "--ratio", 0.001, "--seed", 1, "--out", stress_dir) == 0
        assert "start_index" not in (stress_dir / "masks.json").read_text()  # no gaps
        capsys.readouterr()
        assert run("route", "--input", two_days / "cgm.csv", "--masks", stress_dir / "masks.json",
                   "--context-min", -30, "--out", tmp_path / "route") == 1
        assert capsys.readouterr().err == "error: context_minutes must be >= 0, got -30\n"
        assert not (tmp_path / "route").exists()


SYNTH_FLAGS = ("baseline", "meal_times", "meal_carbs", "peak_amplitude", "hypo_depth",
               "tcr_meal", "drift_amplitude", "noise_std", "patient_id", "seed")
FIXTURE_FILES = ("cgm.csv", "tcr.csv", "labels.csv")


def _fixture_bytes(out):
    return {name: (out / name).read_bytes() for name in FIXTURE_FILES}


@pytest.fixture(scope="module")
def synth_unset(tmp_path_factory):
    """The bytes of a 2-day synth run with every fixture flag left unset."""
    out = tmp_path_factory.mktemp("synth-unset")
    assert run("synth", "--days", 2, "--out", out) == 0
    return _fixture_bytes(out)


class TestSynthDefaultsLiveInSynthConfig:
    """The CLI and the library build the same fixture: each default is SynthConfig's."""

    def test_parser_leaves_each_flag_unset(self):
        args = cli.build_parser().parse_args(["synth", "--days", "2", "--out", "fx"])
        assert {name: getattr(args, name) for name in SYNTH_FLAGS} == dict.fromkeys(SYNTH_FLAGS)

    def test_unset_flags_match_the_library(self, synth_unset, tmp_path):
        synth.write_fixture(synth.generate(synth.SynthConfig(days=2)), tmp_path)
        assert _fixture_bytes(tmp_path) == synth_unset

    @pytest.mark.parametrize("name", SYNTH_FLAGS)
    def test_flag_at_its_default_changes_no_byte(self, synth_unset, tmp_path, name):
        default = {f.name: f.default for f in dataclasses.fields(synth.SynthConfig)}[name]
        value = ",".join(map(str, default)) if name == "meal_times" else default
        assert run("synth", "--days", 2, "--" + name.replace("_", "-"), value,
                   "--out", tmp_path) == 0
        assert _fixture_bytes(tmp_path) == synth_unset


class TestFailingCommandWritesNothing:
    """stress, evaluate, calibrate and route create --out only once every output is computed."""

    def test_stress_on_gapped_truth(self, gapped_fixture, tmp_path, capsys):
        cgm, out = gapped_fixture / "cgm_gapped.csv", tmp_path / "A"
        assert run("stress", "--input", cgm, "--protocol", "A", "--seed", 3, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {cgm}: stable-window detection requires complete glucose for synth-001/0\n")
        assert captured.out == ""
        assert not out.exists()

    def test_route_without_external_on_a_transient_gap(self, protocol_fixture, tmp_path, capsys):
        stress_dir, out = tmp_path / "B", tmp_path / "route"
        assert run("stress", "--input", protocol_fixture / "cgm.csv", "--protocol", "B",
                   "--n-peaks", 1, "--seed", 5, "--out", stress_dir) == 0
        capsys.readouterr()
        assert run("route", "--input", protocol_fixture / "cgm.csv",
                   "--masks", stress_dir / "masks.json", "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: transient gap at index 97 (length 44) has no external "
                                "source for synth-001/0\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "evaluate"])
    def test_a_valid_then_an_invalid_imputed_file(self, pipeline, tmp_path, capsys, command):
        bad, out = tmp_path / "bad.csv", tmp_path / "out"
        bad.write_text(",".join(imputers.EXTERNAL_HEADER) + "\n")
        assert run(command, "--input", pipeline["cgm"], "--masks", pipeline["masks"],
                   "--imputed", pipeline["imputed"]["lerp"], "--imputed", bad, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: expected exactly one method per file, found []\n"
        assert captured.out == ""
        assert not out.exists()


@pytest.fixture(scope="module")
def header_only(tmp_path_factory):
    """A CGM file with no rows: ingest reads no episode, so no protocol checks an option."""
    path = tmp_path_factory.mktemp("header-only") / "cgm.csv"
    path.write_text(",".join(core.CGM_HEADER) + "\n")
    return path


STRESS_OPTION_CASES = [
    ("--ratio", 7, "ratio must be in (0, 1), got 7.0"),
    ("--ratio", 0, "ratio must be in (0, 1), got 0.0"),
    ("--ratio", 1, "ratio must be in (0, 1), got 1.0"),
    ("--ratio", "nan", "ratio must be in (0, 1), got nan"),
    ("--n-peaks", 0, "n_peaks must be >= 1"),
    ("--n-peaks", -3, "n_peaks must be >= 1"),
]


class TestStressOptionsCheckedFirst:
    """--ratio and --n-peaks are checked for every protocol, before any input is read."""

    @pytest.mark.parametrize("protocol", ["A", "B", "C"])
    @pytest.mark.parametrize("option, value, detail", STRESS_OPTION_CASES)
    def test_rejected_on_an_input_with_no_episode(self, header_only, tmp_path, capsys, protocol,
                                                  option, value, detail):
        out = tmp_path / protocol
        assert run("stress", "--input", header_only, "--protocol", protocol, option, value,
                   "--seed", 1, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {detail}\n"
        assert not out.exists()

    @pytest.mark.parametrize("protocol, option, value, detail", [
        ("A", "--ratio", 7, "ratio must be in (0, 1), got 7.0"),
        ("B", "--n-peaks", -3, "n_peaks must be >= 1"),
    ])
    def test_named_before_gapped_truth(self, gapped_fixture, tmp_path, capsys, protocol, option,
                                       value, detail):
        out = tmp_path / protocol
        assert run("stress", "--input", gapped_fixture / "cgm_gapped.csv", "--protocol", protocol,
                   option, value, "--seed", 3, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {detail}\n"
        assert not out.exists()


class TestFitPartitionGap:
    @pytest.mark.parametrize("gap", [0, -5])
    def test_not_positive_rejected(self, protocol_fixture, tmp_path, capsys, gap):
        out = tmp_path / "model.json"
        assert run("fit", "--input", protocol_fixture / "cgm.csv", "--partition-gap", gap,
                   "--out", out) == 1
        assert capsys.readouterr().err == "error: partition_gap_minutes must be positive\n"
        assert not out.exists()


class TestSynthRejectsUnusableLayouts:
    """synth rejects a day, meal or dip layout it cannot build, and writes nothing."""

    @pytest.mark.parametrize("options, detail", [
        (["--days", 0], "days must be >= 1"),
        (["--days", 1, "--meal-times", 481], "meal time 481 must be a 5-min multiple in [0, 1440)"),
        (["--days", 1, "--tcr-meal", 5], "tcr_meal must index into meal_times"),
        (["--days", 1, "--meal-times", "", "--hypo-depth", 5],
         "hypoglycemic dip needs a meal to anchor the TCR window"),
        (["--days", 1, "--hypo-depth", 5, "--tcr-meal", 2],
         "TCR window for the selected meal does not fit in the day"),
    ], ids=["no days", "off-grid meal", "no such meal", "dip without meals", "late TCR window"])
    def test_error_names_the_problem(self, tmp_path, capsys, options, detail):
        out = tmp_path / "fx"
        assert run("synth", *options, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {detail}\n"
        assert not out.exists()


GRADIENT_THRESHOLD_CASES = [
    ("nan", "gradient_threshold must be >= 0, got nan"),
    ("-1", "gradient_threshold must be >= 0, got -1.0"),
    ("-inf", "gradient_threshold must be >= 0, got -inf"),
]


class TestRouteGradientThreshold:
    """--gradient-threshold must be >= 0, checked before any input is read."""

    @pytest.mark.parametrize("value, detail", GRADIENT_THRESHOLD_CASES)
    def test_rejected_before_the_inputs(self, tmp_path, capsys, value, detail):
        out = tmp_path / "route"
        assert run("route", "--input", tmp_path / "missing.csv",
                   "--masks", tmp_path / "missing.json", f"--gradient-threshold={value}",
                   "--out", out) == 1
        assert capsys.readouterr() == ("", f"error: {detail}\n")
        assert not out.exists()

    @pytest.mark.parametrize("value, detail", GRADIENT_THRESHOLD_CASES)
    def test_rejected_with_an_external_model(self, pipeline, tmp_path, capsys, value, detail):
        out = tmp_path / "route"
        assert run("route", "--input", pipeline["cgm"], "--masks", pipeline["masks"],
                   "--external", pipeline["imputed"]["lerp"], f"--gradient-threshold={value}",
                   "--out", out) == 1
        assert capsys.readouterr() == ("", f"error: {detail}\n")
        assert not out.exists()

    def test_zero_sends_every_gap_to_the_external_model(self, pipeline, tmp_path):
        out = tmp_path / "route"
        assert run("route", "--input", pipeline["cgm"], "--masks", pipeline["masks"],
                   "--external", pipeline["imputed"]["lerp"], "--gradient-threshold", 0,
                   "--out", out) == 0
        summary = json.loads((out / "routing.json").read_text())["summary"]
        assert summary["stationary_fraction"] == 0.0


class TestSynthRejectsANegativeSeed:
    def test_error_names_the_field(self, tmp_path, capsys):
        out = tmp_path / "fx"
        assert run("synth", "--days", 2, "--seed", -1, "--out", out) == 1
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")
        assert not out.exists()


def _directory_commands(pipeline):
    """The arguments, all but --out, of each command that writes a directory."""
    truth = ["--input", pipeline["cgm"], "--masks", pipeline["masks"]]
    lerp = pipeline["imputed"]["lerp"]
    return {
        "synth": ["synth", "--days", 2],
        "stress": ["stress", "--input", pipeline["cgm"], "--protocol", "A", "--seed", 1],
        "evaluate": ["evaluate", *truth, "--imputed", lerp, "--windows", pipeline["windows"]],
        "calibrate": ["calibrate", *truth, "--imputed", lerp],
        "route": ["route", *truth, "--external", lerp],
    }


class TestOutThatCannotBeCreated:
    """When --out cannot be made a directory, a command prints nothing to stdout and one error
    line naming --out."""

    @pytest.mark.parametrize("command", ["synth", "stress", "evaluate", "calibrate", "route"])
    @pytest.mark.parametrize("under, reason", [("", "File exists"), ("sub", "Not a directory")],
                             ids=["a file", "under a file"])
    def test_error_names_out(self, pipeline, tmp_path, capsys, command, under, reason):
        blocker = tmp_path / "notadir"
        blocker.write_text("kept\n")
        out = blocker / under if under else blocker
        assert run(*_directory_commands(pipeline)[command], "--out", out) == 1
        assert capsys.readouterr() == (
            "", f"error: cannot create the --out directory {out}: {reason}\n")
        assert blocker.read_text() == "kept\n"

    def test_evaluate_prints_the_table_then_the_paths(self, pipeline, tmp_path, capsys):
        out = tmp_path / "eval"
        assert run(*_directory_commands(pipeline)["evaluate"], "--out", out) == 0
        table = (out / "table.txt").read_text()
        assert table
        assert capsys.readouterr().out == f"{table}{out / 'report.json'}\n{out / 'table.txt'}\n"


@pytest.fixture(scope="module")
def file_inputs(tmp_path_factory, pipeline):
    """A gapped fixture to fit, a gap model to mask with and a report to re-render."""
    root = tmp_path_factory.mktemp("cli-file-out")
    gapped = _gapped_fixture(root)
    assert run(*_directory_commands(pipeline)["evaluate"], "--out", root / "eval") == 0
    return {"gapped": gapped, "model": root / "bootstrap.json",
            "report": root / "eval" / "report.json"}


def _file_commands(pipeline, file_inputs):
    """The arguments, all but --out, of each command whose --out is one file."""
    return {
        "fit": ["fit", "--input", file_inputs["gapped"], "--min-gaps", 1],
        "mask": ["mask", "--input", pipeline["cgm"], "--model", file_inputs["model"], "--seed", 1],
        "impute": ["impute", "--input", pipeline["cgm"], "--masks", pipeline["masks"],
                   "--method", "lerp"],
        "report": ["report", "--input", file_inputs["report"]],
    }


def _tree_bytes(root):
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


class TestFileOutThatCannotBeWritten:
    """A file command whose --out cannot be written prints one error line naming --out, and
    nothing to stdout but fit's onset line."""

    @pytest.mark.parametrize("command", ["fit", "mask", "impute", "report"])
    @pytest.mark.parametrize("case", ["file above", "directory"])
    def test_error_names_out(self, pipeline, file_inputs, tmp_path, capsys, command, case):
        blocker = tmp_path / "blocker"
        if case == "directory":
            blocker.mkdir()
            (blocker / "kept.txt").write_text("kept\n")
            out, error = blocker, f"cannot write --out {blocker}: Is a directory"
        else:
            blocker.write_text("kept\n")
            out = blocker / "out.file"
            error = f"cannot create the --out directory {blocker}: File exists"
        before = _tree_bytes(tmp_path)
        assert run(*_file_commands(pipeline, file_inputs)[command], "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n"
        if command == "fit":  # pinned: the onset line is printed before anything can fail
            assert re.fullmatch(r"onset probabilities:( \d\.\d{4})+\n", captured.out)
        else:
            assert captured.out == ""
        assert _tree_bytes(tmp_path) == before

    def test_creates_the_directories_and_prints_out_as_typed(
            self, pipeline, file_inputs, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(*_file_commands(pipeline, file_inputs)["mask"], "--out", "./sub/dir/m.json") == 0
        assert capsys.readouterr() == ("./sub/dir/m.json\n", "")
        _, mask_map = masks.read_masks_json(tmp_path / "sub" / "dir" / "m.json")
        assert mask_map


# what synth --gap-model writes into --out, in the order it prints them
GAPPED_FIXTURE_FILES = [*FIXTURE_FILES, "cgm_gapped.csv"]


class TestOutNeverOverwritesAnInput:
    """An output that would land on one of the command's own input files fails before anything
    is written, naming --out and the input's option."""

    def _refused(self, capsys, argv, out, option, given, path):
        before = path.read_bytes()
        assert run(*argv, "--out", out) == 1
        error = f"error: --out {out} would overwrite --{option} {given}\n"
        assert capsys.readouterr() == ("", error)
        assert path.read_bytes() == before

    def test_impute_over_its_input(self, pipeline, tmp_path, capsys):
        cgm = tmp_path / "cgm.csv"
        cgm.write_bytes(pipeline["cgm"].read_bytes())
        argv = ["impute", "--input", cgm, "--masks", pipeline["masks"], "--method", "lerp"]
        self._refused(capsys, argv, cgm, "input", cgm, cgm)

    def test_report_over_its_input_by_another_spelling(self, file_inputs, tmp_path, monkeypatch,
                                                        capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.json").write_bytes(file_inputs["report"].read_bytes())
        self._refused(capsys, ["report", "--input", "r.json"], "./r.json", "input", "r.json",
                      tmp_path / "r.json")

    def test_mask_over_its_model(self, pipeline, file_inputs, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(file_inputs["model"].read_bytes())
        argv = ["mask", "--input", pipeline["cgm"], "--model", model, "--seed", 1]
        self._refused(capsys, argv, model, "model", model, model)

    def test_route_over_its_external_file(self, pipeline, tmp_path, capsys):
        out = tmp_path / "routed"
        out.mkdir()
        external = out / "routed.csv"
        external.write_bytes(pipeline["imputed"]["lerp"].read_bytes())
        argv = ["route", "--input", pipeline["cgm"], "--masks", pipeline["masks"],
                "--external", external]
        self._refused(capsys, argv, out, "external", external, external)
        assert sorted(out.iterdir()) == [external]

    @pytest.mark.parametrize("name", GAPPED_FIXTURE_FILES)
    def test_synth_over_its_gap_model(self, file_inputs, tmp_path, capsys, name):
        out = tmp_path / "fx"
        out.mkdir()
        model = out / name
        model.write_bytes(file_inputs["model"].read_bytes())
        self._refused(capsys, ["synth", "--days", 2, "--gap-model", model], out, "gap-model",
                      model, model)
        assert sorted(out.iterdir()) == [model]

    def test_synth_beside_its_gap_model_is_fine(self, file_inputs, tmp_path, capsys):
        out = tmp_path / "fx"
        out.mkdir()
        model = out / "model.json"
        model.write_bytes(file_inputs["model"].read_bytes())
        assert run("synth", "--days", 2, "--gap-model", model, "--out", out) == 0
        written = [out / name for name in GAPPED_FIXTURE_FILES]
        assert capsys.readouterr() == ("".join(f"{path}\n" for path in written), "")
        assert model.read_bytes() == file_inputs["model"].read_bytes()
        assert sorted(out.iterdir()) == sorted([model, *written])

    def test_an_output_named_like_an_option_value_is_fine(self, pipeline, tmp_path, monkeypatch,
                                                          capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["impute", "--input", pipeline["cgm"], "--masks", pipeline["masks"],
                "--method", "lerp"]
        assert run(*argv, "--out", "lerp") == 0
        assert capsys.readouterr() == ("lerp\n", "")
        assert (tmp_path / "lerp").read_bytes() == pipeline["imputed"]["lerp"].read_bytes()


def _calls(node):
    """The calls under node, outside any lambda: a lambda's body runs where it is called."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.Lambda):
            if isinstance(child, ast.Call):
                yield child
            yield from _calls(child)


def test_only_the_output_step_prints_to_stdout_or_writes():
    """Every print to stdout in cli.py lies in _write_outputs, but for fit's onset line, and no
    cmd_* calls a writer itself: each hands its writes to _write_outputs."""
    tree = ast.parse(Path(cli.__file__).read_text())
    printers, writers = [], []
    for func in tree.body:
        for call in _calls(func) if isinstance(func, ast.FunctionDef) else ():
            name = ast.unparse(call.func)
            to_stderr = any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                            for kw in call.keywords)
            if name == "print" and not to_stderr:
                first = ast.unparse(call.args[0]) if call.args else ""
                printers.append(func.name if func.name == "_write_outputs" else (func.name, first))
            if func.name.startswith("cmd_") and re.search(r"(^|\.)(write|save)", name):
                writers.append((func.name, name))
    assert set(printers) == {"_write_outputs", ("cmd_fit", "'onset probabilities:'")}
    assert writers == []


def _unreadable_inputs(pipeline):
    """Per case: the arguments, all but --out, of a command given an input it cannot read (run
    in a directory holding only the directory ``fx``), and the option and path named."""
    cgm, truth = pipeline["cgm"], ["--input", pipeline["cgm"], "--masks", pipeline["masks"]]
    return {
        "mask --model": (["mask", "--input", cgm, "--model", "nope", "--seed", 1], "--model nope"),
        "fit --input": (["fit", "--input", "fx"], "--input fx"),
        "stress --tcr": (["stress", "--input", cgm, "--protocol", "C", "--tcr", "./nope.csv",
                          "--seed", 1], "--tcr ./nope.csv"),
        "the second --imputed": (["evaluate", *truth, "--imputed", pipeline["imputed"]["lerp"],
                                  "--imputed", "nope.csv"], "--imputed nope.csv"),
        "report --input": (["report", "--input", "nope.json"], "--input nope.json"),
        "synth --gap-model": (["synth", "--days", 2, "--gap-model", "./nope.json"],
                              "--gap-model ./nope.json"),
    }


class TestUnreadableInputNamesItsOption:
    """An input file that cannot be read fails with one line naming its option and its path as
    typed, prints nothing to stdout and leaves no --out."""

    @pytest.mark.parametrize("case", ["mask --model", "fit --input", "stress --tcr",
                                      "the second --imputed", "report --input",
                                      "synth --gap-model"])
    def test_error_names_the_option(self, pipeline, tmp_path, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fx").mkdir()
        argv, named = _unreadable_inputs(pipeline)[case]
        reason = "Is a directory" if case == "fit --input" else "No such file or directory"
        assert run(*argv, "--out", "out") == 1
        assert capsys.readouterr() == ("", f"error: cannot read {named}: {reason}\n")
        assert sorted(tmp_path.iterdir()) == [tmp_path / "fx"]


class TestCalibrateMethodIsAFileName:
    """calibrate writes calibration_<method>.csv, so a method that is not a plain file name fails
    naming the --imputed file, before anything is written."""

    @pytest.mark.parametrize("method", [
        "a/b", "..",
        pytest.param("a\0b", marks=pytest.mark.skipif(
            sys.version_info < (3, 11), reason="the csv module reads no NUL before Python 3.11")),
    ])
    def test_rejected(self, pipeline, tmp_path, capsys, method):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(pipeline["imputed"]["lerp"].read_bytes().replace(
            b",lerp\r\n", f",{method}\r\n".encode()))
        out = tmp_path / "cal"
        assert run("calibrate", "--input", pipeline["cgm"], "--masks", pipeline["masks"],
                   "--imputed", bad, "--out", out) == 1
        assert capsys.readouterr() == ("", f"error: {bad}: method {method!r} is not a plain file "
                                           "name, so it cannot name calibration_<method>.csv\n")
        assert not out.exists()


class TestErrorsNameTheirSource:
    """Inputs that the library rejects without naming a file: the command's one error line
    names the input it came from, prints nothing to stdout and leaves no --out."""

    def test_one_sample_episode_under_protocol_a(self, tmp_path, capsys):
        cgm = tmp_path / "one.csv"
        cgm.write_bytes(b"patient_id,timestamp,glucose,carbs,bolus,basal\r\np1,0,100,0,0,0\r\n")
        out = tmp_path / "A"
        assert run("stress", "--input", cgm, "--protocol", "A", "--seed", 1, "--out", out) == 1
        assert capsys.readouterr() == (
            "", f"error: {cgm}: gradient needs a span of at least 2 samples for p1/0\n")
        assert not out.exists()

    def test_fit_on_a_timestamp_beyond_int64(self, tmp_path, capsys):
        cgm = tmp_path / "big.csv"
        cgm.write_text(f"patient_id,timestamp,glucose,carbs,bolus,basal\np1,{10**20},100,0,0,0\n")
        out = tmp_path / "model.json"
        assert run("fit", "--input", cgm, "--min-gaps", 1, "--out", out) == 1
        assert capsys.readouterr() == (
            "", f"error: {cgm}: cannot estimate onset probabilities without valid days\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["impute", "evaluate", "calibrate", "route"])
    def test_mask_length_no_episode_has(self, pipeline, tmp_path, capsys, command):
        # numpy refuses an array of 10**18 bytes at once; the pairing must fail before that
        doc = json.loads(pipeline["masks"].read_text())
        rec = doc["masks"][0]
        T_truth, rec["T"] = rec["T"], 10**18
        bad = tmp_path / "masks.json"
        bad.write_text(json.dumps(doc))
        extra = {"impute": ["--method", "lerp"], "evaluate": ["--imputed", pipeline["imputed"]["lerp"]],
                 "calibrate": ["--imputed", pipeline["imputed"]["lerp"]], "route": []}[command]
        out = tmp_path / "out"
        assert run(command, "--input", pipeline["cgm"], "--masks", bad, *extra, "--out", out) == 1
        expected = LENGTH_MISMATCH.format(T_truth=T_truth, masks=bad, cgm=pipeline["cgm"], **rec)
        assert capsys.readouterr() == ("", f"error: {expected}\n")
        assert not out.exists()

    def test_calibration_with_nothing_in_the_regime(self, pipeline, tmp_path, capsys):
        # protocol A masks only stable windows, whose truth stays between 70 and 140
        lerp, out = pipeline["imputed"]["lerp"], tmp_path / "cal"
        assert run("calibrate", "--input", pipeline["cgm"], "--masks", pipeline["masks"],
                   "--imputed", lerp, "--filter", "below-70", "--out", out) == 1
        assert capsys.readouterr() == (
            "", f"error: {lerp}: no masked indices fall in the requested regime (--filter below-70)\n")
        assert not out.exists()
