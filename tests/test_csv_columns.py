"""The column path for the large CSV files against the row path and csv.writer.

The CGM and imputation files are read as columns when they are in canonical
form; anything else goes to the row reader, which owns every error. These
tests drive both paths over the same bytes and require the same episodes,
imputations or error text, and they pin the writers to csv.writer byte for
byte.
"""

import json
import math
import os
import shutil
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    csv_writer_calibration_histogram,
    csv_writer_export_csv,
    csv_writer_export_inputs,
    csv_writer_write_imputations_csv,
    csv_writer_write_labels_csv,
    csv_writer_write_tcr_csv,
    make_episode,
)
from test_core import _ROW
from regime_bench import cli, core, formats, imputers, masks, metrics, protocols, synth
from regime_bench.imputers import Imputation
from regime_bench.masks import Mask

CGM_LINE = ",".join(core.CGM_HEADER)
EXTERNAL_LINE = ",".join(imputers.EXTERNAL_HEADER)


@contextmanager
def row_path():
    """Make the column reader decline every file, so the row reader reads it."""
    with mock.patch.object(formats, "read_columns", lambda *args: None):
        yield


def external_columns(path, pairs):
    """What load_external's column path alone makes of the file."""
    lengths = {(ep.patient_id, ep.episode_id): ep.T for ep, _ in pairs}
    return imputers._load_external_columns(path, pairs, lengths)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error itself is what the two paths must share
        return type(exc).__name__, str(exc)


def same_episodes(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return len(a) == len(b) and all(core.episodes_equal(x, y) for x, y in zip(a, b))


def same_imputations(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return len(a) == len(b) and all(
        x.method == y.method and x.episode_ref == y.episode_ref
        and np.array_equal(x.values, y.values) and x.values.dtype == y.values.dtype
        for x, y in zip(a, b)
    )


# line traps: each makes a file that the column reader must decline or read exactly
LINE_TRAPS = ["blank", "spaces", "extra_field", "missing_field", "comma_to_next", "swap",
              "lone_cr", "mixed_end", "nul", "repeat", "copy_to_start", "move_to_end", "drop",
              "lone_cr_at_end", "header_only"]
# text that str.strip changes, which the row reader strips from some fields
PADDED = [" pA", "pA\t", "\x0bpA", "pA\x0c", "\x1cpA", "pA\x1f", "\x1dpA", "pA\x1e"]


def build(header, lines, trap, at, crlf, final_newline):
    """The file's bytes: lines (lists of fields) with the trap applied at line `at`."""
    if trap == "header_only":
        return (header + ("\r\n" if crlf else "\n")).encode("utf-8")
    lines = [list(fields) for fields in lines]
    i = at % len(lines)
    ends = ["\r\n" if crlf else "\n"] * len(lines)
    if isinstance(trap, tuple):
        column, text = trap
        lines[i][column] = text
    elif trap == "extra_field":
        lines[i].append("0")
    elif trap == "missing_field":
        lines[i].pop()
    elif trap == "comma_to_next" and i + 1 < len(lines):  # the comma count stays the same
        lines[i].append("0")
        lines[i + 1].pop()
    elif trap == "swap" and i:
        lines[i - 1], lines[i] = lines[i], lines[i - 1]
    elif trap == "lone_cr":
        ends[i] = "\r"
    elif trap == "lone_cr_at_end":
        ends[-1], final_newline = "\r", True
    elif trap == "mixed_end":
        ends[i] = "\n" if crlf else "\r\n"
    elif trap == "nul":
        lines[i][0] += "\0"
    elif trap == "repeat":
        lines.insert(i, lines[i])
        ends.append(ends[0])
    elif trap == "copy_to_start":
        lines.insert(0, lines[i])
        ends.append(ends[0])
    elif trap == "move_to_end":
        lines.append(lines.pop(i))
    elif trap == "drop" and len(lines) > 1:
        lines.pop(i)
        ends.pop()
    text = [",".join(fields) for fields in lines]
    if trap in ("blank", "spaces"):
        text.insert(i, "" if trap == "blank" else "   ")
        ends.append(ends[0])
    body = "".join(line + end for line, end in zip(text, ends))
    if not final_newline:
        body = body[: -len(ends[-1])]
    return (header + ("\r\n" if crlf else "\n") + body).encode("utf-8")


# integers at the edges of exact float64 and of int64
BIG_INTS = ["9007199254740992", "9007199254740993", "-9223372036854775808", "9223372036854775808"]

CGM_TRAPS = [None, *LINE_TRAPS] + [
    (0, text) for text in ["", "pé", '"pA"', "p\x0bA", *PADDED]
] + [
    (1, text) for text in ["10.0", "1e3", "+5", "1_000", "1970-01-02T00:05:00", "-", "",
                           "1234567890123456", "12345678901234567890", "-15", " 5", "5\x0c",
                           *BIG_INTS, "infinity", "-nan", "+inf", "0x10"]
] + [
    (2, text) for text in ["nan", "NaN", "inf", "-inf", "1e400", "19.99", "500.5", "1_00",
                           " 100.0", '"100.0"', "1e2", "100.", "+1e2", "2e-5", "1e", "--1",
                           "infinity", "-nan", "+inf", "0x10", *BIG_INTS]
] + [
    (column, text) for column in (3, 4, 5)
    for text in ["nan", "inf", "-1.0", "1e400", "-0.0", "", "1_0", "0.5 ", "\x1c1", "5e-324",
                 "infinity", "-nan", "+inf", "0x10", "9007199254740993"]
]


class TestCgmColumnsAgainstRows:
    @pytest.mark.parametrize("trap", CGM_TRAPS, ids=repr)
    @given(
        rows=st.lists(_ROW, min_size=1, max_size=30),
        at=st.integers(0, 10**6),
        crlf=st.booleans(),
        final_newline=st.booleans(),
        threshold=st.sampled_from([10, 240]),
    )
    @settings(max_examples=4, deadline=None)
    def test_same_episodes_or_same_error(self, tmp_path_factory, rows, trap, at, crlf,
                                         final_newline, threshold):
        clock, lines = {}, []
        for patient, step, glucose, carbs, bolus, basal in rows:
            minute = clock[patient] = clock.get(patient, 1440) + step
            lines.append([patient, str(minute), "" if glucose is None else repr(glucose),
                          repr(carbs), repr(bolus), repr(basal)])
        path = tmp_path_factory.mktemp("cgm") / "in.csv"
        path.write_bytes(build(CGM_LINE, lines, trap, at, crlf, final_newline))
        columns = outcome(core.ingest_csv, path, threshold)
        with row_path():
            rows_read = outcome(core.ingest_csv, path, threshold)
        assert same_episodes(columns, rows_read)
        if trap is None:  # the canonical file took the column path
            assert core._read_columns(path) is not None


@pytest.mark.usefixtures("a_small_chunk")
class TestCgmColumnsAgainstRowsInSmallChunks(TestCgmColumnsAgainstRows):
    """Both paths again, with rows merged into grid cells one to three at a time."""


@st.composite
def external_cases(draw):
    """Episodes with masks, and imputations that echo every retained value."""
    pairs, imputations = [], []
    for episode_id in range(draw(st.integers(1, 3))):
        T = draw(st.integers(1, 10))
        glucose = draw(st.lists(st.one_of(st.just(math.nan), st.floats(20.0, 500.0)),
                                min_size=T, max_size=T))
        ep = make_episode(glucose, patient_id=draw(st.sampled_from(["pA", "pB"])),
                          episode_id=episode_id)
        keep = draw(st.lists(st.booleans(), min_size=T, max_size=T))
        bits = np.array(keep, dtype=np.uint8) & ep.observed
        fill = draw(st.lists(st.one_of(st.floats(0.0, 600.0),
                                       st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308])),
                             min_size=T, max_size=T))
        values = np.where(bits == 1, ep.glucose, fill)
        pairs.append((ep, Mask(bits)))
        imputations.append(Imputation(values, "lerp", (ep.patient_id, ep.episode_id)))
    return pairs, imputations


EXTERNAL_TRAPS = [None, *LINE_TRAPS, "unknown_episode", "unknown_repeat", "unscored_episode"] + [
    (0, text) for text in ["pé", '"pA"', "pC", *PADDED]
] + [
    (1, text) for text in ["+0", " 0", "00", "0.0", "-0", "7", *BIG_INTS, "infinity", "-nan",
                           "+inf", "0x10"]
] + [
    (2, text) for text in ["10.0", "1e3", "+5", "1_000", "-1", "999", "0", "1", " 1", "",
                           *BIG_INTS, "infinity", "-nan", "+inf", "0x10"]
] + [
    (3, text) for text in ["nan", "inf", "1e400", "1_0", " 100.0", '"100.0"', "", "100.0000001",
                           "1e", "250", "infinity", "-nan", "+inf", "0x10", *BIG_INTS]
] + [
    (4, text) for text in ["other", "", "le,rp", *(t.replace("pA", "lerp") for t in PADDED)]
]


class TestExternalColumnsAgainstRows:
    @pytest.mark.parametrize("trap", EXTERNAL_TRAPS, ids=repr)
    @given(
        case=external_cases(),
        at=st.integers(0, 10**6),
        crlf=st.booleans(),
        final_newline=st.booleans(),
    )
    @settings(max_examples=4, deadline=None)
    def test_same_imputations_or_same_error(self, tmp_path_factory, case, trap, at, crlf,
                                            final_newline):
        pairs, imputations = case
        path = tmp_path_factory.mktemp("ext") / "imputed.csv"
        imputers.write_imputations_csv(imputations, path)
        lines = [line.split(",") for line in path.read_text().splitlines()[1:]]
        if trap in ("unknown_episode", "unknown_repeat"):
            lines.append(["pZ", "9", "999", "100.0", "lerp"])
            if trap == "unknown_repeat":
                lines.append(lines[-1])
        elif trap == "unscored_episode":
            pairs = pairs[1:]
        path.write_bytes(build(EXTERNAL_LINE, lines, trap, at, crlf, final_newline))
        columns = outcome(imputers.load_external, path, pairs)
        with row_path():
            rows_read = outcome(imputers.load_external, path, pairs)
        assert same_imputations(columns, rows_read)
        if trap is None:
            assert external_columns(path, pairs) is not None


class TestOwnFilesTakeTheColumnPath:
    """A regression to the row path everywhere would pass every other test."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("own")
        result = synth.generate(synth.SynthConfig(days=3, noise_std=2.0, seed=4))
        complete = result.episodes
        gapped = []
        for ep in complete:
            bits = np.ones(ep.T, dtype=np.uint8)
            bits[10:40] = 0
            bits[100:101] = 0
            gapped.append(masks.apply_mask(ep, Mask(bits)))
        paths = {"complete": root / "cgm.csv", "gapped": root / "cgm_gapped.csv",
                 "imputed": root / "imputed.csv"}
        core.export_csv(complete, paths["complete"])
        core.export_csv(gapped, paths["gapped"])
        assert b"synth-001,50,,0.0,0.0,1.0\r\n" in paths["gapped"].read_bytes()  # hidden: empty
        pairs = [(ep, Mask(g.observed)) for ep, g in zip(complete, gapped)]
        imputers.write_imputations_csv([imputers.impute_lerp(ep, m) for ep, m in pairs],
                                       paths["imputed"])
        for name in list(paths):  # an LF copy without a final newline
            lf = root / f"{name}_lf.csv"
            lf.write_bytes(paths[name].read_bytes().replace(b"\r\n", b"\n").rstrip(b"\n"))
            paths[f"{name}_lf"] = lf
        return paths, pairs

    @pytest.mark.parametrize("name", ["complete", "gapped", "complete_lf", "gapped_lf"])
    def test_cgm_files(self, files, name):
        paths, _ = files
        rows = core._read_columns(paths[name])
        assert rows is not None and set(rows) == {"synth-001"}
        with row_path():
            expected = core.ingest_csv(paths[name], 240)
        assert same_episodes(core.ingest_csv(paths[name], 240), expected)

    def test_signed_and_underscored_timestamps_with_mixed_line_ends(self, tmp_path):
        path = tmp_path / "cgm.csv"
        path.write_bytes(f"{CGM_LINE}\r\npA,+5,100.0,0.0,0.0,1.0\npA,1_000,110.0,12.0,0.0,1.0\r\n"
                         "pA,1_005,,0.0,0.5,1.0\npA,1_010,120.0,0.0,0.0,0.0".encode())
        rows = core._read_columns(path)
        assert rows is not None and rows["pA"][:, 0].tolist() == [5, 1000, 1005, 1010]
        with row_path():
            expected = core.ingest_csv(path, 240)
        assert [ep.start_minute for ep in expected] == [5, 1000]
        assert same_episodes(core.ingest_csv(path, 240), expected)

    @pytest.mark.parametrize("name", ["imputed", "imputed_lf"])
    def test_imputation_files(self, files, name):
        paths, pairs = files
        loaded = external_columns(paths[name], pairs)
        assert loaded is not None and len(loaded) == len(pairs)
        with row_path():
            assert same_imputations(loaded, imputers.load_external(paths[name], pairs))


@pytest.mark.usefixtures("a_small_chunk")
class TestOwnFilesTakeTheColumnPathInSmallChunks(TestOwnFilesTakeTheColumnPath):
    """The program's own files again, with rows merged into grid cells one to three at a time."""


class TestColumnPathRaisesTheSharedChecks:
    """A canonical file that fails a check after reading raises from the column path itself."""

    @pytest.mark.parametrize("line, text", [(2, None), (2, "1e400"), (1, "100.001")],
                             ids=["missing t", "value 1e400", "retained off by 1e-3"])
    def test_same_error_as_the_row_path(self, tmp_path, line, text):
        ep = make_episode([100.0, 110.0, 120.0, 130.0])
        mask = Mask(np.array([1, 0, 0, 1], dtype=np.uint8))
        path = tmp_path / "imputed.csv"
        imputers.write_imputations_csv([imputers.impute_lerp(ep, mask)], path)
        lines = path.read_bytes().split(b"\r\n")
        if text is None:
            del lines[line]
        else:
            fields = lines[line].split(b",")
            fields[3] = text.encode()
            lines[line] = b",".join(fields)
        path.write_bytes(b"\r\n".join(lines))
        with row_path():
            expected = outcome(imputers.load_external, path, [(ep, mask)])
        assert isinstance(expected, tuple), expected  # the row path raises
        assert outcome(external_columns, path, [(ep, mask)]) == expected


class TestIntegersBeyondExactFloat:
    """float64 rounds 2**53 + 1 to 2**53, so only the row path can tell the two ids apart."""

    def test_a_rounded_episode_id_matches_no_episode(self, tmp_path):
        ep = make_episode([100.0, 110.0], episode_id=2**53)
        pairs = [(ep, Mask(np.array([1, 0], dtype=np.uint8)))]
        path = tmp_path / "imputed.csv"
        imputers.write_imputations_csv(
            [Imputation(np.array([100.0, 105.0]), "lerp", ("p1", 2**53 + 1))], path)
        assert external_columns(path, pairs) is None
        with row_path():
            expected = outcome(imputers.load_external, path, pairs)
        assert expected == ("CoverageError", f"{path}: no rows for episode p1/{2**53}")
        assert outcome(imputers.load_external, path, pairs) == expected


_TEXT = st.text(alphabet=st.sampled_from(list('ab-_ ,"\n\ré')), min_size=1, max_size=5)
_ANY_FLOAT = st.one_of(st.floats(),
                       st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16,
                                        0.1, 100.0]))


@st.composite
def episode_lists(draw):
    episodes = []
    for episode_id in range(draw(st.integers(1, 3))):
        T = draw(st.integers(1, 6))
        glucose = draw(st.lists(st.one_of(st.just(math.nan), st.floats(20.0, 500.0),
                                          st.sampled_from([20.0, 500.0, 5e2])),
                                min_size=T, max_size=T))
        exog = np.array(draw(st.lists(_ANY_FLOAT, min_size=3 * T, max_size=3 * T))).reshape(T, 3)
        start = 5 * draw(st.integers(-10**6, 10**6))
        episodes.append(core.Episode(draw(_TEXT), episode_id, start, glucose, exog,
                                     ~np.isnan(glucose)))
    return episodes


@st.composite
def masked_truth(draw):
    """Complete-truth episodes under quoted and plain ids, in any key order, each with a
    random mask; every mask may hide any index, since the truth observes them all."""
    keys = draw(st.lists(st.tuples(_TEXT, st.integers(0, 10**6)), min_size=1, max_size=4,
                         unique=True))
    episodes, gap_masks = [], []
    for patient, episode_id in keys:
        T = draw(st.integers(1, 6))
        glucose = draw(st.lists(st.one_of(st.floats(20.0, 500.0), st.sampled_from([20.0, 500.0])),
                                min_size=T, max_size=T))
        exog = np.array(draw(st.lists(_ANY_FLOAT, min_size=3 * T, max_size=3 * T))).reshape(T, 3)
        start = 5 * draw(st.integers(-10**6, 10**6))
        episodes.append(core.Episode(patient, episode_id, start, glucose, exog, np.ones(T)))
        bits = draw(st.lists(st.integers(0, 1), min_size=T, max_size=T))
        gap_masks.append(Mask(np.array(bits, dtype=np.uint8)))
    return episodes, gap_masks


_LABELS = st.dictionaries(
    st.integers(0, 10**6),
    st.lists(st.integers(0, len(synth.REGIME_NAMES) - 1), max_size=6)
    .map(lambda codes: np.array(codes, dtype=np.int8)),
    max_size=4,
)


class TestWritersMatchCsvWriter:
    @given(episodes=episode_lists())
    @settings(max_examples=100, deadline=None)
    def test_export_csv(self, tmp_path_factory, episodes):
        root = tmp_path_factory.mktemp("export")
        with mock.patch.object(formats, "write_lines", wraps=formats.write_lines) as lines:
            core.export_csv(episodes, root / "lines.csv")
        csv_writer_export_csv(episodes, root / "rows.csv")
        assert (root / "lines.csv").read_bytes() == (root / "rows.csv").read_bytes()
        assert lines.called

    @given(case=masked_truth())
    @settings(max_examples=100, deadline=None)
    def test_export_csv_with_its_gapped_copy(self, tmp_path_factory, case):
        """One pass writes the truth, and the gapped copy as apply_mask shows each episode."""
        episodes, gap_masks = case
        root = tmp_path_factory.mktemp("gapped")
        retained = [masks.retained_by(ep, m) for ep, m in zip(episodes, gap_masks)]
        core.export_csv(episodes, root / "truth.csv", gapped=(root / "gapped.csv", retained))
        csv_writer_export_csv(episodes, root / "truth_rows.csv")
        csv_writer_export_csv([masks.apply_mask(ep, m) for ep, m in zip(episodes, gap_masks)],
                              root / "gapped_rows.csv")
        assert (root / "truth.csv").read_bytes() == (root / "truth_rows.csv").read_bytes()
        assert (root / "gapped.csv").read_bytes() == (root / "gapped_rows.csv").read_bytes()

    @given(
        refs=st.lists(st.tuples(_TEXT, st.integers(0, 10**6)), min_size=1, max_size=3, unique=True),
        method=_TEXT,
        values=st.lists(st.lists(_ANY_FLOAT, min_size=1, max_size=5), min_size=3, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_write_imputations_csv(self, tmp_path_factory, refs, method, values):
        root = tmp_path_factory.mktemp("imputations")
        imputations = [Imputation(np.array(v), method, ref) for ref, v in zip(refs, values)]
        with mock.patch.object(formats, "write_lines", wraps=formats.write_lines) as lines:
            imputers.write_imputations_csv(imputations, root / "lines.csv")
        csv_writer_write_imputations_csv(imputations, root / "rows.csv")
        assert (root / "lines.csv").read_bytes() == (root / "rows.csv").read_bytes()
        assert lines.called

    def test_write_labels_csv(self, tmp_path):
        result = synth.generate(synth.SynthConfig(days=2, hypo_depth=12.0, seed=1))
        synth.write_labels_csv(result, tmp_path / "lines.csv")
        csv_writer_write_labels_csv(result, tmp_path / "rows.csv")
        assert (tmp_path / "lines.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @given(labels=_LABELS)
    @settings(max_examples=100, deadline=None)
    def test_write_labels_csv_any_labels(self, tmp_path_factory, labels):
        root = tmp_path_factory.mktemp("labels")
        result = synth.SynthResult([], [], labels)
        synth.write_labels_csv(result, root / "lines.csv")
        csv_writer_write_labels_csv(result, root / "rows.csv")
        assert (root / "lines.csv").read_bytes() == (root / "rows.csv").read_bytes()

    @given(rows=st.lists(st.tuples(_TEXT, st.integers(0, 10**6), st.integers(0, 288),
                                   st.integers(0, 288)), min_size=1, max_size=5))
    @example(rows=[('a,"b', 0, 126, 174), ("synth-001", 1, 126, 174)])
    @settings(max_examples=100, deadline=None)
    def test_write_tcr_csv(self, tmp_path_factory, rows):
        root = tmp_path_factory.mktemp("tcr")
        protocols.write_tcr_csv(rows, root / "lines.csv")
        csv_writer_write_tcr_csv(rows, root / "rows.csv")
        assert (root / "lines.csv").read_bytes() == (root / "rows.csv").read_bytes()

    @given(episodes=episode_lists(), keep=st.lists(st.booleans(), min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_export_inputs(self, tmp_path_factory, episodes, keep):
        root = tmp_path_factory.mktemp("inputs")
        ep = episodes[0]
        mask = Mask(np.array(keep[: ep.T], dtype=np.uint8) & ep.observed)
        core.export_inputs(ep, mask, root / "lines.csv")
        csv_writer_export_inputs(core.build_inputs(ep, mask), root / "rows.csv")
        assert (root / "lines.csv").read_bytes() == (root / "rows.csv").read_bytes()

    def test_calibration_histogram(self, tmp_path):
        episodes = synth.generate(synth.SynthConfig(days=2, hypo_depth=12.0, seed=1)).episodes
        pairs = []
        for ep in episodes:
            bits = np.ones(ep.T, dtype=np.uint8)
            bits[20:80] = 0
            pairs.append((ep, Mask(bits)))
        cgm, masks_path, lerp = tmp_path / "cgm.csv", tmp_path / "masks.json", tmp_path / "lerp.csv"
        core.export_csv(episodes, cgm)
        masks.write_masks_json([(ep.patient_id, ep.episode_id, m) for ep, m in pairs], masks_path)
        imputations = [imputers.impute_lerp(ep, m) for ep, m in pairs]
        imputers.write_imputations_csv(imputations, lerp)
        assert cli.main(["calibrate", "--input", str(cgm), "--imputed", str(lerp),
                         "--masks", str(masks_path), "--out", str(tmp_path / "cal")]) == 0
        triples = [(ep.glucose, imp.values, m) for (ep, m), imp in zip(pairs, imputations)]
        csv_writer_calibration_histogram(metrics.pooled_calibration(triples), tmp_path / "rows.csv")
        written = (tmp_path / "cal" / "calibration_lerp.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("text", ["a,b", 'a"b', "a\rb", "a\nb"])
    def test_text_that_needs_quoting_is_not_plain(self, text):
        assert not formats.plain(["ok", text])
        assert formats.plain(["ok", "a b", "a\tb", "é"])


class TestColumnReaderMemory:
    def test_peak_within_two_mib_of_the_row_reader(self, tmp_path, monkeypatch):
        """A reader that holds the whole file at once shows here as megabytes over the rows.

        The first read parses and stores the cache entry; the second is served from it.
        """
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        path = tmp_path / "cgm.csv"
        core.export_csv(synth.generate(synth.SynthConfig(days=200, noise_std=2.0, seed=3)).episodes,
                        path)

        def peak():
            tracemalloc.start()
            try:
                episodes = core.ingest_csv(path, 240)
                return tracemalloc.get_traced_memory()[1], episodes
            finally:
                tracemalloc.stop()

        assert entries() == []
        miss, episodes = peak()
        assert len(entries()) == 1
        hit, again = peak()
        with row_path():
            rows_peak, expected = peak()
        assert same_episodes(episodes, expected) and same_episodes(again, expected)
        assert miss <= rows_peak + 2 * 2**20, (miss, rows_peak)
        assert hit <= rows_peak + 2 * 2**20, (hit, rows_peak)

    def test_ingest_holds_the_table_and_one_merged_copy(self, tmp_path, monkeypatch):
        """Ingest stays within twice the table (five floats a row) plus 1.5 MiB.

        The cells are merged into the table itself, so ingest holds the table, the
        episodes' arrays (about 0.8 of a table) and one chunk's temporaries: about 1.9
        tables, 4.2 MiB, on this file. The bound is the one set when the merge wrote a
        second copy of the cells; test_ingest_peak_is_the_table_and_the_episodes pins the
        tighter one. Merging the whole table at once held about 3.3 tables.
        """
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        path = tmp_path / "cgm.csv"
        core.export_csv(synth.generate(synth.SynthConfig(days=200, noise_std=2.0, seed=3)).episodes,
                        path)
        table = 200 * 288 * 5 * 8
        for read in ("miss", "hit"):
            tracemalloc.start()
            try:
                episodes = core.ingest_csv(path, 240)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(episodes) == 200 and len(entries()) == 1
            assert peak <= 2 * table + 3 * 2**19, (read, peak / table)

    def test_ingest_peak_is_the_table_and_the_episodes(self, tmp_path, monkeypatch):
        """The cells are merged into the table itself: ingest peaks at the table, the
        episodes' arrays and one chunk's temporaries, with no second table beside them."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        path = tmp_path / "cgm.csv"
        core.export_csv(synth.generate(synth.SynthConfig(days=200, noise_std=2.0, seed=3)).episodes,
                        path)
        table = 200 * 288 * 5 * 8
        for read in ("miss", "hit"):
            tracemalloc.start()
            try:
                episodes = core.ingest_csv(path, 240)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(episodes) == 200 and len(entries()) == 1
            arrays = sum(ep.glucose.nbytes + ep.exog.nbytes + ep.observed.nbytes for ep in episodes)
            assert peak <= table + arrays + 2**19, (read, (peak - table - arrays) / 2**20)


class TestLineLongerThanTwoBlocks:
    def test_declined_before_the_line_is_gathered(self, tmp_path, own_cache, capsys):
        """The reader holds at most one block of a line; the row reader then names the line."""
        rows = "".join(f"p1,{5 * i},100.0,0.0,0.0,1.0\r\n" for i in range(2000))
        long_line = f"p1,10000,100.0,0.0,0.0,{'1' * (2 * formats.BLOCK_BYTES + 10)}\r\n"
        path = tmp_path / "cgm.csv"
        path.write_text(",".join(core.CGM_HEADER) + "\r\n" + rows + long_line + rows)
        with counted_blocks() as blocks:
            assert formats.read_columns(path, core.CGM_HEADER, "tiffff") is None
        assert max(len(call.args[0]) for call in blocks.call_args_list) <= formats.BLOCK_BYTES
        assert entries() == []
        assert cli.main(["stress", "--input", str(path), "--protocol", "A", "--seed", "1",
                         "--out", str(tmp_path / "A")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line 2002: field larger than field limit (131072)\n")


@contextmanager
def counted_blocks():
    """Count the blocks the column reader parses (the mock keeps each block alive)."""
    with mock.patch.object(formats, "_parse_block", wraps=formats._parse_block) as blocks:
        yield blocks


def entries():
    """The cache entries, by name."""
    cache = formats._cache_dir()
    return sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []


@pytest.fixture
def own_cache(tmp_path, monkeypatch):
    """An empty cache for one test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "regime-bench"


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """A gapped CGM file, with NaN glucose, and an imputation file for its masks."""
    root = tmp_path_factory.mktemp("cached")
    pairs, gapped = [], []
    for ep in synth.generate(synth.SynthConfig(days=2, noise_std=2.0, seed=5)).episodes:
        bits = np.ones(ep.T, dtype=np.uint8)
        bits[30:50] = 0  # 100 minutes, so the gapped file still holds one episode per day
        pairs.append((ep, Mask(bits)))
        gapped.append(masks.apply_mask(ep, Mask(bits)))
    core.export_csv(gapped, root / "cgm.csv")
    imputers.write_imputations_csv([imputers.impute_lerp(ep, m) for ep, m in pairs],
                                   root / "lerp.csv")
    return {"cgm": (root / "cgm.csv", core.CGM_HEADER, "tiffff"),
            "lerp": (root / "lerp.csv", imputers.EXTERNAL_HEADER, "tiift"), "pairs": pairs}


def same_read(a, b):
    """Bit for bit: the table's bytes, NaN positions included, its dtype and shape, and the runs."""
    return (a[0].dtype == b[0].dtype and a[0].shape == b[0].shape
            and a[0].tobytes() == b[0].tobytes() and a[1] == b[1])


class TestParsedOncePerContent:
    """read_columns serves a repeat read of the same bytes from its cache, with the same result."""

    @pytest.mark.parametrize("name", ["cgm", "lerp"])
    def test_hit_equals_miss_and_parses_nothing(self, own_cache, small_files, name):
        path, header, kinds = small_files[name]
        with counted_blocks() as blocks:
            miss = formats.read_columns(path, header, kinds)
            parsed = blocks.call_count
            hit = formats.read_columns(path, header, kinds)
        assert parsed > 0 and blocks.call_count == parsed  # the hit parsed no block
        assert len(entries()) == 1
        assert same_read(hit, miss)
        assert np.isnan(miss[0]).any() == (name == "cgm")  # the gapped file's empty glucose
        assert hit[0].flags.writeable
        # end to end, a hit reads what the row reader reads
        pairs = small_files["pairs"]
        if name == "cgm":
            read, same = (lambda: core.ingest_csv(path, 240)), same_episodes
        else:
            read, same = (lambda: imputers.load_external(path, pairs)), same_imputations
        with row_path():
            expected = read()
        assert same(read(), expected)

    def test_the_table_is_the_callers_own(self, own_cache, small_files):
        """core edits the table in place, and the edit must not reach the next read."""
        path, header, kinds = small_files["cgm"]
        first = formats.read_columns(path, header, kinds)
        expected = first[0].copy()
        first[0][:] = 0.0
        assert same_read(formats.read_columns(path, header, kinds), (expected, first[1]))

    def test_one_changed_byte_misses(self, own_cache, small_files, tmp_path):
        path, header, kinds = small_files["cgm"]
        changed = tmp_path / "cgm.csv"
        data = path.read_bytes()
        changed.write_bytes(data.replace(b",1.0\r\n", b",2.0\r\n", 1))
        assert changed.read_bytes() != data
        formats.read_columns(path, header, kinds)
        with counted_blocks() as blocks:
            read = formats.read_columns(changed, header, kinds)
        assert blocks.call_count > 0 and len(entries()) == 2
        basal = read[0][:, 4]
        assert 2.0 in basal and 2.0 not in formats.read_columns(path, header, kinds)[0][:, 4]

    def test_an_entry_of_another_reader_is_never_used(self, own_cache, small_files, tmp_path,
                                                       monkeypatch):
        path, header, kinds = small_files["cgm"]
        formats.read_columns(path, header, kinds)
        edited = tmp_path / "formats.py"
        edited.write_bytes(Path(formats.__file__).read_bytes() + b"# another reader\n")
        monkeypatch.setattr(formats, "__file__", str(edited))
        with counted_blocks() as blocks:
            formats.read_columns(path, header, kinds)
        assert blocks.call_count > 0 and len(entries()) == 2

    @pytest.mark.parametrize("damage", ["empty", "truncated", "garbage", "longer", "other key",
                                        "bad shape", "runs short"])
    def test_damaged_entry_is_a_miss_then_replaced(self, own_cache, small_files, damage):
        path, header, kinds = small_files["cgm"]
        expected = formats.read_columns(path, header, kinds)
        (name,) = entries()
        entry = own_cache / name
        good = entry.read_bytes()
        meta, table = good.split(b"\n", 1)
        doc = json.loads(meta)
        if damage == "other key":
            doc["key"] = "0" * len(name)
        elif damage == "bad shape":
            doc["shape"] = [doc["shape"][0] * 5, 1]  # as many cells, other columns
        elif damage == "runs short":
            doc["runs"] = []
        bad = {"empty": b"", "truncated": good[:-8], "garbage": b"\xff\x00 not an entry\n" + table,
               "longer": good + b"\0" * 8}.get(damage, json.dumps(doc).encode() + b"\n" + table)
        entry.write_bytes(bad)
        with counted_blocks() as blocks:
            read = formats.read_columns(path, header, kinds)
        assert blocks.call_count > 0
        assert same_read(read, expected)
        assert entry.read_bytes() == good and entries() == [name]

    def test_cache_path_that_is_a_file_only_costs_the_parse(self, own_cache, small_files,
                                                             tmp_path, capsys):
        path, header, kinds = small_files["cgm"]
        expected = formats.read_columns(path, header, kinds)
        shutil.rmtree(own_cache)
        own_cache.write_bytes(b"not a directory")
        assert same_read(formats.read_columns(path, header, kinds), expected)
        masks.write_masks_json([(ep.patient_id, ep.episode_id, m)
                                for ep, m in small_files["pairs"]], tmp_path / "masks.json")
        assert cli.main(["impute", "--input", str(path), "--masks", str(tmp_path / "masks.json"),
                         "--method", "lerp", "--out", str(tmp_path / "lerp.csv")]) == 0, \
            capsys.readouterr().err
        assert (tmp_path / "lerp.csv").read_bytes() == small_files["lerp"][0].read_bytes()
        assert own_cache.read_bytes() == b"not a directory"

    def test_declined_file_stores_nothing_and_keeps_its_error(self, own_cache, small_files,
                                                              tmp_path):
        path, header, kinds = small_files["cgm"]
        bad = tmp_path / "cgm.csv"
        bad.write_bytes(path.read_bytes().replace(b",1.0\r\n", b",x\r\n", 1))
        with row_path():
            expected = outcome(core.ingest_csv, bad, 240)
        assert expected == ("ParseError", f"{bad}: line 2: bad basal value 'x'")
        assert formats.read_columns(bad, header, kinds) is None
        for _ in range(2):
            assert outcome(core.ingest_csv, bad, 240) == expected
        assert entries() == []

    def test_failed_check_after_a_hit_keeps_its_error(self, own_cache, small_files, tmp_path):
        """A canonical file that core rejects is cached, and rejected the same on each read."""
        path, header, kinds = small_files["cgm"]
        bad = tmp_path / "cgm.csv"
        bad.write_bytes(path.read_bytes().replace(b",1.0\r\n", b",-1.0\r\n", 1))
        with row_path():
            expected = outcome(core.ingest_csv, bad, 240)
        assert expected == ("ParseError", f"{bad}: line 2: negative exogenous value")
        for _ in range(2):
            assert outcome(core.ingest_csv, bad, 240) == expected
        assert len(entries()) == 1

    def test_eviction_keeps_the_directory_under_the_cap(self, own_cache, small_files, tmp_path,
                                                        monkeypatch):
        path, header, kinds = small_files["cgm"]
        files = []
        for i in range(4):  # four contents, one entry each, all of one size
            files.append(tmp_path / f"cgm{i}.csv")
            files[-1].write_bytes(path.read_bytes().replace(b",1.0\r\n", b",%d.0\r\n" % (i + 2), 1))

        def read(i):
            before = set(entries())
            formats.read_columns(files[i], header, kinds)
            total = sum(p.stat().st_size for p in own_cache.iterdir())
            assert total <= formats.CACHE_BYTES
            return (set(entries()) - before).pop() if set(entries()) - before else None

        a = read(0)
        monkeypatch.setattr(formats, "CACHE_BYTES", 5 * (own_cache / a).stat().st_size // 2)
        os.utime(own_cache / a, (1, 1))
        b = read(1)
        os.utime(own_cache / b, (2, 2))
        assert read(0) is None and (own_cache / a).stat().st_mtime > 2  # a hit marks a as used
        c = read(2)
        assert entries() == sorted([a, c])  # b, used least recently, went first
        d = read(3)
        assert entries() == sorted([c, d])


class TestNoCacheWithoutAnAbsoluteBase:
    def test_relative_xdg_cache_home_and_home_read_uncached(self, small_files, tmp_path,
                                                           monkeypatch):
        """With neither base absolute there is no cache: each read parses, and none is stored."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "xdg")
        monkeypatch.setenv("HOME", "home")
        assert formats._cache_dir() is None
        path = small_files["cgm"][0]
        with row_path():
            expected = core.ingest_csv(path, 240)
        with counted_blocks() as blocks:
            first = core.ingest_csv(path, 240)
            parsed = blocks.call_count
            again = core.ingest_csv(path, 240)
        assert parsed > 0 and blocks.call_count == 2 * parsed  # the repeat parsed again
        assert same_episodes(first, expected) and same_episodes(again, expected)
        assert list(tmp_path.iterdir()) == []
