"""The CGM read cache holds ingest's result: one block of episode values and their spans.

A warm read of a canonical CGM file returns the episodes stored by the
first read, as read-only views of one block, once the entry's checksum
matches. These tests hold a hit to the row reader bit for bit, make every
damaged entry a miss that is then replaced, and check what a hit does not
do: parse, merge, partition, or hold more than the block.
"""

import json
import math
import tracemalloc
import weakref
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from conftest import build_injected_model, gapped_days
from regime_bench import cli, core, formats, masks, missingness, synth
from regime_bench.masks import Mask

GAPS = [5, 60, 240, 5000]


@pytest.fixture
def own_cache(tmp_path, monkeypatch):
    """An empty cache for one test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "regime-bench"


def entries(cache):
    return sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []


@contextmanager
def calls(module, *names):
    """Wrap each named function of module in a mock that counts its calls."""
    with mock.patch.multiple(module, **{n: mock.MagicMock(wraps=getattr(module, n))
                                        for n in names}):
        yield {n: getattr(module, n) for n in names}


def row_read(path, gap):
    with mock.patch.object(formats, "read_columns", lambda *args: None):
        return core.ingest_csv(path, gap)


def same_bits(a, b):
    """The same episodes, bit for bit: keys, starts, and every array's dtype, shape and bytes."""
    return len(a) == len(b) and all(
        (x.patient_id, x.episode_id, x.start_minute) == (y.patient_id, y.episode_id, y.start_minute)
        and type(x.start_minute) is type(y.start_minute) is int
        and all(getattr(x, f).dtype == getattr(y, f).dtype
                and getattr(x, f).shape == getattr(y, f).shape
                and getattr(x, f).tobytes() == getattr(y, f).tobytes()
                for f in ("glucose", "exog", "observed"))
        for x, y in zip(a, b))


def hidden(ep, runs):
    bits = np.ones(ep.T, dtype=np.uint8)
    for start, length in runs:
        bits[start : start + length] = 0
    return masks.apply_mask(ep, Mask(bits))


@pytest.fixture(scope="module")
def cgm_files(tmp_path_factory):
    """Canonical CGM files: complete, gapped (missing runs of 20, 100 and 300 minutes, so each
    partition gap cuts them differently), two patients, and a patient split across two runs."""
    root = tmp_path_factory.mktemp("cgm")
    episodes = synth.generate(synth.SynthConfig(days=2, noise_std=2.0, seed=5)).episodes
    core.export_csv(episodes, root / "complete.csv")
    gapped = [hidden(ep, [(10, 4), (100, 20), (200, 60)]) for ep in episodes]
    core.export_csv(gapped, root / "gapped.csv")
    header = ",".join(core.CGM_HEADER)
    pa = [f"pA,{5 * i},{100.0 + i % 7},{float(i % 5 == 0)},0.0,{1.0 if i % 3 else 0.0}"
          for i in range(40)]
    pb = [f"pB,{5 * i + 3},{90.0 + i % 4},0.0,{0.5 * (i % 2)},0.0" for i in range(30)]
    pa_late = [f"pA,{400 + 5 * i},{110.0 + i % 3},0.0,0.0,2.0" for i in range(20)]
    pb[10] = "pB,53,,7.0,0.0,0.0"  # an event-only row
    (root / "two.csv").write_text("\n".join([header, *pa, *pb]) + "\n")
    (root / "split.csv").write_text("\r\n".join([header, *pa[:20], *pb, *pa[20:], *pa_late]))
    return {name: root / f"{name}.csv" for name in ("complete", "gapped", "two", "split")}


class TestHitEqualsTheRowReader:
    @pytest.mark.parametrize("gap", GAPS)
    @pytest.mark.parametrize("name", ["complete", "gapped", "two", "split"])
    def test_bit_for_bit(self, own_cache, cgm_files, small_chunks, name, gap):
        path = cgm_files[name]
        expected = row_read(path, gap)
        miss = core.ingest_csv(path, gap)
        with calls(formats, "_parse_block") as mocks:
            hit = core.ingest_csv(path, gap)
        assert mocks["_parse_block"].call_count == 0  # served from the cache
        assert len(entries(own_cache)) == 1
        assert expected and same_bits(miss, expected) and same_bits(hit, expected)
        for ep in hit:
            assert not (ep.glucose.flags.writeable or ep.exog.flags.writeable
                        or ep.observed.flags.writeable)


def damage_block(name):
    """A function (doc, block, n) -> None that damages an entry's doc or block in place."""
    def edit(doc, block, n):
        spans = doc["episodes"]
        if name == "offsets past the end":
            spans[-1][3] = n
        elif name == "overlapping offsets":
            spans[1][3] -= 1
        elif name == "glucose out of range":
            block[spans[0][3] + 5] = 19.0
        elif name == "glucose over range":
            block[spans[0][3] + 5] = 500.5
        elif name == "glucose in range":
            block[spans[0][3] + 5] += 1.0
        elif name == "basal in range":
            block[n + 3 * 7 + 2] += 1.0
        elif name == "NaN at an episode edge":
            block[spans[1][3]] = math.nan
        elif name == "negative exogenous":
            block[n + 7] = -1.0
        elif name == "NaN exogenous":
            block[n + 7] = math.nan
        elif name == "infinite exogenous":
            block[n + 7] = math.inf
        elif name == "zero length":
            spans[0][4] = 0
        elif name == "start off the grid":
            spans[1][2] += 1
        elif name == "ids out of order":
            spans[0][1] = 1
        else:
            raise AssertionError(name)
    return edit


BLOCK_DAMAGE = ["offsets past the end", "overlapping offsets", "glucose out of range",
                "glucose over range", "NaN at an episode edge", "negative exogenous",
                "NaN exogenous", "infinite exogenous", "zero length", "start off the grid",
                "ids out of order", "glucose in range", "basal in range"]


class TestDamagedEntryIsAMissThenReplaced:
    def read_and_damage(self, own_cache, path, gap, bad):
        """Ingest once, replace the one entry with bad(good bytes), then read again: a miss
        that parses, returns the right episodes and stores the good entry again."""
        expected = row_read(path, gap)
        core.ingest_csv(path, gap)
        (name,) = entries(own_cache)
        entry = own_cache / name
        good = entry.read_bytes()
        entry.write_bytes(bad(good))
        with calls(formats, "_parse_block") as mocks:
            read = core.ingest_csv(path, gap)
        assert mocks["_parse_block"].call_count > 0
        assert same_bits(read, expected)
        assert entry.read_bytes() == good and entries(own_cache) == [name]

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "wrong key", "longer",
                                        "a list", "no shape", "no episodes"])
    def test_entry(self, own_cache, cgm_files, damage):
        def bad(good):
            meta, block = good.split(b"\n", 1)
            doc = json.loads(meta)
            if damage == "wrong key":
                doc["key"] = "0" * len(doc["key"])
            elif damage == "a list":
                return json.dumps([doc]).encode() + b"\n" + block
            elif damage == "no shape":
                del doc["shape"]
            elif damage == "no episodes":
                del doc["episodes"]
            rewritten = json.dumps(doc).encode() + b"\n" + block
            return {"truncated": good[:-8], "garbage": b"\xff\x00 not an entry\n" + block,
                    "longer": good + b"\0" * 8}.get(damage, rewritten)

        self.read_and_damage(own_cache, cgm_files["gapped"], 240, bad)

    @pytest.mark.parametrize("damage", BLOCK_DAMAGE)
    def test_block(self, own_cache, cgm_files, damage):
        def bad(good):
            meta, raw = good.split(b"\n", 1)
            doc, block = json.loads(meta), np.frombuffer(raw).copy()
            damage_block(damage)(doc, block, block.size // 4)
            return json.dumps(doc).encode() + b"\n" + block.tobytes()

        self.read_and_damage(own_cache, cgm_files["gapped"], 240, bad)

    @pytest.mark.parametrize("other", [60, 5000])
    def test_entry_made_for_another_gap(self, own_cache, cgm_files, tmp_path, monkeypatch, other):
        """The entry that a read with another gap stores, put under this gap's key."""
        path = cgm_files["gapped"]
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other"))
        core.ingest_csv(path, other)
        (foreign,) = (tmp_path / "other" / "regime-bench").iterdir()
        assert len(row_read(path, other)) != len(row_read(path, 240))
        monkeypatch.setenv("XDG_CACHE_HOME", str(own_cache.parent))

        def bad(good):
            meta, raw = foreign.read_bytes().split(b"\n", 1)
            doc = json.loads(meta)
            doc["key"] = json.loads(good.split(b"\n", 1)[0])["key"]
            return json.dumps(doc).encode() + b"\n" + raw

        self.read_and_damage(own_cache, path, 240, bad)

    def test_declined_canonical_file_is_cached_as_a_decline(self, own_cache, cgm_files,
                                                            tmp_path):
        """core declines a negative basal: one entry, a decline, and the row reader's error
        on every read, without a parse after the first."""
        bad = tmp_path / "cgm.csv"
        bad.write_bytes(cgm_files["complete"].read_bytes().replace(b",1.0\r\n", b",-1.0\r\n", 1))
        for read in range(2):
            with calls(formats, "_parse_block") as mocks:
                with pytest.raises(core.ParseError, match="line 2: negative exogenous value"):
                    core.ingest_csv(bad, 240)
            assert (mocks["_parse_block"].call_count > 0) == (read == 0)
        (name,) = entries(own_cache)
        assert json.loads((own_cache / name).read_bytes()) == {"key": name, "shape": None}


class TestHitDoesNoParseWork:
    def test_no_parse_merge_or_partition(self, own_cache, cgm_files):
        path = cgm_files["gapped"]
        names = ("_merge_cells", "_partition")
        with calls(formats, "_parse_block") as parse, calls(core, *names) as work:
            miss = core.ingest_csv(path, 240)
            counts = [parse["_parse_block"].call_count] + [work[n].call_count for n in names]
            hit = core.ingest_csv(path, 240)
            again = [parse["_parse_block"].call_count] + [work[n].call_count for n in names]
        assert all(counts) and again == counts
        assert same_bits(hit, miss)

    def test_hit_peak_is_the_returned_arrays(self, own_cache, tmp_path):
        """A hit holds the block and the observed flags, plus at most 0.5 MiB beside them."""
        path = tmp_path / "cgm.csv"
        core.export_csv(synth.generate(synth.SynthConfig(days=200, noise_std=2.0, seed=3))
                        .episodes, path)
        core.ingest_csv(path, 240)
        tracemalloc.start()
        try:
            episodes = core.ingest_csv(path, 240)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(episodes) == 200 and len(entries(own_cache)) == 1
        arrays = sum(ep.glucose.nbytes + ep.exog.nbytes + ep.observed.nbytes for ep in episodes)
        assert peak <= arrays + 2**19, (peak - arrays) / 2**20

    def test_episodes_share_one_block(self, own_cache, cgm_files):
        episodes = core.ingest_csv(cgm_files["split"], 60)
        block = episodes[0].glucose.base
        assert block.size == 4 * sum(ep.T for ep in episodes)
        assert all(ep.glucose.base is block and ep.exog.base is block for ep in episodes)


class TestFitFreesTheCorpus:
    def test_block_is_dead_inside_fit_regimes(self, own_cache, tmp_path, monkeypatch):
        """fit drops the episodes, and so their block, before fit_regimes runs."""
        _, gapped = gapped_days(build_injected_model(), 50)
        path = tmp_path / "gapped.csv"
        core.export_csv(gapped, path)
        refs, seen = [], []
        ingest, fit_regimes = cli.ingest_csv, missingness.fit_regimes

        def ingest_and_watch(*args):
            episodes = ingest(*args)
            refs.append(weakref.ref(episodes[0].glucose.base))
            return episodes

        def fit_and_check(*args, **kwargs):
            seen.append(refs[-1]() is None)
            return fit_regimes(*args, **kwargs)

        monkeypatch.setattr(cli, "ingest_csv", ingest_and_watch)
        monkeypatch.setattr(missingness, "fit_regimes", fit_and_check)
        for read in ("miss", "hit"):
            assert cli.main(["fit", "--input", str(path), "--min-gaps", "1",
                             "--out", str(tmp_path / f"{read}.json")]) == 0
        assert seen == [True, True]
        assert (tmp_path / "miss.json").read_bytes() == (tmp_path / "hit.json").read_bytes()
