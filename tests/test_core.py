import math
import re
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_episode
from regime_bench import core, formats
from regime_bench.core import (
    INPUT_HEADER,
    Episode,
    build_inputs,
    episodes_equal,
    export_csv,
    export_inputs,
    ingest_csv,
    split_mask,
    time_encoding,
)
from regime_bench.errors import (
    DimensionError,
    IntegrityError,
    OrderingError,
    ParseError,
)
from regime_bench.masks import Mask


CGM_LINE = "patient_id,timestamp,glucose,carbs,bolus,basal"


def write_csv(tmp_path, rows, header=CGM_LINE):
    path = tmp_path / "input.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestIngest:
    def test_split_on_gap_exceeding_threshold(self, tmp_path):
        path = write_csv(tmp_path, ["p1,0,100,0,0,0", "p1,250,110,0,0,0"])
        episodes = ingest_csv(path, 240)
        assert len(episodes) == 2
        assert [ep.T for ep in episodes] == [1, 1]

    def test_gap_at_threshold_stays_one_episode(self, tmp_path):
        path = write_csv(tmp_path, ["p1,0,100,0,0,0", "p1,240,110,0,0,0"])
        episodes = ingest_csv(path, 240)
        assert len(episodes) == 1
        assert episodes[0].T == 49

    def test_dense_day_single_episode(self, tmp_path):
        rows = [f"p1,{5 * t},100,0,0,0" for t in range(288)]
        episodes = ingest_csv(write_csv(tmp_path, rows), 30)
        assert len(episodes) == 1
        assert episodes[0].T == 288
        assert episodes[0].fully_observed()

    def test_short_threshold_partition(self, tmp_path):
        rows = [f"p1,{m},100,0,0,0" for m in (0, 5, 10, 50)]
        episodes = ingest_csv(write_csv(tmp_path, rows), 30)
        assert [ep.T for ep in episodes] == [3, 1]
        assert episodes[1].start_minute == 50

    def test_interior_missing_kept_on_grid(self, tmp_path):
        path = write_csv(tmp_path, ["p1,0,100,0,0,0", "p1,20,120,0,0,0"])
        (ep,) = ingest_csv(path, 240)
        assert ep.T == 5
        assert list(ep.observed) == [1, 0, 0, 0, 1]
        assert np.isnan(ep.glucose[1:4]).all()

    def test_snap_collision_keeps_later_reading(self, tmp_path):
        # 1 min and 2 min both snap to grid point 0
        path = write_csv(tmp_path, ["p1,1,100,0,0,0", "p1,2,130,0,0,0"])
        (ep,) = ingest_csv(path, 240)
        assert ep.glucose[0] == 130.0

    def test_snap_collision_accumulates_events(self, tmp_path):
        path = write_csv(tmp_path, ["p1,0,100,20,1.5,0", "p1,2,,15,0.5,0"])
        (ep,) = ingest_csv(path, 240)
        assert ep.exog[0, 0] == 35.0
        assert ep.exog[0, 1] == 2.0
        assert ep.glucose[0] == 100.0  # event row with empty glucose keeps the reading

    def test_exog_zero_filled(self, tmp_path):
        path = write_csv(tmp_path, ["p1,0,100,0,0,0", "p1,15,110,0,0,0"])
        (ep,) = ingest_csv(path, 240)
        assert ep.exog.shape == (4, 3)
        assert (ep.exog == 0).all()

    def test_iso_timestamps(self, tmp_path):
        rows = ["p1,1970-01-01T00:00:00,100,0,0,0", "p1,1970-01-01T00:05:00,105,0,0,0"]
        (ep,) = ingest_csv(write_csv(tmp_path, rows), 240)
        assert ep.T == 2
        assert ep.start_minute == 0

    def test_malformed_row_reports_line(self, tmp_path):
        path = write_csv(tmp_path, ["p1,0,100,0,0,0", "p1,5,not-a-number,0,0,0"])
        with pytest.raises(ParseError, match="line 3"):
            ingest_csv(path, 240)

    def test_glucose_out_of_range_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["p1,0,700,0,0,0"])
        with pytest.raises(ParseError, match="line 2"):
            ingest_csv(path, 240)

    @pytest.mark.parametrize(
        "rows",
        [
            ["p1,0,100,nan,inf,0"],
            ["p1,0,100,0,0,0", "p1,5,110,0,0,nan"],
            ["p1,0,100,0,0,0", "p1,5,110,-inf,0,0"],
        ],
        ids=["nan-carbs", "nan-basal", "negative-inf"],
    )
    def test_non_finite_exogenous_value_rejected(self, tmp_path, rows):
        path = write_csv(tmp_path, rows)
        line = len(rows) + 1
        with pytest.raises(ParseError) as exc:
            ingest_csv(path, 240)
        assert str(exc.value) == f"{path}: line {line}: non-finite exogenous value"

    def test_non_monotone_timestamps(self, tmp_path):
        path = write_csv(tmp_path, ["p1,100,100,0,0,0", "p1,50,110,0,0,0"])
        with pytest.raises(OrderingError, match="line 3"):
            ingest_csv(path, 240)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ParseError, match="header"):
            ingest_csv(path, 240)

    @pytest.mark.parametrize(
        "header, rows, error",
        [
            ("a,b,c", [], ParseError),
            (CGM_LINE, ["p1,0,100,0,0,0", "p1,5,not-a-number,0,0,0"], ParseError),
            (CGM_LINE, ["p1,100,100,0,0,0", "p1,50,110,0,0,0"], OrderingError),
        ],
        ids=["header", "row", "ordering"],
    )
    def test_errors_start_with_the_path(self, tmp_path, header, rows, error):
        path = write_csv(tmp_path, rows, header=header)
        with pytest.raises(error) as exc:
            ingest_csv(path, 240)
        assert str(exc.value).startswith(f"{path}: line ")

    def test_offsets_and_z_dropped_to_wall_clock(self, tmp_path):
        rows = [
            "p1,1970-01-01T01:00:00+02:00,100,0,0,0",
            "p1,1970-01-01T01:05:00Z,105,0,0,0",
            "p1,1970-01-01T01:10:00-05:30,110,0,0,0",
        ]
        (ep,) = ingest_csv(write_csv(tmp_path, rows), 240)
        assert ep.start_minute == 60
        assert list(ep.glucose) == [100.0, 105.0, 110.0]

    def test_large_integer_timestamp_keeps_its_grid_minute(self, tmp_path):
        # beyond int64 range for the grid index; the grid stays exact in floats
        (ep,) = ingest_csv(write_csv(tmp_path, [f"p1,{10**20},100,0,0,0"]), 240)
        assert ep.start_minute == 10**20

    def test_exact_huge_timestamps_stay_apart(self, tmp_path):
        # 2**60 and 2**60 + 2**10 are both exact in float64, 1024 minutes apart
        rows = [f"p1,{2**60},100,0,0,0", f"p1,{2**60 + 2**10},110,0,0,0"]
        episodes = ingest_csv(write_csv(tmp_path, rows), 240)
        assert [(ep.episode_id, ep.T) for ep in episodes] == [(0, 1), (1, 1)]

    def test_integer_timestamp_beyond_float_range_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["p1,1" + "0" * 400 + ",100,0,0,0"])
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: bad timestamp"):
            ingest_csv(path, 240)

    def test_dst_fall_back_is_an_ordering_error(self, tmp_path):
        # clocks go back at 03:00 CEST: 02:55+02:00 is followed by 02:00+01:00
        rows = ["p1,2024-10-27T02:55:00+02:00,100,0,0,0", "p1,2024-10-27T02:00:00+01:00,105,0,0,0"]
        path = write_csv(tmp_path, rows)
        with pytest.raises(OrderingError) as exc:
            ingest_csv(path, 240)
        assert str(exc.value) == f"{path}: line 3: timestamp decreases within patient 'p1'"

    def test_patients_independent_and_sorted(self, tmp_path):
        rows = ["pB,0,100,0,0,0", "pA,0,110,0,0,0", "pB,500,120,0,0,0"]
        episodes = ingest_csv(write_csv(tmp_path, rows), 240)
        assert [(ep.patient_id, ep.episode_id) for ep in episodes] == [
            ("pA", 0),
            ("pB", 0),
            ("pB", 1),
        ]


def _oracle_episodes(rows, threshold):
    """Dict-per-grid-point reading of the ingest rules, one episode per observed run."""
    grids = {}
    for patient, minute, glucose, carbs, bolus, basal in rows:
        grid = math.floor(minute / 5 + 0.5) * 5
        cell = grids.setdefault(patient, {}).setdefault(grid, [math.nan, 0.0, 0.0, 0.0])
        if glucose is not None:
            cell[0] = glucose
        cell[1] += carbs
        cell[2] += bolus
        if basal:
            cell[3] = basal
    episodes = []
    for patient in sorted(grids):
        cells = grids[patient]
        observed = sorted(m for m, cell in cells.items() if not math.isnan(cell[0]))
        runs = [[observed[0]]] if observed else []
        for m in observed[1:]:
            if m - runs[-1][-1] > threshold:
                runs.append([])
            runs[-1].append(m)
        for episode_id, run in enumerate(runs):
            grid = range(run[0], run[-1] + 1, 5)
            values = [cells.get(m, [math.nan, 0.0, 0.0, 0.0]) for m in grid]
            episodes.append((patient, episode_id, run[0], values))
    return episodes


# one CSV row: patient, seconds since the patient's previous row, glucose, carbs, bolus, basal
_ROW = st.tuples(
    st.sampled_from(["pA", "pB", "pC"]),
    st.sampled_from([0, 30, 60, 120, 150, 180, 300, 450, 600, 1800, 7200, 18000]),
    st.one_of(st.none(), st.floats(20.0, 500.0)),
    st.sampled_from([0.0, 0.1, 0.2, 15.0, 20.5]),
    st.sampled_from([0.0, 0.1, 0.3, 1.5]),
    st.sampled_from([0.0, 0.0, 0.8, 1.25]),
)


class TestIngestOracle:
    @given(
        rows=st.lists(_ROW, min_size=1, max_size=40),
        iso=st.booleans(),
        threshold=st.sampled_from([5, 10, 30, 240]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_oracle(self, tmp_path_factory, rows, iso, threshold):
        clock, parsed, lines = {}, [], []
        for patient, step, glucose, carbs, bolus, basal in rows:
            seconds = clock[patient] = clock.get(patient, 86400) + step
            if iso or seconds % 60:
                stamp = (datetime(1970, 1, 1) + timedelta(seconds=seconds)).isoformat()
            else:
                stamp = str(seconds // 60)
            exog = ["" if v == 0.0 and iso else repr(v) for v in (carbs, bolus, basal)]
            lines.append(",".join([patient, stamp, "" if glucose is None else repr(glucose), *exog]))
            parsed.append((patient, seconds / 60, glucose, carbs, bolus, basal))
        path = tmp_path_factory.mktemp("oracle") / "in.csv"
        path.write_text(CGM_LINE + "\n" + "\n".join(lines) + "\n")
        assert_matches_oracle(ingest_csv(path, threshold), _oracle_episodes(parsed, threshold))


def assert_matches_oracle(episodes, expected):
    assert len(episodes) == len(expected)
    for ep, (patient, episode_id, start, values) in zip(episodes, expected):
        assert (ep.patient_id, ep.episode_id, ep.start_minute) == (patient, episode_id, start)
        assert np.array_equal(ep.glucose, [v[0] for v in values], equal_nan=True)
        assert np.array_equal(ep.exog, [v[1:] for v in values])


class TestExportRoundTrip:
    def test_ingest_export_ingest_idempotent(self, tmp_path):
        rows = (
            [f"p1,{5 * t},{100 + t},0,0,1.0" for t in range(20)]
            + ["p1,400,140,30,2.5,1.0"]
            + [f"p2,{5 * t},{90 + t},0,0,0" for t in range(0, 30, 3)]
        )
        first = ingest_csv(write_csv(tmp_path, rows), 240)
        out = tmp_path / "roundtrip.csv"
        export_csv(first, out)
        second = ingest_csv(out, 240)
        assert len(first) == len(second)
        assert all(episodes_equal(a, b) for a, b in zip(first, second))

    @given(
        layout=st.lists(st.booleans(), min_size=2, max_size=60).filter(lambda l: any(l)),
        threshold=st.sampled_from([30, 240]),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_bound_property(self, tmp_path_factory, layout, threshold):
        rows = [f"p1,{5 * t},{100},0,0,0" for t, keep in enumerate(layout) if keep]
        path = tmp_path_factory.mktemp("prop") / "in.csv"
        path.write_text("patient_id,timestamp,glucose,carbs,bolus,basal\n" + "\n".join(rows) + "\n")
        episodes = ingest_csv(path, threshold)
        boundaries = []
        for ep in episodes:
            obs = np.flatnonzero(ep.observed)
            internal = np.diff(obs) * 5
            if internal.size:
                assert internal.max() <= threshold
            boundaries.append((ep.start_minute, ep.start_minute + 5 * (ep.T - 1)))
        for (_, prev_end), (next_start, _) in zip(boundaries, boundaries[1:]):
            assert next_start - prev_end > threshold


@pytest.mark.usefixtures("small_chunks")
class TestIngestOracleInSmallChunks(TestIngestOracle):
    """The oracle again, with rows merged into grid cells one to three at a time."""


@pytest.mark.usefixtures("small_chunks")
class TestExportRoundTripInSmallChunks(TestExportRoundTrip):
    """The round trip again, with rows merged into grid cells one to three at a time."""


class TestChunkCuts:
    """Layouts where a chunk of one to three rows is cut next to what the merge must keep whole.

    Minutes 3 to 7 all snap to grid minute 5, and 398 to 402 to grid minute 400.
    """

    CASES = {
        "collision across a cut": [
            "p1,0,100.0,0.0,0.0,1.0", "p1,3,101.0,5.0,0.5,0.0", "p1,5,,7.0,0.0,2.0",
            "p1,7,103.0,0.0,1.5,0.0", "p1,10,104.0,0.0,0.0,0.0",
        ],
        "cell longer than a chunk": [
            "p1,0,100.0,0.0,0.0,0.0",
            *(f"p1,{m},{100 + m}.0,1.0,0.25,{m % 2}.0" for m in (3, 3, 4, 5, 6, 7, 7)),
            "p1,10,120.0,0.0,0.0,0.0",
        ],
        "patient split across two runs": [
            "pA,0,100.0,1.0,0.0,0.0", "pA,5,101.0,0.0,0.0,1.0", "pB,0,90.0,0.0,0.0,0.0",
            "pB,5,91.0,0.0,0.0,0.0", "pA,6,,2.0,0.5,0.0", "pA,10,103.0,0.0,0.0,0.0",
        ],
        "event-only rows between episodes": [
            "p1,0,,3.0,0.0,0.0", "p1,0,100.0,0.0,0.0,1.0", "p1,5,101.0,0.0,0.0,0.0",
            "p1,100,,20.0,1.0,0.0", "p1,200,,0.0,0.0,0.5", "p1,398,,10.0,0.0,0.0",
            "p1,400,110.0,0.0,0.0,0.0", "p1,405,111.0,0.0,0.0,0.0", "p1,500,,4.0,0.0,0.0",
        ],
    }

    @pytest.mark.parametrize("reader", ["columns", "rows"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_oracle(self, tmp_path, monkeypatch, small_chunks, case, reader):
        lines = self.CASES[case]
        path = write_csv(tmp_path, lines)
        if reader == "rows":
            monkeypatch.setattr(formats, "read_columns", lambda *args: None)
        else:
            assert core._read_columns(path) is not None
        parsed = []
        for line in lines:
            patient, minute, glucose, carbs, bolus, basal = line.split(",")
            parsed.append((patient, float(minute), float(glucose) if glucose else None,
                           float(carbs), float(bolus), float(basal)))
        assert_matches_oracle(ingest_csv(path, 30), _oracle_episodes(parsed, 30))


class TestTimeEncoding:
    def test_midnight(self):
        sin_t, cos_t = time_encoding(0)
        assert sin_t == pytest.approx(0.0, abs=1e-12)
        assert cos_t == pytest.approx(1.0, abs=1e-12)

    def test_quarter_cycle(self):
        sin_t, cos_t = time_encoding(72)
        assert sin_t == pytest.approx(1.0, abs=1e-12)
        assert cos_t == pytest.approx(0.0, abs=1e-12)

    def test_half_cycle(self):
        sin_t, cos_t = time_encoding(144)
        assert sin_t == pytest.approx(0.0, abs=1e-12)
        assert cos_t == pytest.approx(-1.0, abs=1e-12)

    def test_start_time_offset(self):
        # episode starting at 06:00, t=0 should encode quarter cycle
        sin_t, _ = time_encoding(0, start_time_of_day=360)
        assert sin_t == pytest.approx(1.0, abs=1e-12)

    @given(t=st.integers(min_value=0, max_value=10_000), start=st.integers(min_value=0, max_value=287))
    @settings(max_examples=200, deadline=None)
    def test_period_288_and_unit_norm(self, t, start):
        a = time_encoding(t, start * 5)
        b = time_encoding(t + 288, start * 5)
        assert a[0] == pytest.approx(b[0], abs=1e-12)
        assert a[1] == pytest.approx(b[1], abs=1e-12)
        assert a[0] ** 2 + a[1] ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_array_matches_libm_on_every_grid_index(self):
        # numpy's sin/cos may differ from libm in the last ulp on some hosts
        enc = time_encoding(np.arange(288))
        assert enc.shape == (288, 2)
        for i in range(288):
            angle = 2.0 * math.pi * (i / 288)
            assert abs(enc[i, 0] - math.sin(angle)) <= 1e-12
            assert abs(enc[i, 1] - math.cos(angle)) <= 1e-12

    def test_negative_index_rejected(self):
        with pytest.raises(DimensionError):
            time_encoding(np.array([0, -1]))


class TestBuildInputs:
    def test_direct_substitution(self):
        ep = make_episode([120.0], basal=0.8)
        inputs = build_inputs(ep, Mask(np.array([1], dtype=np.uint8)))
        assert inputs.shape == (1, len(INPUT_HEADER) - 1)
        masked_glucose, carbs, bolus, basal, _, cos_t = inputs[0]
        assert masked_glucose == 120.0
        assert (carbs, bolus, basal) == (0.0, 0.0, 0.8)
        assert cos_t == pytest.approx(1.0)

    def test_masked_glucose_zeroed(self):
        ep = make_episode([120.0, 130.0])
        inputs = build_inputs(ep, Mask(np.array([0, 1], dtype=np.uint8)))
        assert inputs[0, 0] == 0.0
        assert inputs[1, 0] == 130.0

    def test_all_ones_mask_identity(self):
        ep = make_episode([100.0, 110.0, 120.0])
        inputs = build_inputs(ep, Mask(np.ones(3, dtype=np.uint8)))
        assert inputs[:, 0].tolist() == [100.0, 110.0, 120.0]

    def test_clock_columns_follow_episode_start(self):
        ep = make_episode([100.0, 110.0, 120.0], start_minute=1430)
        inputs = build_inputs(ep, Mask(np.ones(3, dtype=np.uint8)))
        assert np.array_equal(inputs[:, 4:], time_encoding(np.arange(3), 1430))

    def test_length_mismatch(self):
        ep = make_episode([100.0, 110.0])
        with pytest.raises(DimensionError):
            build_inputs(ep, Mask(np.ones(3, dtype=np.uint8)))

    def test_export_inputs_csv(self, tmp_path):
        ep = make_episode([100.0, 110.0], start_minute=360)
        path = tmp_path / "inputs.csv"
        export_inputs(ep, Mask(np.array([1, 0], dtype=np.uint8)), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,masked_glucose,carbs,bolus,basal,sin_t,cos_t"
        assert lines[1].startswith("0,100.0,")
        assert lines[2].startswith("1,0.0,")


class TestSplitMask:
    def test_complete_truth_scores_the_hidden_bits(self):
        bits = np.array([1, 0, 0, 1, 0], dtype=np.uint8)
        retained, scored = split_mask(bits, np.ones(5, dtype=np.uint8))
        assert retained.tolist() == [True, False, False, True, False]
        assert scored.tolist() == (bits == 0).tolist()

    def test_never_observed_index_in_neither_set(self):
        observed = np.array([1, 0, 1, 1], dtype=np.uint8)
        retained, scored = split_mask(np.array([1, 0, 0, 1]), observed)
        assert retained.tolist() == [True, False, False, True]
        assert scored.tolist() == [False, False, True, False]

    def test_retaining_never_observed_index_rejected(self):
        with pytest.raises(IntegrityError, match="retains an index with no ground-truth"):
            split_mask(np.array([1, 1]), np.array([1, 0]))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError, match="mask length 3 != episode length 2"):
            split_mask(np.ones(3), np.ones(2))

    def test_build_inputs_rejects_retained_never_observed_index(self):
        ep = make_episode([100.0, np.nan])
        with pytest.raises(IntegrityError):
            build_inputs(ep, Mask(np.ones(2, dtype=np.uint8)))
        inputs = build_inputs(ep, Mask(np.array([1, 0], dtype=np.uint8)))
        assert inputs[:, 0].tolist() == [100.0, 0.0]


class TestEpisodeInvariants:
    def test_observed_flag_consistency_enforced(self):
        with pytest.raises(IntegrityError):
            Episode("p", 0, 0, np.array([np.nan]), np.zeros((1, 3)), np.array([1], dtype=np.uint8))

    def test_off_grid_start_rejected(self):
        with pytest.raises(DimensionError):
            Episode("p", 0, 3, np.array([100.0]), np.zeros((1, 3)), np.array([1], dtype=np.uint8))

    def test_arrays_read_only(self):
        ep = make_episode([100.0, 110.0])
        with pytest.raises(ValueError):
            ep.glucose[0] = 50.0


class TestEpisodeShapeAndRange:
    @pytest.mark.parametrize("glucose, exog, observed, error, message", [
        ([], (0, 3), (0,), DimensionError, "episode needs a 1-D glucose vector with T >= 1"),
        ([100.0, 101.0], (2, 2), (2,), DimensionError, r"exog must be \(2, 3\), got \(2, 2\)"),
        ([100.0, 101.0], (2, 3), (3,), DimensionError, r"observed must be \(2,\), got \(3,\)"),
        ([19.5, 100.0], (2, 3), (2,), IntegrityError,
         r"glucose outside sensor range \[20, 500\] mg/dL"),
        ([100.0, 500.5], (2, 3), (2,), IntegrityError,
         r"glucose outside sensor range \[20, 500\] mg/dL"),
    ], ids=["empty glucose", "exog shape", "observed shape", "below range", "above range"])
    def test_rejected(self, glucose, exog, observed, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            Episode("p", 0, 0, np.array(glucose), np.zeros(exog), np.ones(observed, dtype=np.uint8))

    def test_sensor_range_bounds_accepted(self):
        ep = Episode("p", 0, 0, np.array([20.0, 500.0]), np.zeros((2, 3)), np.ones(2, dtype=np.uint8))
        assert ep.glucose.tolist() == [20.0, 500.0]
