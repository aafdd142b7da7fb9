import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    loop_stable_windows,
    make_episode,
    max_disjoint,
    max_disjoint_allocate_stationary_mask,
)
from regime_bench import protocols as pr
from regime_bench import synth
from regime_bench.errors import (
    AllocationError,
    DimensionError,
    IntegrityError,
    ParseError,
    RegimeBenchError,
    SelectionError,
)
from regime_bench.masks import bits_to_runs


def flat_day(value=100.0, carbs=None, bolus=None):
    return make_episode(np.full(288, value), carbs=carbs, bolus=bolus)


class TestGradient:
    def test_constant_series_zero(self):
        assert (pr.gradient(flat_day()) == 0).all()

    def test_central_difference(self):
        grad = pr.gradient_of(np.array([100.0, 105.0, 110.0]))
        assert grad[1] == pytest.approx(1.0)

    def test_one_sided_at_boundaries(self):
        grad = pr.gradient_of(np.array([100.0, 105.0, 110.0]))
        assert grad[0] == pytest.approx(1.0)
        assert grad[2] == pytest.approx(1.0)

    def test_linear_ramp_interior(self):
        ramp = 100.0 + 2.0 * np.arange(50)
        grad = pr.gradient_of(ramp)
        assert grad[1:-1] == pytest.approx(2.0 / 5.0)

    def test_short_span_rejected(self):
        with pytest.raises(Exception):
            pr.gradient_of(np.array([100.0]))

    def test_incomplete_episode_rejected(self):
        ep = make_episode([100.0, np.nan, 100.0])
        with pytest.raises(IntegrityError):
            pr.gradient(ep)


class TestStableWindows:
    def test_flat_trace_every_interior_window(self):
        windows = pr.find_stable_windows(flat_day())
        # washout needs one hour of history: starts 12..282
        assert len(windows) == 288 - 6 + 1 - 12
        assert windows[0].start_index == 12
        assert all(w.end_index - w.start_index == 6 for w in windows)

    def test_hyperglycemic_point_excluded(self):
        g = np.full(288, 100.0)
        g[100] = 145.0
        windows = pr.find_stable_windows(make_episode(g))
        assert all(not (w.start_index <= 100 < w.end_index) for w in windows)

    def test_bolus_45min_before_window_excluded(self):
        start = 100
        ep = flat_day(bolus={start - 9: 2.0})  # 45 minutes before window start
        windows = pr.find_stable_windows(ep)
        assert all(w.start_index != start for w in windows)
        # far enough ahead the washout clears again
        assert any(w.start_index == start - 9 + 13 for w in windows)

    def test_meal_inside_window_excluded(self):
        ep = flat_day(carbs={100: 30.0})
        windows = pr.find_stable_windows(ep)
        assert all(not (w.start_index <= 100 < w.end_index) for w in windows)

    def test_gradient_quorum_six_points_needs_all(self):
        g = np.full(288, 100.0)
        g[99] = 92.0  # central diffs at 98 and 100 are -/+0.8 mg/dL/min
        windows = pr.find_stable_windows(make_episode(g))
        # a 6-sample window has quorum 0.85 -> 5/6 = 0.833 fails, so any window
        # containing even one bad gradient point is excluded
        bad = {98, 100}
        for w in windows:
            assert not (bad & set(range(w.start_index, w.end_index)))

    def test_range_criterion_strict(self):
        g = np.full(288, 100.0)
        g[150:156] = [100, 105, 110, 115, 120, 125]  # range exactly 25
        windows = pr.find_stable_windows(make_episode(g))
        assert all(w.start_index != 150 for w in windows)

    def test_gapped_episode_rejected(self):
        g = np.full(288, 100.0)
        g[50] = np.nan
        ep = make_episode(g)
        with pytest.raises(IntegrityError):
            pr.find_stable_windows(ep)
        with pytest.raises(IntegrityError):
            pr.build_hypo_masks(ep, [(40, 60)])

    def test_validity_closure_on_synth_corpus(self):
        eps = synth.generate(synth.SynthConfig(days=3, noise_std=1.0, seed=21)).episodes
        crit = pr.StabilityCriteria()
        for ep in eps:
            grad = np.abs(pr.gradient(ep))
            events = (ep.exog[:, 0] > 0) | (ep.exog[:, 1] > 0)
            for w in pr.find_stable_windows(ep, crit):
                seg = ep.glucose[w.start_index : w.end_index]
                assert seg.min() >= 70 and seg.max() <= 140
                frac = np.mean(grad[w.start_index : w.end_index] < 0.6)
                assert frac >= 0.85
                assert not events[w.start_index : w.end_index].any()
                assert not events[w.start_index - 12 : w.start_index].any()
                assert seg.max() - seg.min() < 25


@st.composite
def stability_cases(draw):
    """An episode and criteria that sit on the thresholds the five checks compare against."""
    washout_minutes = draw(st.sampled_from([0, 5, 30, 60]))
    T = draw(st.integers(1, washout_minutes // 5 + pr.WINDOW_SAMPLES_A + 40))
    # levels at and around 70/140, with ranges of exactly 25 (70-95, 115-140)
    levels = [65.0, 69.5, 70.0, 71.0, 95.0, 100.0, 115.0, 120.0, 139.0, 140.0, 140.5]
    shape = draw(st.sampled_from(["flat", "levels", "walk"]))
    if shape == "flat":  # a stable trace with a few samples moved off it
        glucose = np.full(T, draw(st.sampled_from([70.0, 95.0, 115.0, 140.0])))
        moved = draw(st.dictionaries(st.integers(0, T - 1), st.sampled_from(levels), max_size=2))
        for i, value in moved.items():
            glucose[i] = value
    elif shape == "levels":
        glucose = draw(st.lists(st.sampled_from(levels), min_size=T, max_size=T))
    else:
        # steps of 3 and 6 give gradients of exactly 0.6 mg/dL/min
        start = draw(st.sampled_from([70.0, 100.0, 115.0, 140.0]))
        steps = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, -1.0, 3.0, -3.0, 6.0, -6.0, 12.0]),
                              min_size=T - 1, max_size=T - 1))
        glucose = np.concatenate(([start], start + np.cumsum(steps)))
    glucose = np.asarray(glucose, dtype=float)
    if draw(st.sampled_from([False] * 9 + [True])):
        glucose[draw(st.integers(0, T - 1))] = np.nan  # not fully observed
    index = st.integers(0, T - 1)
    carbs = draw(st.dictionaries(index, st.sampled_from([10.0, 40.0]), max_size=2))
    bolus = draw(st.dictionaries(index, st.sampled_from([0.5, 2.0]), max_size=2))
    basal = draw(st.sampled_from([0.0, 1.0]))  # background delivery, never an event
    criteria = pr.StabilityCriteria(
        washout_minutes=washout_minutes,
        gradient_quorum=draw(st.sampled_from([0.85, 5 / 6, 1.0, 0.5])),  # 5-of-6 vs 6-of-6
        max_range=draw(st.sampled_from([25.0, 10.0])),
    )
    return make_episode(glucose, carbs=carbs, bolus=bolus, basal=basal), criteria


def _outcome(find, episode, criteria):
    try:
        return find(episode, criteria)
    except RegimeBenchError as exc:
        return type(exc), str(exc)


class TestStableWindowParity:
    @given(case=stability_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_loop(self, case):
        episode, criteria = case
        assert _outcome(pr.find_stable_windows, episode, criteria) == _outcome(
            loop_stable_windows, episode, criteria
        )

    _dip = np.r_[np.full(20, 100.0), 92.0, np.full(19, 100.0)]

    @pytest.mark.parametrize(
        "glucose, criteria",
        [
            (np.full(40, 70.0), {}),  # glucose_low tie
            (np.full(40, 140.0), {}),  # glucose_high tie
            # a 25 mg/dL step: range exactly 25, 4 of 6 gradients steady
            (np.r_[np.full(20, 100.0), np.full(20, 125.0)], {"gradient_quorum": 0.5}),
            (np.tile([100.0, 103.0, 106.0, 103.0], 10), {}),  # |gradient| 0 or exactly 0.6
            (_dip, {"gradient_quorum": 5 / 6}),  # 5 of 6 gradients steady, at the quorum
            (_dip, {}),  # 5 of 6 against 0.85
            (np.full(8, 100.0), {"washout_minutes": 0}),
        ],
        ids=["low-70", "high-140", "range-25", "gradient-0.6", "quorum-5-of-6", "quorum-0.85",
             "no-washout"],
    )
    def test_matches_the_loop_on_threshold_ties(self, glucose, criteria):
        episode, criteria = make_episode(glucose), pr.StabilityCriteria(**criteria)
        windows = pr.find_stable_windows(episode, criteria)
        assert windows == loop_stable_windows(episode, criteria)

    def test_events_at_the_washout_edge(self):
        # a bolus at 87 lies in the washout [s-12, s) of starts 88..99 and in
        # the window of starts 82..87; start 100 is the first one clear after it
        ep = flat_day(bolus={87: 1.0})
        windows = pr.find_stable_windows(ep)
        assert windows == loop_stable_windows(ep)
        starts = {w.start_index for w in windows}
        assert {81, 100} <= starts
        assert not starts & set(range(82, 100))

    def test_single_sample_episode_is_a_dimension_error(self):
        with pytest.raises(DimensionError):
            pr.find_stable_windows(make_episode([100.0]), pr.StabilityCriteria(washout_minutes=0))

    def test_negative_washout_rejected(self):
        with pytest.raises(DimensionError, match="washout_minutes"):
            pr.find_stable_windows(flat_day(), pr.StabilityCriteria(washout_minutes=-5))


class TestStationaryAllocation:
    def test_ratio_10_percent_of_day(self):
        ep = flat_day()
        windows = pr.find_stable_windows(ep)
        mask, chosen = pr.allocate_stationary_mask(ep, windows, 0.1, seed=7)
        assert int((mask.bits == 0).sum()) == 29  # round(0.1 * 288) = 29
        assert len(chosen) == 5  # 4 full windows + 1 hosting the partial segment
        assert mask.provenance == "protocol_A"

    def test_target_multiple_of_six_no_partial(self):
        ep = flat_day()
        windows = pr.find_stable_windows(ep)
        ratio = 30 / 288
        mask, chosen = pr.allocate_stationary_mask(ep, windows, ratio, seed=7)
        assert int((mask.bits == 0).sum()) == 30
        assert len(chosen) == 5
        assert all(n % 6 == 0 for _, n in bits_to_runs(mask.bits))

    def test_no_candidates_rejected(self):
        ep = flat_day()
        with pytest.raises(AllocationError, match="achievable"):
            pr.allocate_stationary_mask(ep, [], 0.1, seed=7)

    def test_insufficient_candidates_reports_ceiling(self):
        ep = flat_day()
        windows = pr.find_stable_windows(ep)[:2]
        with pytest.raises(AllocationError, match="achievable ratio"):
            pr.allocate_stationary_mask(ep, windows, 0.3, seed=7)

    def test_deterministic_under_seed(self):
        ep = flat_day()
        windows = pr.find_stable_windows(ep)
        a, _ = pr.allocate_stationary_mask(ep, windows, 0.2, seed=42)
        b, _ = pr.allocate_stationary_mask(ep, windows, 0.2, seed=42)
        c, _ = pr.allocate_stationary_mask(ep, windows, 0.2, seed=43)
        assert np.array_equal(a.bits, b.bits)
        assert not np.array_equal(a.bits, c.bits)

    def test_chosen_windows_disjoint(self):
        ep = flat_day()
        windows = pr.find_stable_windows(ep)
        _, chosen = pr.allocate_stationary_mask(ep, windows, 0.3, seed=3)
        spans = sorted((w.start_index, w.end_index) for w in chosen)
        for (_, e0), (s1, _) in zip(spans, spans[1:]):
            assert s1 >= e0


class TestAggregateMeals:
    def test_merge_within_hour(self):
        ep = flat_day(carbs={96: 30.0, 104: 20.0})  # 08:00 and 08:40
        (event,) = pr.aggregate_meals(ep)
        assert event.index == 96
        assert event.carbs == 50.0

    def test_exactly_one_hour_apart_separate(self):
        ep = flat_day(carbs={96: 30.0, 108: 20.0})  # 08:00 and 09:00
        events = pr.aggregate_meals(ep)
        assert [e.index for e in events] == [96, 108]

    def test_chained_merge(self):
        ep = flat_day(carbs={96: 10.0, 104: 10.0, 112: 10.0})
        (event,) = pr.aggregate_meals(ep)
        assert event.carbs == 30.0

    def test_no_meals(self):
        assert pr.aggregate_meals(flat_day()) == []


def peaked_episode(meal_idx=96, peak_offset=12, amplitude=80.0):
    g = np.full(288, 100.0)
    peak_idx = meal_idx + peak_offset
    rise = np.linspace(100.0, 100.0 + amplitude, peak_offset + 1)
    g[meal_idx : peak_idx + 1] = rise
    fall_len = 24
    g[peak_idx : peak_idx + fall_len + 1] = np.linspace(100.0 + amplitude, 100.0, fall_len + 1)
    return make_episode(g, carbs={meal_idx: 40.0}, bolus={meal_idx: 4.0})


class TestPeakMasks:
    def test_anchor_at_post_prandial_argmax(self):
        ep = peaked_episode()
        mask, (window,) = pr.build_peak_masks(ep, 1, seed=5)
        assert window.anchor_index == 96 + 12
        assert window.meal_index == 96
        assert 42 <= window.end_index - window.start_index <= 48

    def test_window_never_covers_pre_meal(self):
        for seed in range(10):
            ep = peaked_episode(peak_offset=6)  # peak 30 min after the meal
            mask, (window,) = pr.build_peak_masks(ep, 1, seed=seed)
            assert window.start_index == 97  # shifted to meal + 1
            assert (mask.bits[: window.meal_index + 1] == 1).all()
            assert window.end_index - window.start_index >= 42

    def test_forward_shift_preserves_duration(self):
        ep = peaked_episode(peak_offset=6)
        _, (window,) = pr.build_peak_masks(ep, 1, seed=1)
        # length preserved despite the shift: anchored well before day end
        assert window.end_index - window.start_index in range(42, 49)

    def test_aggregated_meals_single_candidate(self):
        g = np.full(288, 100.0)
        g[100:125] = 100.0 + 60.0 * np.sin(np.linspace(0, np.pi, 25))
        ep = make_episode(g, carbs={96: 20.0, 102: 25.0})  # 30 min apart -> one event
        mask, windows = pr.build_peak_masks(ep, 1, seed=2)
        assert len(windows) == 1
        with pytest.raises(SelectionError):
            pr.build_peak_masks(ep, 2, seed=2)

    def test_day_end_truncation_discards_short_windows(self):
        # meal so late the 4-h post window does not fit -> not eligible
        ep = peaked_episode(meal_idx=250)
        with pytest.raises(SelectionError):
            pr.build_peak_masks(ep, 1, seed=0)

    def test_window_cut_at_midnight_skipped_for_the_next_meal(self):
        # the episode starts at noon; the 22:50 meal peaks at 23:50, so its window ends
        # at midnight (index 144) after 13 samples, and the 04:40 meal is taken instead
        g = np.full(288, 100.0)
        for meal in (130, 200):
            g[meal : meal + 13] = np.linspace(100.0, 180.0, 13)
            g[meal + 12 : meal + 37] = np.linspace(180.0, 100.0, 25)
        ep = make_episode(g, start_minute=720, carbs={130: 40.0, 200: 40.0})
        for seed in range(5):
            _, (window,) = pr.build_peak_masks(ep, 1, seed=seed)
            assert (window.meal_index, window.anchor_index) == (200, 212)
            assert window.end_index - window.start_index >= pr.MIN_SAMPLES_B

    def test_requires_complete_glucose(self):
        g = np.full(288, 100.0)
        g[5] = np.nan
        ep = make_episode(g, carbs={96: 40.0})
        with pytest.raises(IntegrityError):
            pr.build_peak_masks(ep, 1, seed=0)


class TestHypoMasks:
    def hypo_episode(self, dip_idx=100, depth=65.0):
        g = np.full(288, 100.0)
        g[dip_idx - 4 : dip_idx + 5] = np.concatenate(
            [np.linspace(100, depth, 5), np.linspace(depth, 100, 5)[1:]]
        )
        return make_episode(g)

    def test_centered_window(self):
        ep = self.hypo_episode()
        mask, (window,) = pr.build_hypo_masks(ep, [(90, 120)])
        anchor = window.anchor_index
        assert ep.glucose[anchor] < 70
        assert (window.start_index, window.end_index) == (anchor - 6, anchor + 6)
        assert (mask.bits[window.start_index : window.end_index] == 0).all()

    def test_no_hypoglycemia_no_window(self):
        ep = make_episode(np.full(288, 100.0))
        mask, windows = pr.build_hypo_masks(ep, [(90, 120)])
        assert windows == []
        assert mask.bits.all()

    def test_boundary_clip(self):
        ep = self.hypo_episode(dip_idx=5)
        _, (window,) = pr.build_hypo_masks(ep, [(0, 20)])
        anchor = window.anchor_index
        assert window.start_index == max(0, anchor - 6)
        assert window.end_index == anchor - 6 + 12

    def test_window_length_parameter(self):
        ep = self.hypo_episode()
        _, (window,) = pr.build_hypo_masks(ep, [(90, 120)], window_minutes=30)
        assert window.end_index - window.start_index == 6

    def test_first_below_threshold_is_anchor(self):
        ep = self.hypo_episode(dip_idx=100)
        _, (window,) = pr.build_hypo_masks(ep, [(90, 120)])
        below = np.flatnonzero(ep.glucose[90:120] < 70) + 90
        assert window.anchor_index == below[0]


class TestWindowAndTcrFiles:
    def test_windows_round_trip(self, tmp_path):
        ep = peaked_episode()
        _, windows = pr.build_peak_masks(ep, 1, seed=5)
        path = tmp_path / "windows.json"
        pr.write_windows_json([("p1", 0, w) for w in windows], path, protocol="B", condition="peaks=1")
        meta, loaded = pr.read_windows_json(path)
        assert meta["protocol"] == "B"
        assert loaded == [("p1", 0, w) for w in windows]

    def write_windows(self, tmp_path, edit):
        ep = peaked_episode()
        _, windows = pr.build_peak_masks(ep, 1, seed=5)
        path = tmp_path / "windows.json"
        pr.write_windows_json([("p1", 0, w) for w in windows], path, protocol="B")
        doc = json.loads(path.read_text())
        edit(doc["windows"][0])
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize(
        "field", ["patient_id", "episode_id", "protocol", "start_index", "end_index"]
    )
    def test_window_missing_field_rejected(self, tmp_path, field):
        path = self.write_windows(tmp_path, lambda rec: rec.pop(field))
        with pytest.raises(
            ParseError, match=rf"windows\.json: windows\[0\]: missing or malformed field: '{field}'"
        ):
            pr.read_windows_json(path)

    def test_window_optional_fields_may_be_absent(self, tmp_path):
        def drop_optional(rec):
            for field in ("anchor_index", "meal_index", "meal_carbs"):
                rec.pop(field)

        path = self.write_windows(tmp_path, drop_optional)
        (_, _, window), = pr.read_windows_json(path)[1]
        assert window.anchor_index is window.meal_index is window.meal_carbs is None

    def test_tcr_round_trip(self, tmp_path):
        rows = [("p1", 0, 126, 174), ("p1", 1, 126, 174)]
        path = tmp_path / "tcr.csv"
        pr.write_tcr_csv(rows, path)
        loaded = pr.read_tcr_csv(path)
        assert loaded == {("p1", 0): [(126, 174)], ("p1", 1): [(126, 174)]}

    def test_tcr_bad_row_rejected(self, tmp_path):
        path = tmp_path / "tcr.csv"
        path.write_text("patient_id,episode_id,tcr_start_index,tcr_end_index\np1,0,abc,174\n")
        with pytest.raises(ParseError, match="line 2"):
            pr.read_tcr_csv(path)

    @pytest.mark.parametrize(
        "text",
        ["a,b\n", "patient_id,episode_id,tcr_start_index,tcr_end_index\np1,0,abc,174\n"],
        ids=["header", "row"],
    )
    def test_tcr_errors_start_with_the_path(self, tmp_path, text):
        path = tmp_path / "tcr.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            pr.read_tcr_csv(path)
        assert str(exc.value).startswith(f"{path}: line ")

    def test_tcr_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "tcr.csv"
        path.write_text(
            "patient_id,episode_id,tcr_start_index,tcr_end_index\n"
            "p1,0,126,174\n\n   \np1,1,126,174\n"
        )
        assert pr.read_tcr_csv(path) == {("p1", 0): [(126, 174)], ("p1", 1): [(126, 174)]}


@st.composite
def allocation_cases(draw):
    """A window set of any overlap, lengths around 30 min, and a seeded ratio.

    Most targets need exactly as many windows as fit, where a random order can
    fall short of the optimum and the earliest-end selection must stand in.
    """
    T = draw(st.integers(1, 100))
    spans = draw(st.lists(
        st.tuples(st.integers(0, T - 1), st.sampled_from([1, 3, 6, 6, 6, 9, 12])), max_size=30,
    ))
    windows = [pr.RegimeWindow("A", s, min(T, s + n)) for s, n in spans]
    fit = max_disjoint(windows)
    target = draw(st.integers(max(0, 6 * fit - 5), 6 * fit))
    if 0 < target < T and draw(st.booleans()):
        ratio = (target + 0.25) / T
    else:
        ratio = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return make_episode(np.full(T, 100.0), episode_id=3), windows, ratio, draw(st.integers(0, 2**32))


def _allocation(allocate, episode, windows, ratio, seed):
    try:
        mask, chosen = allocate(episode, windows, ratio, seed)
    except RegimeBenchError as exc:
        return type(exc), str(exc)
    return repr(mask.bits.tolist()), mask.seed, mask.provenance, repr(chosen)


class TestAllocationParity:
    """One earliest-end greedy gives the capacity and the fallback of the separate count."""

    @settings(max_examples=500, deadline=None)
    @given(allocation_cases())
    def test_matches_the_max_disjoint_oracle(self, case):
        episode, windows, ratio, seed = case
        got = _allocation(pr.allocate_stationary_mask, episode, windows, ratio, seed)
        if int(np.floor(ratio * episode.T + 0.5)) == 0:
            assert got[3] == "[]"  # nothing to mask selects nothing
            return
        expected = _allocation(max_disjoint_allocate_stationary_mask, episode, windows, ratio, seed)
        if expected[0] is AllocationError:
            expected = (AllocationError, f"episode p1/3 has {expected[1]}")
        assert got == expected


class TestAllocationEdges:
    def test_zero_target_selects_no_window(self):
        ep = flat_day()
        mask, chosen = pr.allocate_stationary_mask(ep, pr.find_stable_windows(ep), 0.001, seed=7)
        assert chosen == []
        assert mask.bits.all()

    def test_capacity_error_names_the_episode(self):
        ep = make_episode(np.full(288, 100.0), patient_id="p9", episode_id=4)
        windows = pr.find_stable_windows(ep)[:2]
        with pytest.raises(AllocationError) as exc:
            pr.allocate_stationary_mask(ep, windows, 0.3, seed=7)
        assert str(exc.value) == (
            "episode p9/4 has only 1 disjoint stable windows; achievable ratio <= 0.0208"
        )


class TestOptionChecks:
    """The checks stress runs up front are the ones the protocol functions run."""

    @pytest.mark.parametrize("ratio", [0.0, 1.0, 7.0, -0.5, float("nan")])
    def test_ratio_outside_the_open_unit_interval(self, ratio):
        ep = make_episode(np.full(288, 100.0))
        message = f"^ratio must be in \\(0, 1\\), got {ratio}$"
        with pytest.raises(AllocationError, match=message):
            pr.check_ratio(ratio)
        with pytest.raises(AllocationError, match=message):
            pr.allocate_stationary_mask(ep, pr.find_stable_windows(ep), ratio, 1)

    @pytest.mark.parametrize("n_peaks", [0, -3])
    def test_n_peaks_below_one(self, n_peaks):
        ep = synth.generate(synth.SynthConfig(days=1)).episodes[0]
        with pytest.raises(SelectionError, match="^n_peaks must be >= 1$"):
            pr.check_n_peaks(n_peaks)
        with pytest.raises(SelectionError, match="^n_peaks must be >= 1$"):
            pr.build_peak_masks(ep, n_peaks, 1)
