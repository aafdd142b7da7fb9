import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_dtw,
    masked_pairs_pooled_calibration,
    masked_pairs_score_episode,
    table_dtw,
)
from regime_bench import metrics as mt
from regime_bench.errors import IntegrityError, MetricDomainError
from regime_bench.masks import Mask


def mask_of(bits):
    return Mask(np.array(bits, dtype=np.uint8))


class TestPointwiseMetrics:
    def test_perfect_imputation(self):
        truth = np.array([100.0, 120.0, 140.0])
        out = mt.pointwise_metrics(truth, truth, mask_of([1, 0, 0]))
        assert out == (0.0, 0.0, 0.0, 0.0)

    def test_single_point(self):
        rmse, bias, emp_se, mard = mt.pointwise_metrics(
            np.array([100.0]), np.array([110.0]), mask_of([0])
        )
        assert (rmse, bias, emp_se) == (10.0, 10.0, 0.0)
        assert mard == pytest.approx(10.0)

    def test_reference_triple_self_consistency(self):
        # fixed reference values: rmse 23.26, bias 14.08, emp_se 18.51
        assert 23.26**2 == pytest.approx(14.08**2 + 18.51**2, rel=1e-3)
        assert np.sqrt(23.26**2 - 14.08**2) == pytest.approx(18.51, abs=0.01)

    def test_emp_se_equals_population_std(self):
        rng = np.random.default_rng(7)
        truth = rng.uniform(60, 300, 200)
        imputed = truth + rng.normal(3, 12, 200)
        bits = np.zeros(200, dtype=np.uint8)
        rmse, bias, emp_se, _ = mt.pointwise_metrics(truth, imputed, Mask(bits))
        residual = imputed - truth
        assert emp_se == pytest.approx(float(np.std(residual)), rel=1e-12)
        assert rmse**2 == pytest.approx(bias**2 + emp_se**2, rel=1e-9)

    def test_scores_only_masked_indices(self):
        truth = np.array([100.0, 100.0, 100.0])
        imputed = np.array([999.0, 110.0, 999.0])  # junk at retained slots
        imputed[0] = truth[0]
        imputed[2] = truth[2]
        rmse, bias, _, _ = mt.pointwise_metrics(truth, imputed, mask_of([1, 0, 1]))
        assert rmse == 10.0
        assert bias == 10.0

    def test_bias_sign_convention(self):
        truth = np.array([100.0])
        low = mt.pointwise_metrics(truth, np.array([90.0]), mask_of([0]))
        assert low[1] == -10.0  # under-estimate -> negative bias

    def test_nonpositive_truth_rejected(self):
        with pytest.raises(MetricDomainError):
            mt.pointwise_metrics(np.array([0.0]), np.array([1.0]), mask_of([0]))

    def test_no_masked_indices_rejected(self):
        with pytest.raises(MetricDomainError):
            mt.pointwise_metrics(np.array([100.0]), np.array([100.0]), mask_of([1]))

    @given(
        residuals=st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=64),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_mard_scale_covariance(self, residuals, scale):
        truth = np.linspace(100, 200, len(residuals))
        imputed = truth + np.array(residuals)
        bits = Mask(np.zeros(len(residuals), dtype=np.uint8))
        base = mt.pointwise_metrics(truth, imputed, bits)[3]
        scaled = mt.pointwise_metrics(truth * scale, imputed * scale, bits)[3]
        assert scaled == pytest.approx(base, rel=1e-9)


class TestDtw:
    def test_identical_sequences(self):
        assert mt.dtw_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_warping_absorbs_repeat(self):
        a = [1.0, 2.0, 3.0]
        b = [1.0, 2.0, 2.0, 3.0]
        assert mt.dtw_distance(a, b) == 0.0
        assert brute_force_dtw(a, b) == 0.0

    def test_single_cell(self):
        assert mt.dtw_distance([0.0], [5.0]) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(MetricDomainError):
            mt.dtw_distance([], [1.0])

    @given(
        a=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=6),
        b=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_and_symmetric(self, a, b):
        af = [float(x) for x in a]
        bf = [float(x) for x in b]
        assert mt.dtw_distance(af, bf) == brute_force_dtw(af, bf)
        assert mt.dtw_distance(af, bf) == mt.dtw_distance(bf, af)
        assert mt.dtw_distance(af, bf) >= 0.0

    # repeated, integer-valued and real values, with NaN and +-inf mixed in
    _values = st.one_of(
        st.sampled_from([0.0, 1.0, 70.0, 100.0, 100.5, -3.0]),
        st.integers(min_value=-50, max_value=400).map(float),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )

    @given(
        a=st.lists(_values, min_size=1, max_size=60),
        b=st.lists(_values, min_size=1, max_size=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_table_loop(self, a, b):
        assert repr(mt.dtw_distance(a, b)) == repr(table_dtw(a, b))

    @given(
        n=st.integers(min_value=1, max_value=60),
        m=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_bit_identical_to_table_loop_on_cgm_like_series(self, n, m, seed):
        rng = np.random.default_rng(seed)
        a = 100.0 + np.cumsum(rng.normal(0.0, 3.0, n))
        b = 100.0 + np.cumsum(rng.normal(0.0, 3.0, m))
        assert repr(mt.dtw_distance(a, b)) == repr(table_dtw(a, b))


class TestSegmentDtw:
    def test_perfect_fill_zero(self):
        truth = np.array([100.0, 120.0, 140.0, 120.0])
        assert mt.segment_dtw(truth, truth, mask_of([1, 0, 0, 1])) == 0.0

    def test_additive_over_runs(self):
        truth = np.array([100.0, 103.0, 100.0, 104.0, 100.0])
        imputed = np.array([100.0, 100.0, 100.0, 100.0, 100.0])
        cost = mt.segment_dtw(truth, imputed, mask_of([1, 0, 1, 0, 1]))
        assert cost == 3.0 + 4.0

    def test_chord_through_triangle(self):
        truth = np.array([0.0, 40.0, 80.0, 40.0, 0.0])
        chord = np.zeros(5)
        bits = mask_of([0, 0, 0, 0, 0])
        cost = mt.segment_dtw(truth, chord, bits)
        assert cost == brute_force_dtw(truth.tolist(), chord.tolist())
        assert cost == 160.0

    def test_no_masked_runs_rejected(self):
        with pytest.raises(MetricDomainError):
            mt.segment_dtw(np.array([1.0]), np.array([1.0]), mask_of([1]))

    def test_restricted_to_runs(self):
        # context outside the run must not contribute
        truth = np.array([100.0, 150.0, 100.0])
        imputed = np.array([100.0, 150.0, 100.0])
        imputed = imputed.copy()
        assert mt.segment_dtw(truth, imputed, mask_of([1, 0, 1])) == 0.0


class TestScoreEpisode:
    def test_report_fields(self):
        truth = np.array([100.0, 110.0, 120.0, 110.0, 100.0])
        imputed = np.array([100.0, 105.0, 115.0, 105.0, 100.0])
        report = mt.score_episode(truth, imputed, mask_of([1, 0, 0, 0, 1]))
        assert report.n_points == 3
        assert report.n_gaps == 1
        assert report.rmse > 0
        assert report.rmse**2 == pytest.approx(report.bias**2 + report.emp_se**2, rel=1e-9)
        assert report.dtw >= 0


class TestCalibration:
    def test_identity_zero_delta(self):
        truth = np.linspace(80, 180, 40)
        summary = mt.pooled_calibration([(truth, truth, Mask(np.zeros(40, dtype=np.uint8)))])
        assert summary.delta == 0.0
        assert np.array_equal(summary.truth_hist, summary.imputed_hist)
        assert summary.truth_hist.sum() == summary.n_points == 40

    def test_chord_attenuates_concave_excursion(self):
        # strictly concave arc above its endpoints; the chord lies below it
        t = np.linspace(0, np.pi, 30)
        truth = 100.0 + 60.0 * np.sin(t)
        imputed = np.full(30, 100.0)
        bits = np.zeros(30, dtype=np.uint8)
        bits[[0, -1]] = 1
        imputed[bits == 1] = truth[bits == 1]
        summary = mt.pooled_calibration([(truth, imputed, Mask(bits))])
        assert summary.delta < 0

    def test_chord_overestimates_dip(self):
        t = np.linspace(0, np.pi, 30)
        truth = 100.0 - 45.0 * np.sin(t)
        imputed = np.full(30, 100.0)
        bits = np.zeros(30, dtype=np.uint8)
        bits[[0, -1]] = 1
        imputed[bits == 1] = truth[bits == 1]
        summary = mt.pooled_calibration([(truth, imputed, Mask(bits))])
        assert summary.delta > 0

    def test_regime_filter_restricts(self):
        truth = np.array([60.0, 65.0, 100.0, 120.0])
        imputed = np.array([80.0, 80.0, 100.0, 120.0])
        bits = Mask(np.zeros(4, dtype=np.uint8))
        hypo = mt.pooled_calibration([(truth, imputed, bits)], regime_filter=lambda y: y < 70.0)
        assert hypo.n_points == 2
        assert hypo.truth_mean == 62.5
        assert hypo.delta == pytest.approx(17.5)

    def test_empty_regime_rejected(self):
        truth = np.array([100.0])
        with pytest.raises(MetricDomainError):
            mt.pooled_calibration([(truth, truth, mask_of([0]))], regime_filter=lambda y: y < 70.0)

    def test_delta_identity(self):
        rng = np.random.default_rng(2)
        truth = rng.uniform(80, 200, 100)
        imputed = truth + rng.normal(0, 5, 100)
        summary = mt.pooled_calibration([(truth, imputed, Mask(np.zeros(100, dtype=np.uint8)))])
        assert summary.delta == summary.imputed_mean - summary.truth_mean

    def test_pooled_matches_concatenation(self):
        rng = np.random.default_rng(9)
        triples = []
        all_truth, all_imp = [], []
        for _ in range(3):
            truth = rng.uniform(80, 200, 50)
            imputed = truth + rng.normal(0, 4, 50)
            triples.append((truth, imputed, Mask(np.zeros(50, dtype=np.uint8))))
            all_truth.append(truth)
            all_imp.append(imputed)
        pooled = mt.pooled_calibration(triples)
        direct = mt.pooled_calibration(
            [(np.concatenate(all_truth), np.concatenate(all_imp), Mask(np.zeros(150, dtype=np.uint8)))]
        )
        assert pooled.truth_mean == pytest.approx(direct.truth_mean)
        assert pooled.delta == pytest.approx(direct.delta)


class TestGappedTruth:
    """Truth NaN marks a never-observed index: imputed, never scored, never retained."""

    def test_never_observed_hidden_index_not_scored(self):
        truth = np.array([100.0, np.nan, 120.0, 130.0, 140.0])
        imputed = np.array([100.0, 110.0, 125.0, 130.0, 150.0])
        report = mt.score_episode(truth, imputed, mask_of([1, 0, 0, 1, 0]))
        assert (report.n_points, report.n_gaps) == (2, 2)
        assert report.bias == 7.5
        assert report.dtw == 5.0 + 10.0

    def test_hidden_run_split_by_never_observed_index(self):
        truth = np.array([100.0, 110.0, np.nan, 130.0, 140.0])
        cost = mt.segment_dtw(truth, truth + 1.0, mask_of([1, 0, 0, 0, 1]))
        assert cost == 2.0

    def test_only_never_observed_hidden_has_nothing_to_score(self):
        truth = np.array([100.0, np.nan, 120.0])
        with pytest.raises(MetricDomainError):
            mt.pointwise_metrics(truth, np.full(3, 110.0), mask_of([1, 0, 1]))
        with pytest.raises(MetricDomainError):
            mt.pooled_calibration([(truth, np.full(3, 110.0), mask_of([1, 0, 1]))])

    def test_calibration_pools_observed_hidden_only(self):
        truth = np.array([np.nan, 60.0, np.nan, 100.0])
        summary = mt.pooled_calibration([(truth, np.full(4, 80.0), mask_of([0, 0, 0, 1]))])
        assert summary.n_points == 1
        assert summary.truth_mean == 60.0

    def test_retained_never_observed_index_rejected(self):
        truth = np.array([100.0, np.nan, 120.0])
        with pytest.raises(IntegrityError, match="retains an index"):
            mt.score_episode(truth, np.full(3, 110.0), mask_of([0, 1, 1]))


# complete truth: the core split's scored set is exactly the hidden bits, so the
# metrics must match the hidden-bits oracles by repr, or raise the same error type
_truth_values = st.one_of(
    st.floats(min_value=20.0, max_value=500.0),
    st.sampled_from([70.0, 140.0, 100.0]),
    st.sampled_from([0.0, -5.0]),  # non-positive truth: MARD's domain error
)
_imputed_values = st.one_of(
    st.floats(min_value=-100.0, max_value=700.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@st.composite
def _complete_triples(draw):
    T = draw(st.integers(min_value=1, max_value=30))
    kind = draw(st.sampled_from(["random", "none-hidden", "all-hidden", "single-sample-runs"]))
    if kind == "random":
        bits = draw(st.lists(st.integers(0, 1), min_size=T, max_size=T))
    else:
        bits = {"none-hidden": [1] * T, "all-hidden": [0] * T,
                "single-sample-runs": [t % 2 for t in range(T)]}[kind]
    truth = draw(st.lists(_truth_values, min_size=T, max_size=T))
    imputed = draw(st.lists(_imputed_values, min_size=T, max_size=T))
    return np.array(truth), np.array(imputed), mask_of(bits)


def _outcome(fn, *args):
    try:
        with np.errstate(all="ignore"):
            return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error type is the outcome
        return type(exc)


_REGIME_FILTERS = [None, lambda y: y < 70.0, lambda y: y > 140.0]


class TestSplitParityOnCompleteTruth:
    @given(triple=_complete_triples())
    @settings(max_examples=200, deadline=None)
    def test_score_episode_matches_hidden_bits_oracle(self, triple):
        assert _outcome(mt.score_episode, *triple) == _outcome(masked_pairs_score_episode, *triple)

    @given(
        triples=st.lists(_complete_triples(), min_size=1, max_size=3),
        regime=st.sampled_from(range(len(_REGIME_FILTERS))),
    )
    @settings(max_examples=100, deadline=None)
    def test_pooled_calibration_matches_hidden_bits_oracle(self, triples, regime):
        regime_filter = _REGIME_FILTERS[regime]
        assert (_outcome(mt.pooled_calibration, triples, regime_filter)
                == _outcome(masked_pairs_pooled_calibration, triples, regime_filter))


def report(**kwargs):
    base = dict(rmse=1.0, bias=0.5, emp_se=0.5, mard=1.0, dtw=2.0, n_points=10, n_gaps=2)
    base.update(kwargs)
    return mt.MetricsReport(**base)


class TestAggregate:
    def test_single_report_passthrough(self):
        rows = mt.aggregate([(("lerp", "A", "r=0.1"), report(rmse=3.0))])
        assert len(rows) == 1
        assert rows[0]["rmse"] == 3.0
        assert rows[0]["n_episodes"] == 1

    def test_unweighted_mean(self):
        rows = mt.aggregate(
            [
                (("lerp", "A", "r=0.1"), report(rmse=2.0)),
                (("lerp", "A", "r=0.1"), report(rmse=4.0)),
            ]
        )
        assert rows[0]["rmse"] == 3.0

    def test_empty_input(self):
        with pytest.warns(UserWarning):
            assert mt.aggregate([]) == []

    def test_best_and_second_flags(self):
        rows = mt.aggregate(
            [
                (("lerp", "A", "-"), report(rmse=1.0, dtw=1.0)),
                (("locf", "A", "-"), report(rmse=2.0, dtw=5.0)),
                (("mean", "A", "-"), report(rmse=9.0, dtw=3.0)),
            ]
        )
        by_model = {r["model"]: r for r in rows}
        assert "rmse" in by_model["lerp"]["best"]
        assert "rmse" in by_model["locf"]["second"]
        assert "dtw" in by_model["mean"]["second"]

    def test_bias_ranked_by_magnitude(self):
        rows = mt.aggregate(
            [
                (("a", "A", "-"), report(bias=-0.1)),
                (("b", "A", "-"), report(bias=5.0)),
            ]
        )
        by_model = {r["model"]: r for r in rows}
        assert "bias" in by_model["a"]["best"]

    def test_scenarios_ranked_independently(self):
        rows = mt.aggregate(
            [
                (("lerp", "A", "-"), report(rmse=1.0)),
                (("locf", "A", "-"), report(rmse=2.0)),
                (("lerp", "B", "-"), report(rmse=9.0)),
                (("locf", "B", "-"), report(rmse=4.0)),
            ]
        )
        flags = {(r["model"], r["protocol"]): r["best"] for r in rows}
        assert "rmse" in flags[("lerp", "A")]
        assert "rmse" in flags[("locf", "B")]

    def test_render_table_smoke(self):
        rows = mt.aggregate(
            [
                (("lerp", "A", "ratio=0.1"), report(rmse=1.0)),
                (("locf", "A", "ratio=0.1"), report(rmse=2.0)),
            ]
        )
        text = mt.render_table(rows)
        assert "protocol=A" in text
        assert "lerp" in text and "locf" in text
        assert "*" in text and "+" in text

    def test_render_empty(self):
        assert mt.render_table([]) == "(no results)\n"


class TestScoreEpisodeLengths:
    @pytest.mark.parametrize("truth, imputed", [
        ([100.0, 110.0], [100.0, 110.0]),
        ([100.0, 110.0, 120.0, 130.0], [100.0, 110.0, 120.0]),
    ], ids=["truth and imputed shorter", "truth longer than imputed"])
    def test_length_other_than_the_mask_rejected(self, truth, imputed):
        with pytest.raises(MetricDomainError, match="^truth, imputed and mask lengths must agree$"):
            mt.score_episode(np.array(truth), np.array(imputed), mask_of([1, 0, 1]))
