import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loop_classify_gap, make_episode
from regime_bench import router as rt
from regime_bench.errors import ConfigError, RoutingError
from regime_bench.imputers import Imputation, impute_lerp
from regime_bench.masks import Mask, apply_mask
from regime_bench.protocols import StabilityCriteria


def mask_with_gap(T, start, length):
    bits = np.ones(T, dtype=np.uint8)
    bits[start : start + length] = 0
    return Mask(bits)


def gapped(episode, mask):
    return apply_mask(episode, mask)


class TestClassifyGap:
    def test_flat_context_stationary(self):
        ep = make_episode(np.full(40, 100.0))
        mask = mask_with_gap(40, 15, 6)
        decision = rt.classify_gap(gapped(ep, mask), (15, 6))
        assert decision.label == "stationary"
        assert decision.gradient_fraction == 1.0
        assert decision.left_boundary == 100.0
        assert decision.right_boundary == 100.0

    def test_steep_context_transient(self):
        g = np.full(40, 80.0)
        g[9:15] = 80.0 + 10.0 * np.arange(6)  # 2 mg/dL/min ramp into the gap
        g[15:] = 130.0
        ep = make_episode(g)
        mask = mask_with_gap(40, 15, 6)
        decision = rt.classify_gap(gapped(ep, mask), (15, 6))
        assert decision.label == "transient"
        assert decision.gradient_fraction < 0.85

    def test_out_of_band_boundary_transient(self):
        g = np.full(40, 100.0)
        g[:15] = 150.0  # left context hyperglycemic but flat
        ep = make_episode(g)
        mask = mask_with_gap(40, 15, 6)
        decision = rt.classify_gap(gapped(ep, mask), (15, 6))
        assert decision.label == "transient"
        assert decision.left_boundary == 150.0

    def test_no_context_defaults_transient(self):
        ep = make_episode(np.full(6, 100.0))
        mask = Mask(np.zeros(6, dtype=np.uint8))
        decision = rt.classify_gap(gapped(ep, mask), (0, 6))
        assert decision.label == "transient"
        assert decision.left_boundary is None and decision.right_boundary is None

    def test_single_sided_context_sufficient(self):
        ep = make_episode(np.full(20, 100.0))
        bits = np.ones(20, dtype=np.uint8)
        bits[14:] = 0  # gap runs to the episode end
        decision = rt.classify_gap(gapped(ep, Mask(bits)), (14, 6))
        assert decision.label == "stationary"
        assert decision.right_boundary is None

    def test_context_does_not_bridge_gap(self):
        # flat on each side at different levels: per-side gradients are zero
        g = np.concatenate([np.full(15, 100.0), np.full(6, 100.0), np.full(19, 130.0)])
        g[15:21] = 115.0  # masked anyway
        ep = make_episode(g)
        mask = mask_with_gap(40, 15, 6)
        decision = rt.classify_gap(gapped(ep, mask), (15, 6))
        # both sides flat and euglycemic; a bridged gradient would be steep
        assert decision.label == "stationary"

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(4)
        g = np.clip(100.0 + np.cumsum(rng.normal(0, 2.0, 60)), 70.0, 140.0)
        ep = make_episode(g)
        mask = mask_with_gap(60, 25, 8)
        labels = []
        for threshold in (0.3, 0.6, 1.2):
            crit = StabilityCriteria(gradient_threshold=threshold)
            labels.append(rt.classify_gap(gapped(ep, mask), (25, 8), crit).label)
        # once stationary at some threshold, stays stationary at larger ones
        if "stationary" in labels:
            first = labels.index("stationary")
            assert all(lab == "stationary" for lab in labels[first:])


class TestGradientThresholdCheck:
    @pytest.mark.parametrize("threshold, shown", [
        (float("nan"), "nan"), (-1.0, "-1.0"), (-0.1, "-0.1"), (float("-inf"), "-inf")])
    def test_rejected(self, threshold, shown):
        with pytest.raises(ConfigError, match=f"^gradient_threshold must be >= 0, got {shown}$"):
            rt.check_gradient_threshold(threshold)

    @pytest.mark.parametrize("threshold", [0.0, 0.6, float("inf")])
    def test_accepted(self, threshold):
        rt.check_gradient_threshold(threshold)

    def test_classify_gap_checks_it(self):
        ep = make_episode(np.full(60, 100.0))
        mask = mask_with_gap(60, 25, 8)
        criteria = StabilityCriteria(gradient_threshold=float("nan"))
        with pytest.raises(ConfigError, match="^gradient_threshold must be >= 0, got nan$"):
            rt.classify_gap(gapped(ep, mask), (25, 8), criteria)


class TestAdaptiveImpute:
    def test_all_stationary_equals_pure_lerp(self):
        ep = make_episode(np.full(60, 100.0))
        bits = np.ones(60, dtype=np.uint8)
        bits[10:16] = 0
        bits[30:36] = 0
        mask = Mask(bits)
        adaptive, decisions = rt.adaptive_impute(ep, mask, external=None)
        assert all(d.label == "stationary" for d in decisions)
        assert np.array_equal(adaptive.values, impute_lerp(ep, mask).values)

    def test_all_transient_equals_external(self):
        g = np.concatenate([np.full(10, 150.0), np.full(40, 150.0), np.full(10, 150.0)])
        ep = make_episode(g)
        mask = mask_with_gap(60, 20, 10)
        external = Imputation(np.full(60, 150.0), "deep", ("p1", 0))
        adaptive, decisions = rt.adaptive_impute(ep, mask, external)
        assert all(d.label == "transient" for d in decisions)
        assert np.array_equal(adaptive.values[20:30], external.values[20:30])

    def test_transient_without_external_rejected(self):
        ep = make_episode(np.full(40, 150.0))
        mask = mask_with_gap(40, 15, 6)
        with pytest.raises(RoutingError, match="index 15"):
            rt.adaptive_impute(ep, mask, external=None)

    def test_retained_values_preserved_bit_exact(self):
        rng = np.random.default_rng(8)
        g = np.clip(100.0 + np.cumsum(rng.normal(0, 1.0, 80)), 70.0, 140.0)
        ep = make_episode(g)
        bits = np.ones(80, dtype=np.uint8)
        bits[20:30] = 0
        mask = Mask(bits)
        external = Imputation(np.where(bits, g, 110.0), "deep", ("p1", 0))
        adaptive, _ = rt.adaptive_impute(ep, mask, external)
        assert np.array_equal(adaptive.values[bits == 1], g[bits == 1])

    def test_mixed_routing(self):
        g = np.full(100, 100.0)
        g[60:80] = np.linspace(100.0, 180.0, 20)  # steep excursion
        g[80:100] = np.linspace(180.0, 100.0, 20)
        ep = make_episode(np.clip(g, 20, 500))
        bits = np.ones(100, dtype=np.uint8)
        bits[20:26] = 0  # flat region
        bits[65:75] = 0  # mid-excursion
        mask = Mask(bits)
        external = Imputation(ep.glucose.copy(), "deep", ("p1", 0))
        adaptive, decisions = rt.adaptive_impute(ep, mask, external)
        labels = {d.start_index: d.label for d in decisions}
        assert labels[20] == "stationary"
        assert labels[65] == "transient"

    def test_summary_fractions(self):
        decisions = [
            rt.RoutingDecision(0, 6, "stationary", 1.0, 100.0, 100.0),
            rt.RoutingDecision(10, 6, "transient", 0.2, 100.0, 150.0),
        ]
        summary = rt.routing_summary(decisions)
        assert summary == {
            "n_gaps": 2,
            "stationary_fraction": 0.5,
            "transient_fraction": 0.5,
        }

    def test_routing_json(self, tmp_path):
        decisions = [rt.RoutingDecision(0, 6, "stationary", 1.0, 100.0, 100.0)]
        path = tmp_path / "routing.json"
        rt.write_routing_json([("p1", 0, d) for d in decisions], path)
        import json

        doc = json.loads(path.read_text())
        assert doc["summary"]["n_gaps"] == 1
        assert doc["decisions"][0]["label"] == "stationary"


@st.composite
def gap_cases(draw):
    """A gapped episode, any gap inside it, and router settings."""
    T = draw(st.integers(1, 60))
    glucose = draw(st.lists(
        st.one_of(st.floats(40.0, 300.0), st.sampled_from([70.0, 100.0, 140.0, np.nan])),
        min_size=T, max_size=T,
    ))
    start = draw(st.integers(0, T - 1))
    length = draw(st.integers(1, T - start))
    criteria = StabilityCriteria(
        gradient_threshold=draw(st.sampled_from([0.0, 0.3, 0.6, 2.0])),
        gradient_quorum=draw(st.sampled_from([0.5, 0.85, 1.0])),
    )
    context_minutes = draw(st.sampled_from([0, 4, 5, 10, 30, 60]))
    return make_episode(glucose), (start, length), criteria, context_minutes


class TestClassifyGapParity:
    @settings(max_examples=250, deadline=None)
    @given(gap_cases())
    def test_matches_the_loop_walk(self, case):
        episode, gap, criteria, context_minutes = case
        got = rt.classify_gap(episode, gap, criteria, context_minutes)
        assert repr(got) == repr(loop_classify_gap(episode, gap, criteria, context_minutes))
