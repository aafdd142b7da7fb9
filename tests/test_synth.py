import numpy as np
import pytest

from conftest import build_injected_model
from regime_bench import core, masks, protocols, synth
from regime_bench.errors import ConfigError, DimensionError


class TestGenerate:
    def test_deterministic_under_seed(self):
        cfg = synth.SynthConfig(days=3, noise_std=2.0, seed=5)
        a = synth.generate(cfg)
        b = synth.generate(cfg)
        for ea, eb in zip(a.episodes, b.episodes):
            assert core.episodes_equal(ea, eb)
        c = synth.generate(synth.SynthConfig(days=3, noise_std=2.0, seed=6))
        assert not core.episodes_equal(a.episodes[0], c.episodes[0])

    def test_constant_trace_without_meals(self):
        cfg = synth.SynthConfig(days=1, meal_times=(), noise_std=0.0)
        (ep,) = synth.generate(cfg).episodes
        assert (ep.glucose == 100.0).all()
        assert (ep.exog[:, :2] == 0).all()

    def test_single_meal_peak_amplitude(self):
        cfg = synth.SynthConfig(days=1, meal_times=(480,), peak_amplitude=80.0)
        (ep,) = synth.generate(cfg).episodes
        peak_idx = (480 + 60) // 5
        assert ep.glucose.max() == 100.0 + 80.0
        assert ep.glucose[peak_idx] == 180.0
        assert ep.exog[480 // 5, 0] == 40.0  # carbs logged at the meal

    def test_hypo_dip_bottom(self):
        cfg = synth.SynthConfig(days=1, hypo_depth=15.0)
        result = synth.generate(cfg)
        (ep,) = result.episodes
        assert ep.glucose.min() == 55.0
        (_, _, tcr_start, tcr_end) = result.tcr[0]
        dip_idx = int(np.argmin(ep.glucose))
        assert tcr_start <= dip_idx < tcr_end

    def test_tcr_interval_and_basal_reduction(self):
        cfg = synth.SynthConfig(days=1, hypo_depth=10.0)
        result = synth.generate(cfg)
        (ep,) = result.episodes
        (_, _, start, end) = result.tcr[0]
        meal_idx = 480 // 5
        assert start == meal_idx + 150 // 5
        assert end - start == 240 // 5
        assert (ep.exog[start:end, 2] == 0.05 * 1.0).all()
        assert (ep.exog[:start, 2] == 1.0).all()

    def test_overlapping_excursions_rejected(self):
        cfg = synth.SynthConfig(days=1, meal_times=(480, 540))  # 60 min apart, 180-min decay
        with pytest.raises(ConfigError, match="overlaps"):
            synth.generate(cfg)

    def test_invalid_baseline_rejected(self):
        with pytest.raises(ConfigError):
            synth.generate(synth.SynthConfig(days=1, baseline=160.0))

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            synth.generate(synth.SynthConfig(days=1, noise_std=-1.0))

    def test_labels_cover_excursions(self):
        cfg = synth.SynthConfig(days=1, hypo_depth=15.0)
        result = synth.generate(cfg)
        labels = result.labels[0]
        (ep,) = result.episodes
        assert labels[480 // 5] == synth.LABEL_PEAK
        assert labels[int(np.argmin(ep.glucose))] == synth.LABEL_HYPO
        assert labels[30] == synth.LABEL_STATIONARY

    def test_drift_is_float_exact_for_friendly_params(self):
        cfg = synth.SynthConfig(
            days=1, meal_times=(), drift_amplitude=24.0, drift_period=480, noise_std=0.0
        )
        (ep,) = synth.generate(cfg).episodes
        assert np.array_equal(ep.glucose, np.round(ep.glucose))  # integer-valued
        steps = np.diff(ep.glucose)
        assert set(np.unique(steps)) <= {-1.0, 1.0}  # piecewise affine, slope +-0.2/min


class TestLabelConsistency:
    def test_stationary_regions_pass_stability_criteria(self):
        cfg = synth.SynthConfig(days=5, hypo_depth=15.0, noise_std=1.0, seed=17)
        result = synth.generate(cfg)
        criteria = protocols.StabilityCriteria()
        for ep in result.episodes:
            labels = result.labels[ep.episode_id]
            stable_starts = {w.start_index for w in protocols.find_stable_windows(ep, criteria)}
            for s in range(12, ep.T - 6 + 1):
                window_labels = labels[s : s + 6]
                if (window_labels == synth.LABEL_STATIONARY).all():
                    assert s in stable_starts, f"stationary window at {s} failed the criteria"


class TestFixtureFiles:
    def test_write_and_reingest(self, tmp_path):
        cfg = synth.SynthConfig(days=4, hypo_depth=12.0, noise_std=1.5, seed=9)
        result = synth.generate(cfg)
        paths = synth.write_fixture(result, tmp_path)
        episodes = core.ingest_csv(paths["cgm"], 240)
        assert len(episodes) == 4
        for orig, back in zip(result.episodes, episodes):
            assert core.episodes_equal(orig, back)
        tcr = protocols.read_tcr_csv(paths["tcr"])
        assert set(tcr) == {("synth-001", d) for d in range(4)}
        lines = paths["labels"].read_text().strip().splitlines()
        assert lines[0] == "episode_id,t,regime"
        assert len(lines) == 1 + 4 * 288

    def test_fixture_bytes_deterministic(self, tmp_path):
        cfg = synth.SynthConfig(days=2, noise_std=1.0, seed=3)
        pa = synth.write_fixture(synth.generate(cfg), tmp_path / "a")
        pb = synth.write_fixture(synth.generate(cfg), tmp_path / "b")
        for key in pa:
            assert pa[key].read_bytes() == pb[key].read_bytes()


class TestGappedFixture:
    """write_fixture with gap masks: cgm_gapped.csv is the episodes as apply_mask shows them."""

    def test_gapped_copy_reads_back_as_apply_mask(self, tmp_path):
        result = synth.generate(synth.SynthConfig(days=3, hypo_depth=12.0, noise_std=1.5, seed=9))
        gap_masks = masks.sample_masks(result.episodes, build_injected_model(), 4)
        paths = synth.write_fixture(result, tmp_path, gap_masks)
        assert list(paths) == ["cgm", "tcr", "labels", "cgm_gapped"]
        assert paths["cgm_gapped"] == tmp_path / "cgm_gapped.csv"
        shown = [masks.apply_mask(ep, m) for ep, m in zip(result.episodes, gap_masks)]
        core.export_csv(shown, tmp_path / "apply_mask.csv")
        assert paths["cgm_gapped"].read_bytes() == (tmp_path / "apply_mask.csv").read_bytes()
        plain = synth.write_fixture(result, tmp_path / "plain")
        assert paths["cgm"].read_bytes() == plain["cgm"].read_bytes()

    def test_bad_mask_writes_no_file(self, tmp_path):
        result = synth.generate(synth.SynthConfig(days=2, seed=1))
        gap_masks = [masks.Mask(np.ones(ep.T - 1, dtype=np.uint8)) for ep in result.episodes]
        with pytest.raises(DimensionError, match="mask length 287 != episode length 288"):
            synth.write_fixture(result, tmp_path / "fx", gap_masks)
        assert not (tmp_path / "fx").exists()


class TestFixtureNames:
    @pytest.mark.parametrize("gapped", [False, True])
    def test_names_are_the_paths_written(self, tmp_path, gapped):
        result = synth.generate(synth.SynthConfig(days=2, seed=1))
        gap_masks = masks.sample_masks(result.episodes, build_injected_model(), 4) if gapped else None
        paths = synth.write_fixture(result, tmp_path, gap_masks)
        assert list(paths.values()) == [tmp_path / name for name in synth.fixture_names(gapped)]
        assert sorted(tmp_path.iterdir()) == sorted(paths.values())


def test_drift_period_must_be_positive():
    with pytest.raises(ConfigError, match="^drift_period must be positive$"):
        synth.generate(synth.SynthConfig(days=1, drift_period=0))


def test_negative_seed_is_rejected():
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
        synth.generate(synth.SynthConfig(days=1, seed=-1))
