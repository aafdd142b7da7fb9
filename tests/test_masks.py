import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_episode, scipy_trunc_norm_ppf
from regime_bench import masks as mk
from regime_bench import missingness as mz
from regime_bench.errors import DimensionError, IntegrityError, ParseError
from regime_bench.masks import Mask


def uniform_model(onset=0.0, pi_short=0.0, mixture=None):
    mixture = mixture or mz.make_mixture(0.0, 0.02, 0.0, 120.0, 20.0, 1.0)  # pure uniform
    regime = mz.RegimeModel(pi_short, mixture)
    return mz.MissingnessModel((onset,) * 24, regime, regime)


class TestSampleDuration:
    def test_uniform_mean(self):
        model = uniform_model()
        rng = np.random.default_rng(0)
        draws = np.array([mk.sample_duration(model, "day", rng) for _ in range(100_000)])
        assert set(np.unique(draws)) <= set(range(10, 245, 5))
        assert draws.mean() == pytest.approx(125.0, abs=2.0)

    def test_point_mass_gaussian(self):
        mixture = mz.DurationMixture(0.0, 0.02, 1.0, 120.0, 1e-15, 0.0, 0.0, 1.0, 0.0)
        model = uniform_model(mixture=mixture)
        rng = np.random.default_rng(1)
        draws = {mk.sample_duration(model, "day", rng) for _ in range(1000)}
        assert draws == {120}

    def test_truncated_exponential_mean_matches_cdf_expectation(self):
        mixture = mz.make_mixture(1.0, 0.05, 0.0, 120.0, 20.0, 0.0)
        assert mixture.w_exp == pytest.approx(1.0)
        model = uniform_model(mixture=mixture)
        rng = np.random.default_rng(2)
        draws = np.array([mk.sample_duration(model, "day", rng) for _ in range(100_000)])
        grid, pmf = mk.sampled_duration_pmf(mixture)
        expected = float(np.sum(grid * pmf))
        assert draws.mean() == pytest.approx(expected, rel=0.02)

    def test_pmf_sums_to_one(self, fitted_model):
        for mixture in (fitted_model.day.mixture, fitted_model.night.mixture):
            _, pmf = mk.sampled_duration_pmf(mixture)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
            assert (pmf >= 0).all()


class TestTruncNormQuantile:
    """The stdlib quantile may differ from scipy's in the last bits, never in a duration."""

    def test_rounded_durations_equal_scipy_oracle(self):
        rng = np.random.default_rng(11)
        n = 100_000
        draws = zip(rng.random(n).tolist(), rng.uniform(-50.0, 300.0, n).tolist(),
                    np.exp(rng.uniform(np.log(0.05), np.log(300.0), n)).tolist())

        def duration(x):
            return min(max(mk.round5(x), mz.DELTA_MIN_SUSTAINED), mz.DELTA_MAX)

        differ = [(u, mu, sigma) for u, mu, sigma in draws
                  if duration(mk._trunc_norm_ppf(u, mu, sigma))
                  != duration(scipy_trunc_norm_ppf(u, mu, sigma))]
        assert differ == []

    def test_close_to_scipy_oracle(self):
        rng = np.random.default_rng(7)
        for u, mu, sigma in zip(rng.random(1000), rng.uniform(0, 250, 1000),
                                rng.uniform(1, 100, 1000)):
            assert mk._trunc_norm_ppf(u, mu, sigma) == pytest.approx(
                scipy_trunc_norm_ppf(u, mu, sigma), rel=1e-12, abs=1e-12)


class TestGenerateMask:
    def test_zero_onset_keeps_everything(self):
        mask = mk.generate_mask(288, 0, uniform_model(onset=0.0), seed=1)
        assert mask.bits.all()
        assert mask.events == ()

    def test_forced_short_gaps_every_hour(self):
        model = uniform_model(onset=1.0, pi_short=1.0)
        mask = mk.generate_mask(288, 0, model, seed=3)
        assert all(ev.minutes == 5 for ev in mask.events)
        hours_hit = {ev.hour for ev in mask.events}
        assert hours_hit == set(range(24))  # every hour triggers at least once
        assert int((mask.bits == 0).sum()) == len(mask.events)

    def test_deterministic_per_seed(self, fitted_model):
        a = mk.generate_mask(288, 0, fitted_model, seed=99)
        b = mk.generate_mask(288, 0, fitted_model, seed=99)
        c = mk.generate_mask(288, 0, fitted_model, seed=100)
        assert np.array_equal(a.bits, b.bits)
        assert a.events == b.events
        assert not np.array_equal(a.bits, c.bits) or a.events != c.events

    def test_event_durations_on_menu(self, fitted_model):
        durations = set()
        for seed in range(200):
            mask = mk.generate_mask(288, 0, fitted_model, seed=seed)
            durations.update(ev.minutes for ev in mask.events)
        assert all(d == 5 or 10 <= d <= 240 for d in durations)
        assert all(d % 5 == 0 for d in durations)

    def test_event_hours_match_regime(self, fitted_model):
        for seed in range(50):
            mask = mk.generate_mask(288, 0, fitted_model, seed=seed)
            for ev in mask.events:
                assert ev.regime == ("night" if ev.hour < 6 else "day")
                assert ev.t_start // 12 == ev.hour  # midnight-aligned day

    def test_start_time_of_day_shifts_hours(self, fitted_model):
        mask = mk.generate_mask(144, 12 * 60, fitted_model, seed=4)
        for ev in mask.events:
            assert 12 <= ev.hour <= 23

    def test_short_length_episode(self, fitted_model):
        mask = mk.generate_mask(3, 0, fitted_model, seed=5)
        assert mask.T == 3

    def test_invalid_length_rejected(self, fitted_model):
        with pytest.raises(DimensionError):
            mk.generate_mask(0, 0, fitted_model, seed=1)

    def test_independent_of_signal_values(self, fitted_model):
        # the generator sees only (T, clock, model, seed), never glucose
        flat = make_episode(np.full(288, 100.0))
        wild = make_episode(np.clip(100 + 50 * np.sin(np.arange(288) / 7.0), 20, 500))
        a = mk.generate_mask(flat.T, flat.start_time_of_day, fitted_model, seed=6)
        b = mk.generate_mask(wild.T, wild.start_time_of_day, fitted_model, seed=6)
        assert np.array_equal(a.bits, b.bits)


class TestApplyMask:
    def test_identity_mask(self):
        ep = make_episode([100.0, 110.0, 120.0])
        out = mk.apply_mask(ep, Mask(np.ones(3, dtype=np.uint8)))
        assert np.array_equal(out.glucose, ep.glucose)
        assert out.observed.all()

    def test_all_hidden(self):
        ep = make_episode([100.0, 110.0])
        out = mk.apply_mask(ep, Mask(np.zeros(2, dtype=np.uint8)))
        assert np.isnan(out.glucose).all()
        assert not out.observed.any()

    def test_specific_indices_hidden(self):
        ep = make_episode([100.0, 110.0, 120.0, 130.0, 140.0])
        out = mk.apply_mask(ep, Mask(np.array([1, 1, 1, 0, 0], dtype=np.uint8)))
        assert list(out.observed) == [1, 1, 1, 0, 0]
        assert np.isnan(out.glucose[3:]).all()
        assert np.array_equal(out.glucose[:3], ep.glucose[:3])

    def test_ground_truth_untouched(self):
        ep = make_episode([100.0, 110.0])
        mk.apply_mask(ep, Mask(np.array([1, 0], dtype=np.uint8)))
        assert ep.glucose[1] == 110.0

    def test_length_mismatch(self):
        ep = make_episode([100.0, 110.0])
        with pytest.raises(DimensionError):
            mk.apply_mask(ep, Mask(np.ones(3, dtype=np.uint8)))

    def test_masking_unobserved_rejected(self):
        ep = make_episode([100.0, np.nan, 120.0])
        with pytest.raises(IntegrityError):
            mk.apply_mask(ep, Mask(np.array([1, 0, 1], dtype=np.uint8)))

    def test_retaining_unobserved_rejected(self):
        ep = make_episode([100.0, np.nan, 120.0])
        with pytest.raises(IntegrityError, match="retains an index"):
            mk.apply_mask(ep, Mask(np.array([1, 1, 0], dtype=np.uint8)))


class TestMaskedView:
    def test_gapped_truth(self):
        # the mask hides a retained sample and the one the truth never observed
        ep = make_episode([100.0, np.nan, 120.0, 130.0])
        retained = np.array([True, False, False, True])
        out = mk.masked_view(ep, retained)
        assert list(out.observed) == [1, 0, 0, 1]
        assert np.array_equal(out.glucose, [100.0, np.nan, np.nan, 130.0], equal_nan=True)
        assert (out.patient_id, out.episode_id, out.start_minute) == ("p1", 0, 0)
        assert np.array_equal(out.exog, ep.exog)


class TestRunLengthEncoding:
    @given(bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=100))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, bits):
        bits = np.array(bits, dtype=np.uint8)
        runs = mk.bits_to_runs(bits)
        assert np.array_equal(mk.runs_to_bits(bits.size, runs), bits)

    def test_run_out_of_bounds_rejected(self):
        with pytest.raises(DimensionError):
            mk.runs_to_bits(5, [(3, 4)])


class TestMaskFile:
    def test_round_trip(self, fitted_model, tmp_path):
        entries = []
        for eid in range(4):
            mask = mk.generate_mask(288, 0, fitted_model, seed=mk.derive_seed(7, "p1", eid))
            entries.append(("p1", eid, mask))
        path = tmp_path / "masks.json"
        mk.write_masks_json(entries, path, provenance="empirical", condition="seed=7")
        meta, loaded = mk.read_masks_json(path)
        assert meta["provenance"] == "empirical"
        assert meta["condition"] == "seed=7"
        for pid, eid, mask in entries:
            assert np.array_equal(loaded[(pid, eid)].bits, mask.bits)
            assert loaded[(pid, eid)].seed == mask.seed

    def test_file_bytes_deterministic(self, fitted_model, tmp_path):
        entries = [("p1", 0, mk.generate_mask(288, 0, fitted_model, seed=1))]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        mk.write_masks_json(entries, a)
        mk.write_masks_json(entries, b)
        assert a.read_bytes() == b.read_bytes()


class TestMalformedMaskFile:
    """Each broken record fails with a ParseError naming the file and the record."""

    def write(self, tmp_path, edit):
        bits = np.array([1, 0, 0, 1, 1, 0], dtype=np.uint8)
        path = tmp_path / "masks.json"
        mk.write_masks_json([("p1", 0, Mask(bits)), ("p1", 1, Mask(bits))], path)
        doc = json.loads(path.read_text())
        edit(doc["masks"])
        path.write_text(json.dumps(doc))
        return path

    def test_missing_length(self, tmp_path):
        path = self.write(tmp_path, lambda recs: recs[1].pop("T"))
        with pytest.raises(ParseError, match=r"masks\.json: masks\[1\]: missing or malformed field: 'T'"):
            mk.read_masks_json(path)

    def test_negative_run_length(self, tmp_path):
        path = self.write(tmp_path, lambda recs: recs[0]["gaps"][0].update(length_samples=-3))
        with pytest.raises(ParseError, match=r"masks\.json: masks\[0\]: run \(1, -3\)"):
            mk.read_masks_json(path)

    def test_duplicate_episode(self, tmp_path):
        path = self.write(tmp_path, lambda recs: recs[1].update(episode_id=0))
        with pytest.raises(ParseError, match=r"masks\.json: masks\[1\]: duplicate record for p1/0"):
            mk.read_masks_json(path)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        s = mk.derive_seed(7, "patient-1", 3)
        assert s == mk.derive_seed(7, "patient-1", 3)
        assert s != mk.derive_seed(7, "patient-1", 4)
        assert s != mk.derive_seed(8, "patient-1", 3)
        assert s != mk.derive_seed(7, "patient-2", 3)
        assert 0 <= s < 2**64


class TestSampleMasks:
    def test_one_mask_per_episode_seeded_per_episode(self, fitted_model):
        episodes = [make_episode(np.full(T, 100.0), start_minute=m, episode_id=i)
                    for i, (T, m) in enumerate([(288, 0), (100, 725), (7, 1435)])]
        got = mk.sample_masks(episodes, fitted_model, 7)
        assert len(got) == len(episodes)
        for ep, mask in zip(episodes, got):
            expected = mk.generate_mask(ep.T, ep.start_time_of_day, fitted_model,
                                        mk.derive_seed(7, ep.patient_id, ep.episode_id))
            assert np.array_equal(mask.bits, expected.bits)
            assert (mask.seed, mask.events) == (expected.seed, expected.events)


class TestMaskInvariants:
    def test_two_dimensional_bits_rejected(self):
        with pytest.raises(DimensionError, match="^mask bits must be a 1-D vector with T >= 1$"):
            Mask(np.ones((2, 3), dtype=np.uint8))

    def test_unknown_provenance_rejected(self):
        with pytest.raises(DimensionError, match="^unknown provenance 'protocol_Z'$"):
            Mask(np.ones(3, dtype=np.uint8), provenance="protocol_Z")
