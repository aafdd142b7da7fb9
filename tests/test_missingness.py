import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INJECTED_ONSET, INJECTED_PI_SHORT, build_injected_model, gapped_days
from helpers import closure_density, closure_fit_duration_density, make_episode
from regime_bench import missingness as mz
from regime_bench.errors import EstimationError, FitError


def day_episode(missing_indices=(), episode_id=0, start_minute=0):
    glucose = np.full(288, 100.0)
    for idx in missing_indices:
        glucose[idx] = np.nan
    return make_episode(glucose, start_minute=start_minute, episode_id=episode_id)


class TestValidDays:
    def test_exactly_half_observed_is_valid(self):
        ep = day_episode(missing_indices=range(144))
        assert mz.valid_days([ep]) == {("p1", 0)}

    def test_below_half_invalid(self):
        ep = day_episode(missing_indices=range(145))
        assert mz.valid_days([ep]) == set()

    def test_fully_observed_valid(self):
        assert mz.valid_days([day_episode()]) == {("p1", 0)}

    def test_counts_pool_across_episodes_of_same_day(self):
        # two half-day episodes on the same calendar day
        a = make_episode(np.full(100, 100.0), start_minute=0)
        b = make_episode(np.full(100, 100.0), start_minute=600, episode_id=1)
        assert mz.valid_days([a, b]) == {("p1", 0)}

    def test_empty_input(self):
        assert mz.valid_days([]) == set()


class TestExtractGaps:
    def test_single_run(self):
        ep = day_episode(missing_indices=(10, 11, 12))
        valid = mz.valid_days([ep])
        (gap,) = mz.extract_gaps([ep], valid)
        assert gap.duration == 15
        assert gap.start_index == 10
        assert gap.start_hour == 0

    def test_no_missing(self):
        ep = day_episode()
        assert mz.extract_gaps([ep], mz.valid_days([ep])) == []

    def test_runs_split_by_single_observation(self):
        ep = day_episode(missing_indices=(10, 11, 13, 14))
        gaps = mz.extract_gaps([ep], mz.valid_days([ep]))
        assert [(g.start_index, g.duration) for g in gaps] == [(10, 10), (13, 10)]

    def test_gap_on_invalid_day_dropped(self):
        ep = day_episode(missing_indices=range(150))
        assert mz.extract_gaps([ep], mz.valid_days([ep])) == []

    def test_start_hour_uses_episode_clock(self):
        ep = make_episode(
            [100.0, np.nan, 100.0], start_minute=7 * 60  # episode starts 07:00
        )
        (gap,) = mz.extract_gaps([ep], {("p1", 0)})
        assert gap.start_hour == 7


class TestOnsetProbabilities:
    def test_two_days_out_of_ten(self):
        episodes = [day_episode(episode_id=d, start_minute=d * 1440) for d in range(8)]
        episodes.append(day_episode(missing_indices=(37,), episode_id=8, start_minute=8 * 1440))
        episodes.append(day_episode(missing_indices=(40,), episode_id=9, start_minute=9 * 1440))
        valid = mz.valid_days(episodes)
        assert len(valid) == 10
        probs = mz.onset_probabilities(mz.extract_gaps(episodes, valid), valid)
        assert probs[3] == pytest.approx(0.2)
        assert probs[[h for h in range(24) if h != 3]].sum() == 0

    def test_same_day_gaps_counted_once(self):
        # two distinct gaps both starting in hour 3 of the same day
        episodes = [day_episode(missing_indices=(37, 40), episode_id=0)]
        episodes += [day_episode(episode_id=d, start_minute=d * 1440) for d in range(1, 5)]
        valid = mz.valid_days(episodes)
        gaps = mz.extract_gaps(episodes, valid)
        assert len(gaps) == 2
        probs = mz.onset_probabilities(gaps, valid)
        # brute-force per-day scan, independent of the GapEvent grouping
        expected = np.zeros(24)
        for ep in episodes:
            for t in range(ep.T):
                starts_run = ep.observed[t] == 0 and (t == 0 or ep.observed[t - 1] == 1)
                if starts_run and (ep.patient_id, ep.day_at(t)) in valid:
                    expected[ep.hour_at(t)] += 1.0 / len(valid)
        # the scan counts runs; collapse to the day-indicator semantics
        assert probs[3] == pytest.approx(1.0 / len(valid))
        assert expected[3] == pytest.approx(2.0 / len(valid))  # run count differs
        assert probs[3] < expected[3]

    def test_no_gaps_all_zero(self):
        episodes = [day_episode()]
        probs = mz.onset_probabilities([], mz.valid_days(episodes))
        assert (probs == 0).all()

    def test_empty_valid_set_rejected(self):
        with pytest.raises(EstimationError):
            mz.onset_probabilities([], set())


def gap(duration, hour=12):
    return mz.GapEvent("p1", 0, hour, hour * 12, duration)


class TestShortGapProbability:
    def test_half_short(self):
        gaps = [gap(5), gap(5), gap(10), gap(20)]
        assert mz.short_gap_probability(gaps, "day") == 0.5

    def test_all_short(self):
        assert mz.short_gap_probability([gap(5), gap(5)], "day") == 1.0

    def test_none_short(self):
        assert mz.short_gap_probability([gap(10), gap(120)], "day") == 0.0

    def test_regime_partition(self):
        gaps = [gap(5, hour=2), gap(10, hour=2), gap(10, hour=12)]
        assert mz.short_gap_probability(gaps, "night") == 0.5
        assert mz.short_gap_probability(gaps, "day") == 0.0

    def test_empty_regime_rejected(self):
        with pytest.raises(EstimationError):
            mz.short_gap_probability([gap(10, hour=12)], "night")


THETA0 = dict(A=0.02, k=0.05, B=0.01, mu=120.0, sigma=15.0, gamma=0.0005)


class TestMixtureFit:
    def test_recovers_known_parameters(self):
        truth = mz.make_mixture(**THETA0)
        values = truth.density(mz.BIN_CENTERS)
        fit = mz.fit_duration_density(mz.BIN_CENTERS, values)
        for name, expected in THETA0.items():
            assert getattr(fit, name) == pytest.approx(expected, rel=0.10)
        assert fit.w_exp + fit.w_gauss + fit.w_unif == pytest.approx(1.0, abs=1e-9)

    def test_pure_exponential_gets_negligible_gaussian_mass(self):
        truth = mz.make_mixture(A=0.02, k=0.05, B=0.0, mu=120.0, sigma=15.0, gamma=0.0)
        fit = mz.fit_duration_density(mz.BIN_CENTERS, truth.density(mz.BIN_CENTERS))
        assert fit.w_gauss < 0.05

    def test_spike_at_120_centers_gaussian(self):
        values = 0.002 * np.exp(-0.03 * (mz.BIN_CENTERS - 10.0))
        values[mz.BIN_CENTERS == 120.0] += 0.02
        fit = mz.fit_duration_density(mz.BIN_CENTERS, values)
        assert 110.0 <= fit.mu <= 130.0

    def test_fit_is_deterministic(self):
        values = mz.make_mixture(**THETA0).density(mz.BIN_CENTERS)
        a = mz.fit_duration_density(mz.BIN_CENTERS, values)
        b = mz.fit_duration_density(mz.BIN_CENTERS, values)
        assert a == b

    def test_density_nonnegative_on_support(self):
        fit = mz.fit_duration_density(
            mz.BIN_CENTERS, mz.make_mixture(**THETA0).density(mz.BIN_CENTERS)
        )
        assert (fit.density(np.linspace(10, 240, 1000)) >= 0).all()

    def test_fit_mixture_from_gap_events(self):
        rng = np.random.default_rng(5)
        durations = np.concatenate(
            [
                5 * rng.integers(2, 10, size=200),  # short-duration bulk
                5 * np.round(rng.normal(120, 15, size=120) / 5).astype(int),
            ]
        )
        gaps = [gap(int(np.clip(d, 10, 240))) for d in durations]
        mix = mz.fit_mixture(gaps, "day")
        assert 100.0 <= mix.mu <= 140.0
        assert mix.w_exp + mix.w_gauss + mix.w_unif == pytest.approx(1.0, abs=1e-9)

    def test_durations_above_cap_excluded(self):
        gaps = [gap(10 + 5 * i) for i in range(40)] + [gap(1000)] * 10
        mix = mz.fit_mixture(gaps, "day")  # would raise if 1000-min gaps entered the histogram
        assert mix.w_exp >= 0

    def test_insufficient_data_rejected(self):
        gaps = [gap(60)] * 10
        with pytest.raises(FitError, match="need >= 30"):
            mz.fit_mixture(gaps, "day")

    def test_min_gaps_configurable(self):
        gaps = [gap(30 + 5 * i) for i in range(10)]
        mix = mz.fit_mixture(gaps, "day", min_gaps=10)
        assert mix.k > 0


class TestModelSerialization:
    def test_round_trip_bit_exact(self, fitted_model, tmp_path):
        path = tmp_path / "model.json"
        mz.save_model(fitted_model, path)
        loaded = mz.load_model(path)
        assert loaded == fitted_model
        again = tmp_path / "model2.json"
        mz.save_model(loaded, again)
        assert path.read_text() == again.read_text()

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(EstimationError, match="schema"):
            mz.load_model(path)

    def test_missing_field_rejected(self, fitted_model, tmp_path):
        doc = mz.model_to_dict(fitted_model)
        del doc["day"]["k"]
        with pytest.raises(EstimationError, match="missing fields"):
            mz.model_from_dict(doc)

    def test_missing_onsets_name_the_file(self, fitted_model, tmp_path):
        doc = mz.model_to_dict(fitted_model)
        del doc["onset_prob"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(EstimationError, match=r"model\.json: model is missing fields: \['onset_prob'\]"):
            mz.load_model(path)

    def test_delta_max_other_than_240_rejected(self, fitted_model, tmp_path):
        # sample_duration always caps at 240 min, so another cap must not load silently
        doc = mz.model_to_dict(fitted_model)
        doc["delta_max"] = 60
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(EstimationError, match=r"model\.json: delta_max must be 240, got 60"):
            mz.load_model(path)

    def test_malformed_field_names_the_file(self, fitted_model, tmp_path):
        doc = mz.model_to_dict(fitted_model)
        doc["onset_prob"] = 5
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(EstimationError, match=r"model\.json: malformed model field"):
            mz.load_model(path)

    def test_onset_probabilities_validated(self):
        with pytest.raises(EstimationError):
            mz.MissingnessModel(
                (1.5,) * 24,
                mz.RegimeModel(0.5, mz.make_mixture(**THETA0)),
                mz.RegimeModel(0.5, mz.make_mixture(**THETA0)),
            )


class TestEstimationPipeline:
    def test_fitted_onsets_match_injection_rates(self):
        # Monte Carlo: inject the known process, estimate, compare per hour
        model = build_injected_model()
        _, gapped = gapped_days(model, 10_000, master_seed=77, synth_seed=13)
        fitted = mz.fit_model(gapped)
        errors = np.abs(np.array(fitted.onset_prob) - np.array(INJECTED_ONSET))
        assert errors.max() < 0.01

    def test_fitted_short_gap_probabilities(self, fitted_model):
        assert fitted_model.day.pi_short == pytest.approx(INJECTED_PI_SHORT["day"], abs=0.05)
        assert fitted_model.night.pi_short == pytest.approx(INJECTED_PI_SHORT["night"], abs=0.05)

    def test_fitted_model_weights_valid(self, fitted_model):
        for regime in (fitted_model.day, fitted_model.night):
            mix = regime.mixture
            assert mix.w_exp + mix.w_gauss + mix.w_unif == pytest.approx(1.0, abs=1e-9)
            assert min(mix.w_exp, mix.w_gauss, mix.w_unif) >= 0


_THETA = st.tuples(
    st.floats(0.0, 10.0),  # A
    st.floats(1e-6, 1.0),  # k
    st.floats(0.0, 10.0),  # B
    st.floats(mz.DELTA_MIN_SUSTAINED, mz.DELTA_MAX),  # mu
    st.floats(1e-6, 120.0),  # sigma
    st.floats(0.0, 1.0),  # gamma
)


class TestDensityParity:
    """fit_duration_density fits DurationMixture.density, bit for bit the old closure."""

    @settings(max_examples=300, deadline=None)
    @given(
        _THETA,
        st.one_of(
            st.just(mz.BIN_CENTERS),
            st.lists(st.floats(mz.DELTA_MIN_SUSTAINED, mz.DELTA_MAX), min_size=1, max_size=50)
            .map(np.array),
        ),
    )
    def test_density_matches_the_closure_bitwise(self, theta, centers):
        theta = np.array(theta)  # least_squares passes an array
        got = mz.DurationMixture(*theta, 0.0, 0.0, 0.0).density(centers)
        assert got.tobytes() == closure_density(theta, centers).tobytes()

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32), st.integers(30, 300))
    def test_fit_matches_the_closure_fit(self, seed, n):
        durations = 5 * np.random.default_rng(seed).integers(2, 49, size=n)
        values = mz.duration_histogram(durations)
        got = mz.fit_duration_density(mz.BIN_CENTERS, values)
        assert repr(got) == repr(closure_fit_duration_density(mz.BIN_CENTERS, values))


class TestModelBuildingChecks:
    def test_onset_probabilities_other_than_24_rejected(self):
        regime = build_injected_model().day
        with pytest.raises(EstimationError, match="^onset_prob must have 24 entries$"):
            mz.MissingnessModel((0.05,) * 23, regime, regime)

    def test_mixture_with_zero_total_mass_rejected(self):
        with pytest.raises(FitError, match=r"^duration density has zero total mass on \[10, 240\]$"):
            mz.make_mixture(0.0, 0.05, 0.0, 120.0, 15.0, 0.0)

    @pytest.mark.parametrize("centers, values", [
        ([15.0, 20.0, 25.0], [0.1, 0.2]),
        ([], []),
    ], ids=["misaligned", "empty"])
    def test_duration_fit_needs_aligned_vectors(self, centers, values):
        with pytest.raises(FitError, match="^centers and values must be aligned, non-empty vectors$"):
            mz.fit_duration_density(np.array(centers), np.array(values))
