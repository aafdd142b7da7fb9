import numpy as np
import pytest

from helpers import make_episode
from regime_bench import imputers as imp
from regime_bench.errors import CoverageError, EmptyEpisodeError, IntegrityError, ParseError
from regime_bench.masks import Mask, bits_to_runs


def mask_of(bits):
    return Mask(np.array(bits, dtype=np.uint8))


class TestConstantImputers:
    def test_mean_fill(self):
        ep = make_episode([100.0, 115.0, 120.0])
        out = imp.impute_mean(ep, mask_of([1, 0, 1]))
        assert out.values.tolist() == [100.0, 110.0, 120.0]
        assert out.method == "mean"

    def test_median_robust_to_outlier(self):
        ep = make_episode([100.0, 100.0, 150.0, 400.0])
        out = imp.impute_median(ep, mask_of([1, 1, 0, 1]))
        assert out.values[2] == 100.0

    def test_identity_when_all_retained(self):
        ep = make_episode([100.0, 110.0])
        for fn in (imp.impute_mean, imp.impute_median, imp.impute_locf, imp.impute_lerp):
            assert np.array_equal(fn(ep, mask_of([1, 1])).values, ep.glucose)

    def test_constant_on_masked_runs(self):
        ep = make_episode([90.0, 100.0, 110.0, 120.0, 130.0])
        out = imp.impute_mean(ep, mask_of([1, 0, 0, 0, 1]))
        assert len(set(out.values[1:4])) == 1

    def test_no_retained_rejected(self):
        ep = make_episode([100.0, 110.0])
        with pytest.raises(EmptyEpisodeError):
            imp.impute_mean(ep, mask_of([0, 0]))


class TestLocf:
    def test_carries_last_forward(self):
        ep = make_episode([100.0, 105.0, 115.0, 130.0])
        out = imp.impute_locf(ep, mask_of([1, 0, 0, 1]))
        assert out.values.tolist() == [100.0, 100.0, 100.0, 130.0]

    def test_leading_gap_takes_next_observation(self):
        ep = make_episode([85.0, 90.0])
        out = imp.impute_locf(ep, mask_of([0, 1]))
        assert out.values.tolist() == [90.0, 90.0]

    def test_piecewise_constant_property(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(80, 180, 50)
        bits = rng.integers(0, 2, 50)
        bits[0] = bits[-1] = 1
        ep = make_episode(g)
        out = imp.impute_locf(ep, mask_of(bits))
        for s, n in bits_to_runs(bits):
            run = out.values[s : s + n]
            assert len(set(run.tolist())) == 1


class TestLerp:
    def test_interior_interpolation(self):
        ep = make_episode([100.0, 101.0, 102.0, 130.0])
        out = imp.impute_lerp(ep, mask_of([1, 0, 0, 1]))
        assert out.values.tolist() == [100.0, 110.0, 120.0, 130.0]

    def test_chord_through_masked_peak(self):
        g = [100.0, 140.0, 180.0, 140.0, 100.0]
        ep = make_episode(g)
        out = imp.impute_lerp(ep, mask_of([1, 0, 0, 0, 1]))
        assert out.values.tolist() == [100.0, 100.0, 100.0, 100.0, 100.0]
        assert max(g) - out.values.max() == 80.0  # full amplitude lost

    def test_single_point_midpoint(self):
        ep = make_episode([100.0, 200.0, 110.0])
        out = imp.impute_lerp(ep, mask_of([1, 0, 1]))
        assert out.values[1] == 105.0

    def test_boundary_gaps_take_nearest(self):
        ep = make_episode([100.0, 110.0, 120.0, 130.0])
        out = imp.impute_lerp(ep, mask_of([0, 1, 1, 0]))
        assert out.values.tolist() == [110.0, 110.0, 120.0, 120.0]

    def test_exact_on_affine_ground_truth(self):
        g = 80.0 + 1.5 * np.arange(40)
        ep = make_episode(g)
        bits = np.ones(40, dtype=np.uint8)
        bits[13:29] = 0
        out = imp.impute_lerp(ep, mask_of(bits))
        assert np.array_equal(out.values, g)


class TestIdentityOnRetained:
    def test_all_imputers(self):
        rng = np.random.default_rng(11)
        g = rng.uniform(70, 200, 64)
        bits = rng.integers(0, 2, 64)
        bits[[0, -1]] = 1
        ep = make_episode(g)
        for fn in imp.BUILTIN_IMPUTERS.values():
            out = fn(ep, mask_of(bits))
            assert np.array_equal(out.values[bits == 1], g[bits == 1])


class TestGappedTruth:
    """A hidden index the truth never observed gets the fill like any other hidden index."""

    # indices 0 and 4 were never observed; the mask hides them, 1 and 6
    GLUCOSE = [np.nan, 90.0, 100.0, 110.0, np.nan, 150.0, 130.0]
    BITS = [0, 0, 1, 1, 0, 1, 0]

    @pytest.mark.parametrize("method, hidden_values", [
        ("mean", [120.0] * 4),
        ("median", [110.0] * 4),
        ("locf", [100.0, 100.0, 110.0, 150.0]),
        ("lerp", [100.0, 100.0, 130.0, 150.0]),
    ])
    def test_fill_at_hidden_truth_at_retained(self, method, hidden_values):
        ep = make_episode(self.GLUCOSE)
        out = imp.BUILTIN_IMPUTERS[method](ep, mask_of(self.BITS))
        assert out.values[[0, 1, 4, 6]].tolist() == hidden_values
        assert out.values[[2, 3, 5]].tolist() == [100.0, 110.0, 150.0]
        assert out.method == method
        assert out.episode_ref == ("p1", 0)

    def test_retaining_a_never_observed_index_rejected(self):
        ep = make_episode(self.GLUCOSE)
        for fn in imp.BUILTIN_IMPUTERS.values():
            with pytest.raises(IntegrityError, match="no ground-truth observation"):
                fn(ep, mask_of([1, 0, 1, 1, 0, 1, 0]))


class TestExternalFile:
    def setup_corpus(self):
        eps = [
            make_episode([100.0, 110.0, 120.0, 130.0], episode_id=0),
            make_episode([90.0, 95.0, 100.0], episode_id=1),
        ]
        masks = {
            ("p1", 0): mask_of([1, 0, 0, 1]),
            ("p1", 1): mask_of([1, 0, 1]),
        }
        return eps, masks

    def pairs(self, eps, masks):
        return [(ep, masks[(ep.patient_id, ep.episode_id)]) for ep in eps]

    def test_round_trip_accepted(self, tmp_path):
        eps, masks = self.setup_corpus()
        outputs = [imp.impute_lerp(ep, masks[(ep.patient_id, ep.episode_id)]) for ep in eps]
        path = tmp_path / "imputed.csv"
        imp.write_imputations_csv(outputs, path)
        loaded = imp.load_external(path, self.pairs(eps, masks))
        for orig, back in zip(outputs, loaded):
            assert np.array_equal(orig.values, back.values)
            assert back.method == "lerp"

    def test_altered_observed_value_rejected(self, tmp_path):
        eps, masks = self.setup_corpus()
        outputs = [imp.impute_lerp(ep, masks[(ep.patient_id, ep.episode_id)]) for ep in eps]
        path = tmp_path / "imputed.csv"
        imp.write_imputations_csv(outputs, path)
        text = path.read_text().replace("p1,0,0,100.0", "p1,0,0,101.0")
        path.write_text(text)
        with pytest.raises(IntegrityError, match="t=0"):
            imp.load_external(path, self.pairs(eps, masks))

    def test_missing_episode_rejected(self, tmp_path):
        eps, masks = self.setup_corpus()
        outputs = [imp.impute_lerp(eps[0], masks[("p1", 0)])]
        path = tmp_path / "imputed.csv"
        imp.write_imputations_csv(outputs, path)
        with pytest.raises(CoverageError, match="p1/1"):
            imp.load_external(path, self.pairs(eps, masks))

    def test_incomplete_indices_rejected(self, tmp_path):
        eps, masks = self.setup_corpus()
        outputs = [imp.impute_lerp(ep, masks[(ep.patient_id, ep.episode_id)]) for ep in eps]
        path = tmp_path / "imputed.csv"
        imp.write_imputations_csv(outputs, path)
        lines = path.read_text().strip().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the final row
        with pytest.raises(CoverageError, match="missing indices"):
            imp.load_external(path, self.pairs(eps, masks))

    def test_mixed_methods_rejected(self, tmp_path):
        path = tmp_path / "imputed.csv"
        path.write_text(
            "patient_id,episode_id,t,value,method\n"
            "p1,0,0,100.0,alpha\n"
            "p1,0,1,100.0,beta\n"
        )
        eps, masks = self.setup_corpus()
        with pytest.raises(ParseError, match="one method"):
            imp.load_external(path, self.pairs(eps, masks))

    def test_tolerance_on_retained_values(self, tmp_path):
        eps, masks = self.setup_corpus()
        outputs = [imp.impute_lerp(ep, masks[(ep.patient_id, ep.episode_id)]) for ep in eps]
        path = tmp_path / "imputed.csv"
        imp.write_imputations_csv(outputs, path)
        text = path.read_text().replace("p1,0,0,100.0", "p1,0,0,100.0000001")
        path.write_text(text)
        loaded = imp.load_external(path, self.pairs(eps, masks))  # within 1e-6, accepted
        assert loaded[0].values[0] == pytest.approx(100.0, abs=1e-6)

    def write_lerp(self, tmp_path):
        eps, masks = self.setup_corpus()
        outputs = [imp.impute_lerp(ep, masks[(ep.patient_id, ep.episode_id)]) for ep in eps]
        path = tmp_path / "imputed.csv"
        imp.write_imputations_csv(outputs, path)
        return path, self.pairs(eps, masks)

    def test_repeated_row_rejected(self, tmp_path):
        # a second row for a masked index must not silently replace the first
        path, pairs = self.write_lerp(tmp_path)
        with path.open("a") as fh:
            fh.write("p1,0,1,500.0,lerp\n")
        with pytest.raises(ParseError, match=r"line 9: repeats t=1 for episode p1/0"):
            imp.load_external(path, pairs)

    @pytest.mark.parametrize("t", [-1, 4])
    def test_index_outside_episode_rejected(self, tmp_path, t):
        path, pairs = self.write_lerp(tmp_path)
        with path.open("a") as fh:
            fh.write(f"p1,0,{t},100.0,lerp\n")
        with pytest.raises(CoverageError, match=rf"imputed.csv: line 9: t={t} outside \[0, 4\)"):
            imp.load_external(path, pairs)

    def test_rows_for_unscored_episode_accepted(self, tmp_path):
        path, pairs = self.write_lerp(tmp_path)
        with path.open("a") as fh:
            fh.write("p2,7,999,100.0,lerp\n")
        loaded = imp.load_external(path, pairs)
        assert [i.episode_ref for i in loaded] == [("p1", 0), ("p1", 1)]

    def test_blank_lines_skipped(self, tmp_path):
        path, pairs = self.write_lerp(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines[:3], "", "   ", *lines[3:]]) + "\n")
        loaded = imp.load_external(path, pairs)
        assert [i.episode_ref for i in loaded] == [("p1", 0), ("p1", 1)]
