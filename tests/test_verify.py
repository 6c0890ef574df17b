import csv
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enspost.core import ForecastFieldSample, GaussianPredictive, seeded_rng
from enspost.verify import (
    Histogram,
    ScoreTable,
    band_depth_preranks,
    band_depth_rank,
    brier_score,
    composite_minimum,
    crps_ensemble,
    crps_sample,
    dawid_sebastiani,
    ds_from_sample,
    energy_score,
    energy_score_ensemble,
    ensemble_range_coverage,
    euclidean_error,
    histogram_to_csv,
    interval_coverage_width,
    mad_from_half,
    mae_rmse,
    mixture_moments,
    pit,
    pit_histogram,
    rank_histogram,
    reliability_index,
    spatial_median,
    temp_difference_pit,
    threshold_prob,
    tie_broken_ranks,
    verification_rank,
)
from tests.conftest import allocating_energy_score, allocating_spatial_median

# mpmath references
CRPS_STD_AT_0 = 0.23369497725510907
HALF_WIDTH_19_21 = 1.6683911939470793
TDP_HAND = 0.41701761489549603

finite_floats = st.floats(min_value=-50, max_value=50)


class TestCrpsEnsemble:
    def test_single_member_is_absolute_error(self):
        assert crps_ensemble([2.0], 5.0) == pytest.approx(3.0)

    def test_two_member_hand_case(self):
        assert crps_ensemble([0.0, 2.0], 1.0) == pytest.approx(0.5)
        assert crps_ensemble([0.0, 2.0], 3.0) == pytest.approx(1.5)

    def test_permutation_invariant(self):
        rng = seeded_rng(0, "perm")
        members = rng.normal(size=12)
        base = crps_ensemble(members, 0.3)
        assert crps_ensemble(members[::-1], 0.3) == pytest.approx(base, abs=1e-14)
        assert crps_ensemble(rng.permutation(members), 0.3) == pytest.approx(base, abs=1e-14)

    @given(
        st.lists(finite_floats, min_size=2, max_size=15),
        finite_floats,
    )
    def test_matches_double_sum_identity(self, members, y):
        f = np.array(members)
        m = f.size
        want = np.abs(f - y).mean() - np.abs(f[:, None] - f[None, :]).sum() / (2 * m * m)
        assert crps_ensemble(f, y) == pytest.approx(want, abs=1e-10)

    def test_large_gaussian_ensemble_approaches_closed_form(self):
        draws = seeded_rng(1, "ens").standard_normal(5000)
        assert crps_ensemble(draws, 0.0) == pytest.approx(CRPS_STD_AT_0, abs=0.01)


class TestCrpsSample:
    def test_hand_case(self):
        assert crps_sample([0.0, 2.0], [1.0, 3.0], 1.0) == pytest.approx(0.5)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            crps_sample([0.0, 1.0], [1.0], 0.5)

    def test_unbiased_for_gaussian(self):
        rng = seeded_rng(2, "cs")
        vals = [
            crps_sample(rng.standard_normal(4000), rng.standard_normal(4000), 0.0)
            for _ in range(20)
        ]
        assert np.mean(vals) == pytest.approx(CRPS_STD_AT_0, abs=0.005)


class TestEnergyScore:
    def test_one_dimensional_reduces_to_crps_sample(self):
        rng = seeded_rng(3, "es")
        x = rng.normal(size=(200, 1))
        xp = rng.normal(size=(200, 1))
        y = np.array([0.4])
        assert energy_score(x, xp, y) == pytest.approx(
            crps_sample(x[:, 0], xp[:, 0], 0.4), abs=1e-12
        )

    def test_ensemble_one_dimensional_reduces_to_crps_ensemble(self):
        rng = seeded_rng(4, "ese")
        x = rng.normal(size=(9, 1))
        assert energy_score_ensemble(x, np.array([0.2])) == pytest.approx(
            crps_ensemble(x[:, 0], 0.2), abs=1e-12
        )

    def test_perfect_deterministic_forecast_scores_zero(self):
        y = np.array([1.0, 2.0])
        x = np.tile(y, (50, 1))
        assert energy_score(x, x.copy(), y) == 0.0
        assert energy_score_ensemble(x, y) == 0.0

    def test_sharper_correct_forecast_wins(self):
        rng = seeded_rng(5, "cmp")
        y = np.zeros(3)
        tight = rng.normal(0, 0.5, size=(400, 3))
        wide = rng.normal(0, 2.0, size=(400, 3))
        assert energy_score_ensemble(tight, y) < energy_score_ensemble(wide, y)


class TestDawidSebastiani:
    def test_hand_cases(self):
        assert dawid_sebastiani(np.zeros(2), 2 * np.eye(2), np.zeros(2)) == pytest.approx(np.log(4.0))
        assert dawid_sebastiani(np.zeros(2), np.eye(2), np.ones(2)) == pytest.approx(2.0)
        cov = np.array([[2.0, 1.0], [1.0, 2.0]])
        got = dawid_sebastiani(np.zeros(2), cov, np.array([1.0, 0.0]))
        assert got == pytest.approx(np.log(3.0) + 2.0 / 3.0, abs=1e-12)

    def test_not_positive_definite_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            dawid_sebastiani(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))

    def test_sample_version_adds_documented_jitter(self):
        rng = seeded_rng(6, "ds")
        fields = rng.normal(size=(40, 3)) @ np.diag([1.0, 2.0, 0.5])
        y = np.array([0.1, -0.2, 0.3])
        mu = fields.mean(axis=0)
        cov = np.cov(fields.T) + 1e-5 * np.eye(3)
        assert ds_from_sample(fields, y) == pytest.approx(
            dawid_sebastiani(mu, cov, y), abs=1e-10
        )

    def test_sample_version_on_a_large_warm_sample(self):
        # the size a threaded np.cov takes over: 2000 fields near 15 C over 60 stations
        rng = seeded_rng(8, "ds")
        fields = 15.0 + rng.normal(size=(2000, 60)) @ rng.normal(size=(60, 60)) / 8.0
        y = fields[:2].mean(axis=0)
        cov = np.cov(fields, rowvar=False) + 1e-5 * np.eye(60)
        assert ds_from_sample(fields, y) == pytest.approx(dawid_sebastiani(fields.mean(axis=0), cov, y), rel=1e-10)

    def test_sample_version_does_not_depend_on_blas_threads(self):
        # np.cov hands 2000 x 100 fields to a threaded BLAS product whose bits follow the thread count;
        # the fields are random walks along the stations, drawn with no BLAS call of their own
        code = ("import numpy as np; from enspost.core import seeded_rng; from enspost.verify import ds_from_sample; "
                "f = 15.0 + np.cumsum(seeded_rng(9, 'ds').normal(size=(2000, 100)), axis=1); "
                "print(repr(ds_from_sample(f, f[0])))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        got = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            got.add(run.stdout)
        assert len(got) == 1, got

    def test_sample_version_of_one_station(self):
        fields = np.array([[1.0], [2.0], [4.0]])
        var = 7.0 / 3.0 + 1e-5
        expected = np.log(var) + (3.0 - 7.0 / 3.0) ** 2 / var
        assert ds_from_sample(fields, np.array([3.0])) == pytest.approx(expected, abs=1e-12)

    def test_sample_version_handles_rank_deficiency(self):
        # 5 samples in 8 dimensions: covariance rank <= 4, jitter saves it
        rng = seeded_rng(7, "rank")
        fields = rng.normal(size=(5, 8))
        val = ds_from_sample(fields, np.zeros(8))
        assert np.isfinite(val)

    def test_sample_version_needs_two_fields(self):
        with pytest.raises(ValueError):
            ds_from_sample(np.zeros((1, 3)), np.zeros(3))


class TestSpatialMedian:
    def test_symmetric_cross(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        np.testing.assert_allclose(spatial_median(pts), [0.0, 0.0], atol=1e-7)

    def test_coincident_point_with_majority_mass_stays(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(spatial_median(pts), [0.0, 0.0], atol=1e-6)

    def test_collinear_points_take_middle(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        med = spatial_median(pts)
        assert med[0] == pytest.approx(1.0, abs=1e-6)
        assert med[1] == pytest.approx(0.0, abs=1e-9)

    def test_single_point(self):
        np.testing.assert_allclose(spatial_median(np.array([[2.0, 3.0]])), [2.0, 3.0])

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_objective_beats_componentwise_mean(self, seed):
        rng = seeded_rng(seed, "sm")
        pts = rng.normal(size=(25, 3)) * np.array([1.0, 3.0, 0.2])
        med = spatial_median(pts)

        def objective(c):
            return np.linalg.norm(pts - c, axis=1).sum()

        assert objective(med) <= objective(pts.mean(axis=0)) + 1e-7

    def test_euclidean_error(self):
        assert euclidean_error(np.array([0.0, 3.0]), np.array([4.0, 0.0])) == pytest.approx(5.0)


def _in_layout(a, order):
    """`a` as C-ordered, or F-ordered as the transpose of a C array (the layout of GRF fields)."""
    return np.ascontiguousarray(a) if order == "C" else np.ascontiguousarray(a.T).T


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
class TestBufferedFieldScoresExact:
    def fields(self, order):
        rng = seeded_rng(21, "buffered")
        common = rng.standard_normal((2000, 1))
        return _in_layout(15.0 + 2.0 * common + 3.0 * rng.standard_normal((2000, 50)), order)

    def test_energy_score(self, order):
        x = self.fields(order)
        y = 14.0 + seeded_rng(22, "obs").standard_normal(50)
        assert x.flags[f"{order}_CONTIGUOUS"]
        # two-row halves as well: a mean over 1000 rows hides a last-bit
        # change in single row norms
        pairs = [(x[:1000], x[1000:])] + [(x[i:i + 2], x[i + 2:i + 4]) for i in range(0, 2000, 4)]
        got = [energy_score(a, b, y) for a, b in pairs]
        assert _bits(got) == _bits([allocating_energy_score(a, b, y) for a, b in pairs])

    def test_energy_score_mixed_layouts(self, order):
        # x in one layout, x_prime in the other: numpy lays x - x_prime out C-ordered
        x = self.fields(order)
        x_prime = _in_layout(15.0 + 3.0 * seeded_rng(24, "other").standard_normal((2000, 50)), "F" if order == "C" else "C")
        y = 14.0 + seeded_rng(22, "obs").standard_normal(50)
        pairs = [(x[:1000], x_prime[1000:])] + [(x[i:i + 2], x_prime[i + 2:i + 4]) for i in range(0, 2000, 4)]
        got = [energy_score(a, b, y) for a, b in pairs]
        assert _bits(got) == _bits([allocating_energy_score(a, b, y) for a, b in pairs])

    def assert_median_matches_reference(self, x, got):
        # the expanded-norm Weiszfeld step sums in another order than the
        # direct norms, so the median agrees to 1e-10, not bit for bit
        want = allocating_spatial_median(x)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

        def total_distance(c):
            return np.linalg.norm(x - c, axis=1).sum()

        assert total_distance(got) <= total_distance(want) * (1.0 + 1e-12)

    def test_spatial_median(self, order):
        x = self.fields(order)
        self.assert_median_matches_reference(x, spatial_median(x))

    def test_spatial_median_through_on_point_step(self, order):
        # the mean is exactly the first point (dyadic offsets cancel in the
        # sum), but the unit directions do not cancel, so the iteration takes
        # the shift step off that point and then carries on
        rng = seeded_rng(23, "onpoint")
        c = 15.0 + rng.integers(-5, 6, 50)
        v = rng.integers(1, 41, (666, 50)) * rng.choice([-1.0, 1.0], (666, 50)) / 8.0
        x = _in_layout(np.vstack([c, c + 2.0 * v, c - v, c - v]), order)
        assert np.linalg.norm(x - x.mean(axis=0), axis=1).min() < 1e-12
        got = spatial_median(x)
        assert not np.array_equal(got, c)
        self.assert_median_matches_reference(x, got)

    def test_spatial_median_on_repeated_field(self, order):
        # four copies of one field outweigh six others, so the iterates close
        # in on it, where the expanded squared distances of the copies cancel
        # to rounding and are recomputed directly
        rng = seeded_rng(25, "repeated")
        c = 15.0 + 3.0 * rng.standard_normal(50)
        x = _in_layout(np.vstack([np.repeat(c[None], 4, axis=0), c + 5.0 * rng.standard_normal((6, 50))]), order)
        self.assert_median_matches_reference(x, spatial_median(x))

    def test_spatial_median_far_from_origin(self, order):
        # fields near 1e4: without centring, |x|^2 - 2 x.y + |y|^2 cancels
        # from about 5e9 down to squared distances near 1e3 and moves the
        # median by 2e-10; centred, only the 9e-13 rounding of the shifted
        # inputs remains
        x = self.fields(order)
        got = spatial_median(x + 1e4) - 1e4
        np.testing.assert_allclose(got, allocating_spatial_median(x), rtol=0.0, atol=1e-11)


class TestMixtureMoments:
    def test_two_component_hand_case(self):
        w = np.array([0.5, 0.5])
        means = np.array([[0.0, 0.0], [2.0, 2.0]])
        covs = np.stack([np.eye(2), np.eye(2)])
        mu, cov = mixture_moments(w, means, covs)
        np.testing.assert_allclose(mu, [1.0, 1.0])
        np.testing.assert_allclose(cov, np.eye(2) + np.ones((2, 2)))

    def test_single_component_passthrough(self):
        w = np.array([1.0])
        means = np.array([[1.0, -1.0]])
        covs = np.array([[[2.0, 0.3], [0.3, 1.0]]])
        mu, cov = mixture_moments(w, means, covs)
        np.testing.assert_allclose(mu, means[0])
        np.testing.assert_allclose(cov, covs[0])

    def test_matches_monte_carlo(self):
        rng = seeded_rng(8, "mm")
        w = np.array([0.3, 0.7])
        means = np.array([[0.0, 1.0], [3.0, -1.0]])
        covs = np.stack([np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])])
        mu, cov = mixture_moments(w, means, covs)
        comp = rng.choice(2, size=200_000, p=w)
        chols = [np.linalg.cholesky(c) for c in covs]
        draws = np.array(
            [means[c] + chols[c] @ rng.standard_normal(2) for c in comp]
        )
        np.testing.assert_allclose(draws.mean(axis=0), mu, atol=0.02)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.04)


class TestPitAndRanks:
    def test_pit_gaussian(self):
        d = GaussianPredictive(1.0, 4.0)
        assert pit(d, 1.0) == pytest.approx(0.5)
        assert pit(d, 1.0 + 1.96 * 2.0) == pytest.approx(0.975, abs=1e-4)

    def test_pit_accepts_callable(self):
        assert pit(lambda x: min(max(x, 0.0), 1.0), 0.3) == pytest.approx(0.3)

    def test_rank_extremes(self):
        rng = seeded_rng(9, "vr")
        members = np.array([1.0, 2.0, 3.0])
        assert verification_rank(members, -5.0, rng) == 1
        assert verification_rank(members, 9.0, rng) == 4

    def test_rank_ties_randomized_uniformly(self):
        counts = np.zeros(4)
        for s in range(4000):
            r = verification_rank(np.zeros(3), 0.0, seeded_rng(s, "tie"))
            counts[r - 1] += 1
        freq = counts / counts.sum()
        np.testing.assert_allclose(freq, 0.25, atol=0.03)

    def test_calibrated_gaussian_pit_uniform(self):
        rng = seeded_rng(10, "pit")
        d = GaussianPredictive(0.0, 1.0)
        vals = [pit(d, float(y)) for y in rng.standard_normal(3000)]
        hist = pit_histogram(vals, n_bins=10)
        np.testing.assert_allclose(hist.frequencies(), 0.1, atol=0.03)


class TestBandDepth:
    def test_one_dimensional_hand_case(self):
        vecs = np.array([[0.0], [-1.0], [1.0]])
        pre = band_depth_preranks(vecs, seeded_rng(0, "bd"))
        np.testing.assert_array_equal(pre, [3.0, 2.0, 2.0])
        assert band_depth_rank(vecs, seeded_rng(0, "bd"), 0) == 3

    def test_matches_pairwise_double_sum(self):
        rng = seeded_rng(11, "bd2")
        for d, n in [(1, 5), (2, 6), (3, 4), (4, 7)]:
            vecs = rng.normal(size=(n, d))
            pre = band_depth_preranks(vecs, seeded_rng(0, "x"))
            for i in range(n):
                brute = 0.0
                for j in range(n):
                    for k in range(j + 1, n):
                        if i in (j, k):
                            brute += 1.0
                            continue
                        inside = sum(
                            min(vecs[j, c], vecs[k, c]) <= vecs[i, c] <= max(vecs[j, c], vecs[k, c])
                            for c in range(d)
                        )
                        brute += inside / d
                assert pre[i] == pytest.approx(brute, abs=1e-10)

    def test_preranks_match_a_loop_over_coordinates(self):
        vecs = np.round(seeded_rng(6, "bd4").normal(size=(21, 30)), 1)  # ties in most coordinates
        rng, loop = seeded_rng(0, "bd"), seeded_rng(0, "bd")
        ranks = [tie_broken_ranks(vecs[:, k], loop) for k in range(30)]
        want = sum((21 - r) * (r - 1.0) for r in ranks) / 30 + 20.0
        np.testing.assert_array_equal(band_depth_preranks(vecs, rng), want)
        assert rng.random() == loop.random()

    def test_tie_randomization_is_reproducible(self):
        vecs = np.zeros((4, 2))
        a = band_depth_preranks(vecs, seeded_rng(5, "t"))
        b = band_depth_preranks(vecs, seeded_rng(5, "t"))
        np.testing.assert_array_equal(a, b)

    def test_outlying_observation_gets_extreme_rank(self):
        rng = seeded_rng(12, "bd3")
        vecs = np.vstack([np.full((1, 3), 50.0), rng.normal(size=(20, 3))])
        rank = band_depth_rank(vecs, rng, 0)
        assert rank <= 2  # far outside every band


class TestHistograms:
    def test_pit_histogram_counts(self):
        hist = pit_histogram([0.05, 0.95, 0.51, 1.0], n_bins=2)
        np.testing.assert_array_equal(hist.counts, [1, 3])
        assert hist.total == 4

    def test_rank_histogram_counts(self):
        hist = rank_histogram([1, 1, 4, 2], n_ranks=4)
        np.testing.assert_array_equal(hist.counts, [2, 1, 0, 1])

    def test_rank_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rank_histogram([0], n_ranks=3)
        with pytest.raises(ValueError):
            rank_histogram([5], n_ranks=3)

    def test_reliability_index_uniform_is_zero(self):
        hist = Histogram(np.full(10, 7), 70)
        assert reliability_index(hist) == pytest.approx(0.0)

    def test_reliability_index_degenerate_hand_value(self):
        # everything in one of 21 bins: |1 - 1/21| + 20/21 = 40/21
        counts = np.zeros(21, dtype=int)
        counts[0] = 55
        assert reliability_index(Histogram(counts, 55)) == pytest.approx(40.0 / 21.0)

    def test_csv_round_trip(self, tmp_path):
        hist = pit_histogram([0.1, 0.2, 0.9], n_bins=5)
        p = tmp_path / "h.csv"
        histogram_to_csv(hist, p)
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin", "count"]
        assert [[int(b), int(c)] for b, c in rows[1:]] == [[1, 1], [2, 1], [3, 0], [4, 0], [5, 1]]
        assert sum(int(c) for _, c in rows[1:]) == hist.total


class TestIntervalsAndErrors:
    def test_default_interval_reference_width(self):
        d = GaussianPredictive(0.0, 1.0)
        covered, width = interval_coverage_width(d, 0.0)
        assert covered
        assert width == pytest.approx(2 * HALF_WIDTH_19_21, abs=1e-9)
        outside, _ = interval_coverage_width(d, 1.7)
        assert not outside

    def test_ensemble_range_coverage(self):
        covered, width = ensemble_range_coverage([1.0, 5.0, 3.0], 3.5)
        assert covered and width == pytest.approx(4.0)
        covered, _ = ensemble_range_coverage([1.0, 5.0], 6.0)
        assert not covered

    def test_mae_rmse_hand_case(self):
        mae, rmse = mae_rmse([1.0, 2.0], [1.5, 2.5], [2.0, 2.0])
        assert mae == pytest.approx(0.5)  # |1-2|, |2-2| -> mean 0.5 on medians
        assert rmse == pytest.approx(np.sqrt((0.25 + 0.25) / 2))


class TestTempDifference:
    def test_hand_case(self):
        pi = GaussianPredictive(1.0, 1.0)
        pj = GaussianPredictive(0.5, 2.25)
        assert temp_difference_pit(pi, pj, 0.4, 0.2) == pytest.approx(TDP_HAND, abs=1e-12)

    def test_perfect_correlation_equal_scales_rejected(self):
        pi = GaussianPredictive(0.0, 1.0)
        pj = GaussianPredictive(1.0, 1.0)
        with pytest.raises(ValueError):
            temp_difference_pit(pi, pj, 1.0, 0.0)

    def test_mad_from_half(self):
        grid = np.linspace(0.0, 1.0, 20001)
        assert mad_from_half(grid) == pytest.approx(0.25, abs=1e-4)
        assert mad_from_half([0.5, 0.5]) == 0.0


class TestCompositeAndThreshold:
    def test_composite_minimum_subset(self):
        fields = np.array([[1.0, 5.0, 3.0], [4.0, 2.0, 6.0]])
        sample = ForecastFieldSample(("A", "B", "C"), fields, "independent")
        np.testing.assert_array_equal(composite_minimum(sample), [1.0, 2.0])
        np.testing.assert_array_equal(composite_minimum(sample, ["B", "C"]), [3.0, 2.0])

    def test_composite_minimum_over_every_station_copies_no_columns(self):
        # fields[:, cols] copied the 8 MB array for the default region, the whole station order
        fields = np.random.default_rng(0).normal(12.0, 4.0, (10_000, 100))
        sample = ForecastFieldSample(tuple(f"S{j}" for j in range(100)), fields, "grf-spatial")
        want = fields[:, np.arange(100)].min(axis=1)  # the copy's minima
        for subset in (None, list(sample.station_order)):
            tracemalloc.start()
            try:
                got = composite_minimum(sample, subset)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got.tobytes() == want.tobytes()
            assert peak <= 1 << 20

    def test_composite_minimum_unknown_station(self):
        sample = ForecastFieldSample(("A",), np.zeros((2, 1)), "independent")
        with pytest.raises(KeyError):
            composite_minimum(sample, ["Z"])

    def test_threshold_prob_and_brier(self):
        assert threshold_prob([1.0, 2.0, 3.0, 4.0], 2.5) == pytest.approx(0.5)
        assert brier_score(0.7, 1.0, 2.0) == pytest.approx((0.7 - 1.0) ** 2)
        assert brier_score(0.7, 3.0, 2.0) == pytest.approx(0.49)


class TestScoreTable:
    def test_round_trip(self, tmp_path):
        table = ScoreTable()
        table.add("2024-01-01", "all", "ngr+", "crps", 0.123456789012345)
        table.add("2024-01-02", "field", "raw", "es", 2.5)
        p = tmp_path / "scores.csv"
        table.write_csv(p)
        back = ScoreTable.read_csv(p)
        assert back.rows == table.rows

    def test_values_filter(self):
        table = ScoreTable()
        table.add("d1", "all", "m", "crps", 1.0)
        table.add("d2", "all", "m", "crps", 3.0)
        table.add("d1", "all", "m", "mae", 9.0)
        np.testing.assert_array_equal(table.values("m", "crps"), [1.0, 3.0])
