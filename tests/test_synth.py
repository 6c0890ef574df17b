import numpy as np
import pytest
from scipy import stats

from enspost.core import GaussianPredictive, MixturePredictive, seeded_rng
from enspost.ngr import crps_gaussian
from enspost.synth import (
    BmaTruth,
    NgrCTruth,
    NgrPlusTruth,
    SynthSpec,
    brute_force_crps,
    default_spec,
    generate,
    generate_with_truth,
    parse_synth_spec,
    underdispersive_spec,
    zero_noise_spec,
)
from enspost.verify import crps_sample, ensemble_range_coverage

CRPS_STD_AT_0 = 0.23369497725510907


class TestBruteForceCrps:
    def test_standard_gaussian_reference(self):
        got = brute_force_crps(GaussianPredictive(0.0, 1.0), 0.0, grid_step=1e-4)
        assert got == pytest.approx(CRPS_STD_AT_0, abs=1e-6)

    def test_matches_closed_form_off_center(self):
        d = GaussianPredictive(2.0, 6.25)
        assert brute_force_crps(d, -1.0) == pytest.approx(crps_gaussian(d, -1.0), abs=1e-6)

    def test_mixture_agrees_with_sampling(self):
        mix = MixturePredictive((0.3, 0.7), (-1.0, 2.0), (0.64, 0.64))
        want = brute_force_crps(mix, 0.5)
        rng = seeded_rng(0, "bf")
        draws = mix.sample(rng, 200_000)
        got = crps_sample(draws[:100_000], draws[100_000:], 0.5)
        assert got == pytest.approx(want, rel=0.005)

    def test_near_point_mass_gives_absolute_error(self):
        d = GaussianPredictive(2.0, 0.0)  # variance floored to a hair above zero
        assert brute_force_crps(d, 5.0) == pytest.approx(3.0, abs=1e-3)

    def test_observation_outside_bulk_still_integrates(self):
        d = GaussianPredictive(0.0, 1.0)
        assert brute_force_crps(d, 25.0) == pytest.approx(crps_gaussian(d, 25.0), abs=1e-5)


class TestGenerate:
    def test_deterministic_per_seed(self):
        spec = default_spec(3, n_stations=10, n_days=8)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.forecasts, b.forecasts)
        np.testing.assert_array_equal(a.observations, b.observations)
        c = generate(default_spec(4, n_stations=10, n_days=8))
        assert not np.array_equal(a.observations, c.observations)

    def test_shapes_and_labels(self):
        data = generate(default_spec(0, n_stations=7, n_days=5, n_members=4))
        assert data.forecasts.shape == (5, 7, 4)
        assert data.days[0] == "2024-01-01"
        assert data.days[-1] == "2024-01-05"
        assert len(data.stations) == 7

    def test_zero_noise_observations_equal_regression_mean(self):
        spec = zero_noise_spec(2, n_stations=6, n_days=10)
        data, truth = generate_with_truth(spec)
        np.testing.assert_array_equal(data.observations, truth.mu)
        b = np.full(spec.n_members, spec.truth.b[0])
        want = spec.truth.a + data.forecasts @ b
        np.testing.assert_allclose(data.observations, want, atol=1e-12)

    def test_pure_nugget_errors_uncorrelated(self):
        spec = default_spec(5, n_stations=200, n_days=200, theta=1.0)
        data, truth = generate_with_truth(spec)
        err = (data.observations - truth.mu) / truth.sigma
        corr = np.corrcoef(err.T)
        off = corr[np.triu_indices(200, k=1)]
        assert abs(off.mean()) < 0.02
        assert np.abs(off).mean() < 0.06

    def test_correlated_errors_decay_with_distance(self):
        spec = default_spec(6, theta=0.2, range_km=150.0, n_stations=80, n_days=300)
        data, truth = generate_with_truth(spec)
        err = (data.observations - truth.mu) / truth.sigma
        corr = np.corrcoef(err.T)
        d = data.stations.pairwise_distances()
        iu = np.triu_indices(80, k=1)
        near = corr[iu][d[iu] < 60]
        far = corr[iu][d[iu] > 400]
        assert near.mean() > 0.5
        assert abs(far.mean()) < 0.15

    def test_underdispersive_recipe_raw_coverage_below_half(self):
        data = generate(underdispersive_spec(1))
        covered = []
        for t in range(data.n_days):
            for s in range(data.n_stations):
                c, _ = ensemble_range_coverage(data.forecasts[t, s], data.observations[t, s])
                covered.append(c)
        assert np.mean(covered) < 0.5

    def test_ngrc_truth_mode(self):
        spec = SynthSpec(
            n_stations=12, n_days=30, n_members=4,
            truth=NgrCTruth(b=(0.25, 0.25, 0.25, 0.25), c=0.4, d=0.8),
            theta=1.0, seed=7,
        )
        data, truth = generate_with_truth(spec)
        assert truth.xi2 is not None
        assert truth.xi2.shape == (12,)
        assert np.all(truth.xi2 > 0)

    def test_bma_truth_component_draws(self):
        spec = SynthSpec(
            n_stations=5, n_days=400, n_members=3,
            truth=BmaTruth(a=(0.0,) * 3, b=(1.0,) * 3, weights=(0.6, 0.3, 0.1),
                           sigma2=1e-6, member_draw="per_day"),
            theta=1.0, seed=8,
        )
        data, truth = generate_with_truth(spec)
        assert truth.components is not None
        freq = np.bincount(truth.components, minlength=3) / truth.components.size
        np.testing.assert_allclose(freq, [0.6, 0.3, 0.1], atol=0.06)
        # per_day: the whole day comes from one component
        t = 0
        m = truth.components[t]
        np.testing.assert_allclose(
            data.observations[t], data.forecasts[t, :, m], atol=0.01
        )


class TestPipelineClosure:
    def test_fitted_pit_is_uniform_on_matching_truth(self):
        from enspost.ingest import rolling_windows
        from enspost.ngr import fit_ngr_plus, predict_ngr_plus
        from enspost.verify import pit

        pits = []
        for seed in (0, 1):
            spec = default_spec(seed, n_stations=30, n_days=40, theta=1.0)
            data = generate(spec)
            for window in rolling_windows(data, 25):
                params = fit_ngr_plus(data, window)
                t = data.day_index(window.target_day)
                for s in range(data.n_stations):
                    dist = predict_ngr_plus(params, data.forecasts[t, s])
                    pits.append(pit(dist, float(data.observations[t, s])))
        counts, _ = np.histogram(pits, bins=20, range=(0.0, 1.0))
        stat = ((counts - len(pits) / 20) ** 2 / (len(pits) / 20)).sum()
        p = stats.chi2.sf(stat, df=19)
        assert p > 0.01


class TestParseSpec:
    def test_dict_source_with_truth(self):
        spec = parse_synth_spec({
            "truth": "ngr+", "n_stations": "6", "n_days": "9", "n_members": "3",
            "a": "1.0", "b": "0.1,0.2,0.3", "c": "0.5", "d": "0.7",
            "theta": "0.4", "range_km": "90", "seed": "17",
        })
        assert spec.n_stations == 6
        assert isinstance(spec.truth, NgrPlusTruth)
        assert spec.truth.b == (0.1, 0.2, 0.3)
        assert spec.theta == 0.4
        assert spec.seed == 17

    def test_scalar_b_broadcasts(self):
        spec = parse_synth_spec({
            "truth": "bma", "n_stations": "4", "n_days": "5", "n_members": "3",
            "a": "0", "b": "1", "weights": "0.5,0.3,0.2", "sigma2": "1.0",
        })
        assert spec.truth.a == (0.0, 0.0, 0.0)
        assert spec.truth.b == (1.0, 1.0, 1.0)

    def test_recipe_dispatch(self):
        spec = parse_synth_spec({"recipe": "underdispersive", "seed": "5"})
        assert spec.seed == 5
        data = generate(spec)
        assert data.n_days == spec.n_days

    def test_recipe_cannot_mix_with_truth_keys(self):
        with pytest.raises(ValueError, match="recipe"):
            parse_synth_spec({"recipe": "default", "c": "1.0"})

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ValueError):
            parse_synth_spec({"truth": "ngr+", "a": "1", "b": "1", "c": "1", "d": "1"})

    def test_overrides_win(self):
        spec = parse_synth_spec({"recipe": "default", "seed": "1"}, {"seed": "9"})
        assert spec.seed == 9

    def test_file_source(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("recipe = zero-noise\nseed = 2\nn_stations = 5\n")
        spec = parse_synth_spec(p)
        assert spec.n_stations == 5
        assert spec.truth.c == 0.0 and spec.truth.d == 0.0

    def test_unknown_recipe_rejected(self):
        with pytest.raises(ValueError, match="recipe"):
            parse_synth_spec({"recipe": "nope"})
