import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enspost.core import Station, StationSet, seeded_rng
from enspost.spatial import (
    VariogramBin,
    build_correlation_matrix,
    build_spatial_ngr,
    cholesky_with_jitter,
    empirical_variogram,
    fit_variogram,
    sample_fields,
    standardize_errors,
    variogram_model,
)
from tests.conftest import (
    allocating_grf_fields,
    last_window,
    make_dataset,
    make_stations,
    multistart_fit_variogram,
    pairloop_empirical_variogram,
)

# theta=0.3, r=100, d=100: 0.7(1 - e^-1) + 0.3 and 0.7 e^-1, mpmath 30 digits
GAMMA_EXAMPLE = 0.74248439117999059
CORR_EXAMPLE = 0.25751560882000941


def pair_correlation(theta, r, d):
    """rho(d) as build_correlation_matrix gives it for two stations d km apart."""
    return build_correlation_matrix((theta, r), StationSet([Station("A", 0.0, 0.0), Station("B", d, 0.0)]))[0, 1]


class TestVariogramModel:
    def test_reference_value(self):
        assert variogram_model(0.3, 100.0, 100.0) == pytest.approx(GAMMA_EXAMPLE, abs=1e-14)
        assert pair_correlation(0.3, 100.0, 100.0) == pytest.approx(CORR_EXAMPLE, abs=1e-14)

    def test_same_site(self):
        assert variogram_model(0.3, 100.0, 0.0, same_site=True) == 0.0
        assert build_correlation_matrix((0.3, 100.0), StationSet([Station("A", 0.0, 0.0)]))[0, 0] == 1.0

    def test_sill_reached(self):
        assert variogram_model(0.3, 100.0, 5000.0) == pytest.approx(1.0, abs=1e-12)

    def test_nugget_at_vanishing_distance(self):
        # different sites an epsilon apart keep the discontinuity
        assert variogram_model(0.3, 100.0, 1e-12) == pytest.approx(0.3, abs=1e-9)
        assert pair_correlation(0.0, 100.0, 1e-12) == pytest.approx(1.0, abs=1e-9)
        assert pair_correlation(0.3, 100.0, 1e-12) == pytest.approx(0.7, abs=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1.0, max_value=2000.0),
        st.floats(min_value=0.0, max_value=5000.0),
    )
    def test_gamma_plus_correlation_is_one(self, theta, r, d):
        g = variogram_model(theta, r, d)
        c = pair_correlation(theta, r, d)
        assert g + c == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= g <= 1.0


class TestStandardizeErrors:
    def test_hand_case(self):
        data = make_dataset(n_days=8, n_stations=3, n_members=4, seed=2)
        window = last_window(data, 6)
        mu = np.zeros((6, 3))
        sigma = np.full((6, 3), 2.0)
        panel = standardize_errors(data, window, mu, sigma)
        assert panel.shape == (6, 3)
        t0 = data.day_index(window.training_days[0])
        assert panel[0, 0] == pytest.approx(data.observations[t0, 0] / 2.0)

    def test_missing_observation_propagates_nan(self):
        data = make_dataset(n_days=8, n_stations=3, n_members=4, seed=2)
        obs = np.array(data.observations)
        obs[1, 2] = np.nan
        data2 = type(data)(data.stations, data.days, data.forecasts, obs)
        window = last_window(data2, 6)
        panel = standardize_errors(data2, window, np.zeros((6, 3)), np.ones((6, 3)))
        day_pos = window.training_days.index(data2.days[1])
        assert np.isnan(panel[day_pos, 2])


class TestEmpiricalVariogram:
    def test_equal_count_bins(self):
        stations = make_stations(10, seed=4)
        rng = seeded_rng(0, "ev")
        panel = rng.standard_normal((30, 10))
        bins = empirical_variogram(panel, stations, n_bins=5)
        assert len(bins) == 5
        counts = [b.n_pairs for b in bins]
        assert sum(counts) == 45
        assert max(counts) - min(counts) <= 1
        dists = [b.distance_km for b in bins]
        assert dists == sorted(dists)

    def test_iid_errors_have_unit_semivariance(self):
        stations = make_stations(30, seed=5)
        rng = seeded_rng(1, "ev2")
        panel = rng.standard_normal((4000, 30))
        bins = empirical_variogram(panel, stations, n_bins=10)
        for b in bins:
            assert b.gamma == pytest.approx(1.0, abs=0.08)

    def test_fewer_pairs_than_bins_warns(self):
        stations = make_stations(3, seed=6)
        panel = seeded_rng(0, "x").standard_normal((1, 3))
        with pytest.warns(UserWarning, match="pairs"):
            bins = empirical_variogram(panel, stations, n_bins=20)
        assert len(bins) == 3

    @pytest.mark.parametrize("shape", [(30, 9), (30,), (30, 10, 1)])
    def test_panel_that_is_not_days_by_stations_is_refused(self, shape):
        with pytest.raises(ValueError, match=r"not \(days, 10 stations\)"):
            empirical_variogram(np.zeros(shape), make_stations(10, seed=4))

    def test_gram_sums_match_pair_loop_on_gapped_panel(self):
        # S13 sits on S1, so pairs tie in distance; S1 and S2 are never
        # present on the same day, so that pair drops out
        base = make_stations(12, seed=12)
        stations = StationSet(list(base) + [Station("S13", base[0].x, base[0].y)])
        rng = seeded_rng(12, "gapped")
        values = rng.standard_normal((30, 13)) + rng.standard_normal((30, 1))
        values[rng.random(values.shape) < 0.2] = np.nan
        values[0::2, 0] = np.nan
        values[1::2, 1] = np.nan
        got = empirical_variogram(values, stations, n_bins=7)
        want = pairloop_empirical_variogram(values, stations, n_bins=7)
        assert sum(b.n_pairs for b in got) == 13 * 12 // 2 - 1
        assert [(b.distance_km, b.n_pairs) for b in got] == [(b.distance_km, b.n_pairs) for b in want]
        np.testing.assert_allclose([b.gamma for b in got], [b.gamma for b in want], rtol=1e-12, atol=0.0)

    def test_near_identical_series_keep_nonnegative_semivariance(self):
        # S1 and S2 share a spot and their errors differ by 1e-9: the Gram
        # sums cancel to a rounding error of about 1e-12, negative on this seed
        stations = StationSet([Station("S1", 0.0, 0.0), Station("S2", 0.0, 0.0), Station("S3", 50.0, 0.0)])
        rng = seeded_rng(5, "twins")
        values = 10.0 * rng.standard_normal((25, 3))
        values[:, 1] = values[:, 0] + 1e-9 * rng.standard_normal(25)
        twins = empirical_variogram(values, stations, n_bins=3)[0]
        assert twins.distance_km == 0.0 and twins.n_pairs == 1
        assert 0.0 <= twins.gamma < 1e-12


class TestFitVariogram:
    def test_noise_free_forward_recovery(self):
        # bins evaluated exactly on the model curve: fit must sit on the truth
        theta, r = 0.2, 150.0
        dists = np.linspace(10, 500, 20)
        bins = [
            VariogramBin(float(d), float(variogram_model(theta, r, d)), 50) for d in dists
        ]
        fit = fit_variogram(bins)
        assert fit.theta == pytest.approx(theta, rel=0.01)
        assert fit.range_km == pytest.approx(r, rel=0.01)
        assert not fit.degenerate

    def test_noise_free_recovery_other_corner(self):
        theta, r = 0.7, 60.0
        dists = np.linspace(5, 300, 20)
        bins = [
            VariogramBin(float(d), float(variogram_model(theta, r, d)), 30) for d in dists
        ]
        fit = fit_variogram(bins)
        assert fit.theta == pytest.approx(theta, rel=0.01)
        assert fit.range_km == pytest.approx(r, rel=0.01)

    def test_pure_nugget_is_degenerate_flagged_or_theta_one(self):
        # flat gamma = 1 at all distances carries no range information
        bins = [VariogramBin(float(d), 1.0, 40) for d in np.linspace(20, 400, 15)]
        fit = fit_variogram(bins)
        assert fit.theta > 0.9 or fit.degenerate

    def test_grf_panel_end_to_end_recovery(self):
        theta, r = 0.3, 120.0
        stations = make_stations(60, seed=7)
        corr = build_correlation_matrix((theta, r), stations)
        chol = np.linalg.cholesky(corr)
        rng = seeded_rng(3, "grf-panel")
        vals = rng.standard_normal((1500, 60)) @ chol.T
        fit = fit_variogram(empirical_variogram(vals, stations))
        assert fit.theta == pytest.approx(theta, abs=0.06)
        assert fit.range_km == pytest.approx(r, rel=0.25)

    @pytest.mark.parametrize("seed, theta, r", [
        (0, 0.1, 60.0), (1, 0.3, 120.0), (2, 0.5, 250.0), (3, 0.7, 40.0), (4, 0.05, 300.0),
        (8, 0.3, 5000.0),  # the fitted range sits on its upper bound, r_max
        (10, 0.0, 40.0),  # the fitted theta sits on its lower bound, 1e-6
    ])
    def test_grid_search_matches_multistart_descent(self, seed, theta, r):
        rng = seeded_rng(seed, "grid-vs-descent")
        stations = make_stations(40, seed=seed)
        chol = np.linalg.cholesky(build_correlation_matrix((theta, r), stations))
        vals = rng.standard_normal((25, 40)) @ chol.T
        vals[rng.random(vals.shape) < 0.05] = np.nan
        bins = empirical_variogram(vals, stations)
        got, want = fit_variogram(bins), multistart_fit_variogram(bins)
        assert not got.degenerate and not want.degenerate
        assert got.objective <= want.objective * (1.0 + 1e-12)
        assert got.theta == pytest.approx(want.theta, abs=1e-6)
        assert got.range_km == pytest.approx(want.range_km, rel=1e-5)

    def test_flat_fit_ties_to_pure_nugget_at_floor_range(self):
        # errors with variance 1.7 put every bin above the sill of 1: the best
        # fit is gamma = 1 everywhere, reached at the floor range for any theta
        stations = make_stations(30, seed=13)
        vals = 1.3 * seeded_rng(13, "flat").standard_normal((25, 30))
        bins = empirical_variogram(vals, stations)
        fit = fit_variogram(bins, r_max=stations.max_distance())
        assert fit.degenerate
        assert fit.theta == pytest.approx(1.0 - 1e-6, rel=1e-12)
        assert fit.range_km == pytest.approx(stations.max_distance() * 1e-4, rel=1e-9)


class TestCorrelationMatrix:
    def test_pure_nugget_gives_identity(self):
        stations = make_stations(6, seed=8)
        np.testing.assert_allclose(build_correlation_matrix((1.0, 100.0), stations), np.eye(6))

    def test_entries_match_model(self):
        stations = make_stations(5, seed=9)
        corr = build_correlation_matrix((0.3, 100.0), stations)
        d = stations.pairwise_distances()
        for i in range(5):
            for j in range(5):
                want = 1.0 if i == j else 1.0 - variogram_model(0.3, 100.0, d[i, j])
                assert corr[i, j] == pytest.approx(want, abs=1e-14)

    def test_positive_definite_for_positive_nugget(self):
        stations = make_stations(40, seed=10)
        corr = build_correlation_matrix((0.05, 300.0), stations)
        assert np.linalg.eigvalsh(corr).min() > 0


class TestCholeskyJitter:
    def test_pd_matrix_needs_no_jitter(self):
        m = np.array([[2.0, 0.5], [0.5, 1.0]])
        chol, jitter = cholesky_with_jitter(m)
        assert jitter == 0.0
        np.testing.assert_allclose(chol @ chol.T, m, atol=1e-12)

    def test_semidefinite_matrix_gets_small_jitter(self):
        v = np.array([1.0, 1.0, 1.0])
        m = np.outer(v, v)  # rank one
        chol, jitter = cholesky_with_jitter(m)
        assert 0 < jitter <= 1e-6
        np.testing.assert_allclose(chol @ chol.T, m + jitter * np.eye(3), atol=1e-9)

    def test_hard_indefinite_raises(self):
        m = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_with_jitter(m)


class TestSampling:
    def test_sample_moments_match_target(self):
        stations = StationSet(
            [Station("A", 0, 0), Station("B", 50, 0), Station("C", 0, 120), Station("D", 200, 200)]
        )
        corr = build_correlation_matrix((0.2, 150.0), stations)
        mu = np.array([1.0, 2.0, 3.0, 4.0])
        sigma = np.array([1.0, 0.5, 2.0, 1.5])
        pred = build_spatial_ngr(mu, sigma, corr, stations.ids)
        want_cov = pred.covariance()
        n = 200_000
        sample = sample_fields(pred, n, seeded_rng(0, "fields"))
        assert sample.provenance == "grf-spatial"
        assert sample.fields.shape == (n, 4)
        got_mean = sample.fields.mean(axis=0)
        got_cov = np.cov(sample.fields.T)
        se_mean = sigma / np.sqrt(n)
        assert np.all(np.abs(got_mean - mu) < 4 * se_mean)
        for i in range(4):
            for j in range(4):
                se = np.sqrt(
                    (want_cov[i, i] * want_cov[j, j] + want_cov[i, j] ** 2) / n
                )
                assert abs(got_cov[i, j] - want_cov[i, j]) < 4 * se

    def test_fields_equal_allocating_arithmetic(self):
        stations = make_stations(50, seed=4)
        corr = build_correlation_matrix((0.2, 150.0), stations)
        rng = seeded_rng(4, "moments")
        pred = build_spatial_ngr(12.0 + 4.0 * rng.standard_normal(50), rng.uniform(0.5, 3.0, 50), corr, stations.ids)
        got = sample_fields(pred, 2000, seeded_rng(4, "fields")).fields
        want = np.array(allocating_grf_fields(pred, 2000, seeded_rng(4, "fields")))
        assert got.tobytes() == want.tobytes()
        # the layout decides the summation order of every later row reduction
        assert got.strides == want.strides and got.flags.f_contiguous

    def test_deterministic_given_stream(self):
        stations = make_stations(3, seed=11)
        corr = build_correlation_matrix((0.5, 80.0), stations)
        pred = build_spatial_ngr(np.zeros(3), np.ones(3), corr, stations.ids)
        a = sample_fields(pred, 10, seeded_rng(7, "s"))
        b = sample_fields(pred, 10, seeded_rng(7, "s"))
        np.testing.assert_array_equal(a.fields, b.fields)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=20.0, max_value=500.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_correlation_matrix_always_choleskyable(theta, r, seed):
    stations = make_stations(12, seed=seed)
    corr = build_correlation_matrix((theta, r), stations)
    chol, jitter = cholesky_with_jitter(corr)
    assert jitter <= 1e-6
    np.testing.assert_allclose(chol @ chol.T, corr + jitter * np.eye(12), atol=1e-8)
