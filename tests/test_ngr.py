import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from enspost.core import GaussianPredictive, Station, StationSet, impute
from enspost.ngr import (
    NgrPlusParams,
    crps_gaussian,
    fit_ngr_c,
    fit_ngr_plus,
    interpolate_ngr_c,
    predict_ngr_c,
    predict_ngr_plus,
)
from enspost.synth import NgrPlusTruth, SynthSpec, generate
from tests.conftest import brute_force_crps, last_window, make_dataset

# mpmath references, 30 digits
CRPS_STD_AT_0 = 0.23369497725510907
CRPS_N12_AT_03 = 0.56414513221810564
CRPS_TIGHT = 2.7179052083824788


class TestCrpsGaussian:
    def test_reference_values(self):
        assert crps_gaussian(GaussianPredictive(0, 1), 0.0) == pytest.approx(CRPS_STD_AT_0, abs=1e-14)
        assert crps_gaussian(GaussianPredictive(1, 4), 0.3) == pytest.approx(CRPS_N12_AT_03, abs=1e-13)
        assert crps_gaussian(GaussianPredictive(-2, 0.25), 1.0) == pytest.approx(CRPS_TIGHT, abs=1e-13)

    def test_matches_brute_force_integration(self):
        cases = [(0.0, 1.0, 0.0), (1.0, 4.0, 0.3), (-2.0, 0.25, 1.0), (5.0, 0.01, 5.2)]
        for mu, var, y in cases:
            d = GaussianPredictive(mu, var)
            assert crps_gaussian(d, y) == pytest.approx(brute_force_crps(d, y), abs=1e-6)

    def test_far_tail_approaches_absolute_error(self):
        # for |y - mu| >> sigma the score approaches |y - mu| - sigma/sqrt(pi)
        d = GaussianPredictive(0.0, 1.0)
        assert crps_gaussian(d, 40.0) == pytest.approx(40.0 - 1.0 / np.sqrt(np.pi), abs=1e-9)

    @given(
        st.floats(min_value=-20, max_value=20),
        st.floats(min_value=0.01, max_value=25.0),
        st.floats(min_value=-30, max_value=30),
    )
    def test_positive_and_scales(self, mu, var, y):
        val = crps_gaussian(GaussianPredictive(mu, var), y)
        assert val > 0
        # scale equivariance: crps(N(k*mu, k^2 var), k*y) = k * crps(N(mu, var), y)
        k = 2.5
        scaled = crps_gaussian(GaussianPredictive(k * mu, k * k * var), k * y)
        assert scaled == pytest.approx(k * val, rel=1e-9)


class TestEnsembleSummary:
    def test_impute_members_fills_row_mean(self):
        filled, s2, count = impute(np.array([1.0, np.nan, 3.0]))
        np.testing.assert_allclose(filled, [1.0, 2.0, 3.0])
        assert s2 == pytest.approx(2.0)  # var of available members, ddof=1
        assert count == 2


def _spec_example_dataset(seed=0):
    """50 stations x 26 days, y = 1 + 0.5 f1 + 0.5 f2 + N(0, 1 + 0.2 S^2)."""
    spec = SynthSpec(
        n_stations=50,
        n_days=26,
        n_members=2,
        truth=NgrPlusTruth(a=1.0, b=(0.5, 0.5), c=1.0, d=0.2),
        theta=1.0,
        seed=seed,
        base_temp=0.0,
        member_bias_sd=0.8,
        spread_cycle=(0.5, 2.0),
    )
    return generate(spec)


class TestFitNgrPlus:
    def test_parameter_recovery_within_15_percent(self):
        data = _spec_example_dataset(seed=11)
        params = fit_ngr_plus(data, last_window(data))
        assert params.converged
        assert params.a == pytest.approx(1.0, rel=0.15)
        assert params.b[0] + params.b[1] == pytest.approx(1.0, rel=0.15)
        assert params.c == pytest.approx(1.0, rel=0.15)
        assert params.d == pytest.approx(0.2, rel=0.15, abs=0.03)

    def test_never_worse_than_init(self):
        data = _spec_example_dataset(seed=3)
        window = last_window(data)
        init = NgrPlusParams(0.0, np.sqrt([0.5, 0.5]), 1.0, 1.0)  # the fit's start: a = 0, beta = sqrt(1/M)
        fitted = fit_ngr_plus(data, window)
        base = _window_objective(init, data, window)
        assert fitted.objective <= base + 1e-12

    def test_member_permutation_invariance(self):
        data = _spec_example_dataset(seed=5)
        flipped = type(data)(
            data.stations, data.days, data.forecasts[:, :, ::-1], data.observations
        )
        w = last_window(data)
        p1 = fit_ngr_plus(data, w)
        p2 = fit_ngr_plus(flipped, w)
        assert p2.objective == pytest.approx(p1.objective, abs=1e-6)
        assert p2.b[::-1] == pytest.approx(p1.b, abs=1e-3)

    def test_variance_coefficients_nonnegative(self):
        data = make_dataset(n_days=30, n_stations=10, n_members=3, seed=9)
        params = fit_ngr_plus(data, last_window(data))
        assert params.c >= 0 and params.d >= 0
        assert np.all(params.b >= 0)

    def test_predict_uses_spread(self):
        params = NgrPlusParams(1.0, np.sqrt([0.5, 0.5]), np.sqrt(2.0), np.sqrt(0.3))
        dist = predict_ngr_plus(params, np.array([10.0, 14.0]))
        assert dist.mean == pytest.approx(1.0 + 0.5 * 10 + 0.5 * 14)
        s2 = np.var([10.0, 14.0], ddof=1)
        assert dist.variance == pytest.approx(2.0 + 0.3 * s2)

    def test_predict_imputes_missing_member(self):
        params = NgrPlusParams(0.0, np.sqrt([0.5, 0.5]), 1.0, 1.0)
        dist = predict_ngr_plus(params, np.array([10.0, np.nan]))
        assert dist.mean == pytest.approx(10.0)  # missing member reuses the mean


def _window_objective(params, data, window) -> float:
    total, count = 0.0, 0
    for day in window.training_days:
        t = data.day_index(day)
        for s in range(data.n_stations):
            y = data.observations[t, s]
            if not np.isfinite(y):
                continue
            fc = data.forecasts[t, s]
            if np.isfinite(fc).sum() < 2:
                continue
            total += crps_gaussian(predict_ngr_plus(params, fc), float(y))
            count += 1
    return total / count


class TestFitNgrC:
    def make_data(self, seed=0):
        spec = SynthSpec(
            n_stations=40,
            n_days=26,
            n_members=3,
            truth=NgrPlusTruth(a=0.0, b=(1 / 3, 1 / 3, 1 / 3), c=0.5, d=0.5),
            theta=1.0,
            seed=seed,
        )
        return generate(spec)

    def test_fit_produces_climatology_per_station(self):
        data = self.make_data()
        params = fit_ngr_c(data, last_window(data))
        assert set(params.station_ids) == set(data.stations.ids)
        assert params.converged
        for xi2 in params.xi2:
            assert xi2 > 0

    def test_prediction_centers_on_climatology_plus_anomaly(self):
        data = self.make_data()
        window = last_window(data)
        params = fit_ngr_c(data, window)
        k = params.station_ids.index(data.stations.ids[0])
        ybar, fbar, xi2 = params.ybar[k], params.fbar[k], params.xi2[k]
        fc = np.array([fbar[0] + 1.0, fbar[1] + 1.0, fbar[2] + 1.0])
        dist = predict_ngr_c(params, k, fc)
        want_mean = ybar + float(np.dot(params.b, fc - fbar))
        assert dist.mean == pytest.approx(want_mean, abs=1e-12)
        s2 = float(np.var(fc, ddof=1))
        assert dist.variance == pytest.approx(params.c * xi2 + params.d * s2, abs=1e-12)

    def test_station_with_too_few_observations_excluded(self):
        data = self.make_data()
        obs = np.array(data.observations)
        obs[:-1, 0] = np.nan  # station 1 keeps a single usable day
        broken = type(data)(data.stations, data.days, data.forecasts, obs)
        params = fit_ngr_c(broken, last_window(broken))
        assert data.stations.ids[0] not in params.station_ids
        _, rows = interpolate_ngr_c(params, data.stations)
        assert rows[0] == len(params.station_ids)  # predicting there takes an interpolated row

    def test_interpolation_inverse_distance_squared(self):
        data = self.make_data()
        params = fit_ngr_c(data, last_window(data))
        target = Station("NEW", 250.0, 250.0)
        wide, rows = interpolate_ngr_c(params, StationSet([*data.stations, target]))
        d = np.array([np.hypot(st.x - 250.0, st.y - 250.0) for st in data.stations])
        w = 1.0 / d**2
        w /= w.sum()
        want_ybar = float(sum(wi * params.ybar[k] for wi, k in zip(w, rows[:-1])))
        assert wide.ybar[rows[-1]] == pytest.approx(want_ybar, abs=1e-10)

    def test_interpolation_at_station_returns_its_climatology(self):
        data = self.make_data()
        params = fit_ngr_c(data, last_window(data))
        st0 = data.stations[0]
        wide, rows = interpolate_ngr_c(params, StationSet([*data.stations, Station("COPY", st0.x, st0.y)]))
        assert wide.ybar[rows[-1]] == pytest.approx(params.ybar[rows[0]])

    def test_interpolated_bits_do_not_depend_on_how_many_are_filled(self):
        data = self.make_data()
        params = fit_ngr_c(data, last_window(data))
        targets = [Station("NEW1", 250.0, 250.0), Station("NEW2", 100.0, 400.0), Station("NEW3", 420.0, 30.0)]
        wide, rows = interpolate_ngr_c(params, StationSet([*data.stations, *targets]))
        for j, target in enumerate(targets):
            alone, alone_rows = interpolate_ngr_c(params, StationSet([*data.stations, target]))
            k, k_alone = rows[data.n_stations + j], alone_rows[-1]
            assert wide.ybar[k] == alone.ybar[k_alone] and wide.xi2[k] == alone.xi2[k_alone]
            assert wide.fbar[k].tolist() == alone.fbar[k_alone].tolist()
