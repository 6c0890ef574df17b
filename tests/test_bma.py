import math
import warnings

import numpy as np
import pytest

from scipy.special import logsumexp

from enspost import bma as bma_mod
import enspost.core as core_mod
from enspost.core import EnsembleDataset, GaussianPredictive, MixturePredictive, mixture_quantiles, seeded_rng
from enspost.bma import (
    BmaParams,
    _logsumexp_rows,
    fit_bma,
    fit_spatial_bma,
    predict_bma,
    sample_spatial_bma,
)
from enspost.ecc import ecc_quantiles
from enspost.ingest import rolling_windows
from enspost.ngr import crps_gaussian, crps_mixture
from enspost.spatial import build_correlation_matrix, cholesky_with_jitter
from enspost.synth import BmaTruth, SynthSpec, default_spec, generate
from enspost.verify import crps_sample
from tests.conftest import (
    allocating_em,
    assert_batch_matches_rows,
    brute_force_crps,
    last_window,
    make_dataset,
    scalar_newton,
)


def bma_dataset(seed=0, *, weights=(0.5, 0.3, 0.2), sigma2=1.0, n_days=40, n_stations=30, theta=1.0):
    spec = SynthSpec(
        n_stations=n_stations,
        n_days=n_days,
        n_members=len(weights),
        truth=BmaTruth(
            a=(0.0,) * len(weights), b=(1.0,) * len(weights), weights=weights, sigma2=sigma2
        ),
        theta=theta,
        seed=seed,
        member_bias_sd=1.2,
    )
    return generate(spec)


class TestFitBma:
    def test_recovers_weights_and_shared_variance(self):
        # members share a strong common signal (keeps the per-member OLS
        # slope near 1) and differ by enough day-to-day spread for EM to
        # tell the mixture components apart
        spec = SynthSpec(
            n_stations=100,
            n_days=26,
            n_members=2,
            truth=BmaTruth(a=(0.0, 0.0), b=(1.0, 1.0), weights=(0.7, 0.3),
                           sigma2=1.0, member_draw="per_row"),
            theta=1.0,
            seed=4,
            day_sd=8.0,
            spread_cycle=(2.0,),
            member_bias_sd=0.0,
        )
        data = generate(spec)
        params = fit_bma(data, last_window(data, 25))
        assert params.w[0] == pytest.approx(0.7, abs=0.08)
        assert params.sigma2 == pytest.approx(1.0, rel=0.10)
        assert np.all(params.b > 0.9)

    def test_identical_members_get_equal_weights(self):
        data = make_dataset(n_days=30, n_stations=10, n_members=2, seed=12)
        fc = np.array(data.forecasts)
        fc[:, :, 1] = fc[:, :, 0]
        twin = EnsembleDataset(data.stations, data.days, fc, data.observations)
        params = fit_bma(twin, last_window(twin, 25))
        assert params.w[0] == pytest.approx(0.5, abs=1e-6)
        assert params.w[1] == pytest.approx(0.5, abs=1e-6)

    def test_weights_form_simplex(self):
        data = bma_dataset(seed=1)
        params = fit_bma(data, last_window(data, 25))
        assert params.w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(params.w >= 0)

    def test_loglik_nondecreasing_in_iteration_budget(self):
        data = bma_dataset(seed=2)
        window = last_window(data, 25)
        logliks = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k in (1, 2, 3, 5, 8, 13):
                logliks.append(fit_bma(data, window, max_iter=k).loglik)
        assert all(b >= a - 1e-8 for a, b in zip(logliks, logliks[1:]))

    def test_converges_while_weights_head_to_zero(self):
        # two weights decay toward 0 here, and plain EM needs about 1,100 steps;
        # the full SQUAREM steps overshoot on every cycle, and the fit converges
        # only because the step length is moved back toward plain EM's
        data = generate(default_spec(1001))
        (window,) = [w for w in rolling_windows(data, 25) if w.target_day == "2024-01-28"]
        params = fit_bma(data, window)
        assert params.converged and params.n_iter < 100
        assert np.sort(params.w)[1] < 1e-5

    def test_single_member_fixed_point(self):
        data = make_dataset(n_days=30, n_stations=8, n_members=1, seed=3)
        window = last_window(data, 25)
        params = fit_bma(data, window)
        np.testing.assert_array_equal(params.w, [1.0])
        # closed form: sigma2 is the mean squared OLS residual
        rows_f, rows_y = [], []
        for day in window.training_days:
            t = data.day_index(day)
            rows_f.extend(data.forecasts[t, :, 0])
            rows_y.extend(data.observations[t])
        x, y = np.array(rows_f), np.array(rows_y)
        b = ((x - x.mean()) @ (y - y.mean())) / ((x - x.mean()) @ (x - x.mean()))
        a = y.mean() - b * x.mean()
        r = y - a - b * x
        assert params.sigma2 == pytest.approx(float(r @ r) / r.size, rel=1e-6)

    def test_constant_member_falls_back_to_intercept(self):
        data = make_dataset(n_days=30, n_stations=6, n_members=3, seed=5)
        fc = np.array(data.forecasts)
        fc[:, :, 1] = 7.5
        flat = EnsembleDataset(data.stations, data.days, fc, data.observations)
        with pytest.warns(UserWarning, match="constant"):
            params = fit_bma(flat, last_window(flat, 25))
        assert params.b[1] == 0.0


class TestPredictBma:
    def params(self):
        return BmaParams(
            a=np.array([0.5, -0.5]),
            b=np.array([1.0, 1.1]),
            w=np.array([0.75, 0.25]),
            sigma2=2.0,
        )

    def test_mixture_components(self):
        dist = predict_bma(self.params(), np.array([10.0, 12.0]))
        assert isinstance(dist, MixturePredictive)
        assert dist.mean == pytest.approx(0.75 * 10.5 + 0.25 * 12.7)

    def test_missing_member_renormalizes(self):
        dist = predict_bma(self.params(), np.array([10.0, np.nan]))
        assert dist.mean == pytest.approx(10.5)
        assert dist.variance == pytest.approx(2.0)

    def test_all_missing_rejected(self):
        with pytest.raises(ValueError):
            predict_bma(self.params(), np.array([np.nan, np.nan]))

    def test_batch_rows_equal_scalar_laws(self):
        # the missing member's component keeps its place at weight zero
        params = BmaParams(a=np.array([0.5, -0.5, 0.2]), b=np.array([1.0, 1.1, 0.9]),
                           w=np.array([0.5, 0.3, 0.2]), sigma2=2.0)
        fc = np.array([[10.0, 12.0, 11.0], [9.0, np.nan, 14.0], [np.nan, 8.0, np.nan], [15.0, 15.5, 13.0]])
        batch = predict_bma(params, fc)
        laws = [predict_bma(params, row) for row in fc]
        assert batch.weights[1].tolist() == pytest.approx([0.5 / 0.7, 0.0, 0.2 / 0.7], abs=1e-15)
        assert laws[2].mean == pytest.approx(-0.5 + 1.1 * 8.0)
        assert_batch_matches_rows(batch, laws, np.array([11.0, 12.0, 8.5, 14.0]), np.array([0.1, 0.5, 0.75]))


class TestMixtureRows:
    def test_rows_match_scalar_mixture(self):
        w = np.array([0.3, 0.7])
        means = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
        variances = np.full(2, 1.3**2)
        p = np.array([0.2, 0.5, 0.9])
        got = mixture_quantiles(np.tile(w, (3, 1)), means, np.sqrt(variances), p)
        assert got.tolist() == [scalar_newton(w, means[i], variances, p[i]) for i in range(3)]

    def test_quantile_rows_invert_cdf_rows(self):
        w = np.array([0.5, 0.5])
        means = np.array([[0.0, 4.0], [1.0, 1.5]])
        sigma = 0.9
        for p in (0.1, 0.5, 0.93):
            q = mixture_quantiles(np.tile(w, (2, 1)), means, sigma, np.full(2, p))
            back = [MixturePredictive(w, means[i], np.full(2, sigma**2)).cdf(q[i]) for i in range(2)]
            np.testing.assert_allclose(back, p, atol=1e-9)


def random_kernel_mixture(rng, k, n=None):
    """A mixture (or n of them) with unequal component variances and, from k = 3, a dropped member."""
    shape = (k,) if n is None else (n, k)
    w = rng.dirichlet(np.ones(k), size=n)
    if k > 2:
        w[..., 1] = 0.0
        w /= w.sum(axis=-1, keepdims=True)
    return MixturePredictive(w, rng.normal(15.0, 3.0, shape), rng.uniform(0.2, 4.0, shape) ** 2)


class TestMixtureCrps:
    @pytest.mark.parametrize("k", [1, 2, 5, 20])
    def test_matches_quadrature(self, k):
        rng = seeded_rng(k, "crps-mixture")
        for _ in range(5):
            law = random_kernel_mixture(rng, k)
            y = float(rng.normal(15.0, 5.0))
            step = float(np.sqrt(law.variances).min()) / 1000.0
            assert crps_mixture(law, y) == pytest.approx(brute_force_crps(law, y, grid_step=step), abs=1e-6)

    def test_one_component_is_gaussian(self):
        for mean, var, y in ((0.0, 1.0, 0.0), (15.0, 4.0, 13.2), (-2.0, 0.25, 1.0), (3.0, 1e-8, 3.0)):
            got = crps_mixture(MixturePredictive((1.0,), (mean,), (var,)), y)
            assert isinstance(got, float)
            assert got == pytest.approx(crps_gaussian(GaussianPredictive(mean, var), y), rel=1e-12, abs=1e-15)

    def test_batch_rows_equal_scalar_laws(self):
        rng = seeded_rng(0, "crps-batch")
        batch = random_kernel_mixture(rng, 20, n=30)
        y = rng.normal(15.0, 5.0, 30)
        laws = [MixturePredictive(*row) for row in zip(batch.weights, batch.means, batch.variances)]
        assert crps_mixture(batch, y).tolist() == [crps_mixture(law, yi) for law, yi in zip(laws, y)]

    def test_sampled_crps_within_mc_error(self):
        # acceptance criterion 2's studentized check, on mixtures
        rng = seeded_rng(1, "crps-mixture-mc")
        n_draws = 4000
        z = []
        for _ in range(100):
            law = random_kernel_mixture(rng, int(rng.integers(1, 21)))
            y = float(law.mean + law.sd * rng.uniform(-3.0, 3.0))
            x, x_prime = law.sample(rng, n_draws), law.sample(rng, n_draws)
            kernel = np.abs(x - y) - 0.5 * np.abs(x - x_prime)
            z.append((crps_sample(x, x_prime, y) - crps_mixture(law, y)) / (kernel.std(ddof=1) / np.sqrt(n_draws)))
        assert np.abs(z).max() < 3.0
        assert 0.7 < float(np.mean(np.square(z))) < 1.4

    def test_non_finite_observation_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            crps_mixture(MixturePredictive((0.5, 0.5), (0.0, 1.0), 1.0), float("nan"))


def test_ecc_quantile_table_takes_few_newton_steps(monkeypatch):
    # 100 stations x 20 ECC levels of a fitted law: besides the two bracket
    # checks, each pass over the components is one Newton step
    data = generate(default_spec(1, n_days=26))
    params = fit_bma(data, last_window(data))
    law = predict_bma(params, data.forecasts[-1])
    passes = []
    real_ndtr = core_mod.ndtr
    monkeypatch.setattr(core_mod, "ndtr", lambda z: passes.append(1) or real_ndtr(z))
    q = ecc_quantiles(law, 20)
    assert q.shape == (100, 20)
    assert len(passes) - 2 <= 8


class TestLogSumExpRows:
    def test_equals_scipy_bit_for_bit(self):
        rng = seeded_rng(0, "lse")
        for k in (1, 2, 5, 20, 33):
            a = rng.normal(-40.0, 25.0, size=(300, k))
            assert _logsumexp_rows(a, np.empty_like(a)).tolist() == logsumexp(a, axis=1).tolist()

    def test_tied_maxima_equal_scipy(self):
        rng = seeded_rng(1, "lse-ties")
        a = np.round(rng.normal(0.0, 2.0, size=(400, 6)))  # integers: many ties at the max
        a[:50] = -3.5  # whole rows tied
        a[50:100, 1] = a[50:100, 0] = a[50:100].max(axis=1)
        assert (np.sum(a == a.max(axis=1, keepdims=True), axis=1) > 1).sum() > 100
        assert _logsumexp_rows(a, np.empty_like(a)).tolist() == logsumexp(a, axis=1).tolist()


def plain_em(mu, y, sigma2, em_tol, max_iter):
    """Plain EM by bma's buffered EM step, with allocating_em's start and stopping rule."""
    step = bma_mod._em_map(mu, y)
    w = np.full(mu.shape[1], 1.0 / mu.shape[1])
    loglik_prev = -np.inf
    for n_iter in range(1, max_iter + 1):
        loglik, w_next, sigma2_next = step(w, sigma2)
        if loglik - loglik_prev < em_tol:
            return w, sigma2, n_iter, True, loglik
        w, sigma2, loglik_prev = w_next, sigma2_next, loglik
    return w, sigma2, max_iter, False, loglik_prev


class TestBufferedEmExact:
    """k buffered EM steps give the bits of the allocating iteration; SQUAREM ends at least as high."""

    def case(self, name):
        if name == "cap":  # the CLI tests' panel, on which plain EM stops at 500 iterations
            data = generate(default_spec(3, n_stations=8, n_days=18, n_members=5))
            return data, last_window(data, 14), 500
        if name == "tied":  # twin members: their components tie at every row's maximum they reach
            data = make_dataset(n_days=30, n_stations=10, n_members=3, seed=12)
            fc = np.array(data.forecasts)
            fc[:, :, 1] = fc[:, :, 0]
            data = EnsembleDataset(data.stations, data.days, fc, data.observations)
            return data, last_window(data, 25), 500
        if name == "season":  # 2500 rows by 20 members, as on the desk season
            data = generate(default_spec(1, n_stations=100, n_days=27, n_members=20))
            return data, last_window(data, 25), 500
        data = bma_dataset(seed=2)
        return data, last_window(data, 25), 3

    @pytest.mark.parametrize("name", ["cap", "tied", "season", "three_iterations"])
    def test_equals_allocating_em(self, name, monkeypatch):
        data, window, max_iter = self.case(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = fit_bma(data, window)
            monkeypatch.setattr(bma_mod, "_em", plain_em)
            plain = fit_bma(data, window, max_iter=max_iter)
            monkeypatch.setattr(bma_mod, "_em", allocating_em)
            want = fit_bma(data, window, max_iter=max_iter)
        assert plain.w.tobytes() == want.w.tobytes()
        assert (plain.sigma2, plain.n_iter, plain.converged) == (want.sigma2, want.n_iter, want.converged)
        assert np.float64(plain.loglik).tobytes() == np.float64(want.loglik).tobytes()
        if name == "three_iterations":
            return
        if name == "cap":
            assert plain.n_iter == 500 and not plain.converged
        if name == "tied":
            assert got.a[0] == got.a[1] and got.b[0] == got.b[1] and got.w[0] == got.w[1]
        assert got.converged and got.n_iter < 500
        assert got.loglik >= plain.loglik


class TestSpatialBma:
    def test_member_variograms_recover_shared_error_process(self):
        # near-identical members make every member residual equal the shared
        # correlated error field, the one regime where (theta, r) per member
        # is exactly identified
        spec = SynthSpec(
            n_stations=60,
            n_days=26,
            n_members=3,
            truth=BmaTruth(a=(0.0,) * 3, b=(1.0,) * 3, weights=(1 / 3,) * 3,
                           sigma2=1.0, member_draw="per_row"),
            theta=0.3,
            range_km=120.0,
            seed=6,
            day_sd=8.0,
            spread_cycle=(1e-6,),
            member_bias_sd=0.0,
        )
        data = generate(spec)
        window = last_window(data, 25)
        bma = fit_bma(data, window)
        sp = fit_spatial_bma(data, window, bma)
        assert len(sp.variograms) == data.members
        for fit in sp.variograms:
            assert fit.theta == pytest.approx(0.3, abs=0.25 * 0.3 + 0.05)
            assert fit.range_km == pytest.approx(120.0, rel=0.35)

    def test_independent_residuals_fit_near_pure_nugget(self):
        data = bma_dataset(seed=9, theta=1.0, n_days=40, n_stations=30)
        window = last_window(data, 25)
        bma = fit_bma(data, window)
        sp = fit_spatial_bma(data, window, bma)
        for fit in sp.variograms:
            # nugget near 1, or a collapsed range that implies independence
            assert fit.theta >= 0.8 or fit.degenerate

    def test_pure_nugget_sampling_recovers_sigma2(self):
        # independent errors: per-station sample variance of the fields
        # approaches sigma2 when one member dominates the weights
        data = bma_dataset(seed=7, weights=(1.0, 0.0), sigma2=1.5, theta=1.0)
        window = last_window(data, 25)
        bma = BmaParams(
            a=np.zeros(2), b=np.ones(2), w=np.array([1.0, 0.0]), sigma2=1.5
        )
        sp = fit_spatial_bma(data, window, bma)
        t = data.day_index(window.target_day)
        stations = data.stations
        n = 100_000
        sample = sample_spatial_bma(sp, data.forecasts[t], stations, n, seeded_rng(0, "sb"))
        assert sample.provenance == "spatial-bma"
        assert sample.fields.shape == (n, len(stations))
        var = sample.fields.var(axis=0)
        np.testing.assert_allclose(var, 1.5, rtol=0.03)
        mean = sample.fields.mean(axis=0)
        np.testing.assert_allclose(mean, data.forecasts[t, :, 0], atol=0.05)

    def test_member_frequencies_match_weights(self):
        data = bma_dataset(seed=8, weights=(0.8, 0.2), sigma2=0.01)
        window = last_window(data, 25)
        bma = BmaParams(
            a=np.array([0.0, 100.0]), b=np.ones(2), w=np.array([0.8, 0.2]), sigma2=0.01
        )
        sp = fit_spatial_bma(data, window, bma)
        t = data.day_index(window.target_day)
        sample = sample_spatial_bma(sp, data.forecasts[t], data.stations, 5000, seeded_rng(1, "wf"))
        # fields driven by component 2 sit ~100 above the rest at every station
        frac_high = float((sample.fields[:, 0] > 50.0).mean())
        assert frac_high == pytest.approx(0.2, abs=0.02)

    def fitted(self):
        data = bma_dataset(seed=9)
        window = last_window(data, 25)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return data, window, fit_bma(data, window)

    def fail_first_fit(self, monkeypatch, fail):
        """Run `fail` in the first fit_variogram call, member 1's; later fits, the pooled one too, succeed."""
        real = bma_mod.fit_variogram
        calls = []

        def fit(gamma, **kw):
            calls.append(gamma)
            if len(calls) == 1:
                fail()
            return real(gamma, **kw)

        monkeypatch.setattr(bma_mod, "fit_variogram", fit)

    @pytest.mark.parametrize("failure", ["ValueError", "LinAlgError", "RuntimeError", "warning"])
    def test_numerical_member_failure_falls_back_to_pooled_fit(self, failure, monkeypatch):
        data, window, bma = self.fitted()

        def fail():
            if failure == "warning":  # raised by fit_spatial_bma's warnings-as-errors filter
                warnings.warn("fit did not converge", RuntimeWarning)
            raise {"ValueError": ValueError, "LinAlgError": np.linalg.LinAlgError,
                   "RuntimeError": RuntimeError}[failure]("fit failed")

        self.fail_first_fit(monkeypatch, fail)
        with pytest.warns(UserWarning, match="member 1 residual variogram degenerate; using pooled fit"):
            sp = fit_spatial_bma(data, window, bma)
        assert len(sp.variograms) == data.members

    def test_programming_error_in_member_fit_propagates(self, monkeypatch):
        data, window, bma = self.fitted()

        def fail():
            raise TypeError("bad argument")

        self.fail_first_fit(monkeypatch, fail)
        with pytest.raises(TypeError, match="bad argument"):
            fit_spatial_bma(data, window, bma)

    def test_member_means_are_the_predictive_law_means(self):
        # the fields equal member by member a + b f (f imputed) plus sigma L z, drawn in the same order
        data, window, bma = self.fitted()
        sp = fit_spatial_bma(data, window, bma)
        fc = np.array(data.forecasts[data.day_index(window.target_day)])
        fc[3, 1] = fc[7, 0] = np.nan
        got = sample_spatial_bma(sp, fc, data.stations, 300, seeded_rng(2, "sb"))
        rng = seeded_rng(2, "sb")
        filled = np.where(np.isnan(fc), np.nanmean(fc, axis=1, keepdims=True), fc)
        comp = rng.choice(bma.members, size=300, p=bma.w / bma.w.sum())
        want = np.empty((300, len(data.stations)))
        for m in np.unique(comp):
            rows = np.nonzero(comp == m)[0]
            L, _ = cholesky_with_jitter(build_correlation_matrix(sp.variograms[m], data.stations))
            z = rng.standard_normal((len(data.stations), rows.size))
            want[rows] = ((bma.a[m] + bma.b[m] * filled[:, m])[:, None] + math.sqrt(bma.sigma2) * (L @ z)).T
        assert got.fields.tobytes() == want.tobytes()
