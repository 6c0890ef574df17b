import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enspost.core import (
    VARIANCE_FLOOR,
    EnsembleDataset,
    ForecastFieldSample,
    GaussianPredictive,
    MixturePredictive,
    MultivariatePredictive,
    Station,
    StationSet,
    TrainingWindow,
    gaussian_cdf,
    gaussian_pdf,
    gaussian_quantile,
    impute,
    mixture_quantiles,
    seeded_rng,
)
from tests.conftest import assert_batch_matches_rows, make_dataset, make_stations, scalar_bisection

# Reference values computed with mpmath at 30 digits.
Q75 = 0.67448975019608174
PHI_196 = 0.97500210485177957
PHI_M1 = 0.15865525393145705


def test_gaussian_cdf_quantile_reference_values():
    assert gaussian_cdf(1.96) == pytest.approx(PHI_196, abs=1e-15)
    assert gaussian_cdf(-1.0) == pytest.approx(PHI_M1, abs=1e-15)
    assert gaussian_quantile(0.75) == pytest.approx(Q75, abs=1e-13)
    assert gaussian_quantile(0.5) == 0.0
    assert gaussian_pdf(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-16)


# |z| <= 5 keeps cdf(z) far enough from 0/1 that the inverse is well
# conditioned in double precision; beyond that the round trip cannot hold.
@given(st.floats(min_value=-5, max_value=5))
def test_gaussian_quantile_inverts_cdf(z):
    assert gaussian_quantile(gaussian_cdf(z)) == pytest.approx(z, abs=1e-8)


def test_seeded_rng_reproducible_and_stream_separated():
    a = seeded_rng(42, "fit").standard_normal(5)
    b = seeded_rng(42, "fit").standard_normal(5)
    c = seeded_rng(42, "sample").standard_normal(5)
    d = seeded_rng(43, "fit").standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


class TestStationSet:
    def test_ids_index_and_distances(self):
        s = StationSet([Station("A", 0.0, 0.0), Station("B", 3.0, 4.0), Station("C", 0.0, 8.0)])
        assert s.ids == ("A", "B", "C")
        assert s.index("B") == 1
        d = s.pairwise_distances()
        assert d[0, 1] == pytest.approx(5.0)
        assert d[1, 2] == pytest.approx(5.0)
        assert d[0, 2] == pytest.approx(8.0)
        np.testing.assert_array_equal(np.diag(d), 0.0)
        assert s.max_distance() == pytest.approx(8.0)

    def test_station_pairs_keep_i_major_order_on_ties(self):
        s = StationSet([Station("A", 0.0, 0.0), Station("B", 3.0, 4.0), Station("C", 0.0, 8.0)])
        iu, ju, dist, order = s.station_pairs()
        assert iu.tolist() == [0, 0, 1] and ju.tolist() == [1, 2, 2]
        assert dist.tolist() == [5.0, 8.0, 5.0]
        assert order.tolist() == [0, 2, 1]
        assert s.station_pairs()[3] is order

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            StationSet([Station("A", 0, 0), Station("A", 1, 1)])

    def test_unknown_id_raises(self):
        s = make_stations(3)
        with pytest.raises(KeyError):
            s.index("nope")


class TestEnsembleDataset:
    def test_shape_checks(self):
        stations = make_stations(2)
        fc = np.zeros((3, 2, 4))
        obs = np.zeros((3, 2))
        data = EnsembleDataset(stations, ("d1", "d2", "d3"), fc, obs)
        assert data.n_days == 3
        assert data.n_stations == 2
        assert data.members == 4
        with pytest.raises(ValueError):
            EnsembleDataset(stations, ("d1", "d2"), fc, obs)
        with pytest.raises(ValueError):
            EnsembleDataset(stations, ("d1", "d2", "d3"), fc, np.zeros((3, 1)))

    def test_day_index(self):
        data = make_dataset(n_days=4)
        assert data.day_index(data.days[2]) == 2
        with pytest.raises(KeyError):
            data.day_index("1999-01-01")

    def test_arrays_read_only(self):
        data = make_dataset(n_days=3)
        with pytest.raises(ValueError):
            data.forecasts[0, 0, 0] = 1.0


class TestGaussianPredictive:
    def test_moments_and_cdf(self):
        g = GaussianPredictive(2.0, 9.0)
        assert g.mean == 2.0
        assert g.sd == 3.0
        assert g.cdf(2.0) == pytest.approx(0.5)
        assert g.quantile(PHI_196) == pytest.approx(2.0 + 1.96 * 3.0, abs=1e-9)
        assert g.median() == pytest.approx(2.0)

    def test_variance_floor_applies(self):
        g = GaussianPredictive(0.0, 0.0)
        assert g.variance == VARIANCE_FLOOR
        g2 = GaussianPredictive(0.0, -1e-12, floor=1e-6)
        assert g2.variance == 1e-6

    def test_sampling_moments(self):
        g = GaussianPredictive(1.0, 4.0)
        x = g.sample(seeded_rng(0, "g"), 200_000)
        assert x.mean() == pytest.approx(1.0, abs=0.02)
        assert x.std() == pytest.approx(2.0, abs=0.02)


class TestMixturePredictive:
    def make(self):
        return MixturePredictive((0.3, 0.7), (-1.0, 2.0), (0.64, 0.64))

    def test_moments(self):
        m = self.make()
        mean = 0.3 * -1.0 + 0.7 * 2.0
        var = 0.64 + 0.3 * 1.0 + 0.7 * 4.0 - mean**2
        assert m.mean == pytest.approx(mean)
        assert m.variance == pytest.approx(var)

    def test_cdf_is_weighted_sum(self):
        m = self.make()
        x = 0.5
        want = 0.3 * gaussian_cdf((x + 1.0) / 0.8) + 0.7 * gaussian_cdf((x - 2.0) / 0.8)
        assert m.cdf(x) == pytest.approx(want, abs=1e-14)

    def test_quantile_inverts_cdf(self):
        m = self.make()
        for p in (0.01, 0.25, 0.5, 0.9, 0.999):
            assert m.cdf(m.quantile(p)) == pytest.approx(p, abs=1e-9)

    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            MixturePredictive((0.5, 0.6), (0.0, 1.0), (1.0, 1.0))

    def test_sampling_matches_moments(self):
        m = self.make()
        x = m.sample(seeded_rng(1, "mix"), 200_000)
        assert x.mean() == pytest.approx(m.mean, abs=0.02)
        assert x.var() == pytest.approx(m.variance, rel=0.02)


class TestBatchLaws:
    LEVELS = np.array([0.05, 0.5, 1 / 3, 0.95])

    def test_gaussian_rows_equal_scalar_laws(self):
        rng = seeded_rng(5, "batch")
        mean, var = rng.normal(15.0, 5.0, 9), rng.uniform(0.1, 9.0, 9)
        var[4] = 0.0  # floored like the scalar law
        laws = [GaussianPredictive(m, v) for m, v in zip(mean, var)]
        assert_batch_matches_rows(GaussianPredictive(mean, var), laws, rng.normal(15.0, 5.0, 9), self.LEVELS)

    def test_mixture_rows_equal_scalar_laws(self):
        rng = seeded_rng(6, "batch")
        laws = random_mixtures(rng, 6, 20)
        batch = MixturePredictive(*(np.stack([getattr(d, a) for d in laws]) for a in ("weights", "means", "variances")))
        assert batch.means.shape == (6, 20)
        assert_batch_matches_rows(batch, laws, rng.normal(15.0, 5.0, 6), self.LEVELS)

    def test_mixture_variance_rows_where_squares_round_apart(self):
        # a mean whose float power rounds away from m * m, as about 1 in 1000 do
        m = next(x for x in seeded_rng(7, "batch").normal(15.0, 6.0, 100_000).tolist() if x ** 2 != x * x)
        batch = MixturePredictive(np.ones((2, 1)), np.array([[m], [1.5]]), 0.5)
        rows = [MixturePredictive((1.0,), (mean,), 0.5) for mean in (m, 1.5)]
        assert batch.variance.tolist() == [law.variance for law in rows]

    def test_scalar_laws_return_floats(self):
        for law in (GaussianPredictive(1.0, 2.0), MixturePredictive((0.4, 0.6), (0.0, 1.0), 2.0)):
            for value in (law.mean, law.variance, law.sd, law.cdf(0.3), law.quantile(0.3), law.median()):
                assert isinstance(value, float)
            assert law.quantile([0.2, 0.7]).shape == (2,)
            assert law.sample(seeded_rng(0, "s"), 5).shape == (5,)

    def test_batch_shapes_checked(self):
        with pytest.raises(ValueError, match="batch"):
            GaussianPredictive(np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError, match="sum to"):
            MixturePredictive(np.array([[0.5, 0.5], [0.5, 0.6]]), np.zeros((2, 2)), 1.0)


@settings(max_examples=50)
@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=0.001, max_value=0.999),
)
def test_mixture_quantile_cdf_roundtrip(w1, m1, m2, s, p):
    m = MixturePredictive((w1, 1 - w1), (m1, m2), (s * s, s * s))
    assert m.cdf(m.quantile(p)) == pytest.approx(p, abs=1e-8)


def random_mixtures(rng, n, k):
    """n mixtures of k components whose spreads, and so bracket widths, differ."""
    return [
        MixturePredictive(
            rng.dirichlet(np.ones(k)),
            rng.normal(15.0, rng.uniform(0.01, 40.0), size=k),
            np.full(k, rng.uniform(0.05, 6.0)),
        )
        for _ in range(n)
    ]


class TestMixtureQuantilesExact:
    LEVELS = np.array([1e-40, 0.3, 0.5, 0.95, 1.0 - 1e-9])

    @pytest.mark.parametrize("k", [1, 2, 5, 20, 33])
    def test_rows_equal_scalar_bisection(self, k):
        rng = seeded_rng(k, "exact")
        dists = random_mixtures(rng, 12, k)
        p = np.concatenate([self.LEVELS, rng.uniform(0.001, 0.999, size=7)])
        got = mixture_quantiles(
            np.stack([d.weights for d in dists]),
            np.stack([d.means for d in dists]),
            np.sqrt(np.stack([d.variances for d in dists])),
            p,
        )
        want = [scalar_bisection(d.weights, d.means, d.variances, q) for d, q in zip(dists, p)]
        assert got.tolist() == want

    @pytest.mark.parametrize("k", [1, 2, 5, 20, 33])
    def test_method_equals_scalar_bisection(self, k):
        (d,) = random_mixtures(seeded_rng(k, "method"), 1, k)
        want = [scalar_bisection(d.weights, d.means, d.variances, q) for q in self.LEVELS]
        assert [d.quantile(q) for q in self.LEVELS] == want
        assert isinstance(d.quantile(0.5), float)
        assert d.quantile(self.LEVELS).tolist() == want
        assert d.quantile(self.LEVELS.reshape(5, 1)).shape == (5, 1)

    def test_rows_stop_on_their_own(self):
        # the wide row needs more halvings than the narrow one; stopping both
        # on a shared test would move the narrow row's quantile
        w = np.full((2, 2), 0.5)
        means = np.array([[0.0, 0.1], [0.0, 40.0]])
        got = mixture_quantiles(w, means, 0.5, np.array([0.3, 0.3]))
        want = [scalar_bisection(w[i], means[i], np.full(2, 0.25), 0.3) for i in range(2)]
        assert got.tolist() == want

    def test_bracket_expansion(self):
        d = MixturePredictive((0.5, 0.5), (0.0, 1.0), (1.0, 1.0))
        q = d.quantile(1e-40)
        assert q < float(np.min(d.means - 12.0))  # left the starting bracket
        assert q == scalar_bisection(d.weights, d.means, d.variances, 1e-40)

    def test_batch_rows_with_dropped_members(self):
        # zero weights stand for dropped members; each row of a batch law's
        # quantile table is its own scalar bisection
        rng = seeded_rng(3, "table")
        dists = random_mixtures(rng, 5, 5)
        w = np.stack([d.weights for d in dists])
        w[[1, 4], 2] = 0.0
        w[3, [0, 4]] = 0.0
        w /= w.sum(axis=1, keepdims=True)
        batch = MixturePredictive(w, np.stack([d.means for d in dists]), np.stack([d.variances for d in dists]))
        levels = [0.05, 0.5, 0.95, 1 / 6, 5 / 6]
        table = batch.quantile(levels)
        assert table.shape == (5, 5)
        for row, wi, mi, vi in zip(table, batch.weights, batch.means, batch.variances):
            assert row.tolist() == [scalar_bisection(wi, mi, vi, q) for q in levels]

    def test_batch_gaussian_quantile_rows(self):
        gauss = GaussianPredictive(np.array([2.0, -1.0, 2.0]), np.array([3.0, 0.5, 3.0]))
        levels = np.array([0.05, 0.5, 0.95])
        table = gauss.quantile(levels)
        assert table.shape == (3, 3)
        assert table[0].tolist() == table[2].tolist() == GaussianPredictive(2.0, 3.0).quantile(levels).tolist()
        assert table[:, 1].tolist() == gauss.median().tolist()
        assert gauss.quantile(0.5).tolist() == gauss.mean.tolist()

    def test_level_above_total_weight_rejected(self):
        # weights may sum to within 1e-10 of one; a level above their sum
        # used to widen the bracket forever
        # (the widening overflows to inf on purpose; that must stay silent)
        d = MixturePredictive((0.5, 0.5 - 1e-12), (0.0, 1.0), (1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="total weight"):
                d.quantile(1.0 - 1e-13)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, float("nan")])
    def test_levels_outside_unit_interval_rejected(self, p):
        d = MixturePredictive((0.5, 0.5), (0.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="0 < p < 1"):
            d.quantile(p)
        with pytest.raises(ValueError, match="0 < p < 1"):
            d.quantile(np.array([0.5, p]))


class TestMultivariatePredictive:
    def test_covariance_is_dpd(self):
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        mvp = MultivariatePredictive(("A", "B"), np.array([1.0, 2.0]), np.array([2.0, 3.0]), corr)
        cov = mvp.covariance()
        np.testing.assert_allclose(cov, np.array([[4.0, 3.0], [3.0, 9.0]]))

    def test_rejects_indefinite_correlation(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            MultivariatePredictive(("A", "B"), np.zeros(2), np.ones(2), bad)


def test_forecast_field_sample_accessors():
    f = ForecastFieldSample(("A", "B"), np.array([[1.0, 2.0], [3.0, 4.0]]), "independent")
    assert f.n_samples == 2
    with pytest.raises(ValueError):
        ForecastFieldSample(("A",), np.zeros((2, 2)), "independent")
    with pytest.raises(ValueError):
        ForecastFieldSample(("A", "B"), np.zeros((2, 2)), "whatever")


def test_training_window_rejects_target_in_training():
    with pytest.raises(ValueError):
        TrainingWindow("d3", ("d1", "d2", "d3"))


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60)
def test_impute_matches_numpy_mean_and_variance_bit_for_bit(n_rows, m, seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(15.0, 5.0, (n_rows, m))
    filled, s2, count = impute(f)
    # complete rows: unchanged, and the spread is np.var(ddof=1), which centres on np.mean
    assert np.array_equal(filled, f)
    assert np.array_equal(s2, np.var(f, axis=-1, ddof=1))
    assert np.array_equal(count, np.full(n_rows, m))
    # a gap takes the mean of the members present, as np.nanmean computes it
    gapped = f.copy()
    gapped[:, rng.random(m) < 0.4] = np.nan
    gapped[:, :2] = f[:, :2]
    miss = np.isnan(gapped)
    filled, s2, count = impute(gapped)
    mean = np.broadcast_to(np.nanmean(gapped, axis=-1)[:, None], f.shape)
    assert np.array_equal(filled[miss], mean[miss])
    assert np.array_equal(s2, np.nanvar(gapped, axis=-1, ddof=1))


def test_impute_leaves_rows_without_members_empty():
    filled, s2, count = impute(np.array([[np.nan, np.nan], [1.0, np.nan]]))
    assert np.isnan(filled[0]).all() and s2[0] == 0.0 and count[0] == 0
    assert filled[1].tolist() == [1.0, 1.0] and s2[1] == 0.0 and count[1] == 1
