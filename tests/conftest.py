import numpy as np
import pytest
from scipy.special import ndtr

from enspost.core import EnsembleDataset, Station, StationSet, TrainingWindow, seeded_rng


def make_stations(n, *, seed=0, width=500.0, height=500.0):
    rng = seeded_rng(seed, "test/stations")
    xs = rng.uniform(0, width, n)
    ys = rng.uniform(0, height, n)
    return StationSet(Station(f"S{i+1}", xs[i], ys[i]) for i in range(n))


def make_dataset(n_days=30, n_stations=6, n_members=5, *, seed=0, sigma=1.0, bias=0.0):
    """Gaussian toy dataset: obs = member-mean + bias + sigma * noise."""
    rng = seeded_rng(seed, "test/dataset")
    stations = make_stations(n_stations, seed=seed)
    days = tuple(f"2024-01-{d+1:02d}" if d < 31 else f"2024-02-{d-30:02d}" for d in range(n_days))
    base = rng.normal(15.0, 3.0, size=(n_days, 1, 1))
    forecasts = base + rng.normal(0.0, 1.0, size=(n_days, n_stations, n_members))
    observations = forecasts.mean(axis=2) + bias + sigma * rng.standard_normal((n_days, n_stations))
    return EnsembleDataset(stations, days, forecasts, observations)


def scalar_bisection(weights, means, variances, p, tol=1e-10):
    """The one-level mixture quantile that the batched routine must reproduce bit for bit."""
    sd = np.sqrt(variances)

    def cdf(x):
        return ndtr((x - means) / sd) @ weights

    lo = float(np.min(means - 12.0 * sd))
    hi = float(np.max(means + 12.0 * sd))
    while cdf(lo) > p:
        lo -= (hi - lo)
    while cdf(hi) < p:
        hi += (hi - lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def last_window(data, window_length=25):
    days = data.days
    return TrainingWindow(days[-1], tuple(days[-1 - window_length:-1]))


@pytest.fixture
def rng():
    return seeded_rng(123, "test")


@pytest.fixture
def small_dataset():
    return make_dataset()
