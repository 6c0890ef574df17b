"""Core domain types: station geometry, aligned forecast/observation panels,
univariate and multivariate predictive laws, and named reproducible random
streams.

All value panels use NaN for missing data; sentinel values are never used.
Arrays held by the types below are read-only so instances can be shared
freely across readers.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np
from scipy.special import ndtr, ndtri

# Variance floor applied when predictive laws are constructed (degC^2).
# Keeps PIT values and standardized errors finite when residuals vanish.
VARIANCE_FLOOR = 1e-8

# Provenance tags accepted on sampled forecast fields.
PROVENANCE_TAGS = ("raw", "independent", "ecc", "grf-spatial", "spatial-bma")

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gaussian_cdf(z):
    """Standard normal CDF, vectorized over z."""
    return ndtr(z)


def gaussian_pdf(z):
    """Standard normal density, vectorized over z."""
    z = np.asarray(z, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    return float(out) if out.ndim == 0 else out


def gaussian_quantile(p):
    """Standard normal quantile; requires 0 < p < 1 elementwise."""
    p_arr = np.asarray(p, dtype=float)
    if p_arr.size and (np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0)):
        raise ValueError(f"quantile requires 0 < p < 1, got {p!r}")
    out = ndtri(p_arr)
    return float(out) if out.ndim == 0 else out


def seeded_rng(seed: int, stream: str = "") -> np.random.Generator:
    """Generator for a named random stream.

    Identical (seed, stream) pairs replay bit-identical draw sequences across
    runs and platforms; distinct stream labels give independent streams, so
    adding draws to one stream never perturbs another.
    """
    digest = hashlib.sha256(f"{int(seed)}/{stream}".encode()).digest()
    return np.random.default_rng(np.random.SeedSequence(int.from_bytes(digest, "little")))


def impute(forecasts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill each row's missing members with the mean of its available ones.

    forecasts is any (..., M) array with NaN for a missing member. Returns the
    filled array, the spread S^2 of the available members (squared
    deviations summed over count - 1, zero below two members) and the count
    of available members. A row without members stays NaN.
    """
    f = np.asarray(forecasts, dtype=float)
    valid = ~np.isnan(f)
    count = valid.sum(axis=-1)
    total = np.where(valid, f, 0.0).sum(axis=-1)
    mean = np.divide(total, count, out=np.full(total.shape, np.nan), where=count > 0)
    filled = np.where(valid, f, mean[..., None])
    dev = np.where(valid, f - mean[..., None], 0.0)
    s2 = (dev ** 2).sum(axis=-1) / np.maximum(count - 1, 1)
    return filled, np.where(count > 1, s2, 0.0), count


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Station:
    """Observation site with planar coordinates in km (lon/lat optional)."""

    id: str
    x: float
    y: float
    lon: Optional[float] = None
    lat: Optional[float] = None

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise ValueError(f"station {self.id!r} needs finite planar coordinates")


class StationSet(Sequence):
    """Ordered collection of stations with unique ids and cached geometry."""

    def __init__(self, stations: Iterable[Station]):
        self._stations = tuple(stations)
        self._ids = tuple(s.id for s in self._stations)
        self._index: dict[str, int] = {}
        for i, s in enumerate(self._stations):
            if s.id in self._index:
                raise ValueError(f"duplicate station id {s.id!r}")
            self._index[s.id] = i
        self._coords = _readonly(np.array([[s.x, s.y] for s in self._stations], dtype=float).reshape(len(self._stations), 2))
        self._distances: Optional[np.ndarray] = None
        self._pairs: Optional[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        return len(self._stations)

    def __getitem__(self, i):
        return self._stations[i]

    def __iter__(self) -> Iterator[Station]:
        return iter(self._stations)

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def coords(self) -> np.ndarray:
        """(n, 2) array of planar km coordinates."""
        return self._coords

    def index(self, station_id: str) -> int:
        try:
            return self._index[station_id]
        except KeyError:
            raise KeyError(f"unknown station id {station_id!r}") from None

    def __contains__(self, station_id) -> bool:
        return station_id in self._index

    def pairwise_distances(self) -> np.ndarray:
        """(n, n) matrix of Euclidean distances in km, cached."""
        if self._distances is None:
            delta = self._coords[:, None, :] - self._coords[None, :, :]
            self._distances = _readonly(np.sqrt((delta ** 2).sum(axis=2)))
        return self._distances

    def station_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, distance_km, order) of the pairs i < j in np.triu_indices
        order, cached; order is the stable argsort of their distances."""
        if self._pairs is None:
            iu, ju = np.triu_indices(len(self), k=1)
            dist = self.pairwise_distances()[iu, ju]
            self._pairs = tuple(_readonly(a) for a in (iu, ju, dist, np.argsort(dist, kind="stable")))
        return self._pairs

    def max_distance(self) -> float:
        return float(self.pairwise_distances().max()) if len(self) > 1 else 0.0


class EnsembleDataset:
    """Aligned (day, station, member) forecast panel with observations.

    Days are opaque ordered labels. A day is flagged eliminated when at least
    one member is missing at every station on that day; eliminated days never
    enter training windows or target-day lists.
    """

    def __init__(self, stations: StationSet, days: Sequence, forecasts, observations):
        self.stations = stations
        self.days = tuple(str(d) for d in days)
        if len(set(self.days)) != len(self.days):
            raise ValueError("duplicate day labels")
        f = np.array(forecasts, dtype=float)
        o = np.array(observations, dtype=float)
        n_days, n_stations = len(self.days), len(stations)
        if f.ndim != 3 or f.shape[0] != n_days or f.shape[1] != n_stations:
            raise ValueError(f"forecasts shape {f.shape} does not match ({n_days}, {n_stations}, M)")
        if f.shape[2] < 1:
            raise ValueError("at least one ensemble member required")
        if o.shape != (n_days, n_stations):
            raise ValueError(f"observations shape {o.shape} does not match ({n_days}, {n_stations})")
        self.forecasts = _readonly(f)
        self.observations = _readonly(o)
        self.members = f.shape[2]
        self._day_index = {d: i for i, d in enumerate(self.days)}
        # member missing at every station -> day unusable
        member_gone = np.isnan(f).all(axis=1)  # (n_days, M)
        self.eliminated = _readonly(member_gone.any(axis=1))

    @property
    def n_days(self) -> int:
        return len(self.days)

    @property
    def n_stations(self) -> int:
        return len(self.stations)

    def day_index(self, day: str) -> int:
        try:
            return self._day_index[day]
        except KeyError:
            raise KeyError(f"unknown day {day!r}") from None

    def training_panels(self, window: TrainingWindow) -> tuple[np.ndarray, np.ndarray]:
        """Forecasts (T, S, M) and observations (T, S) on the window's training days."""
        day_idx = np.array([self.day_index(d) for d in window.training_days])
        return self.forecasts[day_idx], self.observations[day_idx]

    def non_eliminated_days(self) -> tuple[str, ...]:
        return tuple(d for d, gone in zip(self.days, self.eliminated) if not gone)


@dataclass(frozen=True)
class TrainingWindow:
    """Target day plus the ordered training days strictly before it."""

    target_day: str
    training_days: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "training_days", tuple(self.training_days))
        if self.target_day in self.training_days:
            raise ValueError("target day may not appear among training days")
        if len(set(self.training_days)) != len(self.training_days):
            raise ValueError("duplicate training days")
        if not self.training_days:
            raise ValueError("empty training window")

    def __len__(self) -> int:
        return len(self.training_days)


def row_dot(a, b):
    """Dot products of the last axes of a and b, row by row; a float for one row.

    Each row gives the bits of its own 1-D dot product however many rows
    there are, which a 2-D or 3-D `@` does not.
    """
    out = np.matmul(np.asarray(a, dtype=float)[..., None, :], np.asarray(b, dtype=float)[..., :, None])[..., 0, 0]
    return _unbox(out)


def _unbox(x):
    """A 0-d result as a float; arrays as they are."""
    return float(x) if np.ndim(x) == 0 else x


def _by_row(a, ndim: int):
    """A batch's (n,) parameter with ndim trailing axes, to broadcast against levels or draws."""
    return a if np.ndim(a) == 0 else a.reshape(a.shape + (1,) * ndim)


@dataclass(frozen=True)
class GaussianPredictive:
    """Gaussian predictive law, or a batch of them; variance is floored at construction.

    Scalar mean and variance give one law whose moments are floats. Arrays of
    shape (n,) give n laws, one per row, and every method answers row by row,
    with each row's bits equal to its own scalar law's: cdf(x) takes one x per
    row, quantile(p) has shape (n,) + p's shape, and sample(rng, k) is (k, n),
    the transpose of the row-major draws.
    """

    mean: float | np.ndarray
    variance: float | np.ndarray
    floor: float = VARIANCE_FLOOR

    def __post_init__(self):
        mean, var = np.broadcast_arrays(np.asarray(self.mean, dtype=float), np.asarray(self.variance, dtype=float))
        if mean.ndim > 1:
            raise ValueError(f"batch parameters must be (n,) arrays, got shape {mean.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(var).all()):
            raise ValueError("non-finite Gaussian predictive parameters")
        object.__setattr__(self, "mean", _unbox(_readonly(mean.copy())))
        object.__setattr__(self, "variance", _unbox(_readonly(np.array(np.maximum(var, self.floor)))))

    @property
    def sd(self):
        return _unbox(np.sqrt(self.variance))

    def cdf(self, x):
        return gaussian_cdf((np.asarray(x, dtype=float) - self.mean) / self.sd)

    def quantile(self, p):
        z = gaussian_quantile(p)
        return _by_row(self.mean, np.ndim(z)) + _by_row(self.sd, np.ndim(z)) * z

    def median(self):
        return self.mean

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal(np.shape(self.mean) + (n,))  # row after row, n draws each
        z *= _by_row(self.sd, 1)
        z += _by_row(self.mean, 1)
        return z.T


@dataclass(frozen=True)
class MixturePredictive:
    """Gaussian mixture predictive law, or a batch of them.

    Kernel-dressing fits share one variance across components; the type keeps
    per-component variances so moment and quantile formulas stay general.
    Component arrays of shape (K,) give one law with float moments; (n, K)
    arrays give n laws that answer row by row as GaussianPredictive batches
    do, each row with its own scalar law's bits. A variance given as one
    number is shared by every component.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    floor: float = VARIANCE_FLOOR

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        m = np.array(self.means, dtype=float)
        v = np.array(self.variances, dtype=float)
        if v.size == 1:
            v = np.full(m.shape, float(v.ravel()[0]))
        if not (w.shape == m.shape == v.shape) or w.ndim not in (1, 2) or w.shape[-1] == 0:
            raise ValueError("mixture component arrays must share a (K,) or (n, K) shape with K > 0")
        if not (np.isfinite(w).all() and np.isfinite(m).all() and np.isfinite(v).all()):
            raise ValueError("non-finite mixture parameters")
        if np.any(w < -1e-12):
            raise ValueError("negative mixture weight")
        w = np.clip(w, 0.0, None)
        total = w.sum(axis=-1)
        if np.any(np.abs(total - 1.0) > 1e-10):
            raise ValueError(f"mixture weights sum to {total!r}, not 1")
        v = np.maximum(v, self.floor)
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "means", _readonly(m))
        object.__setattr__(self, "variances", _readonly(v))

    @property
    def mean(self):
        return row_dot(self.weights, self.means)

    @property
    def variance(self):
        mean = self.mean
        return row_dot(self.weights, self.variances + self.means ** 2) - mean * mean

    @property
    def sd(self):
        return _unbox(np.sqrt(self.variance))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - self.means) / np.sqrt(self.variances)
        return row_dot(ndtr(z), self.weights)

    def quantile(self, p, tol: float = 1e-10):
        """Quantiles at a scalar or array of levels, by bisection (see mixture_quantiles)."""
        p_arr = np.asarray(p, dtype=float)
        w, m, v = (np.repeat(np.atleast_2d(a), p_arr.size, axis=0) for a in (self.weights, self.means, self.variances))
        out = mixture_quantiles(w, m, np.sqrt(v), np.tile(p_arr.ravel(), np.atleast_2d(self.weights).shape[0]), tol)
        return _unbox(out.reshape(self.weights.shape[:-1] + p_arr.shape))

    def median(self):
        return self.quantile(0.5)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        w, m, v = (np.atleast_2d(a) for a in (self.weights, self.means, self.variances))
        out = np.empty((w.shape[0], n))
        for i in range(w.shape[0]):  # row after row, as each row's own law draws
            comp = rng.choice(w.shape[1], size=n, p=w[i] / w[i].sum())
            out[i] = m[i, comp] + np.sqrt(v[i, comp]) * rng.standard_normal(n)
        return out[0] if self.weights.ndim == 1 else out.T


def mixture_quantiles(weights, means, sd, p, tol: float = 1e-10) -> np.ndarray:
    """Row-wise Gaussian-mixture quantiles by bracketed bisection.

    weights and means are (n, K) component arrays, sd broadcasts to (n, K),
    and p holds the (n,) levels. Each row starts from the bracket
    [min(means - 12 sd), max(means + 12 sd)], widens it by its own width
    until it holds p, then halves it until it is no wider than tol. Rows stop
    on their own, and each row's CDF is one dot product of its normal CDFs
    with its weights, so a row's quantile does not depend on the rest of the
    batch.
    """
    w = np.asarray(weights, dtype=float)
    m = np.asarray(means, dtype=float)
    sd = np.broadcast_to(np.asarray(sd, dtype=float), m.shape)
    p = np.asarray(p, dtype=float)
    if m.ndim != 2 or w.shape != m.shape or p.shape != m.shape[:1]:
        raise ValueError("weights and means must be (n, K) and p must be (n,)")
    bad = ~((p > 0.0) & (p < 1.0))
    if bad.any():
        raise ValueError(f"quantile requires 0 < p < 1, got {float(p[bad][0])!r}")
    if not (np.isfinite(m).all() and np.isfinite(sd).all()):
        raise ValueError("non-finite mixture parameters")

    def cdf(rows, x):
        z = (x[:, None] - m[rows]) / sd[rows]
        return np.matmul(ndtr(z)[:, None, :], w[rows][:, :, None])[:, 0, 0]

    lo = (m - 12.0 * sd).min(axis=1)
    hi = (m + 12.0 * sd).max(axis=1)
    rows = np.arange(p.size)
    rows = rows[cdf(rows, lo) > p]
    while rows.size:
        lo[rows] -= hi[rows] - lo[rows]
        rows = rows[cdf(rows, lo[rows]) > p[rows]]
    rows = np.arange(p.size)
    rows = rows[cdf(rows, hi) < p]
    while rows.size:
        with np.errstate(over="ignore"):  # reaching inf is the stop signal below
            hi[rows] += hi[rows] - lo[rows]
        if np.isinf(hi[rows]).any():  # weights summing to just under 1 never reach p
            raise ValueError("quantile level exceeds the mixture's total weight")
        rows = rows[cdf(rows, hi[rows]) < p[rows]]
    rows = np.flatnonzero(hi - lo > tol)
    while rows.size:
        mid = 0.5 * (lo[rows] + hi[rows])
        below = cdf(rows, mid) < p[rows]
        lo[rows[below]] = mid[below]
        hi[rows[~below]] = mid[~below]
        rows = rows[hi[rows] - lo[rows] > tol]
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class MultivariatePredictive:
    """Joint Gaussian law over an ordered station set: N(mu, D P D).

    `scale` holds the marginal standard deviations (the diagonal of D) and
    `correlation` the matrix P, validated to be symmetric with unit diagonal
    and no eigenvalue below -1e-8.
    """

    station_order: tuple[str, ...]
    mu: np.ndarray
    scale: np.ndarray
    correlation: np.ndarray

    MIN_EIGENVALUE = -1e-8

    def __post_init__(self):
        order = tuple(self.station_order)
        mu = np.array(self.mu, dtype=float).ravel()
        scale = np.array(self.scale, dtype=float).ravel()
        corr = np.array(self.correlation, dtype=float)
        d = len(order)
        if d == 0:
            raise ValueError("empty station order")
        if mu.shape != (d,) or scale.shape != (d,) or corr.shape != (d, d):
            raise ValueError("dimension mismatch between station order, mu, scale, correlation")
        if not (np.isfinite(mu).all() and np.isfinite(scale).all() and np.isfinite(corr).all()):
            raise ValueError("non-finite multivariate predictive parameters")
        if np.any(scale <= 0.0):
            raise ValueError("marginal scales must be strictly positive")
        if not np.all(np.diag(corr) == 1.0):
            raise ValueError("correlation diagonal must equal one exactly")
        if np.max(np.abs(corr - corr.T)) > 1e-12:
            raise ValueError("correlation matrix not symmetric")
        if d > 1:
            min_eig = float(np.linalg.eigvalsh(corr).min())
            if min_eig < self.MIN_EIGENVALUE:
                raise ValueError(f"correlation matrix has eigenvalue {min_eig:.3e} below {self.MIN_EIGENVALUE}")
        object.__setattr__(self, "station_order", order)
        object.__setattr__(self, "mu", _readonly(mu))
        object.__setattr__(self, "scale", _readonly(scale))
        object.__setattr__(self, "correlation", _readonly(corr))

    @property
    def dim(self) -> int:
        return len(self.station_order)

    def covariance(self) -> np.ndarray:
        return self.correlation * np.outer(self.scale, self.scale)


@dataclass(frozen=True)
class ForecastFieldSample:
    """Set of sampled forecast fields over an ordered station set."""

    station_order: tuple[str, ...]
    fields: np.ndarray  # (n_samples, n_stations)
    provenance: str

    def __post_init__(self):
        order = tuple(self.station_order)
        f = np.array(self.fields, dtype=float)
        if f.ndim != 2 or f.shape[1] != len(order):
            raise ValueError(f"fields shape {f.shape} does not match {len(order)} stations")
        if f.size and not np.isfinite(f).all():
            raise ValueError("sampled fields contain non-finite values")
        if self.provenance not in PROVENANCE_TAGS:
            raise ValueError(f"unknown provenance {self.provenance!r}; expected one of {PROVENANCE_TAGS}")
        object.__setattr__(self, "station_order", order)
        object.__setattr__(self, "fields", _readonly(f))

    @property
    def n_samples(self) -> int:
        return self.fields.shape[0]
