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


@dataclass(frozen=True)
class GaussianPredictive:
    """Gaussian predictive law; variance is floored at construction."""

    mean: float
    variance: float
    floor: float = VARIANCE_FLOOR

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.variance)):
            raise ValueError("non-finite Gaussian predictive parameters")
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "variance", float(max(self.variance, self.floor)))

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def cdf(self, x):
        return gaussian_cdf((np.asarray(x, dtype=float) - self.mean) / self.sd)

    def quantile(self, p):
        return self.mean + self.sd * gaussian_quantile(p)

    def median(self) -> float:
        return self.mean

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.mean + self.sd * rng.standard_normal(n)


@dataclass(frozen=True)
class MixturePredictive:
    """Gaussian mixture predictive law.

    Kernel-dressing fits share one variance across components; the type keeps
    per-component variances so moment and quantile formulas stay general.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    floor: float = VARIANCE_FLOOR

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).ravel()
        m = np.array(self.means, dtype=float).ravel()
        v = np.array(self.variances, dtype=float).ravel()
        if v.size == 1 and m.size > 1:
            v = np.full(m.size, float(v[0]))
        if not (w.size == m.size == v.size) or w.size == 0:
            raise ValueError("mixture component arrays must share a positive length")
        if not (np.isfinite(w).all() and np.isfinite(m).all() and np.isfinite(v).all()):
            raise ValueError("non-finite mixture parameters")
        if np.any(w < -1e-12):
            raise ValueError("negative mixture weight")
        w = np.clip(w, 0.0, None)
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValueError(f"mixture weights sum to {w.sum()!r}, not 1")
        v = np.maximum(v, self.floor)
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "means", _readonly(m))
        object.__setattr__(self, "variances", _readonly(v))

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def components(self) -> tuple[tuple[float, float, float], ...]:
        return tuple(zip(self.weights.tolist(), self.means.tolist(), self.variances.tolist()))

    @property
    def mean(self) -> float:
        return float(self.weights @ self.means)

    @property
    def variance(self) -> float:
        second = self.weights @ (self.variances + self.means ** 2)
        return float(second - self.mean ** 2)

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - self.means) / np.sqrt(self.variances)
        out = ndtr(z) @ self.weights
        return float(out) if out.ndim == 0 else out

    def quantile(self, p, tol: float = 1e-10):
        """Quantile at a scalar or array of levels, by bisection (see mixture_quantiles)."""
        p_arr = np.asarray(p, dtype=float)
        shape = (p_arr.size, self.n_components)
        out = mixture_quantiles(
            np.broadcast_to(self.weights, shape),
            np.broadcast_to(self.means, shape),
            np.sqrt(self.variances),
            p_arr.ravel(),
            tol,
        )
        return float(out[0]) if p_arr.ndim == 0 else out.reshape(p_arr.shape)

    def median(self) -> float:
        return self.quantile(0.5)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        comp = rng.choice(self.n_components, size=n, p=self.weights / self.weights.sum())
        return self.means[comp] + np.sqrt(self.variances[comp]) * rng.standard_normal(n)


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


def quantile_table(dists: Sequence, levels) -> np.ndarray:
    """Quantiles of each predictive law at every level, as a (len(dists), len(levels)) table.

    Mixtures with the same component count share one mixture_quantiles call,
    so a row equals the mixture's own quantile(levels); any other law answers
    through its quantile(levels).
    """
    levels = np.asarray(levels, dtype=float).ravel()
    out = np.empty((len(dists), levels.size))
    sizes = np.array([d.n_components if isinstance(d, MixturePredictive) else 0 for d in dists], dtype=int)
    for i in np.flatnonzero(sizes == 0):
        out[i] = dists[i].quantile(levels)
    for k in np.unique(sizes[sizes > 0]):
        group = [dists[i] for i in np.flatnonzero(sizes == k)]

        def stack(attr):
            return np.repeat(np.stack([getattr(d, attr) for d in group]), levels.size, axis=0)

        q = mixture_quantiles(stack("weights"), stack("means"), np.sqrt(stack("variances")),
                              np.tile(levels, len(group)))
        out[sizes == k] = q.reshape(len(group), levels.size)
    return out


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

    def marginal(self, i: int) -> GaussianPredictive:
        return GaussianPredictive(float(self.mu[i]), float(self.scale[i] ** 2))


@dataclass(frozen=True)
class ForecastFieldSample:
    """Set of sampled forecast fields over an ordered station set."""

    station_order: tuple[str, ...]
    fields: np.ndarray  # (n_samples, n_stations)
    provenance: str
    seed: Optional[int] = None

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

    def station_values(self, station_id: str) -> np.ndarray:
        return self.fields[:, self.station_order.index(station_id)]
