"""Forecast verification: proper scores, calibration diagnostics, and
score bookkeeping.

Scores are negatively oriented (smaller is better) throughout. Sample-based
estimators follow the paired two-sample form, ensemble estimators the
all-pairs form; multivariate density scores take parametric moments when a
model provides them and sample moments with a small diagonal stabilizer when
they must be estimated.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .core import VARIANCE_FLOOR, ForecastFieldSample, GaussianPredictive, _readonly, _unbox, gaussian_cdf

DEFAULT_INTERVAL_LEVEL = 19.0 / 21.0


# ---------------------------------------------------------------------------
# univariate scores


def brier_score(prob_leq_x: float, y: float, x: float) -> float:
    """Squared error of the event probability P(Y <= x)."""
    if not 0.0 <= prob_leq_x <= 1.0:
        raise ValueError(f"probability {prob_leq_x!r} outside [0, 1]")
    event = 1.0 if y <= x else 0.0
    return (event - prob_leq_x) ** 2


def crps_sample(x, x_prime, y):
    """Paired two-sample CRPS estimate: mean|x - y| - mean|x - x'| / 2.

    x and x_prime may also be (n, k) rows of draws of n laws, with one y per
    row; each row then gets the score it would get alone, bit for bit.
    """
    x = np.asarray(x, dtype=float)
    x_prime = np.asarray(x_prime, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != x_prime.shape or x.ndim not in (1, 2) or x.shape[-1] == 0 or y.shape != x.shape[:-1]:
        raise ValueError("x and x_prime must be non-empty vectors, or rows, of equal length with one y per row")
    out = np.abs(x - y[..., None]).mean(axis=-1) - 0.5 * np.abs(x - x_prime).mean(axis=-1)
    return _unbox(out)


def crps_ensemble(members, y: float) -> float:
    """All-pairs CRPS of a finite ensemble.

    Equals mean|f - y| - sum_ij |f_i - f_j| / (2 M^2), computed in
    O(M log M) through the sorted-values identity.
    """
    f = np.sort(np.asarray(members, dtype=float))
    m = f.size
    if m == 0:
        raise ValueError("empty ensemble")
    k = np.arange(1, m + 1)
    pair_term = float(((2 * k - m - 1) * f).sum()) / (m * m)
    return float(np.abs(f - y).mean() - pair_term)


def interval_coverage_width(dist, y: float, level: float = DEFAULT_INTERVAL_LEVEL) -> tuple[bool, float]:
    """Central prediction interval: (covered, width)."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    alpha = 0.5 * (1.0 - level)
    lo = dist.quantile(alpha)
    hi = dist.quantile(1.0 - alpha)
    return bool(lo <= y <= hi), float(hi - lo)


def ensemble_range_coverage(members, y: float) -> tuple[bool, float]:
    """Raw-ensemble interval: the full range of the members."""
    f = np.asarray(members, dtype=float)
    f = f[~np.isnan(f)]
    if f.size == 0:
        raise ValueError("empty ensemble")
    lo, hi = float(f.min()), float(f.max())
    return bool(lo <= y <= hi), hi - lo


def mae_rmse(medians, means, y) -> tuple[float, float]:
    """MAE of predictive medians and RMSE of predictive means."""
    medians = np.asarray(medians, dtype=float)
    means = np.asarray(means, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (medians.shape == means.shape == y.shape):
        raise ValueError("medians, means, y must share a shape")
    return float(np.abs(medians - y).mean()), float(np.sqrt(((means - y) ** 2).mean()))


# ---------------------------------------------------------------------------
# multivariate scores


def _row_norms(a, b, buf: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a - b, axis=1), computed in the work buffer `buf`.

    These are the ufuncs numpy's norm applies, in the same order. With
    buf = np.empty_like(a) and b a row or an array laid out like a, buf has
    the layout numpy would give a - b, so each row sums in the same order
    and the norms are bit-identical.
    """
    np.subtract(a, b, out=buf)
    np.multiply(buf, buf, out=buf)
    return np.sqrt(np.add.reduce(buf, axis=1))


def energy_score(x, x_prime, y) -> float:
    """Paired two-sample energy score; reduces to crps_sample in d = 1."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x_prime = np.atleast_2d(np.asarray(x_prime, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != x_prime.shape or x.shape[1] != y.size or x.shape[0] == 0:
        raise ValueError("x, x_prime must be (n, d) with d matching y")
    buf = np.empty_like(x)
    term_y = _row_norms(x, y, buf).mean()
    if x.strides != x_prime.strides:
        buf = np.subtract(x, x_prime)  # numpy lays x - x_prime out by both operands, not by x alone
    term_x = _row_norms(x, x_prime, buf).mean()
    return float(term_y - 0.5 * term_x)


def energy_score_ensemble(x, y) -> float:
    """All-pairs energy score of a finite set of fields."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = x.shape[0]
    if n == 0 or x.shape[1] != y.size:
        raise ValueError("x must be (n, d) with d matching y")
    term_y = np.linalg.norm(x - y, axis=1).mean()
    diffs = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    return float(term_y - 0.5 * diffs.mean())


def spatial_median(points) -> np.ndarray:
    """Geometric median by Weiszfeld's iterative reweighting.

    Each step gets the squared distances |x_i|^2 - 2 x_i.y + |y|^2 and the
    weighted sum from two einsum passes over the points centred on their
    mean, with no BLAS call, so the result does not depend on the BLAS build
    or its thread count. Iterates that land on a data point take the
    standard shift step. Iteration stops at a step shorter than 1e-8; after
    1000 steps it returns the last iterate with a warning.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if x.shape[0] == 1:
        return x[0].copy()
    centre = x.mean(axis=0)
    xc = x - centre  # the only (n, d) temporary, laid out like x
    sq = np.einsum("ij,ij->i", xc, xc)
    y = np.zeros(x.shape[1])
    for _ in range(1000):
        yy = np.einsum("j,j->", y, y)
        d2 = sq - 2.0 * np.einsum("ij,j->i", xc, y) + yy
        # below 1e-4 of |x_i|^2 + |y|^2 cancellation may cost the expanded
        # form more than about 1e-10 of its value: recompute those directly
        near = np.flatnonzero(d2 < 1e-4 * (sq + yy))
        if near.size:
            diff = xc[near] - y
            d2[near] = np.einsum("ij,ij->i", diff, diff)
        d = np.sqrt(d2)
        on_point = d < 1e-12
        w = np.divide(1.0, d, out=np.zeros_like(d), where=~on_point)
        w_sum = w.sum()
        if w_sum == 0.0:
            return y + centre  # all points coincide
        pull = np.einsum("i,ij->j", w, xc)
        y_new = pull / w_sum
        if on_point.any():
            r = math.hypot(*(pull - w_sum * y))
            eta = float(on_point.sum())
            if r <= eta:
                return y + centre  # the data point itself is the median
            step = min(1.0, eta / r)
            y_new = (1.0 - step) * y_new + step * y
        if math.hypot(*(y_new - y)) < 1e-8:
            return y_new + centre
        y = y_new
    warnings.warn("geometric median did not reach tol 1e-08 in 1000 iterations", stacklevel=2)
    return y + centre


def euclidean_error(median, y) -> float:
    """Euclidean distance between a predictive median field and the observation."""
    median = np.asarray(median, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if median.shape != y.shape:
        raise ValueError("median and observation must share a shape")
    return float(np.linalg.norm(median - y))


def field_scores(fields, y) -> tuple[float, float]:
    """(ES, EE) of sampled fields against the observed vector.

    ES pairs the first half of the fields with the second when there are at
    least 100 of them and takes all pairs otherwise; EE is the distance from
    the fields' spatial median.
    """
    fields = np.asarray(fields, dtype=float)
    n = fields.shape[0]
    if n >= 100:
        es = energy_score(fields[: n // 2], fields[n // 2: 2 * (n // 2)], y)
    else:
        es = energy_score_ensemble(fields, y)
    return es, euclidean_error(spatial_median(fields), y)


def dawid_sebastiani(mu, cov, y) -> float:
    """log det(Sigma) + (y - mu)' Sigma^{-1} (y - mu); smaller is better."""
    mu = np.asarray(mu, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = mu.size
    if y.size != d or cov.shape != (d, d):
        raise ValueError("mu, y, cov dimensions disagree")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("covariance not positive definite") from None
    logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    alpha = solve_triangular(chol, y - mu, lower=True)
    return logdet + float(alpha @ alpha)


def ds_from_sample(fields, y) -> float:
    """Density score with moments estimated from sampled fields.

    The sample covariance gets a 1e-5 diagonal stabilizer before inversion.
    """
    fields = np.atleast_2d(np.asarray(fields, dtype=float))
    if fields.shape[0] < 2:
        raise ValueError("need at least two fields to estimate a covariance")
    mu = fields.mean(axis=0)
    xc = fields - mu
    cov = np.einsum("ki,kj->ij", xc, xc) / (fields.shape[0] - 1)  # no BLAS: np.cov's bits vary with its thread count
    return dawid_sebastiani(mu, cov + 1e-5 * np.eye(mu.size), y)


def mixture_moments(weights, means, covs) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of a mixture of multivariate Gaussians.

    means: (M, d); covs: (M, d, d). The covariance gathers within-component
    covariances plus the between-component spread of the means.
    """
    w = np.asarray(weights, dtype=float).ravel()
    means = np.atleast_2d(np.asarray(means, dtype=float))
    covs = np.asarray(covs, dtype=float)
    if covs.ndim == 2:
        covs = covs[None, :, :]
    if means.shape[0] != w.size or covs.shape != (w.size, means.shape[1], means.shape[1]):
        raise ValueError("weights, means, covs dimensions disagree")
    if abs(w.sum() - 1.0) > 1e-10 or np.any(w < 0):
        raise ValueError("weights must be non-negative and sum to one")
    mu = w @ means
    second = np.einsum("m,mij->ij", w, covs) + np.einsum("m,mi,mj->ij", w, means, means)
    return mu, second - np.outer(mu, mu)


# ---------------------------------------------------------------------------
# calibration diagnostics


def pit(dist, y):
    """Probability integral transform G(y), one per row of a batch law; `dist` may be a cdf callable."""
    cdf = dist.cdf if hasattr(dist, "cdf") else dist
    return _unbox(np.asarray(cdf(y), dtype=float))


def tie_broken_ranks(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """1-based ranks along the last axis of x, ties broken at random by one row-major rng.random(x.shape) draw."""
    return np.lexsort((rng.random(x.shape), x), axis=-1).argsort(axis=-1) + 1  # a permutation's argsort inverts it


def verification_rank(members, y: float, rng: np.random.Generator) -> int:
    """Rank of the observation within the ensemble, ties broken at random."""
    f = np.asarray(members, dtype=float)
    if f.ndim != 1 or f.size == 0 or np.isnan(f).any():
        raise ValueError("members must be a non-empty vector without missing values")
    return int(tie_broken_ranks(np.concatenate([[float(y)], f]), rng)[0])


def band_depth_preranks(vectors, rng: np.random.Generator) -> np.ndarray:
    """Band-depth pre-ranks of each vector within the set.

    For n = M + 1 vectors, the pre-rank of x is
    mean_k (M + 1 - rank_k(x)) (rank_k(x) - 1) + M with coordinate-wise ranks
    and ties broken at random; it counts, up to that affine map, the pairs of
    set members whose band contains x coordinate-wise.
    """
    x = np.atleast_2d(np.asarray(vectors, dtype=float))
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least two vectors")
    ranks = tie_broken_ranks(x.T, rng)  # (d, n): coordinate k's ranks from the k-th n draws
    return ((n - ranks) * (ranks - 1.0)).sum(axis=0) / d + (n - 1.0)


def band_depth_rank(vectors, rng: np.random.Generator, obs_index: int = 0) -> int:
    """Rank of one vector's band-depth pre-rank within the set, ties random."""
    return int(tie_broken_ranks(band_depth_preranks(vectors, rng), rng)[obs_index])


@dataclass(frozen=True)
class Histogram:
    """Counts over equal-probability bins with the total on record."""

    counts: np.ndarray
    total: int

    def __post_init__(self):
        c = np.array(self.counts, dtype=int)
        if c.ndim != 1 or c.size == 0 or np.any(c < 0):
            raise ValueError("counts must be a non-negative vector")
        if int(c.sum()) != self.total:
            raise ValueError(f"total {self.total} does not equal sum of counts {int(c.sum())}")
        object.__setattr__(self, "counts", _readonly(c))

    @property
    def n_bins(self) -> int:
        return self.counts.size

    def frequencies(self) -> np.ndarray:
        if self.total == 0:
            raise ValueError("empty histogram has no frequencies")
        return self.counts / self.total


def pit_histogram(values, n_bins: int = 20) -> Histogram:
    """Histogram of PIT values over n_bins equal-width bins on [0, 1]."""
    v = np.asarray(values, dtype=float)
    if v.size and (np.any(v < 0.0) or np.any(v > 1.0)):
        raise ValueError("PIT values must lie in [0, 1]")
    counts, _ = np.histogram(v, bins=n_bins, range=(0.0, 1.0))
    return Histogram(counts, int(v.size))


def rank_histogram(ranks, n_ranks: int) -> Histogram:
    """Histogram of integer ranks 1..n_ranks."""
    r = np.asarray(ranks, dtype=int)
    if r.size and (r.min() < 1 or r.max() > n_ranks):
        raise ValueError(f"ranks outside 1..{n_ranks}")
    counts = np.bincount(r, minlength=n_ranks + 1)[1:]
    return Histogram(counts, int(r.size))


def reliability_index(hist: Histogram) -> float:
    """Sum of absolute deviations of bin frequencies from uniformity."""
    freq = hist.frequencies()
    return float(np.abs(freq - 1.0 / hist.n_bins).sum())


def temp_difference_pit(pred_i: GaussianPredictive, pred_j: GaussianPredictive, rho: float, delta_y: float) -> float:
    """PIT of an observed difference y_i - y_j under the joint Gaussian law.

    The difference variance is sigma_i^2 - 2 rho sigma_i sigma_j + sigma_j^2;
    a degenerate variance is an error.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation {rho!r} outside [-1, 1]")
    var = pred_i.variance - 2.0 * rho * pred_i.sd * pred_j.sd + pred_j.variance
    if var <= VARIANCE_FLOOR:
        raise ValueError("degenerate difference variance")
    z = (delta_y - (pred_i.mean - pred_j.mean)) / math.sqrt(var)
    return float(gaussian_cdf(z))


def mad_from_half(pit_values) -> float:
    """Mean absolute deviation of PIT values from one half (0.25 if calibrated)."""
    v = np.asarray(pit_values, dtype=float)
    if v.size == 0:
        raise ValueError("no PIT values")
    return float(np.abs(v - 0.5).mean())


# ---------------------------------------------------------------------------
# composite events


def composite_minimum(fields: ForecastFieldSample, subset: Optional[Sequence[str]] = None) -> np.ndarray:
    """Per-sample minimum over a station subset (default: all stations)."""
    if subset is None:
        cols = np.arange(len(fields.station_order))
    else:
        index = {sid: i for i, sid in enumerate(fields.station_order)}
        missing = [s for s in subset if s not in index]
        if missing:
            raise KeyError(f"stations {missing} not in the sampled fields")
        cols = np.array([index[s] for s in subset])
        if cols.size == 0:
            raise ValueError("empty station subset")
    return fields.fields[:, cols].min(axis=1)


def threshold_prob(values, x: float) -> float:
    """Fraction of sampled values at or below the threshold."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("no sampled values")
    return float((v <= x).mean())


# ---------------------------------------------------------------------------
# bookkeeping


@dataclass(frozen=True)
class ScoreRow:
    date: str
    unit: str
    method: str
    score: str
    value: float


class ScoreTable:
    """Append-only (date, unit, method, score, value) rows with CSV round-trip."""

    HEADER = ("date", "unit", "method", "score", "value")

    def __init__(self, rows: Iterable[ScoreRow] = ()):
        self.rows: list[ScoreRow] = list(rows)

    def add(self, date: str, unit: str, method: str, score: str, value: float) -> None:
        self.rows.append(ScoreRow(str(date), str(unit), str(method), str(score), float(value)))

    def add_rows(self, date: str, method: str, rows: Iterable[tuple[str, str, float]]) -> None:
        for unit, score, value in rows:
            self.add(date, unit, method, score, value)

    def __len__(self) -> int:
        return len(self.rows)

    def values(self, method: str, score: str) -> np.ndarray:
        return np.array([r.value for r in self.rows if r.method == method and r.score == score])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.HEADER)
            for r in self.rows:
                writer.writerow((r.date, r.unit, r.method, r.score, repr(r.value)))

    @classmethod
    def read_csv(cls, path) -> "ScoreTable":
        table = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != cls.HEADER:
                raise ValueError(f"{path}: unexpected header {header!r}")
            for row in reader:
                if row:
                    table.add(row[0], row[1], row[2], row[3], float(row[4]))
        return table


def histogram_to_csv(hist: Histogram, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("bin", "count"))
        for i, c in enumerate(hist.counts, start=1):
            writer.writerow((i, int(c)))
