"""Spatial error-correlation modeling.

Standardized forecast errors over a training window feed an empirical
variogram on equal-count distance bins; an exponential-plus-nugget model is
fitted by weighted least squares, its complementary correlation function
builds the station correlation matrix, and correlated Gaussian fields are
sampled around the postprocessed marginals via a lower-triangular factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.optimize import minimize

from .core import (
    VARIANCE_FLOOR,
    EnsembleDataset,
    ForecastFieldSample,
    MultivariatePredictive,
    StationSet,
    TrainingWindow,
    _readonly,
)

# Cholesky retry ladder: diagonal jitter escalates until factorization works.
_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


@dataclass(frozen=True)
class StandardizedErrorPanel:
    """(day, station) panel of standardized forecast errors; NaN = missing."""

    days: tuple[str, ...]
    station_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (len(self.days), len(self.station_ids)):
            raise ValueError(f"panel shape {v.shape} does not match days x stations")
        object.__setattr__(self, "days", tuple(self.days))
        object.__setattr__(self, "station_ids", tuple(self.station_ids))
        object.__setattr__(self, "values", _readonly(v))


@dataclass(frozen=True)
class VariogramBin:
    """One equal-count distance bin of the empirical variogram."""

    distance_km: float
    gamma: float
    n_pairs: int


@dataclass(frozen=True)
class VariogramFit:
    """Fitted nugget fraction and range of the exponential variogram."""

    theta: float
    range_km: float
    bins: tuple[VariogramBin, ...]
    objective: float
    degenerate: bool = False

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta {self.theta!r} outside [0, 1]")
        if not self.range_km > 0.0:
            raise ValueError(f"range {self.range_km!r} must be positive")
        object.__setattr__(self, "bins", tuple(self.bins))


def standardize_errors(
    data: EnsembleDataset,
    window: TrainingWindow,
    mu: np.ndarray,
    sigma: np.ndarray,
) -> StandardizedErrorPanel:
    """(y - mu) / sigma over the window days; missing observations stay NaN.

    mu and sigma are (len(window), n_stations) marginal predictive moments for
    the training days. Any sigma below the floor is an error.
    """
    day_idx = np.array([data.day_index(d) for d in window.training_days])
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    shape = (day_idx.size, data.n_stations)
    if mu.shape != shape or sigma.shape != shape:
        raise ValueError(f"mu/sigma must have shape {shape}")
    if np.any(sigma < math.sqrt(VARIANCE_FLOOR) * (1.0 - 1e-12)):
        raise ValueError("predictive sd below the variance floor")
    values = (data.observations[day_idx] - mu) / sigma
    return StandardizedErrorPanel(window.training_days, data.stations.ids, values)


def empirical_variogram(
    panel: StandardizedErrorPanel,
    stations: StationSet,
    n_bins: int = 20,
) -> tuple[VariogramBin, ...]:
    """Pair-averaged semivariances on equal-count distance bins.

    Each station pair contributes the mean over days of half its squared
    error difference; pairs sharing no day with both values present are
    dropped. Bins are contiguous equal-count groups of pairs sorted by
    distance; when fewer pairs than bins exist the bin count shrinks with a
    warning.
    """
    if tuple(stations.ids) != panel.station_ids:
        raise ValueError("panel stations do not match the station set")
    n = len(stations)
    if n < 2:
        raise ValueError("need at least two stations")
    if n_bins < 1:
        raise ValueError("n_bins must be positive")
    iu, ju = np.triu_indices(n, k=1)
    e = panel.values
    diff2 = 0.5 * (e[:, iu] - e[:, ju]) ** 2
    valid = ~np.isnan(diff2)
    counts = valid.sum(axis=0)
    keep = counts > 0
    if not keep.any():
        raise ValueError("no station pair has a common day with both errors present")
    pair_gamma = np.where(valid, diff2, 0.0).sum(axis=0)[keep] / counts[keep]
    pair_dist = stations.pairwise_distances()[iu, ju][keep]

    if pair_dist.size < n_bins:
        warnings.warn(f"only {pair_dist.size} pairs; reducing bins from {n_bins}", stacklevel=2)
        n_bins = pair_dist.size
    order = np.argsort(pair_dist, kind="stable")
    bins = []
    for group in np.array_split(order, n_bins):
        bins.append(VariogramBin(
            distance_km=float(pair_dist[group].mean()),
            gamma=float(pair_gamma[group].mean()),
            n_pairs=int(group.size),
        ))
    return tuple(bins)


def variogram_model(theta: float, range_km: float, d, same_site: bool = False):
    """Exponential-plus-nugget variogram (1-theta)(1-exp(-d/r)) + theta.

    The nugget term vanishes at a site compared with itself (same_site).
    """
    _check_model_params(theta, range_km)
    d = np.asarray(d, dtype=float)
    g = (1.0 - theta) * (1.0 - np.exp(-d / range_km))
    if not same_site:
        g = g + theta
    return float(g) if g.ndim == 0 else g


def correlation_model(theta: float, range_km: float, d, same_site: bool = False):
    """Complement of the variogram: (1-theta) exp(-d/r) plus nugget on site."""
    _check_model_params(theta, range_km)
    d = np.asarray(d, dtype=float)
    c = (1.0 - theta) * np.exp(-d / range_km)
    if same_site:
        c = c + theta
    return float(c) if c.ndim == 0 else c


def _check_model_params(theta, range_km):
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta {theta!r} outside [0, 1]")
    if not range_km > 0.0:
        raise ValueError(f"range {range_km!r} must be positive")


def fit_variogram(
    bins: Sequence[VariogramBin],
    r_max: Optional[float] = None,
    start: Optional[tuple[float, float]] = None,
) -> VariogramFit:
    """Weighted least squares fit of (theta, range).

    Minimizes sum_l n_l ((gamma_hat_l - gamma(d_l)) / gamma(d_l))^2 over
    theta in [0, 1] and range in (0, r_max] by bounded quasi-Newton descent on
    (logit theta, log range) with analytic gradients. All-zero empirical bins
    short-circuit to a degenerate pure-nugget-free fit.
    """
    bins = tuple(bins)
    if not bins:
        raise ValueError("no variogram bins")
    d = np.array([b.distance_km for b in bins])
    g_hat = np.array([b.gamma for b in bins])
    n = np.array([b.n_pairs for b in bins], dtype=float)
    if np.any(d <= 0):
        raise ValueError("bin distances must be positive")
    if r_max is None:
        r_max = float(d.max())
    if r_max <= 0:
        raise ValueError("r_max must be positive")

    if np.all(g_hat <= 0.0):
        warnings.warn("all empirical variogram bins are zero; returning degenerate fit", stacklevel=2)
        model = np.clip(variogram_model(0.0, r_max, d), 1e-12, None)
        s = float((n * ((g_hat - model) / model) ** 2).sum())
        return VariogramFit(0.0, r_max, bins, s, degenerate=True)
    if (g_hat > 0.0).sum() < 2:
        raise ValueError("need at least two positive empirical bins")

    if start is None:
        # the WLS surface traps single starts against the theta=1 boundary
        # (flat in range there), so descend from a small deterministic grid
        starts = [(t0, f * r_max) for t0 in (0.1, 0.5, 0.9) for f in (1 / 30, 1 / 8, 1 / 2)]
    else:
        starts = [start]

    def objective(x):
        u, v = x
        theta = 1.0 / (1.0 + math.exp(-u))
        r = math.exp(v)
        expo = np.exp(-d / r)
        gamma = np.clip((1.0 - theta) * (1.0 - expo) + theta, 1e-12, None)
        ratio = g_hat / gamma
        s = float((n * (ratio - 1.0) ** 2).sum())
        ds_dgamma = -2.0 * n * (ratio - 1.0) * g_hat / gamma ** 2
        dgamma_dtheta = expo
        dgamma_dr = -(1.0 - theta) * expo * d / r ** 2
        grad = np.array([
            (ds_dgamma @ dgamma_dtheta) * theta * (1.0 - theta),
            (ds_dgamma @ dgamma_dr) * r,
        ])
        return s, grad

    bounds = [
        (math.log(1e-6 / (1 - 1e-6)), math.log((1 - 1e-6) / 1e-6)),
        (math.log(r_max * 1e-4), math.log(r_max)),
    ]
    x_best, s_best = None, math.inf
    for theta0, r0 in starts:
        theta0 = min(max(theta0, 1e-6), 1.0 - 1e-6)
        r0 = min(max(r0, r_max * 1e-4), r_max)
        x0 = np.array([math.log(theta0 / (1.0 - theta0)), math.log(r0)])
        s_init, _ = objective(x0)
        if s_init < s_best:  # the fit must never be worse than its start
            x_best, s_best = x0, s_init
        res = minimize(objective, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10})
        if float(res.fun) < s_best:
            x_best, s_best = res.x, float(res.fun)
    theta = 1.0 / (1.0 + math.exp(-x_best[0]))
    r = math.exp(x_best[1])
    # a range collapsed onto its lower bound means the bins carry no distance
    # signal (any theta fits equally well there): flag, don't fail
    collapsed = r <= r_max * 1e-4 * (1.0 + 1e-9)
    return VariogramFit(float(theta), float(min(r, r_max)), bins, s_best, degenerate=collapsed)


def build_correlation_matrix(fit: Union[VariogramFit, tuple[float, float]], stations: StationSet) -> np.ndarray:
    """Station correlation matrix from the fitted model.

    Distinct co-located stations get correlation 1 - theta; the diagonal is
    exactly one.
    """
    if isinstance(fit, VariogramFit):
        theta, r = fit.theta, fit.range_km
    else:
        theta, r = fit
    _check_model_params(theta, r)
    dist = stations.pairwise_distances()
    corr = (1.0 - theta) * np.exp(-dist / r)
    np.fill_diagonal(corr, 1.0)
    return corr


def build_spatial_ngr(
    mu: np.ndarray,
    sigma: np.ndarray,
    correlation: np.ndarray,
    station_order: Sequence[str],
) -> MultivariatePredictive:
    """Joint Gaussian law: postprocessed marginals plus error correlation."""
    sigma = np.asarray(sigma, dtype=float)
    return MultivariatePredictive(
        station_order=tuple(station_order),
        mu=np.asarray(mu, dtype=float),
        scale=sigma,
        correlation=np.asarray(correlation, dtype=float),
    )


def cholesky_with_jitter(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower factor of a near-PSD matrix, escalating diagonal jitter."""
    matrix = np.asarray(matrix, dtype=float)
    for jitter in _JITTERS:
        try:
            bumped = matrix if jitter == 0.0 else matrix + jitter * np.eye(matrix.shape[0])
            return np.linalg.cholesky(bumped), jitter
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(f"factorization failed even with jitter {_JITTERS[-1]}")


def sample_fields(
    pred: MultivariatePredictive,
    n_samples: int,
    rng: np.random.Generator,
    *,
    seed: Optional[int] = None,
    provenance: str = "grf-spatial",
) -> ForecastFieldSample:
    """Correlated Gaussian fields mu + D L z with z standard normal.

    Identical (pred, n_samples, rng state) inputs reproduce the fields
    bit-identically; `seed` is recorded for provenance only.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    L, _ = cholesky_with_jitter(pred.correlation)
    z = rng.standard_normal((pred.dim, n_samples))
    fields = L @ z
    np.multiply(pred.scale[:, None], fields, out=fields)
    np.add(pred.mu[:, None], fields, out=fields)
    return ForecastFieldSample(pred.station_order, fields.T, provenance, seed)
