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
    objective: float
    degenerate: bool = False

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta {self.theta!r} outside [0, 1]")
        if not self.range_km > 0.0:
            raise ValueError(f"range {self.range_km!r} must be positive")


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
    _, obs = data.training_panels(window)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    shape = obs.shape
    if mu.shape != shape or sigma.shape != shape:
        raise ValueError(f"mu/sigma must have shape {shape}")
    if np.any(sigma < math.sqrt(VARIANCE_FLOOR) * (1.0 - 1e-12)):
        raise ValueError("predictive sd below the variance floor")
    values = (obs - mu) / sigma
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
    warning. Pair sums and day counts are einsum Gram products over the days
    of the NaN-zeroed panel and its mask, so they do not depend on the BLAS
    build or its thread count; pairs and their order are cached on stations.
    """
    if tuple(stations.ids) != panel.station_ids:
        raise ValueError("panel stations do not match the station set")
    n = len(stations)
    if n < 2:
        raise ValueError("need at least two stations")
    if n_bins < 1:
        raise ValueError("n_bins must be positive")
    iu, ju, pair_dist, order = stations.station_pairs()
    present = ~np.isnan(panel.values)
    mask = present.astype(float)
    e = np.where(present, panel.values, 0.0)
    counts = np.einsum("ti,tj->ij", mask, mask)[iu, ju]
    keep = counts > 0
    if not keep.any():
        raise ValueError("no station pair has a common day with both errors present")
    # sum over common days of (e_i - e_j)^2 = e_i^2 + e_j^2 - 2 e_i e_j
    sq_on_common = np.einsum("ti,tj->ij", e * e, mask)
    sums = sq_on_common + sq_on_common.T - 2.0 * np.einsum("ti,tj->ij", e, e)
    pair_gamma = 0.5 * np.maximum(sums[iu, ju], 0.0) / np.maximum(counts, 1.0)
    order = order[keep[order]]

    if order.size < n_bins:
        warnings.warn(f"only {order.size} pairs; reducing bins from {n_bins}", stacklevel=2)
        n_bins = order.size
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
) -> VariogramFit:
    """Weighted least squares fit of (theta, range).

    Minimizes sum_l n_l ((gamma_hat_l - gamma(d_l)) / gamma(d_l))^2 over
    theta in [1e-6, 1 - 1e-6] and range in [r_max * 1e-4, r_max]: the best
    point of a 41 x 41 grid on (logit theta, log range), polished by damped
    Newton steps. No BLAS or optimizer library runs, so the fit does not
    depend on the BLAS build or its thread count. Ties go to the larger
    theta, then the shorter range, and Newton moves only downhill: bins with
    no distance signal (any theta fits once the range is at its floor) give
    theta = 1 - 1e-6 at the floor, flagged degenerate. All-zero bins give a
    degenerate fit with theta 0.
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

    def objective(theta, v):
        """The objective at every (theta, log range) pair: (len(theta), len(v))."""
        rise = 1.0 - np.exp(-d / np.exp(v)[:, None])
        gamma = np.maximum((1.0 - theta[:, None, None]) * rise + theta[:, None, None], 1e-12)
        return np.einsum("trl,l->tr", (g_hat / gamma - 1.0) ** 2, n)

    v_lo, v_hi = math.log(r_max * 1e-4), math.log(r_max)
    if np.all(g_hat <= 0.0):
        warnings.warn("all empirical variogram bins are zero; returning degenerate fit", stacklevel=2)
        return VariogramFit(0.0, r_max, float(objective(np.zeros(1), np.array([v_hi]))[0, 0]), degenerate=True)
    if (g_hat > 0.0).sum() < 2:
        raise ValueError("need at least two positive empirical bins")

    thetas = 1.0 / (1.0 + np.exp(-np.linspace(math.log((1 - 1e-6) / 1e-6), math.log(1e-6 / (1 - 1e-6)), 41)))
    vs = np.linspace(v_lo, v_hi, 41)
    s = objective(thetas, vs)
    i, j = np.unravel_index(np.argmin(s), s.shape)
    x, s_x = np.array([thetas[i], vs[j]]), float(s[i, j])
    lo, hi = np.array([thetas[-1], v_lo]), np.array([thetas[0], v_hi])
    damping = 1e-3
    for _ in range(100):  # 3 to 9 steps on the desk seasons' fits
        q = d / math.exp(x[1])
        expo = np.exp(-q)
        gamma = (1.0 - x[0]) * (1.0 - expo) + x[0]
        res = g_hat / gamma - 1.0
        r1, r2 = -g_hat / gamma ** 2, 2.0 * g_hat / gamma ** 3  # d res / d gamma, d2 res / d gamma2
        dg = np.stack([expo, -(1.0 - x[0]) * expo * q])  # d gamma / d (theta, log range)
        grad = np.einsum("kl,l->k", dg, n * res * r1)
        # a coordinate on a bound that its gradient pushes against stays there
        free = ~(((x <= lo) & (grad > 0.0)) | ((x >= hi) & (grad < 0.0)))
        grad *= free
        if np.all(np.abs(grad) * (hi - lo) <= 1e-15 * s_x):
            break  # no first-order gain left across the whole box
        hess = np.einsum("kl,ml,l->km", dg, dg, n * (r1 * r1 + res * r2))
        curv = n * res * r1 * expo * q  # the terms of gamma's own second derivatives
        hess += np.array([[0.0, curv.sum()], [curv.sum(), -(curv * (1.0 - x[0]) * (q - 1.0)).sum()]])
        hess += np.diag(damping * np.einsum("kl,kl,l->k", dg, dg, n * r1 * r1))
        m = np.where(np.outer(free, free), hess, np.eye(2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if not (det > 0.0 and m[0, 0] > 0.0):
            damping *= 10.0  # not positive definite: lean toward gradient descent
            continue
        step = np.array([m[0, 1] * grad[1] - m[1, 1] * grad[0], m[1, 0] * grad[0] - m[0, 0] * grad[1]]) / det
        if -np.einsum("k,k->", grad, step) <= 1e-15 * s_x:
            break  # the step cannot gain beyond rounding
        x_new = np.clip(x + step, lo, hi)
        s_new = float(objective(x_new[:1], x_new[1:])[0, 0])
        if s_new < s_x:
            x, s_x, damping = x_new, s_new, damping * 0.1
        else:
            damping *= 10.0
    r = math.exp(x[1])
    # a range collapsed onto its lower bound means the bins carry no distance
    # signal (any theta fits equally well there): flag, don't fail
    collapsed = r <= r_max * 1e-4 * (1.0 + 1e-9)
    return VariogramFit(float(x[0]), float(min(r, r_max)), s_x, degenerate=collapsed)


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
) -> ForecastFieldSample:
    """Correlated Gaussian fields mu + D L z with z standard normal.

    Identical (pred, n_samples, rng state) inputs reproduce the fields
    bit-identically.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    L, _ = cholesky_with_jitter(pred.correlation)
    z = rng.standard_normal((pred.dim, n_samples))
    fields = L @ z
    np.multiply(pred.scale[:, None], fields, out=fields)
    np.add(pred.mu[:, None], fields, out=fields)
    return ForecastFieldSample(pred.station_order, fields.T, "grf-spatial")
