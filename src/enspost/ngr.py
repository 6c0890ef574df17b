"""Ensemble regression with Gaussian predictive laws.

Two variants share one CRPS-minimization core:

* a global regression of the observation on the raw member forecasts, with
  non-negative member weights enforced by parameterizing each weight as a
  square, and predictive variance c + d * S^2 driven by the ensemble spread;
* a locally adaptive variant that regresses observed anomalies on member
  forecast anomalies around per-station training-window climatologies, with
  predictive variance c * xi_s^2 + d * S^2 built from the station's own mean
  squared regression residual xi_s^2. The climatologies are rows of arrays,
  one per station, and a prediction gathers its stations' rows by index.

Variance coefficients always enter squared (c = c_raw^2, d = d_raw^2), and the
fits minimize the mean closed-form CRPS over the training window by
quasi-Newton descent with analytic gradients. The closed-form CRPS of a
Gaussian mixture, which scores the bma method, sits beside the Gaussian one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtr

from .core import (
    VARIANCE_FLOOR,
    EnsembleDataset,
    GaussianPredictive,
    MixturePredictive,
    StationSet,
    TrainingWindow,
    _readonly,
    _unbox,
    gaussian_pdf,
    impute,
    row_dot,
)

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# closed-form CRPS for Gaussian and Gaussian-mixture predictives


def _abs_mean_std(z):
    """E|z + Z| for a standard normal Z, vectorized."""
    return z * (2.0 * ndtr(z) - 1.0) + 2.0 * gaussian_pdf(z)


def _crps_std(z):
    """CRPS of a standard normal at z, vectorized."""
    return _abs_mean_std(z) - _INV_SQRT_PI


def _finite_obs(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError(f"non-finite observation {y!r}")
    return y


def crps_gaussian(dist: GaussianPredictive, y):
    """Closed-form continuous ranked probability score, in degC; one per row of a batch law."""
    y = _finite_obs(y)
    sd = dist.sd
    return _unbox(sd * _crps_std((y - dist.mean) / sd))


def crps_mixture(dist: MixturePredictive, y):
    """Closed-form CRPS of a Gaussian mixture, in degC; one per row of a batch law.

    E|X - y| - E|X - X'| / 2 with E|N(mu, s^2)| = s * _abs_mean_std(mu / s)
    (Grimit, Gneiting, Berrocal & Johnson 2006): a weighted sum over the
    components for the first term and over component pairs, with variance
    sigma_m^2 + sigma_k^2, for the second. The sums are row dot products, so
    each row of a batch law gets its own law's bits.
    """
    y = _finite_obs(y)
    w, m, v = dist.weights, dist.means, dist.variances
    sd = np.sqrt(v)
    to_obs = row_dot(w, sd * _abs_mean_std((y[..., None] - m) / sd))
    pair_sd = np.sqrt(v[..., :, None] + v[..., None, :])
    pairs = pair_sd * _abs_mean_std((m[..., :, None] - m[..., None, :]) / pair_sd)
    return _unbox(to_obs - 0.5 * row_dot(w, row_dot(pairs, w[..., None, :])))


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class NgrPlusParams:
    """Global regression parameters; member weights are beta_m**2 >= 0."""

    a: float
    beta: np.ndarray
    c_raw: float
    d_raw: float
    converged: bool = True
    grad_norm: float = float("nan")
    objective: float = float("nan")

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float).ravel()
        if beta.size == 0:
            raise ValueError("beta must hold at least one member weight")
        if self.c_raw ** 2 + self.d_raw ** 2 == 0.0:
            raise ValueError("at least one of c, d must be strictly positive")
        object.__setattr__(self, "beta", _readonly(beta))

    @property
    def b(self) -> np.ndarray:
        return self.beta ** 2

    @property
    def c(self) -> float:
        return self.c_raw ** 2

    @property
    def d(self) -> float:
        return self.d_raw ** 2


@dataclass(frozen=True)
class NgrCParams:
    """Locally adaptive regression parameters around station climatologies."""

    b: np.ndarray
    c_raw: float
    d_raw: float
    station_ids: tuple[str, ...]  # (K,): row k of the climatology below is station_ids[k]'s
    ybar: np.ndarray  # (K,) training-window mean observation
    fbar: np.ndarray  # (K, M) training-window mean member forecasts
    xi2: np.ndarray  # (K,) mean squared anomaly-regression residual
    ridge: float = 0.0
    converged: bool = True
    grad_norm: float = float("nan")
    objective: float = float("nan")

    def __post_init__(self):
        b = np.array(self.b, dtype=float).ravel()
        if b.size == 0:
            raise ValueError("b must hold at least one member coefficient")
        if self.c_raw ** 2 + self.d_raw ** 2 == 0.0:
            raise ValueError("at least one of c, d must be strictly positive")
        object.__setattr__(self, "b", _readonly(b))
        object.__setattr__(self, "station_ids", tuple(self.station_ids))
        for name, shape in (("ybar", -1), ("fbar", (-1, b.size)), ("xi2", -1)):
            object.__setattr__(self, name, _readonly(np.array(getattr(self, name), dtype=float).reshape(shape)))
        if not len(self.station_ids) == self.ybar.size == len(self.fbar) == self.xi2.size:
            raise ValueError("station_ids, ybar, fbar and xi2 must hold one row per station")
        if np.any(self.xi2 < 0):
            raise ValueError("xi2 must be non-negative")

    @property
    def c(self) -> float:
        return self.c_raw ** 2

    @property
    def d(self) -> float:
        return self.d_raw ** 2


# ---------------------------------------------------------------------------
# training-row assembly


def _training_rows(data: EnsembleDataset, window: TrainingWindow):
    """Rows (observation, imputed members, S^2, station index, day index).

    A row requires a present observation and at least two available members.
    """
    if data.members < 2:
        raise ValueError("spread-based regression needs at least 2 ensemble members")
    F, Y = data.training_panels(window)
    filled, s2, count = impute(F)
    t_rows, s_rows = np.nonzero(~np.isnan(Y) & (count >= 2))
    return Y[t_rows, s_rows], filled[t_rows, s_rows], s2[t_rows, s_rows], s_rows, t_rows


def _crps_objective_terms(y, mu, var):
    """Mean CRPS plus per-row pieces shared by both fit variants."""
    clamped = var < VARIANCE_FLOOR
    var = np.maximum(var, VARIANCE_FLOOR)
    sd = np.sqrt(var)
    z = (y - mu) / sd
    phi_cdf = ndtr(z)
    phi_pdf = gaussian_pdf(z)
    crps = sd * (z * (2.0 * phi_cdf - 1.0) + 2.0 * phi_pdf - _INV_SQRT_PI)
    n = y.size
    d_mu = (1.0 - 2.0 * phi_cdf) / n
    d_sd = (2.0 * phi_pdf - _INV_SQRT_PI) / n
    # derivative through sd = sqrt(var); zero where the floor is active
    d_sd_over_sd = np.where(clamped, 0.0, d_sd / sd)
    return float(crps.sum() / n), d_mu, d_sd_over_sd


def _descend(objective, x0: np.ndarray, what: str):
    """BFGS from x0 (gtol 1e-8, at most 500 iterations) that never ends worse than x0.

    Returns (x, objective, gradient max-norm, converged); a fit whose
    gradient stays above 1e-6 warns.
    """
    res = minimize(objective, x0, jac=True, method="BFGS", options={"gtol": 1e-8, "maxiter": 500})
    x_best, f_best = res.x, float(res.fun)
    f_init, _ = objective(x0)
    if f_best > f_init:  # never leave the start for something worse
        x_best, f_best = x0, f_init
    grad_norm = float(np.max(np.abs(objective(x_best)[1])))
    if grad_norm > 1e-6:
        warnings.warn(f"{what} fit stopped with gradient norm {grad_norm:.2e}", stacklevel=3)
    return x_best, f_best, grad_norm, grad_norm <= 1e-6


def fit_ngr_plus(data: EnsembleDataset, window: TrainingWindow) -> NgrPlusParams:
    """Fit the global regression by minimizing mean CRPS over the window.

    The descent starts at a = 0, beta_m = sqrt(1/M), c_raw = d_raw = 1, and
    the returned parameters never score worse than that start.
    """
    y, F, S2, _, _ = _training_rows(data, window)
    M = data.members
    if y.size < M + 3:
        raise ValueError(f"need at least M+3 = {M + 3} training pairs, have {y.size}")
    x0 = np.concatenate([[0.0], np.full(M, math.sqrt(1.0 / M)), [1.0, 1.0]])

    def objective(x):
        a, beta = x[0], x[1:1 + M]
        c_raw, d_raw = x[1 + M], x[2 + M]
        mu = a + F @ (beta * beta)
        var = c_raw * c_raw + d_raw * d_raw * S2
        value, d_mu, d_sd_over_sd = _crps_objective_terms(y, mu, var)
        grad = np.empty_like(x)
        grad[0] = d_mu.sum()
        grad[1:1 + M] = (F.T @ d_mu) * (2.0 * beta)
        grad[1 + M] = c_raw * d_sd_over_sd.sum()
        grad[2 + M] = d_raw * (d_sd_over_sd @ S2)
        return value, grad

    x_best, f_best, grad_norm, converged = _descend(objective, x0, "regression")
    return NgrPlusParams(
        a=float(x_best[0]),
        beta=x_best[1:1 + M],
        c_raw=float(x_best[1 + M]),
        d_raw=float(x_best[2 + M]),
        converged=converged,
        grad_norm=grad_norm,
        objective=f_best,
    )


def predict_ngr_plus(params: NgrPlusParams, forecasts) -> GaussianPredictive:
    """Predictive law from member forecasts, missing members imputed.

    One station's (M,) members give one law; an (n, M) stack of rows a batch.
    """
    filled, s2, count = impute(forecasts)
    if filled.shape[-1] != params.beta.size:
        raise ValueError(f"{filled.shape[-1]} member values for {params.beta.size} weights")
    if np.any(count == 0):
        raise ValueError("no member forecasts available")
    return GaussianPredictive(params.a + row_dot(filled, params.b), params.c + params.d * s2)


# ---------------------------------------------------------------------------
# locally adaptive variant


def fit_ngr_c(data: EnsembleDataset, window: TrainingWindow) -> NgrCParams:
    """Two-step fit: ridge least squares for b, then CRPS descent for (c, d).

    Step one regresses observed anomalies on member forecast anomalies around
    the training-window climatology, pooled over stations, with penalty
    ridge * ||b||^2, ridge = 1e-4 * n_rows (coefficients are not sign
    constrained). Station-day pairs with a missing observation are dropped;
    stations with fewer than 5 usable pairs are left out of the fit and
    carry no climatology. xi_s^2 is the mean squared step-one residual at
    station s. The descent starts at (c_raw, d_raw) = (1, 1).
    """
    y, F, S2, s_rows, _ = _training_rows(data, window)
    M = data.members
    station_ids = data.stations.ids

    counts = np.bincount(s_rows, minlength=len(station_ids))
    kept_stations = np.nonzero(counts >= 5)[0]
    if kept_stations.size == 0:
        raise ValueError("no station has 5 usable training pairs")
    keep_row = np.isin(s_rows, kept_stations)
    y, F, S2, s_rows = y[keep_row], F[keep_row], S2[keep_row], s_rows[keep_row]
    n = y.size
    if n < M + 3:
        raise ValueError(f"need at least M+3 = {M + 3} training pairs, have {n}")

    # climatologies over each station's own usable rows
    ybar = np.zeros(len(station_ids))
    fbar = np.zeros((len(station_ids), M))
    np.add.at(ybar, s_rows, y)
    np.add.at(fbar, s_rows, F)
    ybar[kept_stations] /= counts[kept_stations]
    fbar[kept_stations] /= counts[kept_stations][:, None]

    X = F - fbar[s_rows]
    y_anom = y - ybar[s_rows]
    ridge = 1e-4 * n
    b = np.linalg.solve(X.T @ X + ridge * np.eye(M), X.T @ y_anom)

    resid = y_anom - X @ b
    xi2 = np.zeros(len(station_ids))
    np.add.at(xi2, s_rows, resid ** 2)
    xi2[kept_stations] /= counts[kept_stations]

    xi2_rows = xi2[s_rows]
    mu = ybar[s_rows] + X @ b

    def objective(x):
        c_raw, d_raw = x
        var = c_raw * c_raw * xi2_rows + d_raw * d_raw * S2
        value, _, d_sd_over_sd = _crps_objective_terms(y, mu, var)
        grad = np.array([
            c_raw * (d_sd_over_sd @ xi2_rows),
            d_raw * (d_sd_over_sd @ S2),
        ])
        return value, grad

    x_best, f_best, grad_norm, converged = _descend(objective, np.array([1.0, 1.0]), "variance")

    return NgrCParams(
        b=b,
        c_raw=float(x_best[0]),
        d_raw=float(x_best[1]),
        station_ids=tuple(station_ids[s] for s in kept_stations),
        ybar=ybar[kept_stations],
        fbar=fbar[kept_stations],
        xi2=xi2[kept_stations],
        ridge=float(ridge),
        converged=converged,
        grad_norm=grad_norm,
        objective=f_best,
    )


def predict_ngr_c(params: NgrCParams, rows, forecasts) -> GaussianPredictive:
    """Predictive law at stations carrying a climatology, given by their params rows.

    One row (an int) and its station's (M,) member forecasts give one law; an
    (n,) array of rows and an (n, M) stack, a batch of n laws. Missing members
    are imputed as in the fit, before the climatology is subtracted.
    """
    filled, s2, count = impute(forecasts)
    if filled.shape[-1] != params.b.size:
        raise ValueError(f"{filled.shape[-1]} member values for {params.b.size} coefficients")
    if np.any(count == 0):
        raise ValueError("no member forecasts available")
    ybar, fbar, xi2 = params.ybar[rows], params.fbar[rows], params.xi2[rows]
    return GaussianPredictive(ybar + row_dot(filled - fbar, params.b), params.c * xi2 + params.d * s2)


def interpolate_ngr_c(params: NgrCParams, stations: StationSet) -> tuple[NgrCParams, np.ndarray]:
    """Params with a climatology at every station of the set, and each station's row.

    A station the fit left out gets the inverse-distance-squared weighted
    climatology of the set's stations that carry one, in a new row after the
    params' own; one at a source station's location gets that station's
    climatology exactly (the mean of them, where several sources share it).
    """
    index = {sid: k for k, sid in enumerate(params.station_ids)}
    rows = np.array([index.get(sid, -1) for sid in stations.ids], dtype=int)
    new = np.flatnonzero(rows < 0)
    src = np.flatnonzero(rows >= 0)
    if src.size == 0:
        raise ValueError("no source stations carry a climatology")
    xy = stations.coords
    d = np.hypot(xy[src, 0] - xy[new, 0, None], xy[src, 1] - xy[new, 1, None])  # (new, src)
    exact = d < 1e-9
    w = np.where(exact.any(axis=1, keepdims=True), exact, np.maximum(d, 1e-9) ** -2.0)  # the clamp: no 0 ** -2
    w /= w.sum(axis=1, keepdims=True)
    # row by row products, so a station's climatology has the same bits however many are filled at once
    wide = replace(
        params,
        station_ids=params.station_ids + tuple(stations.ids[i] for i in new),
        ybar=np.concatenate([params.ybar, row_dot(w, params.ybar[rows[src]])]),
        fbar=np.concatenate([params.fbar, (w[:, None, :] @ params.fbar[rows[src]])[:, 0]]),
        xi2=np.concatenate([params.xi2, row_dot(w, params.xi2[rows[src]])]),
    )
    rows[new] = len(params.station_ids) + np.arange(new.size)
    return wide, rows
