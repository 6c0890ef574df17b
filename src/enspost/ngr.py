"""Ensemble regression with Gaussian predictive laws.

Two variants share one CRPS-minimization core:

* a global regression of the observation on the raw member forecasts, with
  non-negative member weights enforced by parameterizing each weight as a
  square, and predictive variance c + d * S^2 driven by the ensemble spread;
* a locally adaptive variant that regresses observed anomalies on member
  forecast anomalies around per-station training-window climatologies, with
  predictive variance c * xi_s^2 + d * S^2 built from the station's own mean
  squared regression residual xi_s^2.

Variance coefficients always enter squared (c = c_raw^2, d = d_raw^2), and the
fits minimize the mean closed-form CRPS over the training window by
quasi-Newton descent with analytic gradients.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtr

from .core import (
    VARIANCE_FLOOR,
    EnsembleDataset,
    GaussianPredictive,
    Station,
    StationSet,
    TrainingWindow,
    _readonly,
    gaussian_pdf,
)

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# member imputation


def _impute_panel(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fill missing members with the row's available-member mean.

    Returns the filled panel and the unbiased spread S^2 over available
    members (zero where fewer than two are available). Rows with no members
    at all are an error.
    """
    f = np.asarray(f, dtype=float)
    valid = ~np.isnan(f)
    count = valid.sum(axis=-1)
    if np.any(count == 0):
        raise ValueError("row with no available member forecasts")
    total = np.where(valid, f, 0.0).sum(axis=-1)
    mean = total / count
    filled = np.where(valid, f, mean[..., None])
    dev = np.where(valid, f - mean[..., None], 0.0)
    s2 = (dev ** 2).sum(axis=-1) / np.maximum(count - 1, 1)
    s2 = np.where(count > 1, s2, 0.0)
    return filled, s2


def impute_members(values) -> tuple[np.ndarray, float]:
    """Single-row convenience wrapper around _impute_panel."""
    filled, s2 = _impute_panel(np.asarray(values, dtype=float)[None, :])
    return filled[0], float(s2[0])


# ---------------------------------------------------------------------------
# closed-form CRPS for Gaussian predictives


def _crps_std(z):
    """CRPS of a standard normal at z, vectorized."""
    return z * (2.0 * ndtr(z) - 1.0) + 2.0 * gaussian_pdf(z) - _INV_SQRT_PI


def crps_gaussian(dist: GaussianPredictive, y: float) -> float:
    """Closed-form continuous ranked probability score, in degC."""
    if not np.isfinite(y):
        raise ValueError(f"non-finite observation {y!r}")
    sd = dist.sd
    z = (y - dist.mean) / sd
    return float(sd * _crps_std(z))


def crps_gaussian_gradient(dist: GaussianPredictive, y: float) -> tuple[float, float]:
    """(d/d mean, d/d sd) of the closed-form CRPS."""
    if not np.isfinite(y):
        raise ValueError(f"non-finite observation {y!r}")
    z = (y - dist.mean) / dist.sd
    d_mean = 1.0 - 2.0 * float(ndtr(z))
    d_sd = 2.0 * gaussian_pdf(z) - _INV_SQRT_PI
    return d_mean, d_sd


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
class StationClimatology:
    """Training-window climatology at one station."""

    ybar: float
    fbar: np.ndarray
    xi2: float

    def __post_init__(self):
        object.__setattr__(self, "fbar", _readonly(np.array(self.fbar, dtype=float).ravel()))
        if self.xi2 < 0:
            raise ValueError("xi2 must be non-negative")


@dataclass(frozen=True)
class NgrCParams:
    """Locally adaptive regression parameters around station climatologies."""

    b: np.ndarray
    c_raw: float
    d_raw: float
    climatology: Mapping[str, StationClimatology]
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
        object.__setattr__(self, "climatology", dict(self.climatology))

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
    day_idx = np.array([data.day_index(d) for d in window.training_days])
    F = data.forecasts[day_idx]
    Y = data.observations[day_idx]
    member_count = (~np.isnan(F)).sum(axis=-1)
    usable = ~np.isnan(Y) & (member_count >= 2)
    t_rows, s_rows = np.nonzero(usable)
    filled, s2 = _impute_panel(F[t_rows, s_rows])
    return Y[t_rows, s_rows], filled, s2, s_rows, t_rows


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


def fit_ngr_plus(
    data: EnsembleDataset,
    window: TrainingWindow,
    init: Optional[NgrPlusParams] = None,
    *,
    gtol: float = 1e-8,
    max_iter: int = 500,
) -> NgrPlusParams:
    """Fit the global regression by minimizing mean CRPS over the window.

    `init` warm-starts the optimizer (typically the previous day's solution);
    the default start is a = 0, beta_m = sqrt(1/M), c_raw = d_raw = 1. The
    returned parameters never score worse than the start.
    """
    y, F, S2, _, _ = _training_rows(data, window)
    M = data.members
    if y.size < M + 3:
        raise ValueError(f"need at least M+3 = {M + 3} training pairs, have {y.size}")
    if init is None:
        init = NgrPlusParams(0.0, np.full(M, math.sqrt(1.0 / M)), 1.0, 1.0)
    if init.beta.size != M:
        raise ValueError(f"init has {init.beta.size} member weights, dataset has {M}")
    x0 = np.concatenate([[init.a], init.beta, [init.c_raw, init.d_raw]])

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

    res = minimize(objective, x0, jac=True, method="BFGS", options={"gtol": gtol, "maxiter": max_iter})
    x_best, f_best = res.x, float(res.fun)
    f_init, _ = objective(x0)
    if f_best > f_init:  # never leave the start for something worse
        x_best, f_best = x0, f_init
    grad_norm = float(np.max(np.abs(objective(x_best)[1])))
    converged = grad_norm <= 1e-6
    if not converged:
        warnings.warn(f"regression fit stopped with gradient norm {grad_norm:.2e}", stacklevel=2)
    return NgrPlusParams(
        a=float(x_best[0]),
        beta=x_best[1:1 + M],
        c_raw=float(x_best[1 + M]),
        d_raw=float(x_best[2 + M]),
        converged=converged,
        grad_norm=grad_norm,
        objective=f_best,
    )


def predict_ngr_plus(params: NgrPlusParams, forecasts, s2: Optional[float] = None) -> GaussianPredictive:
    """Predictive law from one station's member forecasts.

    Missing members are imputed by the available-member mean; when `s2` is not
    given the spread is computed over available members only.
    """
    filled, s2_avail = impute_members(forecasts)
    if filled.size != params.beta.size:
        raise ValueError(f"{filled.size} member values for {params.beta.size} weights")
    if s2 is None:
        s2 = s2_avail
    mean = params.a + float(filled @ params.b)
    return GaussianPredictive(mean, params.c + params.d * float(s2))


# ---------------------------------------------------------------------------
# locally adaptive variant


def fit_ngr_c(
    data: EnsembleDataset,
    window: TrainingWindow,
    ridge: Optional[float] = None,
    *,
    min_station_obs: int = 5,
    init: tuple[float, float] = (1.0, 1.0),
    gtol: float = 1e-8,
    max_iter: int = 500,
) -> NgrCParams:
    """Two-step fit: ridge least squares for b, then CRPS descent for (c, d).

    Step one regresses observed anomalies on member forecast anomalies around
    the training-window climatology, pooled over stations, with penalty
    ridge * ||b||^2 (default ridge = 1e-4 * n_rows; coefficients are not sign
    constrained). Station-day pairs with a missing observation are dropped;
    stations with fewer than `min_station_obs` usable pairs are left out of
    the fit and carry no climatology. xi_s^2 is the mean squared step-one
    residual at station s.
    """
    y, F, S2, s_rows, _ = _training_rows(data, window)
    M = data.members
    station_ids = data.stations.ids

    counts = np.bincount(s_rows, minlength=len(station_ids))
    kept_stations = np.nonzero(counts >= min_station_obs)[0]
    if kept_stations.size == 0:
        raise ValueError(f"no station has {min_station_obs} usable training pairs")
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
    if ridge is None:
        ridge = 1e-4 * n
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    if ridge == 0.0:
        b, _, rank, _ = np.linalg.lstsq(X, y_anom, rcond=None)
        if rank < M:
            warnings.warn("singular normal equations at ridge=0; refitting with ridge=1e-6", stacklevel=2)
            ridge = 1e-6
    if ridge > 0.0:
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

    x0 = np.asarray(init, dtype=float)
    res = minimize(objective, x0, jac=True, method="BFGS", options={"gtol": gtol, "maxiter": max_iter})
    x_best, f_best = res.x, float(res.fun)
    f_init, _ = objective(x0)
    if f_best > f_init:
        x_best, f_best = x0, f_init
    grad_norm = float(np.max(np.abs(objective(x_best)[1])))
    converged = grad_norm <= 1e-6
    if not converged:
        warnings.warn(f"variance fit stopped with gradient norm {grad_norm:.2e}", stacklevel=2)

    climatology = {
        station_ids[s]: StationClimatology(float(ybar[s]), fbar[s].copy(), float(xi2[s]))
        for s in kept_stations
    }
    return NgrCParams(
        b=b,
        c_raw=float(x_best[0]),
        d_raw=float(x_best[1]),
        climatology=climatology,
        ridge=float(ridge),
        converged=converged,
        grad_norm=grad_norm,
        objective=f_best,
    )


def predict_ngr_c(
    params: NgrCParams,
    station: Union[Station, str],
    forecasts,
    s2: Optional[float] = None,
) -> GaussianPredictive:
    """Predictive law at a station carrying a climatology.

    Missing members contribute the mean anomaly of the available members.
    """
    sid = station.id if isinstance(station, Station) else str(station)
    clim = params.climatology.get(sid)
    if clim is None:
        raise KeyError(f"station {sid!r} has no training climatology; interpolate one first")
    f = np.asarray(forecasts, dtype=float).ravel()
    if f.size != params.b.size:
        raise ValueError(f"{f.size} member values for {params.b.size} coefficients")
    avail = ~np.isnan(f)
    if not avail.any():
        raise ValueError(f"no member forecasts available at station {sid!r}")
    anom = f - clim.fbar
    anom[~avail] = anom[avail].mean()
    if s2 is None:
        s2 = float(np.var(f[avail], ddof=1)) if avail.sum() > 1 else 0.0
    mean = clim.ybar + float(anom @ params.b)
    return GaussianPredictive(mean, params.c * clim.xi2 + params.d * float(s2))


def interpolate_ngr_c(
    params: NgrCParams,
    target: Station,
    stations: StationSet,
    power: float = 2.0,
) -> StationClimatology:
    """Inverse-distance-weighted climatology for an unobserved location.

    A target coinciding with a source station returns that station's
    climatology exactly.
    """
    sids = [sid for sid in stations.ids if sid in params.climatology]
    if not sids:
        raise ValueError("no source stations carry a climatology")
    src = np.array([[stations[stations.index(sid)].x, stations[stations.index(sid)].y] for sid in sids])
    d = np.hypot(src[:, 0] - target.x, src[:, 1] - target.y)
    exact = np.nonzero(d < 1e-9)[0]
    if exact.size:
        return params.climatology[sids[exact[0]]]
    w = d ** (-power)
    w /= w.sum()
    ybar = float(w @ np.array([params.climatology[s].ybar for s in sids]))
    fbar = w @ np.stack([params.climatology[s].fbar for s in sids])
    xi2 = float(w @ np.array([params.climatology[s].xi2 for s in sids]))
    return StationClimatology(ybar, fbar, xi2)


# ---------------------------------------------------------------------------
# JSON round-trip for fitted parameters


def params_to_json(params, target_day: str, window_days=()) -> dict:
    """JSON-ready dict for either regression variant."""
    if isinstance(params, NgrPlusParams):
        return {
            "method": "ngr+",
            "target_day": target_day,
            "window_days": list(window_days),
            "a": params.a,
            "beta": params.beta.tolist(),
            "c_raw": params.c_raw,
            "d_raw": params.d_raw,
            "climatology": {},
        }
    if isinstance(params, NgrCParams):
        return {
            "method": "ngrc",
            "target_day": target_day,
            "window_days": list(window_days),
            "a": None,
            "beta": params.b.tolist(),
            "c_raw": params.c_raw,
            "d_raw": params.d_raw,
            "ridge": params.ridge,
            "climatology": {
                sid: {"ybar": c.ybar, "fbar": c.fbar.tolist(), "xi2": c.xi2}
                for sid, c in sorted(params.climatology.items())
            },
        }
    raise TypeError(f"unsupported parameter type {type(params).__name__}")


def params_from_json(doc: Union[dict, str]):
    """Inverse of params_to_json; accepts a dict or a JSON string."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    method = doc.get("method")
    if method == "ngr+":
        return NgrPlusParams(
            a=float(doc["a"]),
            beta=np.asarray(doc["beta"], dtype=float),
            c_raw=float(doc["c_raw"]),
            d_raw=float(doc["d_raw"]),
        )
    if method == "ngrc":
        clim = {
            sid: StationClimatology(float(c["ybar"]), np.asarray(c["fbar"], dtype=float), float(c["xi2"]))
            for sid, c in doc["climatology"].items()
        }
        return NgrCParams(
            b=np.asarray(doc["beta"], dtype=float),
            c_raw=float(doc["c_raw"]),
            d_raw=float(doc["d_raw"]),
            climatology=clim,
            ridge=float(doc.get("ridge", 0.0)),
        )
    raise ValueError(f"unknown method {method!r} in parameter document")
