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

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional

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
    _unbox,
    gaussian_pdf,
    impute,
    row_dot,
)

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# closed-form CRPS for Gaussian predictives


def _crps_std(z):
    """CRPS of a standard normal at z, vectorized."""
    return z * (2.0 * ndtr(z) - 1.0) + 2.0 * gaussian_pdf(z) - _INV_SQRT_PI


def crps_gaussian(dist: GaussianPredictive, y):
    """Closed-form continuous ranked probability score, in degC; one per row of a batch law."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError(f"non-finite observation {y!r}")
    sd = dist.sd
    return _unbox(sd * _crps_std((y - dist.mean) / sd))


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


def _descend(objective, x0: np.ndarray, gtol: float, max_iter: int, what: str):
    """BFGS from x0 that never ends worse than x0.

    Returns (x, objective, gradient max-norm, converged); a fit whose
    gradient stays above 1e-6 warns.
    """
    res = minimize(objective, x0, jac=True, method="BFGS", options={"gtol": gtol, "maxiter": max_iter})
    x_best, f_best = res.x, float(res.fun)
    f_init, _ = objective(x0)
    if f_best > f_init:  # never leave the start for something worse
        x_best, f_best = x0, f_init
    grad_norm = float(np.max(np.abs(objective(x_best)[1])))
    if grad_norm > 1e-6:
        warnings.warn(f"{what} fit stopped with gradient norm {grad_norm:.2e}", stacklevel=3)
    return x_best, f_best, grad_norm, grad_norm <= 1e-6


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

    x_best, f_best, grad_norm, converged = _descend(objective, x0, gtol, max_iter, "regression")
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


def fit_ngr_c(
    data: EnsembleDataset,
    window: TrainingWindow,
    ridge: Optional[float] = None,
    *,
    min_station_obs: int = 5,
    init: Optional[NgrCParams] = None,
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
    residual at station s. `init` (typically the previous day's fit) starts
    the descent at its (c_raw, d_raw); the default start is (1, 1).
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

    x0 = np.array([1.0, 1.0] if init is None else [init.c_raw, init.d_raw])
    x_best, f_best, grad_norm, converged = _descend(objective, x0, gtol, max_iter, "variance")

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


def predict_ngr_c(params: NgrCParams, station, forecasts) -> GaussianPredictive:
    """Predictive law at stations carrying a climatology.

    station (a Station or an id) and its (M,) member forecasts give one law;
    a sequence of ids, one per row of an (n, M) stack, gives a batch of n
    laws. Missing members are imputed as in the fit, before the climatology
    is subtracted.
    """
    filled, s2, count = impute(forecasts)
    if filled.ndim == 1:
        station = [station.id if isinstance(station, Station) else station]
    sids = [str(sid) for sid in station]
    missing = [sid for sid in sids if sid not in params.climatology]
    if missing:
        raise KeyError(f"station {missing[0]!r} has no training climatology; interpolate one first")
    if filled.shape[-1] != params.b.size:
        raise ValueError(f"{filled.shape[-1]} member values for {params.b.size} coefficients")
    if np.any(count == 0):
        raise ValueError("no member forecasts available")
    clims = [params.climatology[sid] for sid in sids]
    ybar, xi2 = (np.reshape([getattr(c, k) for c in clims], count.shape) for k in ("ybar", "xi2"))
    fbar = np.reshape([c.fbar for c in clims], filled.shape)
    return GaussianPredictive(ybar + row_dot(filled - fbar, params.b), params.c * xi2 + params.d * s2)


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


def params_from_json(doc: dict):
    """Inverse of params_to_json."""
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
