"""Ensemble model averaging with Gaussian kernels.

Each member's forecast is bias-corrected by ordinary least squares; the
predictive law is a mixture of Gaussians centered on the corrected forecasts
with one shared variance, and the weights and variance are estimated by
expectation maximization over the training window. A spatial extension fits
one error-correlation model per member on that member's standardized
residuals and samples whole fields member by member.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    VARIANCE_FLOOR,
    EnsembleDataset,
    ForecastFieldSample,
    MixturePredictive,
    StationSet,
    TrainingWindow,
    _readonly,
    impute,
)
from .spatial import (
    StandardizedErrorPanel,
    VariogramFit,
    build_correlation_matrix,
    cholesky_with_jitter,
    empirical_variogram,
    fit_variogram,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class BmaParams:
    """Per-member bias corrections and weights with one shared variance."""

    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    sigma2: float
    n_iter: int = 0
    converged: bool = True
    loglik: float = float("nan")

    def __post_init__(self):
        a = np.array(self.a, dtype=float).ravel()
        b = np.array(self.b, dtype=float).ravel()
        w = np.array(self.w, dtype=float).ravel()
        if not (a.size == b.size == w.size) or a.size == 0:
            raise ValueError("a, b, w must share a positive length")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-10:
            raise ValueError("weights must be non-negative and sum to one")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        object.__setattr__(self, "a", _readonly(a))
        object.__setattr__(self, "b", _readonly(b))
        object.__setattr__(self, "w", _readonly(w))

    @property
    def members(self) -> int:
        return self.w.size


@dataclass(frozen=True)
class SpatialBmaParams:
    """Mixture parameters plus one fitted error-correlation model per member."""

    bma: BmaParams
    variograms: tuple[VariogramFit, ...]

    def __post_init__(self):
        object.__setattr__(self, "variograms", tuple(self.variograms))
        if len(self.variograms) != self.bma.members:
            raise ValueError("one variogram fit per member required")


def _logsumexp_rows(a: np.ndarray, work: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) for finite a, by scipy.special.logsumexp's arithmetic.

    The row maximum is taken out of the sum and counted once per tie:
    log1p(s / m) + log(m) + max, with s the sum of exp(a - max) over the
    entries below the maximum and m the number of entries equal to it.
    scipy computes logsumexp this way from release 1.15 on, the lowest
    release pyproject allows; earlier releases return log(sum(exp(a - max)))
    + max, which can differ in the last bit. exp(a - max) is formed in
    `work`, an array laid out like a, so each row sums in the same order.
    """
    a_max = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(a_max, a[:, j], out=a_max)
    at_max = a == a_max[:, None]
    np.subtract(a, a_max[:, None], out=work)
    np.exp(work, out=work)
    np.copyto(work, 0.0, where=at_max)
    m = np.count_nonzero(at_max, axis=1).astype(float)
    s = work.sum(axis=1) / m
    return np.log1p(s) + np.log(m) + a_max


def _em(mu: np.ndarray, y: np.ndarray, sigma2: float, em_tol: float, max_iter: int):
    """EM for the weights and the shared variance of the (n, M) component means mu.

    Starts from uniform weights; returns (w, sigma2, iterations, converged,
    log-likelihood).
    """
    M = mu.shape[1]
    w = np.full(M, 1.0 / M)
    resid2 = (y[:, None] - mu) ** 2
    half_resid2 = 0.5 * resid2
    # the ufuncs of log w - half_resid2 / sigma2 - 0.5 log sigma2 - log sqrt(2 pi),
    # in their order, in two C-ordered (n, M) buffers, so every sum keeps its order
    log_comp = np.empty_like(half_resid2)
    work = np.empty_like(half_resid2)
    loglik_prev = -np.inf
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        np.divide(half_resid2, sigma2, out=log_comp)
        np.subtract(np.log(np.maximum(w, 1e-300)), log_comp, out=log_comp)
        np.subtract(log_comp, 0.5 * math.log(sigma2), out=log_comp)
        np.subtract(log_comp, _LOG_SQRT_2PI, out=log_comp)
        log_norm = _logsumexp_rows(log_comp, work)
        loglik = float(log_norm.sum())
        if loglik < loglik_prev - 1e-8:
            raise RuntimeError(f"EM log-likelihood decreased: {loglik_prev} -> {loglik}")
        if loglik - loglik_prev < em_tol:
            loglik_prev = loglik
            converged = True
            break
        loglik_prev = loglik
        resp = np.exp(np.subtract(log_comp, log_norm[:, None], out=work), out=work)
        w = resp.mean(axis=0)
        w = np.clip(w, 0.0, None)
        w /= w.sum()
        sigma2 = max(float(np.multiply(resp, resid2, out=work).sum() / y.size), VARIANCE_FLOOR)
    return w, sigma2, n_iter, converged, loglik_prev


def fit_bma(
    data: EnsembleDataset,
    window: TrainingWindow,
    em_tol: float = 1e-6,
    *,
    max_iter: int = 500,
) -> BmaParams:
    """OLS bias correction per member, then EM for weights and variance.

    EM starts from uniform weights and the pooled OLS residual variance, and
    runs on complete cases (observation and every member present) until the
    log-likelihood gain drops below em_tol. The log-likelihood never
    decreases; a decrease beyond rounding is an error.
    """
    F, Y = data.training_panels(window)
    M = data.members
    obs_ok = ~np.isnan(Y)
    if not obs_ok.any():
        raise ValueError("no observations in the training window")

    a = np.zeros(M)
    b = np.zeros(M)
    ss_resid = 0.0
    n_resid = 0
    for m in range(M):
        x = F[:, :, m]
        rows = obs_ok & ~np.isnan(x)
        if not rows.any():
            raise ValueError(f"member {m + 1} has no usable training rows")
        xm, ym = x[rows], Y[rows]
        var_x = float(xm.var())
        if var_x < 1e-12:
            warnings.warn(f"member {m + 1} forecasts are constant; using intercept-only correction", stacklevel=2)
            a[m], b[m] = float(ym.mean()), 0.0
        else:
            b[m] = float(((xm - xm.mean()) @ (ym - ym.mean())) / (xm.size * var_x))
            a[m] = float(ym.mean() - b[m] * xm.mean())
        r = ym - a[m] - b[m] * xm
        ss_resid += float(r @ r)
        n_resid += r.size

    complete = obs_ok & ~np.isnan(F).any(axis=2)
    y = Y[complete]
    if y.size == 0:
        raise ValueError("no complete cases (observation plus all members) for EM")
    mu = a + b * F[complete]             # (n, M)

    sigma2 = max(ss_resid / max(n_resid, 1), VARIANCE_FLOOR)
    w, sigma2, n_iter, converged, loglik = _em(mu, y, sigma2, em_tol, max_iter)
    if not converged:
        warnings.warn(f"EM stopped after {max_iter} iterations without meeting tol {em_tol}", stacklevel=2)
    return BmaParams(a=a, b=b, w=w, sigma2=float(sigma2), n_iter=n_iter, converged=converged, loglik=loglik)


def predict_bma(params: BmaParams, forecasts) -> MixturePredictive:
    """Mixture predictive from one station's (M,) member forecasts, or a batch from (n, M) rows.

    A missing member's component gets weight zero, at its imputed forecast,
    and the remaining weights are renormalized: the law without that member.
    """
    f = np.asarray(forecasts, dtype=float)
    filled, _, count = impute(f)
    if f.shape[-1] != params.members:
        raise ValueError(f"{f.shape[-1]} member values for {params.members} members")
    if np.any(count == 0):
        raise ValueError("no member forecasts available")
    w = np.where(np.isnan(f), 0.0, params.w)
    total = w.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("available members carry zero total weight")
    return MixturePredictive(w / total, params.a + params.b * filled, params.sigma2)


def fit_spatial_bma(
    data: EnsembleDataset,
    window: TrainingWindow,
    bma: BmaParams,
    n_bins: int = 20,
) -> SpatialBmaParams:
    """Per-member error-correlation fits on standardized member residuals.

    Member m's residual panel is (y - a_m - b_m f_m) / sigma over the window.
    Members whose panel cannot support a fit fall back to a variogram fitted
    on the residuals of all members pooled, with a warning.
    """
    F, Y = data.training_panels(window)
    if bma.members != data.members:
        raise ValueError("parameter member count does not match the dataset")
    sigma = math.sqrt(bma.sigma2)
    stations = data.stations
    r_max = stations.max_distance()
    days = window.training_days

    panels = []
    for m in range(bma.members):
        values = (Y - bma.a[m] - bma.b[m] * F[:, :, m]) / sigma
        panels.append(StandardizedErrorPanel(days, stations.ids, values))

    pooled_fit = None

    def pooled() -> VariogramFit:
        nonlocal pooled_fit
        if pooled_fit is None:
            stacked = np.concatenate([p.values for p in panels], axis=0)
            labels = tuple(f"{d}/m{m + 1}" for m in range(bma.members) for d in days)
            panel = StandardizedErrorPanel(labels, stations.ids, stacked)
            pooled_fit = fit_variogram(empirical_variogram(panel, stations, n_bins), r_max=r_max)
        return pooled_fit

    fits = []
    for m in range(bma.members):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit = fit_variogram(empirical_variogram(panels[m], stations, n_bins), r_max=r_max)
        except Exception:
            warnings.warn(f"member {m + 1} residual variogram degenerate; using pooled fit", stacklevel=2)
            fit = pooled()
        fits.append(fit)
    return SpatialBmaParams(bma=bma, variograms=tuple(fits))


def sample_spatial_bma(
    params: SpatialBmaParams,
    forecasts: np.ndarray,
    stations: StationSet,
    n_samples: int,
    rng: np.random.Generator,
) -> ForecastFieldSample:
    """Whole-field mixture sampling.

    Each sample draws one member by weight, then a field equal to that
    member's bias-corrected forecast plus sigma times a correlated standard
    error field from the member's fitted correlation model. Missing member
    forecasts are imputed by the station's available-member mean.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    f, _, count = impute(forecasts)
    if f.shape != (len(stations), params.bma.members):
        raise ValueError(f"forecasts shape {f.shape} does not match (n_stations, members)")
    if np.any(count == 0):
        raise ValueError("station with no member forecasts at all")

    bma = params.bma
    sigma = math.sqrt(bma.sigma2)
    comp = rng.choice(bma.members, size=n_samples, p=bma.w / bma.w.sum())
    fields = np.empty((n_samples, len(stations)))
    for m in np.unique(comp):
        rows = np.nonzero(comp == m)[0]
        corr = build_correlation_matrix(params.variograms[m], stations)
        L, _ = cholesky_with_jitter(corr)
        z = rng.standard_normal((len(stations), rows.size))
        mu_field = bma.a[m] + bma.b[m] * f[:, m]
        fields[rows] = (mu_field[:, None] + sigma * (L @ z)).T
    return ForecastFieldSample(stations.ids, fields, "spatial-bma")


def params_to_json(params: BmaParams, target_day: str, window_days: Sequence[str] = ()) -> dict:
    """JSON-serializable record of a mixture fit."""
    return {
        "method": "bma",
        "target_day": str(target_day),
        "window_days": [str(d) for d in window_days],
        "a": [float(v) for v in params.a],
        "b": [float(v) for v in params.b],
        "w": [float(v) for v in params.w],
        "sigma2": float(params.sigma2),
        "n_iter": int(params.n_iter),
        "converged": bool(params.converged),
        "loglik": float(params.loglik),
    }


def params_from_json(doc: dict) -> BmaParams:
    if doc.get("method") != "bma":
        raise ValueError(f"not a mixture parameter record: method {doc.get('method')!r}")
    return BmaParams(
        a=np.asarray(doc["a"], dtype=float),
        b=np.asarray(doc["b"], dtype=float),
        w=np.asarray(doc["w"], dtype=float),
        sigma2=float(doc["sigma2"]),
        n_iter=int(doc.get("n_iter", 0)),
        converged=bool(doc.get("converged", True)),
        loglik=float(doc.get("loglik", float("nan"))),
    )
