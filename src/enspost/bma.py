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
    VariogramFit,
    build_correlation_matrix,
    cholesky_with_jitter,
    empirical_variogram,
    fit_variogram,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
EM_TOL = 1e-6  # EM stops when an EM step gains less log-likelihood than this


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
    # column by column: numpy's a.max(axis=1) reduces each short row on its own,
    # about 3 times slower on a (2500, 20) array
    for j in range(1, a.shape[1]):
        np.maximum(a_max, a[:, j], out=a_max)
    at_max = a == a_max[:, None]
    np.subtract(a, a_max[:, None], out=work)
    np.exp(work, out=work)
    np.copyto(work, 0.0, where=at_max)
    m = np.count_nonzero(at_max, axis=1).astype(float)
    s = work.sum(axis=1) / m
    return np.log1p(s) + np.log(m) + a_max


def _em_map(mu: np.ndarray, y: np.ndarray):
    """The EM map of the (n, M) component means mu: step(w, sigma2) -> (loglik, w', sigma2').

    loglik is the log-likelihood at (w, sigma2), from the E step that the
    M step's (w', sigma2') are computed from.
    """
    resid2 = (y[:, None] - mu) ** 2
    half_resid2 = 0.5 * resid2
    # the ufuncs of log w - half_resid2 / sigma2 - 0.5 log sigma2 - log sqrt(2 pi),
    # in their order, in two C-ordered (n, M) buffers, so every sum keeps its order
    log_comp = np.empty_like(half_resid2)
    work = np.empty_like(half_resid2)

    def step(w: np.ndarray, sigma2: float):
        np.divide(half_resid2, sigma2, out=log_comp)
        np.subtract(np.log(np.maximum(w, 1e-300)), log_comp, out=log_comp)
        np.subtract(log_comp, 0.5 * math.log(sigma2), out=log_comp)
        np.subtract(log_comp, _LOG_SQRT_2PI, out=log_comp)
        log_norm = _logsumexp_rows(log_comp, work)
        loglik = float(log_norm.sum())
        resp = np.exp(np.subtract(log_comp, log_norm[:, None], out=work), out=work)
        w = resp.mean(axis=0)
        w = np.clip(w, 0.0, None)
        w /= w.sum()
        sigma2 = max(float(np.multiply(resp, resid2, out=work).sum() / y.size), VARIANCE_FLOOR)
        return loglik, w, sigma2

    return step


def _squarem_points(start, first, second):
    """SQUAREM's extrapolations of two EM steps start -> first -> second, each a (w, sigma2) pair.

    With theta = (w, log sigma2), r = theta1 - theta0 and v = theta2 -
    2 theta1 + theta0, the points are theta0 - 2 alpha r + alpha^2 v, first
    for alpha = min(-|r| / |v|, -1), then for alpha moved halfway toward -1
    again and again. Points with a negative weight are skipped, and the
    others' weights renormalized. The last point, at alpha = -1, is `second`.
    """
    theta0, theta1, theta2 = (np.append(w, math.log(sigma2)) for w, sigma2 in (start, first, second))
    r = theta1 - theta0
    v = theta2 - 2.0 * theta1 + theta0
    norm_v = float(np.linalg.norm(v))
    alpha = min(-float(np.linalg.norm(r)) / norm_v, -1.0) if norm_v > 0 else -1.0
    while alpha != -1.0:
        theta = theta0 - 2.0 * alpha * r + alpha * alpha * v
        if theta[:-1].min() >= 0.0:
            yield theta[:-1] / theta[:-1].sum(), max(math.exp(theta[-1]), VARIANCE_FLOOR)
        alpha = 0.5 * (alpha - 1.0)
    yield second


def _em(mu: np.ndarray, y: np.ndarray, sigma2: float, em_tol: float, max_iter: int):
    """SQUAREM-accelerated EM for the weights and the shared variance of the (n, M) component means mu.

    Starts from uniform weights. Each cycle takes two EM steps from its
    start and extrapolates them (Varadhan & Roland 2008, SQUAREM). It takes
    one EM step from the first extrapolated point whose log-likelihood is at
    least the cycle start's, trying the points of _squarem_points in turn,
    and the next cycle starts from that step's result. The last point tried
    is the second EM step's result, whose log-likelihood EM never lets fall
    below the start's.
    max_iter bounds the EM steps (E+M evaluations). EM stops when an EM step
    from an EM step's result gains less than em_tol; an EM step that loses
    more than rounding is an error. Returns (w, sigma2, EM steps, converged,
    log-likelihood) for the evaluated point of highest log-likelihood.
    """
    step = _em_map(mu, y)
    w = np.full(mu.shape[1], 1.0 / mu.shape[1])
    best = (-np.inf, w, sigma2)
    n_iter = 0

    def evaluate(w, sigma2, loglik_from=None):
        """One EM step; loglik_from is the log-likelihood of the point (w, sigma2) was stepped from."""
        nonlocal best, n_iter
        n_iter += 1
        loglik, w_next, sigma2_next = step(w, sigma2)
        if loglik > best[0]:
            best = (loglik, w, sigma2)
        if loglik_from is not None and loglik < loglik_from - 1e-8:
            raise RuntimeError(f"EM log-likelihood decreased: {loglik_from} -> {loglik}")
        done = loglik_from is not None and loglik - loglik_from < em_tol
        return loglik, w_next, sigma2_next, done

    loglik_from = -np.inf
    converged = False
    while n_iter < max_iter:
        loglik0, w1, sigma2_1, converged = evaluate(w, sigma2, loglik_from)
        if converged or n_iter == max_iter:
            break
        _, w2, sigma2_2, converged = evaluate(w1, sigma2_1, loglik0)
        if converged or n_iter == max_iter:
            break
        for point in _squarem_points((w, sigma2), (w1, sigma2_1), (w2, sigma2_2)):
            loglik_from, w, sigma2, _ = evaluate(*point)
            if loglik_from >= loglik0 or n_iter == max_iter:
                break
    loglik, w, sigma2 = best
    return w, sigma2, n_iter, converged, loglik


def fit_bma(
    data: EnsembleDataset,
    window: TrainingWindow,
    *,
    max_iter: int = 500,
) -> BmaParams:
    """OLS bias correction per member, then EM for weights and variance.

    EM starts from uniform weights and the pooled OLS residual variance, and
    runs on complete cases (observation and every member present) until an
    EM step gains less than EM_TOL in log-likelihood. EM is accelerated by
    SQUAREM (Varadhan & Roland 2008, Scand. J. Stat. 35), which moves its
    step length toward plain EM's until the extrapolated point's
    log-likelihood is at least that of the point it was extrapolated from;
    an EM step that decreases the log-likelihood beyond rounding is an
    error. max_iter bounds the EM steps
    (E+M evaluations). The result's n_iter counts them, converged says
    whether EM_TOL was met, and loglik is the log-likelihood of the
    returned weights and variance.
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
    w, sigma2, n_iter, converged, loglik = _em(mu, y, sigma2, EM_TOL, max_iter)
    if not converged:
        warnings.warn(f"EM stopped after {max_iter} iterations without meeting tol {EM_TOL}", stacklevel=2)
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
    panels = [(Y - bma.a[m] - bma.b[m] * F[:, :, m]) / sigma for m in range(bma.members)]

    pooled_fit = None

    def pooled() -> VariogramFit:
        nonlocal pooled_fit
        if pooled_fit is None:
            pooled_fit = fit_variogram(empirical_variogram(np.concatenate(panels), stations), r_max=r_max)
        return pooled_fit

    fits = []
    for m in range(bma.members):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit = fit_variogram(empirical_variogram(panels[m], stations), r_max=r_max)
        except (ValueError, np.linalg.LinAlgError, RuntimeError, Warning):
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
    bma = params.bma
    if np.shape(forecasts) != (len(stations), bma.members):
        raise ValueError(f"forecasts shape {np.shape(forecasts)} does not match (n_stations, members)")
    member_means = predict_bma(bma, forecasts).means  # (n_stations, members)

    sigma = math.sqrt(bma.sigma2)
    comp = rng.choice(bma.members, size=n_samples, p=bma.w / bma.w.sum())
    fields = np.empty((n_samples, len(stations)))
    for m in np.unique(comp):
        rows = np.nonzero(comp == m)[0]
        corr = build_correlation_matrix(params.variograms[m], stations)
        L, _ = cholesky_with_jitter(corr)
        z = rng.standard_normal((len(stations), rows.size))
        fields[rows] = (member_means[:, m, None] + sigma * (L @ z)).T
    return ForecastFieldSample(stations.ids, fields, "spatial-bma")
