import csv
import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import ndtr, ndtri

from enspost.core import VARIANCE_FLOOR, EnsembleDataset, Station, StationSet, TrainingWindow, seeded_rng
from enspost.ingest import LoadError
from enspost.spatial import VariogramBin, VariogramFit, cholesky_with_jitter


def assert_batch_matches_rows(batch, laws, x, levels):
    """A batch law gives each row its scalar law's bits: moments, cdf, quantiles and draws."""
    assert batch.mean.tolist() == [law.mean for law in laws]
    assert batch.variance.tolist() == [law.variance for law in laws]
    assert batch.sd.tolist() == [law.sd for law in laws]
    assert batch.cdf(x).tolist() == [law.cdf(xi) for law, xi in zip(laws, x)]
    assert batch.quantile(levels).tolist() == [law.quantile(levels).tolist() for law in laws]
    assert batch.median().tolist() == [law.median() for law in laws]
    draws = batch.sample(seeded_rng(0, "batch"), 40)
    rng = seeded_rng(0, "batch")
    assert draws.shape == (40, len(laws))
    assert draws.T.tolist() == [law.sample(rng, 40).tolist() for law in laws]


def make_stations(n, *, seed=0, width=500.0, height=500.0):
    rng = seeded_rng(seed, "test/stations")
    xs = rng.uniform(0, width, n)
    ys = rng.uniform(0, height, n)
    return StationSet(Station(f"S{i+1}", xs[i], ys[i]) for i in range(n))


def make_dataset(n_days=30, n_stations=6, n_members=5, *, seed=0, sigma=1.0, bias=0.0):
    """Gaussian toy dataset: obs = member-mean + bias + sigma * noise."""
    rng = seeded_rng(seed, "test/dataset")
    stations = make_stations(n_stations, seed=seed)
    days = tuple(f"2024-01-{d+1:02d}" if d < 31 else f"2024-02-{d-30:02d}" for d in range(n_days))
    base = rng.normal(15.0, 3.0, size=(n_days, 1, 1))
    forecasts = base + rng.normal(0.0, 1.0, size=(n_days, n_stations, n_members))
    observations = forecasts.mean(axis=2) + bias + sigma * rng.standard_normal((n_days, n_stations))
    return EnsembleDataset(stations, days, forecasts, observations)


def scalar_bisection(weights, means, variances, p, tol=1e-10):
    """The one-level mixture quantile that the batched routine must reproduce bit for bit."""
    sd = np.sqrt(variances)

    def cdf(x):
        return ndtr((x - means) / sd) @ weights

    lo = float(np.min(means - 12.0 * sd))
    hi = float(np.max(means + 12.0 * sd))
    while cdf(lo) > p:
        lo -= (hi - lo)
    while cdf(hi) < p:
        hi += (hi - lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_newton(weights, means, variances, p, tol=1e-10):
    """The one-level safeguarded Newton quantile that the batched routine must reproduce bit for bit.

    Same bracket as scalar_bisection; from the moment-matched normal's
    quantile (or the bracket's midpoint), Newton steps on F(x) - p that
    tighten the bracket, with the midpoint in place of a step that leaves it,
    until the step is at most tol / 4 or the bracket at most tol wide.
    """
    sd = np.sqrt(variances)

    def cdf(x):
        return ndtr((x - means) / sd) @ weights

    lo = float(np.min(means - 12.0 * sd))
    hi = float(np.max(means + 12.0 * sd))
    while cdf(lo) > p:
        lo -= (hi - lo)
    while cdf(hi) < p:
        hi += (hi - lo)
    density_w = weights * (1.0 / math.sqrt(2.0 * math.pi)) / sd
    mean = weights @ means
    x = mean + math.sqrt(max(weights @ (sd * sd + means * means) - mean * mean, 0.0)) * ndtri(p)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    while True:
        z = (x - means) / sd
        gap = ndtr(z) @ weights - p
        if gap < 0.0:
            lo = x
        else:
            hi = x
        with np.errstate(divide="ignore", invalid="ignore"):
            step = gap / (np.exp(-0.5 * z * z) @ density_w)
        x = x - step
        if abs(step) <= 0.25 * tol:
            return x
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return x


def allocating_energy_score(x, x_prime, y):
    """The energy score with a fresh temporary per norm, which the buffered version must reproduce bit for bit."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x_prime = np.atleast_2d(np.asarray(x_prime, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    term_y = np.linalg.norm(x - y, axis=1).mean()
    term_x = np.linalg.norm(x - x_prime, axis=1).mean()
    return float(term_y - 0.5 * term_x)


def allocating_spatial_median(points, *, tol=1e-8, max_iter=1000):
    """The Weiszfeld iteration with fresh temporaries, which the buffered version must reproduce bit for bit."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if x.shape[0] == 1:
        return x[0].copy()
    y = x.mean(axis=0)
    for _ in range(max_iter):
        d = np.linalg.norm(x - y, axis=1)
        on_point = d < 1e-12
        if on_point.any():
            off = ~on_point
            if not off.any():
                return y
            w = 1.0 / d[off]
            t = (x[off] * w[:, None]).sum(axis=0) / w.sum()
            r = np.linalg.norm(((x[off] - y) * w[:, None]).sum(axis=0))
            eta = float(on_point.sum())
            if r <= eta:
                return y
            step = min(1.0, eta / r)
            y_new = (1.0 - step) * t + step * y
        else:
            w = 1.0 / d
            y_new = (x * w[:, None]).sum(axis=0) / w.sum()
        if np.linalg.norm(y_new - y) < tol:
            return y_new
        y = y_new
    raise AssertionError("reference median did not converge")


def pairloop_empirical_variogram(panel, stations, n_bins=20):
    """Equal-count variogram bins from one station pair at a time, which the Gram-sum bins must reproduce."""
    e = panel.values
    dist = stations.pairwise_distances()
    pairs = []
    for i in range(len(stations)):
        for j in range(i + 1, len(stations)):
            common = ~np.isnan(e[:, i]) & ~np.isnan(e[:, j])
            if common.any():
                pairs.append((dist[i, j], 0.5 * np.mean((e[common, i] - e[common, j]) ** 2)))
    pair_dist, pair_gamma = np.array(pairs).T
    order = np.argsort(pair_dist, kind="stable")
    return tuple(
        VariogramBin(float(pair_dist[g].mean()), float(pair_gamma[g].mean()), int(g.size))
        for g in np.array_split(order, min(n_bins, order.size))
    )


def multistart_fit_variogram(bins, r_max=None):
    """The WLS variogram fit by L-BFGS-B from a 3 x 3 grid of starts, which the grid search must match or beat."""
    d = np.array([b.distance_km for b in bins])
    g_hat = np.array([b.gamma for b in bins])
    n = np.array([b.n_pairs for b in bins], dtype=float)
    r_max = float(d.max()) if r_max is None else r_max

    def objective(x):
        u, v = x
        theta = 1.0 / (1.0 + math.exp(-u))
        r = math.exp(v)
        expo = np.exp(-d / r)
        gamma = np.clip((1.0 - theta) * (1.0 - expo) + theta, 1e-12, None)
        ratio = g_hat / gamma
        s = float((n * (ratio - 1.0) ** 2).sum())
        ds_dgamma = -2.0 * n * (ratio - 1.0) * g_hat / gamma ** 2
        grad = np.array([
            (ds_dgamma @ expo) * theta * (1.0 - theta),
            (ds_dgamma @ (-(1.0 - theta) * expo * d / r ** 2)) * r,
        ])
        return s, grad

    bounds = [
        (math.log(1e-6 / (1 - 1e-6)), math.log((1 - 1e-6) / 1e-6)),
        (math.log(r_max * 1e-4), math.log(r_max)),
    ]
    x_best, s_best = None, math.inf
    for theta0 in (0.1, 0.5, 0.9):
        for r0 in (r_max / 30, r_max / 8, r_max / 2):
            x0 = np.array([math.log(theta0 / (1.0 - theta0)), math.log(r0)])
            s_init, _ = objective(x0)
            if s_init < s_best:
                x_best, s_best = x0, s_init
            res = minimize(objective, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                           options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10})
            if float(res.fun) < s_best:
                x_best, s_best = res.x, float(res.fun)
    r = math.exp(x_best[1])
    return VariogramFit(1.0 / (1.0 + math.exp(-x_best[0])), min(r, r_max), s_best,
                        degenerate=r <= r_max * 1e-4 * (1.0 + 1e-9))


def allocating_grf_fields(pred, n_samples, rng):
    """GRF fields mu + D L z built from fresh temporaries, which sample_fields must reproduce bit for bit."""
    L, _ = cholesky_with_jitter(pred.correlation)
    z = rng.standard_normal((pred.dim, n_samples))
    return (pred.mu[:, None] + pred.scale[:, None] * (L @ z)).T


def allocating_em(mu, y, sigma2, em_tol, max_iter):
    """Plain BMA EM with fresh temporaries, which plain EM by bma's buffered EM step must reproduce bit for bit."""

    def logsumexp_rows(a):
        a_max = a.max(axis=1, keepdims=True)
        at_max = a == a_max
        e = np.exp(a - a_max)
        e[at_max] = 0.0
        m = at_max.sum(axis=1, dtype=float)
        s = e.sum(axis=1) / m
        return np.log1p(s) + np.log(m) + a_max[:, 0]

    w = np.full(mu.shape[1], 1.0 / mu.shape[1])
    resid2 = (y[:, None] - mu) ** 2
    half_resid2 = 0.5 * resid2
    loglik_prev = -np.inf
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        log_comp = np.log(np.maximum(w, 1e-300)) - half_resid2 / sigma2 - 0.5 * math.log(sigma2) - 0.5 * math.log(2.0 * math.pi)
        log_norm = logsumexp_rows(log_comp)
        loglik = float(log_norm.sum())
        if loglik - loglik_prev < em_tol:
            loglik_prev = loglik
            converged = True
            break
        loglik_prev = loglik
        resp = np.exp(log_comp - log_norm[:, None])
        w = resp.mean(axis=0)
        w = np.clip(w, 0.0, None)
        w /= w.sum()
        sigma2 = max(float((resp * resid2).sum() / y.size), VARIANCE_FLOOR)
    return w, sigma2, n_iter, converged, loglik_prev


def rowwise_load_dataset(stations_path, forecasts_path, observations_path):
    """The one-row-at-a-time CSV loader that the column-wise loader must reproduce bit for bit."""

    def rows(path, expected):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader)]
            body = [(i, row) for i, row in enumerate(reader, start=2) if row]
        if header != list(expected):
            raise LoadError(f"{path}: header {header!r} does not match {list(expected)!r}")
        for line, row in body:
            if len(row) != len(expected):
                raise LoadError(f"{path} line {line}: expected {len(expected)} fields, got {len(row)}")
            yield line, [f.strip() for f in row]

    def number(path, line, text, what):
        if not text:
            return None
        try:
            return float(text)
        except ValueError:
            raise LoadError(f"{path} line {line}: bad {what} {text!r}") from None

    stations = []
    for line, (sid, lon, lat, x, y) in rows(stations_path, ("station_id", "lon", "lat", "x_km", "y_km")):
        stations.append(Station(sid, number(stations_path, line, x, "x_km"), number(stations_path, line, y, "y_km"),
                                number(stations_path, line, lon, "lon"), number(stations_path, line, lat, "lat")))
    stations = StationSet(stations)
    sindex = {sid: i for i, sid in enumerate(stations.ids)}

    def table(path, header):
        out, seen = [], set()
        for line, row in rows(path, header):
            date, sid, *member, text = row
            if sid not in sindex:
                raise LoadError(f"{path} line {line}: unknown station id {sid!r}")
            key = (date, sid)
            if member:
                try:
                    m = int(member[0])
                except ValueError:
                    raise LoadError(f"{path} line {line}: bad member {member[0]!r}") from None
                if m < 1:
                    raise LoadError(f"{path} line {line}: member must be 1-based, got {m}")
                key = (date, sid, m)
            if key in seen:
                raise LoadError(f"{path} line {line}: duplicate {'(date, station, member)' if member else '(date, station)'} {key!r}")
            seen.add(key)
            out.append((key, number(path, line, text, "value_c")))
        return out

    fc = table(forecasts_path, ("date", "station_id", "member", "value_c"))
    ob = table(observations_path, ("date", "station_id", "value_c"))
    days = sorted({k[0] for k, _ in fc} | {k[0] for k, _ in ob})
    day_index = {d: i for i, d in enumerate(days)}
    forecasts = np.full((len(days), len(stations), max(k[2] for k, _ in fc)), np.nan)
    observations = np.full((len(days), len(stations)), np.nan)
    for (date, sid, m), value in fc:
        if value is not None:
            forecasts[day_index[date], sindex[sid], m - 1] = value
    for (date, sid), value in ob:
        if value is not None:
            observations[day_index[date], sindex[sid]] = value
    return EnsembleDataset(stations, days, forecasts, observations)


def rowwise_fmt(value) -> str:
    """A CSV value cell: repr of the float, empty for None and NaN."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


def rowwise_csv(path, header, rows):
    """csv.writer fed one row at a time: the bytes that ingest.write_csv must reproduce."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def rowwise_save_dataset(dataset, stations_path, forecasts_path, observations_path):
    """The three dataset CSVs written a row at a time, which save_dataset must reproduce byte for byte."""
    ids, fmt = dataset.stations.ids, rowwise_fmt
    rowwise_csv(stations_path, ("station_id", "lon", "lat", "x_km", "y_km"),
                ((s.id, fmt(s.lon), fmt(s.lat), fmt(s.x), fmt(s.y)) for s in dataset.stations))
    rowwise_csv(forecasts_path, ("date", "station_id", "member", "value_c"),
                ((day, sid, m + 1, fmt(dataset.forecasts[t, s, m]))
                 for t, day in enumerate(dataset.days) for s, sid in enumerate(ids) for m in range(dataset.members)))
    rowwise_csv(observations_path, ("date", "station_id", "value_c"),
                ((day, sid, fmt(dataset.observations[t, s])) for t, day in enumerate(dataset.days)
                 for s, sid in enumerate(ids)))


def rowwise_fields_csv(sample, path):
    """A fields CSV written a row at a time, which save_fields_csv must reproduce byte for byte."""
    rowwise_csv(path, ("sample", "station_id", "value_c", "provenance"),
                ((i + 1, sid, rowwise_fmt(sample.fields[i, j]), sample.provenance)
                 for i in range(sample.n_samples) for j, sid in enumerate(sample.station_order)))


def last_window(data, window_length=25):
    days = data.days
    return TrainingWindow(days[-1], tuple(days[-1 - window_length:-1]))


@pytest.fixture
def rng():
    return seeded_rng(123, "test")


@pytest.fixture
def small_dataset():
    return make_dataset()
