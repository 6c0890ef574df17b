"""Rolling-window experiment engine.

For every eligible target day: fit each requested method on the training
window, predict at all stations, draw forecast fields per spatial mode, and
score everything against the observations. The raw ensemble is always scored
alongside as the baseline. Outputs are written in day order with all
randomness drawn from named streams of the single config seed, so a rerun
with the same config is byte-identical.

Output layout under the configured directory:
  scores.csv                per-day score rows (date, unit, method, score, value)
  summary.json              per-combo score means plus run metadata
  pit_<method>.csv          pooled PIT histogram (20 bins)
  rank_raw.csv              pooled raw-ensemble rank histogram (M+1 bins)
  banddepth_<combo>.csv     pooled band-depth rank histogram (21 bins)
  params/<combo>/<date>.json  per-day fitted parameters

Reliability indices are computed per station over the run and averaged; the
per-station PIT histograms use 21 bins so the index is comparable with the
21-rank raw histogram.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import bma as bma_mod
from . import ngr as ngr_mod
from . import verify
from .core import (
    EnsembleDataset,
    ForecastFieldSample,
    GaussianPredictive,
    StationSet,
    quantile_table,
    seeded_rng,
)
from .ecc import ecc_levels, ecc_reorder, rank_permutation
from .ingest import load_dataset, rolling_windows
from .spatial import (
    build_correlation_matrix,
    build_spatial_ngr,
    empirical_variogram,
    fit_variogram,
    sample_fields,
    standardize_errors,
)

log = logging.getLogger(__name__)

METHODS = ("ngr+", "ngrc", "bma")
SPATIAL_MODES = ("none", "grf", "ecc", "spatial-bma")
UNIVARIATE_SCORES = ("crps", "mae", "rmse", "pi_width", "pi_coverage")
BAND_DEPTH_FIELDS = 20


def validate_combo(method: str, spatial_mode: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if spatial_mode not in SPATIAL_MODES:
        raise ValueError(f"unknown spatial mode {spatial_mode!r}; expected one of {SPATIAL_MODES}")
    if spatial_mode == "grf" and method not in ("ngr+", "ngrc"):
        raise ValueError("grf dressing needs Gaussian marginals (ngr+ or ngrc)")
    if spatial_mode == "spatial-bma" and method != "bma":
        raise ValueError("spatial-bma requires the bma method")


def combo_label(method: str, spatial_mode: str) -> str:
    return method if spatial_mode == "none" else f"{method}/{spatial_mode}"


def parse_combos(text: str) -> tuple[tuple[str, str], ...]:
    """Comma list of `method` or `method/spatial` entries."""
    combos = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        method, _, spatial_mode = tok.partition("/")
        spatial_mode = spatial_mode or "none"
        validate_combo(method, spatial_mode)
        pair = (method, spatial_mode)
        if pair in combos:
            raise ValueError(f"combo {tok!r} listed twice")
        combos.append(pair)
    if not combos:
        raise ValueError("no method combos requested")
    return tuple(combos)


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible experiment manifest; identical configs rerun identically."""

    data_dir: str
    out_dir: str
    combos: tuple[tuple[str, str], ...] = (("ngr+", "none"),)
    window_length: int = 25
    n_pair_samples: int = 5000
    n_field_samples: int = 10000
    thresholds: tuple[float, ...] = ()
    region: tuple[str, ...] = ()
    level: float = 19.0 / 21.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "combos", tuple((m, s) for m, s in self.combos))
        object.__setattr__(self, "thresholds", tuple(float(x) for x in self.thresholds))
        object.__setattr__(self, "region", tuple(str(s) for s in self.region))
        for method, spatial_mode in self.combos:
            validate_combo(method, spatial_mode)
        if len(set(self.combos)) != len(self.combos):
            raise ValueError("duplicate combos")
        if self.window_length < 1:
            raise ValueError("window_length must be positive")
        if self.n_pair_samples < 2 or self.n_field_samples < 2:
            raise ValueError("sample counts must be at least 2")
        if not 0.0 < self.level < 1.0:
            raise ValueError("interval level must lie strictly between 0 and 1")


def parse_experiment_config(kv: dict, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Config from key=value text (see keys below); overrides win.

    Keys: data, out, combos, window, samples, fields, thresholds, region,
    level, seed.
    """
    merged = dict(kv)
    merged.update(overrides or {})
    known = {"data", "out", "combos", "window", "samples", "fields", "thresholds", "region", "level", "seed"}
    unknown = set(merged) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for required in ("data", "out"):
        if required not in merged:
            raise ValueError(f"config needs {required}=")
    kwargs = {"data_dir": merged["data"], "out_dir": merged["out"]}
    if "combos" in merged:
        kwargs["combos"] = parse_combos(merged["combos"])
    if "window" in merged:
        kwargs["window_length"] = int(merged["window"])
    if "samples" in merged:
        kwargs["n_pair_samples"] = int(merged["samples"])
    if "fields" in merged:
        kwargs["n_field_samples"] = int(merged["fields"])
    if "thresholds" in merged:
        kwargs["thresholds"] = tuple(float(tok) for tok in str(merged["thresholds"]).split(",") if tok.strip())
    if "region" in merged:
        kwargs["region"] = tuple(tok.strip() for tok in str(merged["region"]).split(",") if tok.strip())
    if "level" in merged:
        kwargs["level"] = float(merged["level"])
    if "seed" in merged:
        kwargs["seed"] = int(merged["seed"])
    return ExperimentConfig(**kwargs)


@dataclass
class ExperimentResult:
    summary: dict
    table: verify.ScoreTable
    n_warnings: int


# ---------------------------------------------------------------------------
# per-day helpers


def _impute_row(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Fill missing members with the row mean; return (filled, sample var)."""
    avail = np.isfinite(values)
    filled = np.where(avail, values, values[avail].mean())
    s2 = float(np.var(values[avail], ddof=1)) if avail.sum() > 1 else 0.0
    return filled, s2


def _predict_day(method: str, params, data: EnsembleDataset, day_idx: int) -> list:
    """Univariate predictive per station (None where impossible)."""
    fc = data.forecasts[day_idx]
    preds: list = [None] * data.n_stations
    if method == "ngrc":
        have = [sid for sid in data.stations.ids if sid in params.climatology]
        clim_set = StationSet(data.stations[data.stations.index(sid)] for sid in have)
        extra = {}
        for station in data.stations:
            if station.id not in params.climatology:
                extra[station.id] = ngr_mod.interpolate_ngr_c(params, station, clim_set)
        if extra:
            params = dataclasses.replace(params, climatology={**params.climatology, **extra})
    for s, station in enumerate(data.stations):
        if not np.isfinite(fc[s]).any():
            continue
        if method == "ngr+":
            preds[s] = ngr_mod.predict_ngr_plus(params, fc[s])
        elif method == "ngrc":
            preds[s] = ngr_mod.predict_ngr_c(params, station.id, fc[s])
        else:
            preds[s] = bma_mod.predict_bma(params, fc[s])
    return preds


def _moment_panels(method: str, params, data: EnsembleDataset, window) -> tuple[np.ndarray, np.ndarray]:
    """Marginal (mu, sigma) over the window days for error standardization.

    Missing members enter through the filled ensemble mean, matching the
    prediction-time rule on complete rows; stations without a usable row or
    climatology get mu = NaN so they drop out of the error panel.
    """
    day_idx = np.array([data.day_index(d) for d in window.training_days])
    F = data.forecasts[day_idx]  # (T, S, M)
    avail = np.isfinite(F)
    cnt = avail.sum(axis=2)
    total = np.where(avail, F, 0.0).sum(axis=2)
    rowmean = total / np.maximum(cnt, 1)
    filled = np.where(avail, F, rowmean[:, :, None])
    dev = np.where(avail, F - rowmean[:, :, None], 0.0)
    s2 = (dev ** 2).sum(axis=2) / np.maximum(cnt - 1, 1)
    s2 = np.where(cnt >= 2, s2, 0.0)

    if method == "ngr+":
        mu = params.a + filled @ params.b
        var = params.c + params.d * s2
    else:
        S = data.n_stations
        ybar = np.full(S, np.nan)
        xi2 = np.full(S, np.nan)
        fbar = np.full((S, params.b.size), np.nan)
        for s, sid in enumerate(data.stations.ids):
            clim = params.climatology.get(sid)
            if clim is not None:
                ybar[s], xi2[s], fbar[s] = clim.ybar, clim.xi2, clim.fbar
        mu = ybar[None, :] + (filled - fbar[None, :, :]) @ params.b
        var = params.c * xi2[None, :] + params.d * s2

    mu = np.where(cnt > 0, mu, np.nan)
    sigma = np.sqrt(np.where(np.isfinite(var), np.maximum(var, 0.0), np.nan))
    sigma = np.where(np.isfinite(sigma) & (cnt > 0), sigma, 1.0)
    mu = np.where(np.isfinite(sigma) & np.isfinite(mu), mu, np.nan)
    return mu, sigma


def _fit_day_variogram(method: str, params, data: EnsembleDataset, window, stations: StationSet):
    mu, sigma = _moment_panels(method, params, data, window)
    panel = standardize_errors(data, window, mu, sigma)
    bins = empirical_variogram(panel, stations)
    return fit_variogram(bins)


def _independent_fields(preds, active: np.ndarray, n: int, rng) -> np.ndarray:
    cols = [preds[s].sample(rng, n) for s in np.flatnonzero(active)]
    return np.column_stack(cols)


def _mixture_field_moments(params, fc: np.ndarray, stations: StationSet):
    """Mean fields and per-member covariances of a spatial mixture."""
    filled = np.column_stack([_impute_row(fc[s])[0] for s in range(len(stations))]).T  # (S, M)
    means = params.bma.a[:, None] + params.bma.b[:, None] * filled.T  # (M, S)
    covs = np.stack(
        [params.bma.sigma2 * build_correlation_matrix(fit, stations) for fit in params.variograms]
    )
    return means, covs


# ---------------------------------------------------------------------------
# the run


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = load_dataset(
        Path(cfg.data_dir) / "stations.csv",
        Path(cfg.data_dir) / "forecasts.csv",
        Path(cfg.data_dir) / "observations.csv",
    )
    for sid in cfg.region:
        if sid not in data.stations:
            raise ValueError(f"region station {sid!r} not in the dataset")
    windows = rolling_windows(data, cfg.window_length)
    if not windows:
        raise ValueError("dataset leaves no target day behind the training window")

    methods = []
    for method, _ in cfg.combos:
        if method not in methods:
            methods.append(method)
    labels = [combo_label(m, sp) for m, sp in cfg.combos]
    # univariate scores land under the bare method label even when only a
    # spatial combo was requested, so those labels must exist too
    bare = [m for m in methods if m not in labels]
    all_labels = ["raw"] + bare + labels
    S = data.n_stations
    M = data.members
    region_ids = cfg.region or data.stations.ids

    table = verify.ScoreTable()
    acc: dict = {lab: {} for lab in all_labels}
    pit_pool: dict = {m: [] for m in methods}
    pit_station: dict = {m: [[] for _ in range(S)] for m in methods}
    rank_pool: list = []
    rank_station: list = [[] for _ in range(S)]
    bd_pool: dict = {lab: [] for lab in all_labels}
    failed: dict = {lab: [] for lab in all_labels}
    n_warnings = 0
    prev: dict = {}

    def add(label: str, day: str, unit: str, score: str, value: float) -> None:
        table.add(day, unit, label, score, value)
        acc[label].setdefault(score, []).append(float(value))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")

        for window in windows:
            day = window.target_day
            t = data.day_index(day)
            obs = data.observations[t]
            fc = data.forecasts[t]
            obs_ok = np.isfinite(obs)

            fits = {}
            for method in methods:
                try:
                    if method == "ngr+":
                        fits[method] = ngr_mod.fit_ngr_plus(data, window, init=prev.get(method))
                    elif method == "ngrc":
                        init = prev.get(method)
                        fits[method] = ngr_mod.fit_ngr_c(
                            data, window, init=(init.c_raw, init.d_raw) if init else (1.0, 1.0)
                        )
                    else:
                        fits[method] = bma_mod.fit_bma(data, window)
                    prev[method] = fits[method]
                except Exception as exc:
                    log.warning("day %s: %s fit failed: %s", day, method, exc)
                    n_warnings += 1
                    for lab in all_labels:
                        if lab == method or lab.startswith(method + "/"):
                            failed[lab].append(day)

            preds = {m: _predict_day(m, fits[m], data, t) for m in fits}

            # raw-ensemble baseline
            raw_rng = seeded_rng(cfg.seed, f"verify/rank/{day}")
            raw_crps, raw_med, raw_mean, raw_cov, raw_wid, raw_y = [], [], [], [], [], []
            for s in range(S):
                members = fc[s][np.isfinite(fc[s])]
                if not obs_ok[s] or members.size < 2:
                    continue
                raw_crps.append(verify.crps_ensemble(members, obs[s]))
                raw_med.append(float(np.median(members)))
                raw_mean.append(float(members.mean()))
                raw_y.append(float(obs[s]))
                covered, width = verify.ensemble_range_coverage(members, obs[s])
                raw_cov.append(covered)
                raw_wid.append(width)
                rank = verify.verification_rank(members, obs[s], raw_rng)
                rank_pool.append(rank)
                rank_station[s].append(rank)
            if raw_crps:
                mae, rmse = verify.mae_rmse(raw_med, raw_mean, raw_y)
                add("raw", day, "all", "crps", float(np.mean(raw_crps)))
                add("raw", day, "all", "mae", mae)
                add("raw", day, "all", "rmse", rmse)
                add("raw", day, "all", "pi_coverage", float(np.mean(raw_cov)))
                add("raw", day, "all", "pi_width", float(np.mean(raw_wid)))

            # univariate method scores
            for method in fits:
                pr = preds[method]
                idx = [s for s in range(S) if pr[s] is not None and obs_ok[s]]
                if not idx:
                    continue
                crps_vals, medians, means_, pits, covs, wids = [], [], [], [], [], []
                crps_rng = seeded_rng(cfg.seed, f"score/crps/{method}/{day}")
                alpha = 0.5 * (1.0 - cfg.level)
                bounds = quantile_table([pr[s] for s in idx], [alpha, 0.5, 1.0 - alpha])
                for s, (lo, med, hi) in zip(idx, bounds.tolist()):
                    dist, y = pr[s], float(obs[s])
                    if isinstance(dist, GaussianPredictive):
                        crps_vals.append(ngr_mod.crps_gaussian(dist, y))
                    else:
                        draws = dist.sample(crps_rng, 2 * cfg.n_pair_samples)
                        crps_vals.append(
                            verify.crps_sample(draws[: cfg.n_pair_samples], draws[cfg.n_pair_samples:], y)
                        )
                    medians.append(med)
                    means_.append(dist.mean)
                    pits.append(verify.pit(dist, y))
                    covs.append(lo <= y <= hi)
                    wids.append(hi - lo)
                    pit_station[method][s].append(pits[-1])
                pit_pool[method].extend(pits)
                mae, rmse = verify.mae_rmse(medians, means_, obs[idx])
                add(method, day, "all", "crps", float(np.mean(crps_vals)))
                add(method, day, "all", "mae", mae)
                add(method, day, "all", "rmse", rmse)
                add(method, day, "all", "pi_coverage", float(np.mean(covs)))
                add(method, day, "all", "pi_width", float(np.mean(wids)))

            # multivariate scoring over sampled fields
            def score_fields(label: str, sample, y_vec: np.ndarray, ids: tuple, ds_value: Optional[float]) -> None:
                fields = sample.fields
                half = fields.shape[0] // 2
                if fields.shape[0] >= 100:
                    es = verify.energy_score(fields[:half], fields[half: 2 * half], y_vec)
                else:
                    es = verify.energy_score_ensemble(fields, y_vec)
                add(label, day, "field", "es", es)
                add(label, day, "field", "ee", verify.euclidean_error(verify.spatial_median(fields), y_vec))
                if ds_value is None:
                    ds_value = verify.ds_from_sample(fields, y_vec)
                add(label, day, "field", "ds", ds_value)
                reg = [i for i, sid in enumerate(ids) if sid in region_ids]
                if reg:
                    minima = fields[:, reg].min(axis=1)
                    obs_min = float(y_vec[reg].min())
                    if minima.size >= 100:
                        mc = verify.crps_sample(minima[:half], minima[half: 2 * half], obs_min)
                    else:
                        mc = verify.crps_ensemble(minima, obs_min)
                    add(label, day, "region", "min_crps", mc)
                    add(label, day, "region", "min_bias", float(minima.mean()) - obs_min)
                    for x in cfg.thresholds:
                        add(label, day, "region", f"bs@{x:g}",
                            verify.brier_score(verify.threshold_prob(minima, x), obs_min, x))
                k = min(BAND_DEPTH_FIELDS, fields.shape[0])
                if k >= 2:
                    bd_rng = seeded_rng(cfg.seed, f"verify/banddepth/{label}/{day}")
                    vecs = np.vstack([y_vec[None, :], fields[:k]])
                    bd_pool[label].append(verify.band_depth_rank(vecs, bd_rng, 0))

            raw_active = obs_ok & np.isfinite(fc).any(axis=1)
            if raw_active.sum() >= 2:
                ids = tuple(sid for s, sid in enumerate(data.stations.ids) if raw_active[s])
                rows = np.array([_impute_row(fc[s])[0] for s in np.flatnonzero(raw_active)])
                sample = ForecastFieldSample(ids, rows.T, "raw")  # (M, n_active)
                score_fields("raw", sample, obs[raw_active], ids, None)

            for method, spatial_mode in cfg.combos:
                label = combo_label(method, spatial_mode)
                if method not in fits:
                    continue
                pr = preds[method]
                active = np.array([pr[s] is not None for s in range(S)]) & obs_ok
                if active.sum() < 2:
                    continue
                act_idx = np.flatnonzero(active)
                ids = tuple(data.stations.ids[s] for s in act_idx)
                act_set = StationSet(data.stations[s] for s in act_idx)
                y_vec = obs[active]
                rng = seeded_rng(cfg.seed, f"sample/{label}/{day}")
                day_variogram = None
                day_spatial = None
                try:
                    if spatial_mode == "none":
                        fields = _independent_fields(pr, active, cfg.n_field_samples, rng)
                        sample = ForecastFieldSample(ids, fields, "independent")
                        mu_v = np.array([pr[s].mean for s in act_idx])
                        var_v = np.array([pr[s].variance for s in act_idx])
                        ds_val = verify.dawid_sebastiani(mu_v, np.diag(var_v), y_vec)
                    elif spatial_mode == "grf":
                        day_variogram = _fit_day_variogram(method, fits[method], data, window, act_set)
                        corr = build_correlation_matrix(day_variogram, act_set)
                        mu_v = np.array([pr[s].mean for s in act_idx])
                        sd_v = np.array([pr[s].sd for s in act_idx])
                        mvp = build_spatial_ngr(mu_v, sd_v, corr, ids)
                        sample = sample_fields(mvp, cfg.n_field_samples, rng)
                        ds_val = verify.dawid_sebastiani(mvp.mu, mvp.covariance(), y_vec)
                    elif spatial_mode == "ecc":
                        q = quantile_table([pr[s] for s in act_idx], ecc_levels(M))
                        tie_rng = seeded_rng(cfg.seed, f"ties/{day}")
                        perms = np.vstack(
                            [rank_permutation(_impute_row(fc[s])[0], tie_rng) for s in act_idx]
                        )
                        sample = ecc_reorder(q, perms, ids)
                        ds_val = None
                    else:  # spatial-bma
                        day_spatial = bma_mod.fit_spatial_bma(data, window, fits[method])
                        sample = bma_mod.sample_spatial_bma(
                            day_spatial, fc[act_idx], act_set, cfg.n_field_samples, rng
                        )
                        means, covs = _mixture_field_moments(day_spatial, fc[act_idx], act_set)
                        mu_v, cov = verify.mixture_moments(day_spatial.bma.w, means, covs)
                        ds_val = verify.dawid_sebastiani(mu_v, cov, y_vec)
                except Exception as exc:
                    log.warning("day %s: %s sampling failed: %s", day, label, exc)
                    n_warnings += 1
                    failed[label].append(day)
                    continue
                score_fields(label, sample, y_vec, ids, ds_val)
                _write_params(
                    out, label, day, window, fits[method], method,
                    variogram=day_variogram, spatial=day_spatial,
                )

    n_warnings += len(caught)
    for w in caught:
        log.debug("captured warning: %s", w.message)

    # reliability indices: per-station histograms averaged over stations
    for method in methods:
        ri_vals = [
            verify.reliability_index(verify.pit_histogram(v, n_bins=M + 1))
            for v in pit_station[method]
            if v
        ]
        if ri_vals:
            acc[method].setdefault("ri", []).extend(ri_vals)
    raw_ri = [
        verify.reliability_index(verify.rank_histogram(v, M + 1)) for v in rank_station if v
    ]
    if raw_ri:
        acc["raw"].setdefault("ri", []).extend(raw_ri)

    summary = {
        "window_length": cfg.window_length,
        "n_target_days": len(windows),
        "level": cfg.level,
        "seed": cfg.seed,
        "thresholds": list(cfg.thresholds),
        "region": list(cfg.region) if cfg.region else "all",
        "n_warnings": n_warnings,
        "failed_days": {lab: sorted(set(days)) for lab, days in failed.items() if days},
        "methods": {
            lab: {score: float(np.mean(vals)) for score, vals in sorted(acc[lab].items())}
            for lab in all_labels
        },
    }

    table.write_csv(out / "scores.csv")
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for method in methods:
        if pit_pool[method]:
            verify.histogram_to_csv(
                verify.pit_histogram(pit_pool[method]), out / f"pit_{_safe(method)}.csv"
            )
    if rank_pool:
        verify.histogram_to_csv(verify.rank_histogram(rank_pool, M + 1), out / "rank_raw.csv")
    for lab, ranks in bd_pool.items():
        if ranks:
            verify.histogram_to_csv(
                verify.rank_histogram(ranks, BAND_DEPTH_FIELDS + 1),
                out / f"banddepth_{_safe(lab)}.csv",
            )
    return ExperimentResult(summary=summary, table=table, n_warnings=n_warnings)


def _safe(label: str) -> str:
    return label.replace("/", "_")


def _write_params(out: Path, label: str, day: str, window, params, method: str, variogram=None, spatial=None) -> None:
    doc = (
        ngr_mod.params_to_json(params, day, window.training_days)
        if method in ("ngr+", "ngrc")
        else bma_mod.params_to_json(params, day, window.training_days)
    )
    if variogram is not None:
        doc["variogram"] = _variogram_doc(variogram)
    if spatial is not None:
        doc["member_variograms"] = [_variogram_doc(f) for f in spatial.variograms]
    pdir = out / "params" / _safe(label)
    pdir.mkdir(parents=True, exist_ok=True)
    with open(pdir / f"{day}.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _variogram_doc(fit) -> dict:
    return {
        "theta": float(fit.theta),
        "range_km": float(fit.range_km),
        "objective": float(fit.objective),
        "degenerate": bool(fit.degenerate),
    }
