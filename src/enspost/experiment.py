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
from typing import Callable, Optional

import numpy as np

from . import bma as bma_mod
from . import ngr as ngr_mod
from . import verify
from .core import (
    EnsembleDataset,
    ForecastFieldSample,
    GaussianPredictive,
    StationSet,
    impute,
    seeded_rng,
)
from .ecc import ecc_quantiles, ecc_reorder, rank_permutation
from .ingest import load_data_dir, rolling_windows
from .spatial import (
    VariogramFit,
    build_correlation_matrix,
    build_spatial_ngr,
    empirical_variogram,
    fit_variogram,
    sample_fields,
    standardize_errors,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Method:
    """How one method is fitted, applied and stored; the values of METHODS."""

    fit: Callable  # (data, window, previous day's params or None) -> params
    predictor: Callable  # (params, stations) -> ((station ids, member forecasts (n, M)) -> predictive law)
    to_json: Callable  # (params, target day, training days) -> dict
    from_json: Callable  # dict -> params


def _ngrc_predictor(params, stations: StationSet):
    """predict_ngr_c at every station, interpolating the climatologies the fit left out."""
    have = StationSet(st for st in stations if st.id in params.climatology)
    extra = {st.id: ngr_mod.interpolate_ngr_c(params, st, have) for st in stations if st.id not in params.climatology}
    if extra:
        params = dataclasses.replace(params, climatology={**params.climatology, **extra})
    return lambda sids, forecasts: ngr_mod.predict_ngr_c(params, sids, forecasts)


METHODS = {
    "ngr+": Method(
        fit=lambda data, window, prev: ngr_mod.fit_ngr_plus(data, window, init=prev),
        predictor=lambda params, stations: lambda sids, forecasts: ngr_mod.predict_ngr_plus(params, forecasts),
        to_json=ngr_mod.params_to_json,
        from_json=ngr_mod.params_from_json,
    ),
    "ngrc": Method(
        fit=lambda data, window, prev: ngr_mod.fit_ngr_c(data, window, init=prev),
        predictor=_ngrc_predictor,
        to_json=ngr_mod.params_to_json,
        from_json=ngr_mod.params_from_json,
    ),
    "bma": Method(
        # no warm start from prev: EM's weight update is multiplicative, so a
        # weight that reached 0 on one day could never recover on the next
        fit=lambda data, window, prev: bma_mod.fit_bma(data, window),
        predictor=lambda params, stations: lambda sids, forecasts: bma_mod.predict_bma(params, forecasts),
        to_json=bma_mod.params_to_json,
        from_json=bma_mod.params_from_json,
    ),
}

SPATIAL_MODES = ("none", "grf", "ecc", "spatial-bma")
BAND_DEPTH_FIELDS = 20
ALL_COMBOS = (
    ("ngr+", "none"),
    ("ngr+", "grf"),
    ("ngr+", "ecc"),
    ("ngrc", "none"),
    ("ngrc", "grf"),
    ("bma", "none"),
    ("bma", "ecc"),
    ("bma", "spatial-bma"),
)
# numerical failures that cost a day; anything else is a bug and propagates
_DAY_FAILURES = (ValueError, np.linalg.LinAlgError, RuntimeError)


def validate_combo(method: str, spatial_mode: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
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


def predict_rows(method: str, params, stations: StationSet, forecasts: np.ndarray, keep=None):
    """Rows of forecasts (..., S, M) with a member, and the method's batch law on them.

    Returns the rows as a (..., S) mask, narrowed further by the mask `keep`,
    and one law over them in row order.
    """
    rows = np.isfinite(forecasts).any(axis=-1)
    if keep is not None:
        rows &= keep
    ids = np.broadcast_to(np.array(stations.ids), rows.shape)[rows]
    return rows, METHODS[method].predictor(params, stations)(ids, forecasts[rows])


def _moment_panels(method: str, params, data: EnsembleDataset, window) -> tuple[np.ndarray, np.ndarray]:
    """Marginal (mu, sigma) over the window days for error standardization.

    Each (day, station) row with a member gets the method's predictive law,
    so the correlation model is fitted to that law's errors; other rows get
    mu = NaN and drop out of the panel.
    """
    rows, law = predict_rows(method, params, data.stations, data.training_panels(window)[0])
    mu = np.full(rows.shape, np.nan)
    sigma = np.ones(rows.shape)
    mu[rows], sigma[rows] = law.mean, law.sd
    return mu, sigma


def fit_spatial(mode: str, method: str, params, data: EnsembleDataset, window):
    """The correlation model that draw_fields samples `mode` with.

    grf fits one variogram to the standardized errors of the method's
    marginals, spatial-bma one per member (SpatialBmaParams); the other
    modes need none.
    """
    if mode == "grf":
        mu, sigma = _moment_panels(method, params, data, window)
        panel = standardize_errors(data, window, mu, sigma)
        return fit_variogram(empirical_variogram(panel, data.stations))
    if mode == "spatial-bma":
        return bma_mod.fit_spatial_bma(data, window, params)
    return None


def draw_fields(
    mode: str, law, forecasts: np.ndarray, stations: StationSet, n: int, rng, tie_rng, spatial=None
):
    """Forecast fields of one spatial mode over the given stations.

    law is the stations' batch predictive law, forecasts their raw members
    (S, M) and spatial what fit_spatial returned for the mode. ecc reorders
    M quantiles by the members' ranks, ties broken from tie_rng; the other
    modes draw n fields from rng. Returns the sample and a function giving
    the fields' mean and covariance, or None where only the sample has them.
    """
    ids = stations.ids
    if mode == "none":
        fields = np.ascontiguousarray(law.sample(rng, n))  # the layout the field scores' sums follow
        return ForecastFieldSample(ids, fields, "independent"), lambda: (law.mean, np.diag(law.variance))
    if mode == "grf":
        corr = build_correlation_matrix(spatial, stations)
        mvp = build_spatial_ngr(law.mean, law.sd, corr, ids)
        return sample_fields(mvp, n, rng), lambda: (mvp.mu, mvp.covariance())
    if mode == "ecc":
        q = ecc_quantiles(law, forecasts.shape[1])
        perms = np.vstack([rank_permutation(row, tie_rng) for row in impute(forecasts)[0]])
        return ecc_reorder(q, perms, ids), None
    sample = bma_mod.sample_spatial_bma(spatial, forecasts, stations, n, rng)
    return sample, lambda: verify.mixture_moments(
        spatial.bma.w,
        np.ascontiguousarray(law.means.T),  # member mean fields (M, S); mixture_moments' sums follow the layout
        np.stack([spatial.bma.sigma2 * build_correlation_matrix(fit, stations) for fit in spatial.variograms]),
    )


# ---------------------------------------------------------------------------
# the run


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = load_data_dir(cfg.data_dir)
    for sid in cfg.region:
        if sid not in data.stations:
            raise ValueError(f"region station {sid!r} not in the dataset")
    windows = rolling_windows(data, cfg.window_length)
    if not windows:
        raise ValueError("dataset leaves no target day behind the training window")

    methods = list(dict.fromkeys(m for m, _ in cfg.combos))
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
                    fits[method] = prev[method] = METHODS[method].fit(data, window, prev.get(method))
                except _DAY_FAILURES as exc:
                    log.warning("day %s: %s fit failed: %s", day, method, exc)
                    n_warnings += 1
                    for lab in all_labels:
                        if lab == method or lab.startswith(method + "/"):
                            failed[lab].append(day)

            # each method's law on the stations with a member and an observation
            preds = {m: predict_rows(m, fits[m], data.stations, fc, obs_ok) for m in fits}

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
            alpha = 0.5 * (1.0 - cfg.level)
            for method, (rows, law) in preds.items():
                if not rows.any():
                    continue
                y = obs[rows]
                lo, med, hi = law.quantile([alpha, 0.5, 1.0 - alpha]).T
                if isinstance(law, GaussianPredictive):
                    crps = ngr_mod.crps_gaussian(law, y)
                else:
                    n = cfg.n_pair_samples
                    crps_rng = seeded_rng(cfg.seed, f"score/crps/{method}/{day}")
                    draws = law.sample(crps_rng, 2 * n).T  # one station's draws a row
                    crps = verify.crps_sample(draws[:, :n], draws[:, n:], y)
                pits = verify.pit(law, y).tolist()
                pit_pool[method].extend(pits)
                for s, v in zip(np.flatnonzero(rows), pits):
                    pit_station[method][s].append(v)
                mae, rmse = verify.mae_rmse(med, law.mean, y)
                add(method, day, "all", "crps", float(np.mean(crps)))
                add(method, day, "all", "mae", mae)
                add(method, day, "all", "rmse", rmse)
                add(method, day, "all", "pi_coverage", float(np.mean((lo <= y) & (y <= hi))))
                add(method, day, "all", "pi_width", float(np.mean(hi - lo)))

            # multivariate scoring over sampled fields
            def score_fields(label: str, sample, y_vec: np.ndarray, ds_value: Optional[float]) -> None:
                fields = sample.fields
                half = fields.shape[0] // 2
                es, ee = verify.field_scores(fields, y_vec)
                add(label, day, "field", "es", es)
                add(label, day, "field", "ee", ee)
                if ds_value is None:
                    ds_value = verify.ds_from_sample(fields, y_vec)
                add(label, day, "field", "ds", ds_value)
                in_region = np.array([sid in region_ids for sid in sample.station_order])
                if in_region.any():
                    minima = verify.composite_minimum(sample, np.array(sample.station_order)[in_region])
                    obs_min = float(y_vec[in_region].min())
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
                sample = ForecastFieldSample(ids, impute(fc[raw_active])[0].T, "raw")  # (M, n_active)
                score_fields("raw", sample, obs[raw_active], None)

            for method, spatial_mode in cfg.combos:
                label = combo_label(method, spatial_mode)
                if method not in fits:
                    continue
                rows, law = preds[method]
                if rows.sum() < 2:
                    continue
                act_set = StationSet(data.stations[s] for s in np.flatnonzero(rows))
                y_vec = obs[rows]
                rng = seeded_rng(cfg.seed, f"sample/{label}/{day}")
                try:
                    spatial = fit_spatial(spatial_mode, method, fits[method], data, window)
                    sample, moments = draw_fields(
                        spatial_mode, law, fc[rows], act_set,
                        cfg.n_field_samples, rng, seeded_rng(cfg.seed, f"ties/{day}"), spatial,
                    )
                    ds_val = None if moments is None else verify.dawid_sebastiani(*moments(), y_vec)
                except _DAY_FAILURES as exc:
                    log.warning("day %s: %s sampling failed: %s", day, label, exc)
                    n_warnings += 1
                    failed[label].append(day)
                    continue
                score_fields(label, sample, y_vec, ds_val)
                pdir = out / "params" / _safe(label)
                pdir.mkdir(parents=True, exist_ok=True)
                write_params(pdir / f"{day}.json", method, fits[method], window, spatial)

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


def write_params(path, method: str, params, window, spatial=None) -> None:
    """Write a fit, with the correlation model fit_spatial gave, as a params JSON file."""
    doc = METHODS[method].to_json(params, window.target_day, window.training_days)
    if isinstance(spatial, VariogramFit):
        doc["variogram"] = _variogram_doc(spatial)
    elif spatial is not None:
        doc["member_variograms"] = [_variogram_doc(f) for f in spatial.variograms]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_params(path, spatial_mode: str = "none"):
    """A params JSON file as (document, method, params, spatial).

    spatial is the correlation model that spatial_mode samples with, as
    write_params stored it, or None for the modes that need none.
    """
    with open(path) as fh:
        doc = json.load(fh)
    method = doc.get("method")
    if method not in METHODS:
        raise ValueError(f"parameter file has unknown method {method!r}")
    validate_combo(method, spatial_mode)
    params = METHODS[method].from_json(doc)
    key = {"grf": "variogram", "spatial-bma": "member_variograms"}.get(spatial_mode)
    if key is None:
        return doc, method, params, None
    if key not in doc:
        raise ValueError(f"params file has no {key.replace('_', ' ')}; rerun fit with --spatial {spatial_mode}")
    if spatial_mode == "grf":
        return doc, method, params, _variogram_fit(doc[key])
    return doc, method, params, bma_mod.SpatialBmaParams(params, [_variogram_fit(v) for v in doc[key]])


def _variogram_doc(fit) -> dict:
    return {
        "theta": float(fit.theta),
        "range_km": float(fit.range_km),
        "objective": float(fit.objective),
        "degenerate": bool(fit.degenerate),
    }


def _variogram_fit(doc: dict) -> VariogramFit:
    return VariogramFit(doc["theta"], doc["range_km"], (), float(doc.get("objective", float("nan"))),
                        doc.get("degenerate", False))
