"""Rolling-window experiment engine.

run_experiment scores each target day through the stages fit_methods,
raw_scores (the raw-ensemble baseline), marginal_scores, and draw_combo with
score_fields, one combo at a time after the raw ensemble's own field. Each
stage returns its (unit, score, value) rows and histogram entries for the
loop to record. The raw field and every combo of a day share one
active-station set (ActiveDay). Randomness comes from named streams of the
config seed, so a rerun with the same config is byte-identical.

Output layout under the configured directory:
  scores.csv                per-day score rows (date, unit, method, score, value)
  summary.json              per-combo score means plus run metadata
  pit_<method>.csv          pooled PIT histogram (20 bins)
  rank_raw.csv              pooled raw-ensemble rank histogram (M+1 bins)
  banddepth_<combo>.csv     pooled band-depth rank histogram (21 bins)
  params/<combo>/<date>.json  per-day fitted parameters

`ri` is the station mean of the reliability index of each station's PIT or
raw rank histogram, both with M+1 bins.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import warnings
from collections import Counter
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
    TrainingWindow,
    impute,
    seeded_rng,
)
from .ecc import ecc_quantiles, ecc_reorder, rank_permutation
from .ingest import cast_fields, load_data_dir, rolling_windows
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

    fit: Callable  # (data, window) -> params
    predictor: Callable  # (params, stations) -> ((station positions (n,), member forecasts (n, M)) -> predictive law)
    record: type  # the params dataclass, whose fields a params file holds


def _ngrc_predictor(params, stations: StationSet):
    """predict_ngr_c at every station, interpolating the climatologies the fit left out."""
    params, rows = ngr_mod.interpolate_ngr_c(params, stations)
    return lambda positions, forecasts: ngr_mod.predict_ngr_c(params, rows[positions], forecasts)


# each fit is looked up in its module when called, so one patched in there (by a tracer, say) is the one run
METHODS = {
    "ngr+": Method(
        fit=lambda data, window: ngr_mod.fit_ngr_plus(data, window),
        predictor=lambda params, stations: lambda positions, forecasts: ngr_mod.predict_ngr_plus(params, forecasts),
        record=ngr_mod.NgrPlusParams,
    ),
    "ngrc": Method(
        fit=lambda data, window: ngr_mod.fit_ngr_c(data, window),
        predictor=_ngrc_predictor,
        record=ngr_mod.NgrCParams,
    ),
    "bma": Method(
        fit=lambda data, window: bma_mod.fit_bma(data, window),
        predictor=lambda params, stations: lambda positions, forecasts: bma_mod.predict_bma(params, forecasts),
        record=bma_mod.BmaParams,
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
    for tok in filter(None, (tok.strip() for tok in text.split(","))):
        method, _, spatial_mode = tok.partition("/")
        pair = (method, spatial_mode or "none")
        validate_combo(*pair)
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
        if self.n_field_samples < 2:
            raise ValueError("n_field_samples must be at least 2")
        if not 0.0 < self.level < 1.0:
            raise ValueError("interval level must lie strictly between 0 and 1")


# config key -> the ExperimentConfig field it sets; every other key is its field's own name
_CONFIG_KEYS = {"data": "data_dir", "out": "out_dir", "window": "window_length", "fields": "n_field_samples"}


def parse_experiment_config(kv: dict, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Config from key=value text with the keys of _CONFIG_KEYS and the other fields' names; overrides win."""
    merged = {**kv, **(overrides or {})}
    renamed = sorted(set(merged) & set(_CONFIG_KEYS.values()))
    if renamed:
        raise ValueError(f"unknown ExperimentConfig key(s): {', '.join(renamed)}")
    for required in ("data", "out"):
        if required not in merged:
            raise ValueError(f"config needs {required}=")
    if "combos" in merged:
        merged["combos"] = parse_combos(merged["combos"])
    return ExperimentConfig(**cast_fields(ExperimentConfig, {_CONFIG_KEYS.get(key, key): text
                                                            for key, text in merged.items()}))


@dataclass
class ExperimentResult:
    summary: dict
    table: verify.ScoreTable
    n_warnings: int


# ---------------------------------------------------------------------------
# per-day helpers


def predict_rows(method: str, params, stations: StationSet, forecasts: np.ndarray):
    """Rows of forecasts (..., S, M) with a member, and the method's batch law on them.

    Returns the rows as a (..., S) mask and one law over them in row order.
    """
    rows = np.isfinite(forecasts).any(axis=-1)
    positions = np.broadcast_to(np.arange(len(stations)), rows.shape)[rows]
    return rows, METHODS[method].predictor(params, stations)(positions, forecasts[rows])


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
        return ecc_reorder(q, rank_permutation(impute(forecasts)[0], tie_rng), ids), None
    sample = bma_mod.sample_spatial_bma(spatial, forecasts, stations, n, rng)
    return sample, lambda: verify.mixture_moments(
        spatial.bma.w,
        np.ascontiguousarray(law.means.T),  # member mean fields (M, S); mixture_moments' sums follow the layout
        np.stack([spatial.bma.sigma2 * build_correlation_matrix(fit, stations) for fit in spatial.variograms]),
    )


# ---------------------------------------------------------------------------
# the day's stages


@dataclass(frozen=True)
class ActiveDay:
    """A target day's rows with an observation and a member, which every stage and combo shares."""

    window: TrainingWindow
    y: np.ndarray  # (n,) their observations
    members: np.ndarray  # (n, M) their raw members
    stations: StationSet  # their stations: one set, so one distance matrix, for every combo


def fit_methods(methods, data: EnsembleDataset, window: TrainingWindow) -> dict:
    """Each method's fit on the window alone; a numerical failure is logged and left out."""
    fits = {}
    for method in methods:
        try:
            fits[method] = METHODS[method].fit(data, window)
        except _DAY_FAILURES as exc:
            log.warning("day %s: %s fit failed: %s", window.target_day, method, exc)
    return fits


def _univariate_rows(crps, medians, means, y, covered, width) -> list:
    mae, rmse = verify.mae_rmse(medians, means, y)
    return [("all", "crps", float(np.mean(crps))), ("all", "mae", mae), ("all", "rmse", rmse),
            ("all", "pi_coverage", float(np.mean(covered))), ("all", "pi_width", float(np.mean(width)))]


def raw_scores(obs: np.ndarray, fc: np.ndarray, rng) -> tuple[list, np.ndarray]:
    """Raw-ensemble rows over stations with an observation and 2+ members, and their (S,) ranks, NaN: none."""
    ranks = np.full(obs.shape, np.nan)
    scored = []
    for s in np.flatnonzero(np.isfinite(obs)):
        members = fc[s][np.isfinite(fc[s])]
        if members.size >= 2:
            ranks[s] = verify.verification_rank(members, obs[s], rng)
            scored.append((verify.crps_ensemble(members, obs[s]), float(np.median(members)), float(members.mean()),
                           *verify.ensemble_range_coverage(members, obs[s])))
    if not scored:
        return [], ranks
    crps, medians, means, covered, width = zip(*scored)
    return _univariate_rows(crps, medians, means, obs[np.isfinite(ranks)], covered, width), ranks


def marginal_scores(law, day: ActiveDay, cfg: ExperimentConfig) -> tuple[list, np.ndarray]:
    """A method's rows for its batch law on the day's active rows, and their PITs."""
    y = day.y
    alpha = 0.5 * (1.0 - cfg.level)
    lo, med, hi = law.quantile([alpha, 0.5, 1.0 - alpha]).T
    crps = (ngr_mod.crps_gaussian if isinstance(law, GaussianPredictive) else ngr_mod.crps_mixture)(law, y)
    return _univariate_rows(crps, med, law.mean, y, (lo <= y) & (y <= hi), hi - lo), verify.pit(law, y)


def draw_combo(method: str, mode: str, params, law, data: EnsembleDataset, day: ActiveDay, cfg: ExperimentConfig):
    """One combo's (correlation fit, fields, model ds or None) over the day's active stations."""
    label, date = combo_label(method, mode), day.window.target_day
    spatial = fit_spatial(mode, method, params, data, day.window)
    rng, tie_rng = seeded_rng(cfg.seed, f"sample/{label}/{date}"), seeded_rng(cfg.seed, f"ties/{date}")
    sample, moments = draw_fields(mode, law, day.members, day.stations, cfg.n_field_samples, rng, tie_rng, spatial)
    return spatial, sample, None if moments is None else verify.dawid_sebastiani(*moments(), day.y)


def score_fields(label: str, sample: ForecastFieldSample, ds: Optional[float], day: ActiveDay, cfg: ExperimentConfig):
    """A label's field and region rows for its fields, ds taken from them if None, and its band-depth ranks."""
    es, ee = verify.field_scores(sample.fields, day.y)
    if ds is None:
        ds = verify.ds_from_sample(sample.fields, day.y)
    rows = [("field", "es", es), ("field", "ee", ee), ("field", "ds", ds)]
    region = [sid for sid in day.stations.ids if not cfg.region or sid in cfg.region]
    if region:
        minima = verify.composite_minimum(sample, region)
        obs_min = float(min(day.y[day.stations.index(sid)] for sid in region))
        half = minima.size // 2
        min_crps = (verify.crps_sample(minima[:half], minima[half: 2 * half], obs_min) if minima.size >= 100
                    else verify.crps_ensemble(minima, obs_min))
        rows += [("region", "min_crps", min_crps), ("region", "min_bias", float(minima.mean()) - obs_min)]
        rows += [("region", f"bs@{x:g}", verify.brier_score(verify.threshold_prob(minima, x), obs_min, x))
                 for x in cfg.thresholds]
    if sample.n_samples < 2:
        return rows, []
    rng = seeded_rng(cfg.seed, f"verify/banddepth/{label}/{day.window.target_day}")
    return rows, [verify.band_depth_rank(np.vstack([day.y[None, :], sample.fields[:BAND_DEPTH_FIELDS]]), rng, 0)]


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

    table = verify.ScoreTable()
    # (day, station) panels of PITs and raw ranks, NaN where a row has none
    pits = {m: np.full((len(windows), data.n_stations), np.nan) for m in methods}
    ranks = np.full((len(windows), data.n_stations), np.nan)
    band_depth: dict = {lab: [] for lab in all_labels}
    failed: dict = {lab: [] for lab in all_labels}
    n_warnings = 0

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for k, window in enumerate(windows):
            date = window.target_day
            t = data.day_index(date)
            obs, fc = data.observations[t], data.forecasts[t]
            active = np.isfinite(obs) & np.isfinite(fc).any(axis=1)
            act_set = StationSet(data.stations[s] for s in np.flatnonzero(active))
            day = ActiveDay(window, obs[active], fc[active], act_set)

            fits = fit_methods(methods, data, window)
            n_warnings += len(methods) - len(fits)
            for lab in bare + labels:
                if lab.partition("/")[0] not in fits:
                    failed[lab].append(date)

            rows, ranks[k] = raw_scores(obs, fc, seeded_rng(cfg.seed, f"verify/rank/{date}"))
            table.add_rows(date, "raw", rows)
            if not active.any():
                continue
            laws = {m: METHODS[m].predictor(fits[m], data.stations)(np.flatnonzero(active), day.members) for m in fits}
            for method, law in laws.items():
                rows, pits[method][k, active] = marginal_scores(law, day, cfg)
                table.add_rows(date, method, rows)
            if active.sum() < 2:
                continue

            raw = ForecastFieldSample(act_set.ids, impute(day.members)[0].T, "raw")
            rows, bd = score_fields("raw", raw, None, day, cfg)
            table.add_rows(date, "raw", rows)
            band_depth["raw"] += bd
            for method, spatial_mode in cfg.combos:
                if method not in fits:
                    continue
                label = combo_label(method, spatial_mode)
                try:
                    spatial, sample, ds = draw_combo(method, spatial_mode, fits[method], laws[method], data, day, cfg)
                except _DAY_FAILURES as exc:
                    log.warning("day %s: %s sampling failed: %s", date, label, exc)
                    n_warnings += 1
                    failed[label].append(date)
                    continue
                rows, bd = score_fields(label, sample, ds, day, cfg)
                table.add_rows(date, label, rows)
                band_depth[label] += bd
                pdir = out / "params" / _safe(label)
                pdir.mkdir(parents=True, exist_ok=True)
                write_params(pdir / f"{date}.json", method, fits[method], window, spatial)

    n_warnings += len(caught)
    for message, count in Counter(f"{w.category.__name__}: {w.message}" for w in caught).items():
        log.info("%d x %s", count, message)

    means: dict = {lab: {} for lab in all_labels}
    for r in table.rows:
        means[r.method].setdefault(r.score, []).append(r.value)
    # reliability indices: per-station histograms with M + 1 bins, averaged over stations
    for lab, panel in {"raw": ranks, **pits}.items():
        histogram = verify.rank_histogram if lab == "raw" else verify.pit_histogram
        ri = [verify.reliability_index(histogram(col[np.isfinite(col)], data.members + 1))
              for col in panel.T if np.isfinite(col).any()]
        if ri:
            means[lab]["ri"] = ri

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
            lab: {score: float(np.mean(vals)) for score, vals in sorted(means[lab].items())}
            for lab in all_labels
        },
    }

    table.write_csv(out / "scores.csv")
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    histograms = {f"pit_{_safe(m)}.csv": verify.pit_histogram(p[np.isfinite(p)]) for m, p in pits.items()}
    histograms["rank_raw.csv"] = verify.rank_histogram(ranks[np.isfinite(ranks)], data.members + 1)
    for lab, bd_ranks in band_depth.items():
        histograms[f"banddepth_{_safe(lab)}.csv"] = verify.rank_histogram(bd_ranks, BAND_DEPTH_FIELDS + 1)
    for name, hist in histograms.items():
        if hist.total:
            verify.histogram_to_csv(hist, out / name)
    return ExperimentResult(summary=summary, table=table, n_warnings=n_warnings)


def _safe(label: str) -> str:
    return label.replace("/", "_")


def write_params(path, method: str, params, window, spatial=None) -> None:
    """Write a fit, with the correlation model fit_spatial gave, as a params JSON file.

    The file holds method, target_day and window_days, then each field of
    the params record under its own name, then the grf variogram or the
    spatial-bma member variograms as VariogramFit fields.
    """
    doc = {"method": method, "target_day": window.target_day, "window_days": window.training_days,
           **_fields_of(params)}
    if isinstance(spatial, VariogramFit):
        doc["variogram"] = _fields_of(spatial)
    elif spatial is not None:
        doc["member_variograms"] = [_fields_of(fit) for fit in spatial.variograms]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=lambda a: a.tolist())  # numpy arrays and scalars
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
    params = _from_fields(METHODS[method].record, doc)
    key = {"grf": "variogram", "spatial-bma": "member_variograms"}.get(spatial_mode)
    if key is None:
        return doc, method, params, None
    if key not in doc:
        raise ValueError(f"params file has no {key.replace('_', ' ')}; rerun fit with --spatial {spatial_mode}")
    if spatial_mode == "grf":
        return doc, method, params, _from_fields(VariogramFit, doc[key])
    return doc, method, params, bma_mod.SpatialBmaParams(params, [_from_fields(VariogramFit, v) for v in doc[key]])


def _fields_of(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _from_fields(cls, doc: dict):
    """cls rebuilt from doc's entries of its fields, cast by cast_fields, through its own checks."""
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in doc]
    if missing:
        raise ValueError(f"params file lacks {cls.__name__} field(s) {', '.join(missing)}; refit it")
    return cls(**cast_fields(cls, {f.name: doc[f.name] for f in dataclasses.fields(cls)}))
