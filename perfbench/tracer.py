"""In-memory span tracer that wraps enspost's public functions from outside.

A traced run replaces each listed function with a wrapper in every enspost
module namespace that binds it (``build_correlation_matrix``, for example, is
imported by name into ``experiment``, ``bma``, ``cli`` and ``synth``), and the
listed methods on their classes. Each wrapper records one span (name, start,
end, parent, run id) and may read counters off the return value. The hottest
call site, ``MixturePredictive.cdf``, only bumps a counter. ``restore`` puts
every original back.

Self time is a span's duration minus the durations of its direct children,
so the self times of all spans add up to the durations of the root spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "enspost"

# Span name, as the function's defining module + name, mapped to the metric
# group its self time and calls are reported under.
FUNCTIONS = {
    "ingest.load_dataset": "ingest.load",
    "ingest.save_dataset": "ingest.save",
    "ingest.rolling_windows": "ingest.windows",
    "synth.generate": "synth.generate",
    "ngr.fit_ngr_plus": "ngr.fit",
    "ngr.fit_ngr_c": "ngr.fit",
    "ngr.predict_ngr_plus": "ngr.predict",
    "ngr.predict_ngr_c": "ngr.predict",
    "ngr.interpolate_ngr_c": "ngr.interpolate",
    "bma.fit_bma": "bma.fit",
    "bma.predict_bma": "bma.predict",
    "bma.fit_spatial_bma": "bma.fit_spatial",
    "bma.sample_spatial_bma": "bma.sample_spatial",
    "spatial.standardize_errors": "spatial.standardize",
    "spatial.empirical_variogram": "spatial.empirical_variogram",
    "spatial.fit_variogram": "spatial.fit_variogram",
    "spatial.build_correlation_matrix": "spatial.correlation",
    "spatial.build_spatial_ngr": "spatial.build_ngr",
    "spatial.cholesky_with_jitter": "spatial.cholesky",
    "spatial.sample_fields": "spatial.sample_fields",
    "ecc.ecc_quantiles": "ecc.quantiles",
    "ecc.rank_permutation": "ecc.rank",
    "ecc.ecc_reorder": "ecc.reorder",
    "verify.spatial_median": "verify.spatial_median",
    "verify.energy_score": "verify.energy_score",
    "verify.energy_score_ensemble": "verify.energy_score",
    "verify.dawid_sebastiani": "verify.ds",
    "verify.ds_from_sample": "verify.ds",
    "verify.mixture_moments": "verify.ds",
    "verify.band_depth_rank": "verify.band_depth",
    "verify.crps_sample": "verify.univariate",
    "verify.crps_ensemble": "verify.univariate",
    "verify.ensemble_range_coverage": "verify.univariate",
    "verify.mae_rmse": "verify.univariate",
    "verify.pit": "verify.univariate",
    "verify.verification_rank": "verify.univariate",
    "verify.euclidean_error": "verify.univariate",
    "verify.threshold_prob": "verify.univariate",
    "verify.brier_score": "verify.univariate",
    "verify.pit_histogram": "verify.univariate",
    "verify.rank_histogram": "verify.univariate",
    "verify.reliability_index": "verify.univariate",
    "verify.histogram_to_csv": "verify.write",
    "experiment.run_experiment": "experiment.self",
    "cli.main": "cli.self",
    "cli.load_fields_csv": "cli.load_fields",
}

METHODS = {
    "core.MixturePredictive.quantile": "core.mixture_quantile",
    "core.MixturePredictive.sample": "core.mixture_sample",
    "core.GaussianPredictive.sample": "core.gaussian_sample",
    "verify.ScoreTable.write_csv": "verify.write",
}

# Counted without a span: millions of calls a season.
COUNTED = {"core.MixturePredictive.cdf": "core.mixture_cdf"}

QUANTILE = "core.MixturePredictive.quantile"


# Counters read from what the public functions already return.
def _on_load(counts, data):
    counts["ingest.rows_read"] += data.n_stations + data.n_days * data.n_stations * (data.members + 1)


def _on_ngr_fit(counts, params):
    counts["ngr.fit_converged"] += bool(params.converged)


def _on_bma_fit(counts, params):
    counts["bma.em_iters"] += int(params.n_iter)
    counts["bma.em_converged"] += bool(params.converged)


def _on_variogram(counts, fit):
    counts["spatial.variogram_degenerate"] += bool(fit.degenerate)


def _on_cholesky(counts, result):
    counts["spatial.jittered"] += result[1] > 0.0


def _on_fields(counts, sample):
    n, d = sample.fields.shape
    counts["spatial.field_bytes"] += n * d * 8


def _on_experiment(counts, result):
    counts["experiment.warnings"] += int(result.n_warnings)
    counts["experiment.failed_days"] += sum(len(v) for v in result.summary["failed_days"].values())


HOOKS = {
    "ingest.load_dataset": _on_load,
    "ngr.fit_ngr_plus": _on_ngr_fit,
    "ngr.fit_ngr_c": _on_ngr_fit,
    "bma.fit_bma": _on_bma_fit,
    "spatial.fit_variogram": _on_variogram,
    "spatial.cholesky_with_jitter": _on_cholesky,
    "spatial.sample_fields": _on_fields,
    "experiment.run_experiment": _on_experiment,
}

# Span indices into the record list below.
NAME, START, END, PARENT, RUN, CHILD = range(6)


class Tracer:
    """Records spans and counts while installed; restores everything after."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # [name, start, end, parent index or -1, run id, child seconds]
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.run_id, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[END] = end
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]
            if hook is not None:
                hook(counts, result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    def count(self, key: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        inner = key + ".in_quantile"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if stack and spans[stack[-1]][NAME] == QUANTILE:
                counts[inner] += 1
            return fn(*args, **kwargs)

        wrapper.__bench_original__ = fn
        return wrapper

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Patch every listed function in each namespace binding it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for qual in FUNCTIONS:
            mod_name, attr = qual.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            wrapper = self.wrap(qual, original, HOOKS.get(qual))
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)
        for qual in [*METHODS, *COUNTED]:
            mod_name, cls_name, attr = qual.split(".")
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            original = vars(cls)[attr]
            if qual in COUNTED:
                self._patch(cls, attr, self.count(COUNTED[qual], original))
            else:
                self._patch(cls, attr, self.wrap(qual, original))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ----------------------------------------------------------

    def self_times(self, runs=None) -> dict:
        """Self seconds and call counts per metric group.

        ``runs`` limits the tally to spans whose run id is in it.
        """
        seconds: dict = defaultdict(float)
        calls: Counter = Counter()
        for rec in self.spans:
            if runs is not None and rec[RUN] not in runs:
                continue
            group = FUNCTIONS.get(rec[NAME]) or METHODS[rec[NAME]]
            seconds[group] += rec[END] - rec[START] - rec[CHILD]
            calls[group] += 1
        return {"seconds": dict(seconds), "calls": dict(calls)}

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of counts."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"name": rec[NAME], "start": rec[START], "end": rec[END],
                                     "parent": rec[PARENT], "run": rec[RUN]}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}, sort_keys=True) + "\n")


def leftover_wrappers() -> list:
    """Names in enspost modules or classes that still hold a tracer wrapper."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "__bench_original__"):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                found += [f"{name}.{attr}.{a}" for a, v in vars(value).items() if hasattr(v, "__bench_original__")]
    return found
