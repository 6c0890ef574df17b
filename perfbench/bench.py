"""Workloads, timed steps, output checks and metrics of the enspost benchmark.

Every workload is generated from the seed: a few synthetic seasons, season
j from ``synth.default_spec(1000 * seed + j)``, optionally widened and
gapped, written to CSV with ``ingest.save_dataset``. The program receives
only those CSVs and its config, through the public API
(``experiment.run_experiment`` or ``cli.main``).

The timed part runs steps until ``seconds`` of program calls have passed.
Step k works on season k mod the number of seasons, so one run averages
over seasons whose fits converge at different speeds. On the experiment
workloads a step is one ``run_experiment`` call on a dataset holding a
25-day training window and the next few target days; each season is walked
block by block. On ``cli-day`` a step is one fit -> predict -> sample ->
verify chain for each of three combos on one target day of the season, so
every step does the same mix of chains. A unit run twice must reproduce
its output bytes: every run also sets up and reruns its cheapest unit in a
child process with another hash seed (``child.py``). Set-up time is the
median of the set-ups of the run and of its two children.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from enspost import cli, experiment, ingest, synth
from enspost.core import EnsembleDataset, seeded_rng

import tracer as tracer_mod

WINDOW = 25  # the experiment's and the CLI's default training window
THRESHOLDS = (14.0, 18.0, 22.0)
NOMINAL_COVERAGE = 19.0 / 21.0
SKILL_SE = 3.0  # standard errors of the daily scores a skill check allows
COVERAGE_SLACK = 0.02
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT = 120.0  # seconds a child set-up and rerun may take


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "experiment" or "cli"
    combos: tuple  # experiment combo labels, or cli chains
    stations: int = 100
    members: int = 20
    fields: int = 10000
    days: int = 1  # target days per experiment dataset
    seasons: int = 1  # seasons generated from the seed; step k uses season k mod seasons
    member_gap: float = 0.0  # share of member values blanked
    obs_gap: float = 0.0  # share of stations per day whose observation is blanked


WORKLOADS = {w.name: w for w in (
    Workload(
        "desk-gaussian",
        "acceptance-size seasons with the Gaussian combos: ngr BFGS fits, GRF sampling and field scoring carry it; no bma or mixture code runs",
        "experiment", ("ngr+", "ngr+/grf", "ngr+/ecc", "ngrc", "ngrc/grf"), days=5, seasons=8,
    ),
    Workload(
        "desk-mixture",
        "same seasons with the bma combos: EM fits, mixture quantile bisection and per-member variograms carry it; no ngr code runs",
        "experiment", ("bma", "bma/ecc", "bma/spatial-bma"), days=2, seasons=8,
    ),
    Workload(
        "wide-gaps",
        "500 stations with 5% member and 1% observation gaps: ingest and per-station loops carry it; wide 1000 x 500 fields; grf days fail",
        "experiment", ("ngr+/grf", "ngrc/grf", "ngr+/ecc"),
        stations=500, fields=1000, member_gap=0.05, obs_gap=0.01, days=2,
    ),
    Workload(
        "cli-day",
        "operational days through the CLI, three chains a day: each subcommand reloads the CSVs and sample writes a 200k-row fields file that verify parses",
        "cli", ("ngr+/grf", "ngrc/ecc", "bma/spatial-bma"), fields=2000, seasons=4,
    ),
)}


def tiny(wl: Workload) -> Workload:
    """The same workload at smoke-test size."""
    return replace(wl, stations=12, members=5, fields=200, days=min(wl.days, 2), seasons=min(wl.seasons, 2))


def _safe(label: str) -> str:
    return label.replace("/", "_")


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Context:
    wl: Workload
    seed: int
    work: Path
    seasons: list  # the generated, gapped seasons (EnsembleDataset)
    setup: dict  # seconds of each set-up step
    gaps: dict  # realised gap rates
    saved: dict = field(default_factory=dict)  # (season, block) -> (dataset dir, seconds to save)

    def season_seed(self, j: int) -> int:
        return 1000 * self.seed + j

    def place(self, k: int) -> tuple:
        """Season and block of step k; cli-day has one block per season."""
        n = len(self.seasons)
        return k % n, (k // n) % self.n_blocks if self.wl.kind == "experiment" else 0

    @property
    def n_blocks(self) -> int:
        return (self.seasons[0].n_days - WINDOW) // self.wl.days

    def block_days(self, j: int, b: int) -> list:
        t = WINDOW + b * self.wl.days
        return list(self.seasons[j].days[t: t + self.wl.days])

    def block_dir(self, j: int, b: int) -> Path:
        """Directory of block b of season j, saved on first use.

        An experiment block holds the training window and its target days;
        on cli-day the one block is the whole season.
        """
        if (j, b) not in self.saved:
            d = self.seasons[j]
            if self.wl.kind == "experiment":
                t = WINDOW + b * self.wl.days
                lo, hi = t - WINDOW, t + self.wl.days
                d = EnsembleDataset(d.stations, d.days[lo:hi], d.forecasts[lo:hi], d.observations[lo:hi])
            self.saved[j, b] = save(d, self.work / "data" / f"season{j}-block{b}")
        return self.saved[j, b][0]

    def cli_day(self, j: int) -> str:
        d = self.seasons[j]
        return d.days[WINDOW + self.seed % (d.n_days - WINDOW)]


def inject_gaps(data: EnsembleDataset, wl: Workload, seed: int) -> tuple[EnsembleDataset, dict]:
    """Blank member values and observations from the bench's own stream."""
    if not (wl.member_gap or wl.obs_gap):
        return data, {"member_gap_rate": 0.0, "obs_gap_rate": 0.0}
    rng = seeded_rng(seed, "bench/gaps")
    fc = np.array(data.forecasts)
    obs = np.array(data.observations)
    fc_mask = rng.random(fc.shape) < wl.member_gap
    fc[fc_mask] = np.nan
    # a fixed count a day, so every target day has missing observations
    per_day = max(1, round(wl.obs_gap * data.n_stations))
    for t in range(data.n_days):
        obs[t, rng.choice(data.n_stations, size=per_day, replace=False)] = np.nan
    gapped = EnsembleDataset(data.stations, data.days, fc, obs)
    return gapped, {
        "member_gap_rate": float(fc_mask.mean()),
        "obs_gap_rate": float(np.isnan(obs).mean()),
    }


def save(data: EnsembleDataset, d: Path) -> tuple[Path, float]:
    """Write the three CSVs into d; return d and the seconds it took."""
    d.mkdir(parents=True, exist_ok=True)
    t = time.perf_counter()
    ingest.save_dataset(data, d / "stations.csv", d / "forecasts.csv", d / "observations.csv")
    return d, time.perf_counter() - t


def set_up(wl: Workload, seed: int, work: Path, tracer=None) -> Context:
    """Generate the seasons, blank gaps, and save the first dataset.

    Later datasets are saved before the step that needs them, outside the
    timed calls and outside set-up time.
    """
    if tracer is not None:
        tracer.run_id = "setup"
    ctx = Context(wl, seed, work, [], {}, {})
    t0 = time.perf_counter()
    seasons = [synth.generate(synth.default_spec(ctx.season_seed(j), n_stations=wl.stations, n_members=wl.members))
               for j in range(wl.seasons)]
    t1 = time.perf_counter()
    gapped = [inject_gaps(d, wl, ctx.season_seed(j)) for j, d in enumerate(seasons)]
    t2 = time.perf_counter()
    ctx.seasons = [d for d, _ in gapped]
    ctx.gaps = {k: statistics.fmean(g[k] for _, g in gapped) for k in gapped[0][1]}
    ctx.setup = {"generate_s": t1 - t0, "gaps_s": t2 - t1}
    ctx.block_dir(0, 0)
    ctx.setup["save_s"] = ctx.saved[0, 0][1]
    return ctx


# ---------------------------------------------------------------------------
# units


@dataclass
class Unit:
    key: str
    calls: list  # seconds of each timed program call
    ops: int  # attempted operations
    failed: int = 0
    work: int = 0  # station-days completed
    digest: str = ""
    scores: dict = field(default_factory=dict)  # summary means per label and score
    daily: dict = field(default_factory=dict)  # {(label, score): {date: value}}
    problems: list = field(default_factory=list)


def digest_dir(path: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for p in sorted(q for q in path.rglob("*") if q.is_file()):
        h.update(p.relative_to(path).as_posix().encode() + b"\0")
        with open(p, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_experiment_output(out: Path, summary: dict, wl: Workload, days: list) -> list:
    """Files, labels and finite scores of one run_experiment output."""
    problems = []
    combos = experiment.parse_combos(",".join(wl.combos))
    methods = list(dict.fromkeys(m for m, _ in combos))
    labels = ["raw", *methods, *wl.combos]
    failed = {lab for lab, gone in summary["failed_days"].items() if set(days) <= set(gone)}
    if summary["n_target_days"] != len(days):
        problems.append(f"{summary['n_target_days']} target days, expected {len(days)}")
    scores = summary["methods"]
    for lab in labels:
        if lab not in scores:
            problems.append(f"label {lab} missing from summary")
    for lab, vals in scores.items():
        bad = [k for k, v in vals.items() if not _finite(v)]
        if bad:
            problems.append(f"{lab}: non-finite {bad}")
    for m in methods:
        if m not in failed and "crps" not in scores.get(m, {}):
            problems.append(f"{m}: no crps")
    expected = ["scores.csv", "summary.json", "rank_raw.csv", "banddepth_raw.csv"]
    expected += [f"pit_{_safe(m)}.csv" for m in methods if m not in failed]
    for lab in wl.combos:
        done = [d for d in days if d not in summary["failed_days"].get(lab, ())]
        expected += [f"params/{_safe(lab)}/{d}.json" for d in done]
        if lab in failed:
            continue
        expected.append(f"banddepth_{_safe(lab)}.csv")
        if not {"es", "ee", "ds"} <= set(scores.get(lab, {})):
            problems.append(f"{lab}: missing field scores")
    problems += [f"missing {name}" for name in expected if not (out / name).is_file()]
    if (out / "summary.json").is_file() and json.loads((out / "summary.json").read_text()) != summary:
        problems.append("summary.json differs from the returned summary")
    return problems


def read_daily(path: Path, season: int) -> dict:
    """scores.csv as {(label, score): {"season/date": value}}."""
    daily: dict = {}
    with open(path) as fh:
        for row in fh.read().splitlines()[1:]:
            date, _, label, score, value = row.split(",")
            daily.setdefault((label, score), {})[f"{season}/{date}"] = float(value)
    return daily


def experiment_unit(ctx: Context, j: int, b: int, run_id: str, tracer=None) -> Unit:
    """One run_experiment call on block b of season j, checked and digested."""
    wl, days = ctx.wl, ctx.block_days(j, b)
    out = ctx.work / "out" / run_id.replace("/", "-")
    cfg = experiment.ExperimentConfig(
        data_dir=str(ctx.block_dir(j, b)), out_dir=str(out),
        combos=experiment.parse_combos(",".join(wl.combos)),
        n_field_samples=wl.fields, thresholds=THRESHOLDS, seed=ctx.season_seed(j),
    )
    unit = Unit(f"{j}/{days[0]}", [], ops=len(wl.combos) * len(days))
    if tracer is not None:
        tracer.run_id = run_id
    t0 = time.perf_counter()
    try:
        result = experiment.run_experiment(cfg)
    except Exception:
        unit.calls.append(time.perf_counter() - t0)
        traceback.print_exc()
        unit.problems.append("run_experiment raised")
        unit.failed = unit.ops
        return unit
    unit.calls.append(time.perf_counter() - t0)
    summary = result.summary
    unit.problems = check_experiment_output(out, summary, wl, days)
    unit.digest = digest_dir(out)
    unit.scores = summary["methods"]
    if (out / "scores.csv").is_file():
        unit.daily = read_daily(out / "scores.csv", j)
        if not unit.daily or not all(math.isfinite(v) for d in unit.daily.values() for v in d.values()):
            unit.problems.append("scores.csv has no rows or a non-finite value")
    failed = sum(len(set(summary["failed_days"].get(lab, ())) & set(days)) for lab in wl.combos)
    unit.failed = unit.ops if unit.problems else failed
    unit.work = wl.stations * (unit.ops - unit.failed)
    shutil.rmtree(out)
    return unit


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def cli_unit(ctx: Context, j: int, chain: str, run_id: str, tracer=None) -> Unit:
    """fit -> predict -> sample -> verify through enspost.cli.main."""
    wl, data, day = ctx.wl, str(ctx.block_dir(j, 0)), ctx.cli_day(j)
    method, _, mode = chain.partition("/")
    out = ctx.work / "out" / run_id.replace("/", "-")
    out.mkdir(parents=True)
    params, fields = str(out / "params.json"), out / "fields.csv"
    steps = [
        ("fit", ["fit", "--data", data, "--method", method, "--day", day,
                 "--spatial", "none" if mode == "ecc" else mode, "--out", params]),
        ("predict", ["predict", "--data", data, "--params", params, "--out", str(out / "pred.csv")]),
        ("sample", ["sample", "--data", data, "--params", params, "--spatial", mode,
                    "--n", str(wl.fields), "--seed", str(ctx.season_seed(j)), "--out", str(fields)]),
        ("verify", ["verify", "--fields", str(fields), "--data", data, "--day", day,
                    "--out", str(out / "scores")]),
    ]
    unit = Unit(f"{j}/{day} {chain}", [], ops=len(steps))
    for name, argv in steps:
        if tracer is not None:
            tracer.run_id = f"{run_id}/{name}"
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        unit.calls.append(time.perf_counter() - t0)
        if rc != 0:
            unit.problems.append(f"{name} exited {rc}")
    if not unit.problems:
        unit.problems = check_cli_output(out, wl, mode)
    unit.digest = digest_dir(out)
    if unit.problems:
        unit.failed = unit.ops
    else:
        unit.scores = {chain: verify_scores(out)}
        unit.work = wl.stations
    shutil.rmtree(out)
    return unit


def verify_scores(out: Path) -> dict:
    with open(out / "scores" / "verify_scores.csv") as fh:
        rows = [r.split(",") for r in fh.read().splitlines()[1:]]
    return {r[3]: float(r[4]) for r in rows}


def check_cli_output(out: Path, wl: Workload, mode: str) -> list:
    """Params, row counts of the CSVs, and finite field scores of one chain."""
    problems = []
    doc = json.loads((out / "params.json").read_text())
    need = {"grf": "variogram", "spatial-bma": "member_variograms"}.get(mode)
    if need and need not in doc:
        problems.append(f"params.json lacks {need}")
    if _count_lines(out / "pred.csv") != wl.stations + 1:
        problems.append("pred.csv row count")
    n = wl.members if mode == "ecc" else wl.fields
    if _count_lines(out / "fields.csv") != n * wl.stations + 1:
        problems.append(f"fields.csv does not hold {n} x {wl.stations} rows")
    got = verify_scores(out)
    if set(got) != {"es", "ee", "ds"} or not all(math.isfinite(v) for v in got.values()):
        problems.append(f"verify scores {got}")
    return problems


def run_step(ctx: Context, k: int, tracer=None, tag: str = "") -> list:
    """Step k: one experiment block, or the three cli chains on one day."""
    j, b = ctx.place(k)
    tag = f"{tag}{'t' if tracer is not None else 'u'}{k}"
    if ctx.wl.kind == "experiment":
        return [experiment_unit(ctx, j, b, tag, tracer)]
    return [cli_unit(ctx, j, chain, f"{tag}/{_safe(chain)}", tracer) for chain in ctx.wl.combos]


def rerun_unit(ctx: Context, key: str) -> Unit:
    """One more untimed run of the unit with this key."""
    season, _, rest = key.partition("/")
    j = int(season)
    if ctx.wl.kind == "experiment":
        b = next(b for b in range(ctx.n_blocks) if ctx.block_days(j, b)[0] == rest)
        return experiment_unit(ctx, j, b, "again")
    return cli_unit(ctx, j, rest.split(" ")[1], "again")


# ---------------------------------------------------------------------------
# child processes


def child(spec: dict, work: Path, import_s: float) -> dict:
    """Body of child.py: set up from the spec, and rerun one unit if named."""
    wl = Workload(**{**spec["workload"], "combos": tuple(spec["workload"]["combos"])})
    ctx = set_up(wl, spec["seed"], work)
    out = {"setup_s": import_s + setup_seconds(ctx), "digest": None, "problems": []}
    if spec["unit"] is not None:
        unit = rerun_unit(ctx, spec["unit"])
        out["digest"], out["problems"] = unit.digest, unit.problems
    return out


def spawn(wl: Workload, seed: int, key: Optional[str], work: Path) -> dict:
    """Run child.py and return what it printed.

    The child gets another hash seed than this process, so set or dict
    order that leaks into the outputs makes the digests differ.
    """
    spec = json.dumps({"workload": asdict(wl), "seed": seed, "unit": key})
    env = dict(os.environ, PYTHONHASHSEED="1" if os.environ.get("PYTHONHASHSEED") == "0" else "0")
    try:
        proc = subprocess.run([sys.executable, str(CHILD), spec, str(work)], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"setup_s": None, "digest": None, "problems": [f"child timed out after {CHILD_TIMEOUT:.0f} s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"setup_s": None, "digest": None, "problems": [f"child exited {proc.returncode}: {tail[0]}"]}
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# run-level checks


def check_repeats(units: list) -> list:
    """Every unit key must reproduce the first digest seen for it."""
    first: dict = {}
    problems = []
    for u in units:
        if not u.digest:
            continue
        ref = first.setdefault(u.key, u.digest)
        if u.digest != ref:
            problems.append(f"{u.key}: output bytes differ between repeats")
            u.failed = u.ops
            u.work = 0
    return problems


def _stderr(values: list) -> float:
    return statistics.stdev(values) / math.sqrt(len(values))


def check_skill(units: list, wl: Workload) -> list:
    """Postprocessing beats raw; interval coverage is near nominal.

    Scores are pooled per season and target day over the run. Daily scores
    share a spatially correlated error, so postprocessing loses to raw on
    about one day in five at the reference commit: a method fails only when
    its mean daily difference to raw is worse by more than SKILL_SE standard
    errors (or worse at all, with fewer than three days). Coverage fails
    when its mean is off nominal by more than SKILL_SE standard errors plus
    a slack.
    """
    if wl.kind != "experiment":
        return []
    daily: dict = {}
    for u in units:
        for key, by_day in u.daily.items():
            daily.setdefault(key, {}).update(by_day)
    problems = []
    for (lab, name), by_day in sorted(daily.items()):
        if lab == "raw":
            continue
        if name in ("crps", "es"):
            raw = daily.get(("raw", name), {})
            diff = [v - raw[day] for day, v in by_day.items() if day in raw]
            if not diff:
                continue
            mean = statistics.fmean(diff)
            if mean >= 0 and (len(diff) < 3 or mean > SKILL_SE * _stderr(diff)):
                problems.append(f"{lab} {name} is worse than raw by {mean:.4f} a day over {len(diff)} days")
        elif name == "pi_coverage" and len(by_day) >= 3:
            cov = list(by_day.values())
            off = abs(statistics.fmean(cov) - NOMINAL_COVERAGE)
            if off > SKILL_SE * _stderr(cov) + COVERAGE_SLACK:
                problems.append(f"{lab} pi_coverage {statistics.fmean(cov):.3f} not near {NOMINAL_COVERAGE:.3f}")
    return problems


# ---------------------------------------------------------------------------
# runs


@dataclass
class RunResult:
    ctx: Context
    units: list  # timed units, in order
    problems: list
    setup_samples: list  # seconds of the run's own set-up and of its children's
    tracer: Optional[object] = None
    steps: int = 0
    overhead_s: float = 0.0  # traced minus untraced seconds of step 0, both warm

    @property
    def attempted(self) -> int:
        return sum(u.ops for u in self.units)

    @property
    def failed(self) -> int:
        return self.attempted if self.problems else sum(u.failed for u in self.units)


def setup_seconds(ctx: Context) -> float:
    return sum(ctx.setup.values())


def run(wl: Workload, seed: int, seconds: float, trace: bool, work: Path, import_s: float = 0.0) -> RunResult:
    """Set up, then run steps until `seconds` of program calls have passed.

    Two children then set up again, and one of them reruns the cheapest
    unit. With `trace`, step 0 first runs twice untraced: once to warm up,
    once as the reference the traced step 0 is compared with for the
    tracing overhead. Its outputs must match those of the traced run.
    """
    tracer = tracer_mod.Tracer() if trace else None
    if tracer is not None:
        with tracer:
            ctx = set_up(wl, seed, work, tracer)
        tracer.counts.clear()
    else:
        ctx = set_up(wl, seed, work)
    extra = []
    if tracer is not None:
        extra = run_step(ctx, 0, tag="warm") + run_step(ctx, 0)
    units: list = []
    elapsed, k = 0.0, 0
    while k == 0 or elapsed < seconds:
        ctx.block_dir(*ctx.place(k))  # saving is neither set-up nor part of the step
        if tracer is not None:
            with tracer:
                step = run_step(ctx, k, tracer)
        else:
            step = run_step(ctx, k)
        units += step
        elapsed += sum(sum(u.calls) for u in step)
        k += 1
    overhead = 0.0
    if tracer is not None:
        n0 = len(extra) // 2
        overhead = sum(sum(u.calls) for u in units[:n0]) - sum(sum(u.calls) for u in extra[n0:])
    cheapest = min(units, key=lambda u: sum(u.calls)).key
    kids = [spawn(wl, seed, None, work / "child-setup"), spawn(wl, seed, cheapest, work / "child-rerun")]
    extra += [Unit(cheapest, [], ops=0, digest=kids[1]["digest"] or "")]
    problems = [f"{u.key}: {p}" for u in extra + units for p in u.problems]
    problems += [f"child: {p}" for kid in kids for p in kid["problems"]]
    problems += check_repeats(extra + units)
    problems += check_skill(units, wl)
    samples = [import_s + setup_seconds(ctx)] + [kid["setup_s"] for kid in kids if kid["setup_s"] is not None]
    return RunResult(ctx, units, problems, samples, tracer, k, overhead)


END_TO_END = {
    "station_days_per_s": "station-days/s",
    "request_s.p50": "s",
    "request_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "completed_share": "ratio",
}


def end_to_end(res: RunResult) -> dict:
    """Throughput over the timed calls; latency of one program call.

    A request is one run_experiment call (one dataset of a few target days)
    or one CLI subcommand. Failed work counts as zero.
    """
    timed = sum(sum(u.calls) for u in res.units)
    work = 0 if res.problems else sum(u.work for u in res.units)
    requests = [c for u in res.units for c in u.calls]
    values = {
        "station_days_per_s": work / timed,
        "request_s.p50": float(np.percentile(requests, 50)),
        "request_s.p90": float(np.percentile(requests, 90)),
        "setup_s": statistics.median(res.setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_share": 1.0 - res.failed / res.attempted,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


# per-layer metrics
GROUPS = sorted(set(tracer_mod.FUNCTIONS.values()) | set(tracer_mod.METHODS.values()))
_CALLS = ("ingest.load", "ngr.fit", "ngr.predict", "ngr.interpolate", "bma.fit",
          "core.mixture_quantile", "spatial.fit_variogram", "verify.spatial_median")


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{g}_s": "s" for g in GROUPS}
    units.update({f"{g}_calls": "count" for g in _CALLS})
    units.update({
        "ingest.rows_read": "rows",
        "ngr.fit_converged_share": "ratio",
        "bma.em_iters": "count",
        "bma.em_converged_share": "ratio",
        "core.mixture_cdf_calls": "count",
        "core.cdf_per_quantile": "ratio",
        "spatial.variogram_degenerate_share": "ratio",
        "spatial.jitter_share": "ratio",
        "spatial.field_bytes": "bytes",
        "experiment.warnings": "count",
        "experiment.failed_days": "count",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.attributed_share": "ratio",
        "trace.spans": "count",
    })
    return dict(sorted(units.items()))


def per_layer(res: RunResult) -> dict:
    """Per-layer metrics per traced step; set-up metrics per saved dataset."""
    tr, traced, n = res.tracer, res.units, res.steps
    st = tr.self_times({rec[tracer_mod.RUN] for rec in tr.spans} - {"setup"})
    setup = tr.self_times({"setup"})
    sec, calls, counts = st["seconds"], st["calls"], tr.counts

    def ratio(a, b):
        return a / b if b else 0.0

    wall = sum(sum(u.calls) for u in traced)
    values = {f"{g}_s": sec.get(g, 0.0) / n for g in GROUPS}
    values.update({f"{g}_calls": calls.get(g, 0) / n for g in _CALLS})
    values["ingest.save_s"] = ratio(setup["seconds"].get("ingest.save", 0.0), setup["calls"].get("ingest.save", 0))
    values["synth.generate_s"] = setup["seconds"].get("synth.generate", 0.0)
    values.update({
        "ingest.rows_read": counts["ingest.rows_read"] / n,
        "ngr.fit_converged_share": ratio(counts["ngr.fit_converged"], calls.get("ngr.fit", 0)),
        "bma.em_iters": counts["bma.em_iters"] / n,
        "bma.em_converged_share": ratio(counts["bma.em_converged"], calls.get("bma.fit", 0)),
        "core.mixture_cdf_calls": counts["core.mixture_cdf"] / n,
        "core.cdf_per_quantile": ratio(counts["core.mixture_cdf.in_quantile"], calls.get("core.mixture_quantile", 0)),
        "spatial.variogram_degenerate_share": ratio(counts["spatial.variogram_degenerate"], calls.get("spatial.fit_variogram", 0)),
        "spatial.jitter_share": ratio(counts["spatial.jittered"], calls.get("spatial.cholesky", 0)),
        "spatial.field_bytes": counts["spatial.field_bytes"] / n,
        "experiment.warnings": counts["experiment.warnings"] / n,
        "experiment.failed_days": counts["experiment.failed_days"] / n,
        "trace.wall_s": wall / n,
        "trace.overhead_s": res.overhead_s,
        "trace.attributed_share": ratio(sum(sec.values()), wall),
        "trace.spans": sum(calls.values()) / n,
    })
    units = layer_metric_units()
    return {name: (float(values[name]), unit) for name, unit in units.items()}


# ---------------------------------------------------------------------------
# drift against the reference commit


def reference_entries(units: list) -> dict:
    """Digest and scores of the first run of each unit key."""
    out: dict = {}
    for u in units:
        if u.digest and u.key not in out:
            out[u.key] = {"digest": u.digest, "scores": u.scores}
    return out


def drift_lines(workload: str, seed: int, units: list, reference: dict) -> list:
    """Whether outputs match the reference bytes, and the largest score moves."""
    ref = reference.get("workloads", {}).get(workload, {}).get(str(seed))
    if ref is None:
        return [f"no reference for {workload} seed {seed}"]
    now = reference_entries(units)
    keys = [k for k in now if k in ref]
    same = sum(now[k]["digest"] == ref[k]["digest"] for k in keys)
    lines = [f"{same}/{len(keys)} units bit-identical to reference {reference.get('commit', '?')[:12]}"]
    worst: dict = {}
    for k in keys:
        for lab, vals in ref[k]["scores"].items():
            for name, old in vals.items():
                new = now[k]["scores"].get(lab, {}).get(name)
                delta = math.inf if new is None else abs(new - old)
                worst[(lab, name)] = max(worst.get((lab, name), 0.0), delta)
    moved = {k: v for k, v in worst.items() if v > 0}
    for (lab, name), v in sorted(moved.items()):
        lines.append(f"{lab} {name}: max |change| {v:.3g}")
    return lines
