"""Command-line driver: simulate, fit, predict, sample, and verify.

Subcommands: synth, fit, predict, sample, verify, experiment. Every command
takes explicit input/output paths; synth, sample and experiment take --seed.
experiment reads a key=value config file whose values flags override. Exit
status is 0 only when the command ran without errors (warnings do not count).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .core import StationSet, seeded_rng
from .experiment import (
    METHODS,
    SPATIAL_MODES,
    combo_label,
    draw_fields,
    fit_spatial,
    parse_experiment_config,
    predict_rows,
    read_params,
    run_experiment,
    validate_combo,
    write_params,
)
from .ingest import (
    LoadError,
    data_paths,
    load_data_dir,
    load_fields_csv,
    read_key_values,
    rolling_windows,
    save_dataset,
    save_fields_csv,
    write_csv,
)
from .spatial import build_correlation_matrix  # noqa: F401 (perfbench's traced-run test restores it by this name)
from .synth import generate, parse_synth_spec

log = logging.getLogger(__name__)

def _window_for(data, day: str, window_length: int):
    for window in rolling_windows(data, window_length):
        if window.target_day == day:
            return window
    raise ValueError(
        f"day {day!r} has no full {window_length}-day training window in this dataset"
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    spec = parse_synth_spec(args.spec, overrides)
    data = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(data, *data_paths(out))
    print(f"wrote {data.n_days} days x {data.n_stations} stations x {data.members} members to {out}")
    return 0


def cmd_fit(args) -> int:
    data = load_data_dir(args.data)
    window = _window_for(data, args.day, args.window)
    validate_combo(args.method, args.spatial)
    params = METHODS[args.method].fit(data, window)
    write_params(args.out, args.method, params, window, fit_spatial(args.spatial, args.method, params, data, window))
    print(f"fitted {args.method} for {args.day} -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    data = load_data_dir(args.data)
    doc, method, params, _ = read_params(args.params)
    day = args.day or doc["target_day"]
    rows, law = predict_rows(method, params, data.stations, data.forecasts[data.day_index(day)])
    ids = [data.stations.ids[s] for s in np.flatnonzero(rows)]  # a numpy string array would drop a trailing "\0"
    write_csv(args.out, ("station_id", "mean", "sd"), [ids], [law.mean, law.sd])
    print(f"wrote per-station predictive moments for {day} -> {args.out}")
    return 0


def cmd_sample(args) -> int:
    data = load_data_dir(args.data)
    doc, method, params, spatial = read_params(args.params, args.spatial)
    day = args.day or doc["target_day"]
    t = data.day_index(day)
    rows, law = predict_rows(method, params, data.stations, data.forecasts[t])
    if not rows.any():
        raise ValueError(f"no station has a predictive distribution on {day}")
    sample, _ = draw_fields(
        args.spatial, law, data.forecasts[t][rows],
        StationSet(data.stations[s] for s in np.flatnonzero(rows)), args.n,
        seeded_rng(args.seed, f"sample/{combo_label(method, args.spatial)}/{day}"),
        seeded_rng(args.seed, f"ties/{day}"), spatial,
    )
    save_fields_csv(sample, args.out)
    print(f"wrote {sample.n_samples} fields ({sample.provenance}) for {day} -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    data = load_data_dir(args.data)
    sample = load_fields_csv(args.fields)
    day = args.day
    y = data.observations[data.day_index(day)][[data.stations.index(sid) for sid in sample.station_order]]
    seen = ~np.isnan(y)
    if not seen.any():
        raise ValueError(f"no station in the fields file has an observation on {day}")
    if not seen.all():  # scored as run_experiment scores a day: over the stations observed
        log.warning("%d of %d stations in the fields file have no observation on %s; scoring the other %d",
                    len(y) - seen.sum(), len(y), day, seen.sum())
    fields, y = np.compress(seen, sample.fields, axis=1), y[seen]  # C order, as a file of those stations loads

    table = verify_mod.ScoreTable()
    es, ee = verify_mod.field_scores(fields, y)
    table.add(day, "field", sample.provenance, "es", es)
    table.add(day, "field", sample.provenance, "ee", ee)
    if sample.n_samples >= 2:
        table.add(day, "field", sample.provenance, "ds", verify_mod.ds_from_sample(fields, y))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table.write_csv(out / "verify_scores.csv")
    print(f"ES={es:.6g} EE={ee:.6g} -> {out / 'verify_scores.csv'}")
    return 0


def cmd_experiment(args) -> int:
    kv = read_key_values(args.config) if args.config else {}
    flags = {"data": args.data, "out": args.out, "window": args.window, "fields": args.fields,
             "region": args.region, "seed": args.seed}
    overrides = {key: str(value) for key, value in flags.items() if value is not None}
    if args.method is not None:
        spatial = args.spatial or "none"
        overrides["combos"] = args.method if spatial == "none" else f"{args.method}/{spatial}"
    elif args.spatial is not None:
        raise ValueError("--spatial needs --method")
    if args.threshold:
        overrides["thresholds"] = ",".join(str(x) for x in args.threshold)
    cfg = parse_experiment_config(kv, overrides)
    result = run_experiment(cfg)
    for label, scores in result.summary["methods"].items():
        crps = scores.get("crps")
        es = scores.get("es")
        parts = [f"{label}:"]
        if crps is not None:
            parts.append(f"crps={crps:.4f}")
        if es is not None:
            parts.append(f"es={es:.4f}")
        print(" ".join(parts))
    print(f"{result.summary['n_target_days']} target days, {result.n_warnings} warnings -> {cfg.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enspost",
        description="Ensemble postprocessing: calibrated univariate and spatially coherent forecasts.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="simulate a synthetic dataset from a spec file")
    p.add_argument("--spec", required=True, help="key=value synth spec file")
    p.add_argument("--out", required=True, help="output directory for the dataset CSVs")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit one method for one target day")
    p.add_argument("--data", required=True, help="directory with stations/forecasts/observations CSVs")
    p.add_argument("--method", required=True, choices=tuple(METHODS))
    p.add_argument("--day", required=True, help="target day (must have a full training window)")
    p.add_argument("--window", type=int, default=25)
    p.add_argument("--spatial", choices=SPATIAL_MODES, default="none",
                   help="also fit the error-correlation model this mode needs")
    p.add_argument("--out", required=True, help="output params JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="per-station predictive moments from fitted params")
    p.add_argument("--data", required=True)
    p.add_argument("--params", required=True, help="params JSON from fit")
    p.add_argument("--day", default=None, help="defaults to the params file's target day")
    p.add_argument("--out", required=True, help="output CSV (station_id,mean,sd)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sample", help="draw forecast fields from fitted params")
    p.add_argument("--data", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--day", default=None)
    p.add_argument("--spatial", choices=SPATIAL_MODES, default="none")
    p.add_argument("--n", type=int, default=100, help="number of fields (ecc always yields M)")
    p.add_argument("--out", required=True, help="output CSV (sample,station_id,value_c,provenance)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="score a fields file against observations")
    p.add_argument("--fields", required=True, help="fields CSV from sample")
    p.add_argument("--data", required=True)
    p.add_argument("--day", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="rolling-window experiment over all target days")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--data", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--method", choices=tuple(METHODS), default=None)
    p.add_argument("--spatial", choices=SPATIAL_MODES, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--fields", type=int, default=None, help="sampled fields per day")
    p.add_argument("--threshold", type=float, action="append", default=[],
                   help="composite-minimum Brier threshold (repeatable)")
    p.add_argument("--region", default=None, help="comma list of station ids for the composite minimum")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (LoadError, OSError, KeyError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
