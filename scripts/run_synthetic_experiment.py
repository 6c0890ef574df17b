#!/usr/bin/env python3
"""Desk-scale end-to-end run: simulate a season, run every method combination.

Simulates 100 stations x 85 days (60 usable target days with the 25-day
window) with spatially correlated observation errors, then runs the full
rolling-window experiment for every method/spatial combination and prints
the summary score table. Useful as a smoke test and as the template for
real runs; everything is reproducible from the seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from enspost.experiment import ALL_COMBOS, ExperimentConfig, run_experiment
from enspost.ingest import data_paths, save_dataset
from enspost.synth import default_spec, generate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="runs/synthetic", help="output root directory")
    parser.add_argument("--fields", type=int, default=10000, help="sampled fields per day")
    parser.add_argument("--threshold", type=float, action="append", default=[],
                        help="composite-minimum Brier threshold (repeatable)")
    args = parser.parse_args(argv)

    out = Path(args.out)
    data_dir = out / "data"
    data_dir.mkdir(parents=True, exist_ok=True)

    spec = default_spec(args.seed)
    data = generate(spec)
    save_dataset(data, *data_paths(data_dir))
    print(f"dataset: {data.n_days} days x {data.n_stations} stations x {data.members} members")

    thresholds = tuple(args.threshold) or (14.0, 18.0, 22.0)
    cfg = ExperimentConfig(
        data_dir=str(data_dir),
        out_dir=str(out / "results"),
        combos=ALL_COMBOS,
        n_field_samples=args.fields,
        thresholds=thresholds,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - t0

    methods = result.summary["methods"]
    scores = sorted({k for v in methods.values() for k in v})
    name_w = max(len(m) for m in methods)
    print(f"\n{'method'.ljust(name_w)}  " + "  ".join(f"{s:>12}" for s in scores))
    for label, vals in methods.items():
        cells = [f"{vals[s]:12.4f}" if s in vals else " " * 12 for s in scores]
        print(f"{label.ljust(name_w)}  " + "  ".join(cells))
    print(f"\n{result.summary['n_target_days']} target days, "
          f"{result.n_warnings} warnings, {elapsed:.1f}s -> {cfg.out_dir}")
    (out / "timing.json").write_text(
        json.dumps({"seconds": round(elapsed, 2), "seed": args.seed}, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
