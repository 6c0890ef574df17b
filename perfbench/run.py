#!/usr/bin/env python3
"""Benchmark of enspost: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload desk-gaussian --seed 1 --seconds 15 --trace 0

Workloads: desk-gaussian, desk-mixture, wide-gaps, cli-day (see bench.py).
enspost is imported from ``src/`` of the checkout holding this directory; it
is not installed. Inputs are generated from --seed. The timed part runs
steps until --seconds of program calls have passed; two child processes
(``child.py``) then set up again and rerun one unit. Scratch data, the span
file of a traced run and the run record go under ``.perfbench_work/`` in the
checkout.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Lines before it give the run record and the
score drift against ``reference.json`` (the reference commit's outputs).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> int:
    """Check for the source tree, cap BLAS threads at nproc, set sys.path.

    Must run before numpy is imported. Returns the BLAS thread count.
    """
    if not (ROOT / "src" / "enspost" / "__init__.py").is_file():
        raise SystemExit(f"error: no enspost source tree at {ROOT / 'src'}")
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    sys.path.insert(0, str(ROOT / "src"))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return int(os.environ[BLAS_VARS[0]])


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_threads = prepare()
    t0 = time.perf_counter()
    import enspost
    import_s = time.perf_counter() - t0
    if Path(enspost.__file__).resolve().parent != ROOT / "src" / "enspost":
        raise SystemExit(f"error: enspost imported from {enspost.__file__}, not {ROOT / 'src'}")

    import numpy
    import scipy

    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    wl = bench.WORKLOADS[args.workload]
    base = ROOT / ".perfbench_work"
    tag = f"{wl.name}-s{args.seed}-t{args.trace}"
    work = base / f"{tag}-{os.getpid()}"
    try:
        res = bench.run(wl, args.seed, args.seconds, bool(args.trace), work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    requests = [round(c, 4) for u in res.units for c in u.calls]

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads,
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
        "enspost": enspost.__version__, "commit": _commit(),
        "stations": wl.stations, "members": wl.members, "fields": wl.fields,
        "seasons": wl.seasons, "days_per_dataset": wl.days,
        "combos": list(wl.combos), **res.ctx.gaps, "steps": res.steps,
        "units": [[u.key, [round(c, 4) for c in u.calls]] for u in res.units],
        "requests": len(requests), "setup": res.ctx.setup, "import_s": import_s,
        "setup_samples": res.setup_samples, "problems": res.problems,
    }
    print("record: " + json.dumps(record, sort_keys=True))
    record["reference"] = bench.reference_entries(res.units)
    reference = json.loads((HERE / "reference.json").read_text())
    for line in bench.drift_lines(wl.name, args.seed, res.units, reference):
        print("drift: " + line)
    for p in res.problems:
        print(f"check failed: {p}", file=sys.stderr)

    (base / f"record-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        res.tracer.write(base / f"spans-{tag}.jsonl")
        metrics = bench.per_layer(res)
    else:
        print(f"request_s: {len(requests)} samples")
        metrics = bench.end_to_end(res)
    print(json.dumps({
        "correct": not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
