#!/usr/bin/env python3
"""Child process of a benchmark run: set up once, and rerun one unit if named.

    python3 perfbench/child.py SPEC WORK

SPEC is JSON with ``workload`` (the fields of bench.Workload), ``seed`` and
``unit`` (a unit key, or null for set-up only). WORK is a scratch directory,
removed on exit. The last line of stdout is JSON with ``setup_s`` (import
plus set-up seconds), ``digest`` and ``problems`` of the rerun unit.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import run


def main(argv: list) -> int:
    spec, work = json.loads(argv[0]), Path(argv[1])
    run.prepare()
    t0 = time.perf_counter()
    import enspost  # noqa: F401
    import_s = time.perf_counter() - t0

    import bench

    try:
        out = bench.child(spec, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
