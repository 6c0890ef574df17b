#!/usr/bin/env python3
"""Rebuild reference.json from run records of the reference commit.

Every run of run.py writes ``.perfbench_work/record-<workload>-s<seed>-t<trace>.json``
holding the output digest and summary scores of each unit it ran. This
script merges those records into ``perfbench/reference.json``, which later
runs compare against to say whether their outputs are bit-identical and how
far each score moved:

    python3 perfbench/make_reference.py .perfbench_work/record-*.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(paths: list) -> int:
    ref: dict = {"commit": None, "workloads": {}}
    for path in sorted(paths):
        rec = json.loads(Path(path).read_text())
        if rec["commit"] is None or rec["problems"]:
            raise SystemExit(f"{path}: no commit recorded or failed checks; not a reference run")
        if ref["commit"] not in (None, rec["commit"]):
            raise SystemExit(f"{path}: commit {rec['commit']} differs from {ref['commit']}")
        ref["commit"] = rec["commit"]
        seeds = ref["workloads"].setdefault(rec["workload"], {})
        units = seeds.setdefault(str(rec["seed"]), {})
        for key, entry in rec["reference"].items():
            if key in units and units[key]["digest"] != entry["digest"]:
                raise SystemExit(f"{path}: {key} digest differs between records of one seed")
            units[key] = entry
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
