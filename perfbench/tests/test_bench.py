"""The benchmark's own tests: tiny runs of every workload and the tracer.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

import bench
import tracer as tracer_mod
from enspost import cli, experiment, spatial

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_tiny_workload_runs_and_checks(name, tmp_path):
    wl = bench.tiny(bench.WORKLOADS[name])
    res = bench.run(wl, seed=1, seconds=1.0, trace=False, work=tmp_path, import_s=0.5)
    assert res.problems == []
    assert res.attempted >= len(wl.combos)
    assert len(res.setup_samples) == 3  # this run's set-up and its two children's
    metrics = bench.end_to_end(res)
    assert all(v > 0 for v, _ in metrics.values()), metrics
    failed_days = sum(u.failed for u in res.units)
    assert res.failed == failed_days
    assert metrics["completed_share"][0] == pytest.approx(1 - failed_days / res.attempted)


def test_traced_run_restores_every_name(tmp_path):
    originals = (spatial.build_correlation_matrix, experiment.build_correlation_matrix,
                 cli.build_correlation_matrix, experiment.run_experiment, cli.main)
    res = bench.run(bench.tiny(bench.WORKLOADS["desk-gaussian"]), seed=2, seconds=1.0, trace=True, work=tmp_path)
    assert res.steps > 1  # later blocks are saved between traced steps
    assert res.problems == []
    assert tracer_mod.leftover_wrappers() == []
    assert (spatial.build_correlation_matrix, experiment.build_correlation_matrix,
            cli.build_correlation_matrix, experiment.run_experiment, cli.main) == originals
    names = {rec[tracer_mod.NAME] for rec in res.tracer.spans}
    # reached only through names imported into experiment's namespace
    assert {"spatial.build_correlation_matrix", "spatial.sample_fields", "ingest.load_dataset"} <= names
    layers = bench.per_layer(res)
    assert layers["trace.attributed_share"][0] == pytest.approx(1.0, abs=1e-3)
    assert layers["ngr.fit_calls"][0] > 0 and layers["bma.fit_calls"][0] == 0


def test_self_time_is_duration_minus_children():
    ticks = iter(range(100))
    tr = tracer_mod.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def middle():
        return leaf_w() + leaf_w()

    leaf_w = tr.wrap("ingest.load_dataset", leaf)
    outer = tr.wrap("experiment.run_experiment", tr.wrap("spatial.fit_variogram", middle))
    assert outer() == 2
    # clock reads: outer 0, middle 1, leaf 2-3, leaf 4-5, middle end 6, outer end 7
    st = tr.self_times()["seconds"]
    assert st == {"experiment.self": 2.0, "spatial.fit_variogram": 3.0, "ingest.load": 2.0}
    assert sum(st.values()) == 7.0


def test_counters_read_from_return_values():
    tr = tracer_mod.Tracer()
    hook = tracer_mod.HOOKS["spatial.cholesky_with_jitter"]
    tr.wrap("spatial.cholesky_with_jitter", lambda: (None, 1e-10), hook)()
    tr.wrap("spatial.cholesky_with_jitter", lambda: (None, 0.0), hook)()
    assert tr.counts["spatial.jittered"] == 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w["name"]: bench.WORKLOADS[w["name"]].why for w in spec["workloads"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.layer_metric_units()
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
