"""Every enspost name that the benchmark's tracer wraps still resolves, and
the params files hold the keys the benchmark's CLI check reads.

The Tier-1 suite collects only tests/, so without this check a renamed or
deleted traced function would break only `python3 -m pytest perfbench/tests`.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from enspost.cli import main
from enspost.ingest import data_paths, save_dataset
from enspost.synth import default_spec, generate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_enspost():
    tracer = load_tracer()
    package = tracer.PACKAGE
    unresolved = []
    for qual in tracer.FUNCTIONS:
        module, attr = qual.split(".")
        if not callable(getattr(importlib.import_module(f"{package}.{module}"), attr, None)):
            unresolved.append(qual)
    for qual in [*tracer.METHODS, *tracer.COUNTED]:
        module, cls, attr = qual.split(".")
        owner = getattr(importlib.import_module(f"{package}.{module}"), cls, None)
        if not callable(vars(owner).get(attr) if owner is not None else None):
            unresolved.append(qual)
    assert unresolved == []


def test_benchmark_tests_find_the_correlation_builder_in_cli():
    # perfbench's traced-run test checks that cli's binding is restored
    cli, spatial = (importlib.import_module(f"enspost.{name}") for name in ("cli", "spatial"))
    assert cli.build_correlation_matrix is spatial.build_correlation_matrix


@pytest.mark.parametrize("mode,key", [("grf", "variogram"), ("spatial-bma", "member_variograms")])
def test_params_file_holds_the_spatial_key_the_benchmark_checks(tmp_path, mode, key):
    # perfbench's check_cli_output reads this key of params.json after `fit --spatial <mode>`
    data = generate(default_spec(3, n_stations=8, n_days=18, n_members=5))
    save_dataset(data, *data_paths(tmp_path))
    params = tmp_path / "params.json"
    method = "bma" if mode == "spatial-bma" else "ngr+"
    assert main(["fit", "--data", str(tmp_path), "--method", method, "--day", data.days[-1], "--window", "14",
                 "--spatial", mode, "--out", str(params)]) == 0
    assert key in json.loads(params.read_text())
