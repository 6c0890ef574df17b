"""Every enspost name that the benchmark's tracer wraps still resolves.

The Tier-1 suite collects only tests/, so without this check a renamed or
deleted traced function would break only `python3 -m pytest perfbench/tests`.
"""

import importlib
import importlib.util
from pathlib import Path

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
