"""The benchmark's traced spans name functions that exist in the library."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize(
    "module_name, attr",
    [binding for bindings in load_spans().values() for binding in bindings],
)
def test_span_binding_resolves(module_name, attr):
    owner = importlib.import_module(f"mkflats.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
