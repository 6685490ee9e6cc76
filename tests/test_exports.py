"""Every exported name resolves, and so does every name the benchmark's tracer wraps."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = (
    "treewalks",
    "treewalks.cli",
    "treewalks.genfunc",
    "treewalks.oracles",
    "treewalks.rationals",
    "treewalks.recurrence",
    "treewalks.series",
)


def _tracer_names():
    """``FUNCTIONS`` and ``SERIES_METHODS`` of ``perfbench/layers.py``, read
    from the file, which imports only the standard library."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.FUNCTIONS, layers.SERIES_METHODS


@pytest.mark.parametrize("name", MODULES)
def test_exports_and_traced_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"

    functions, series_methods = _tracer_names()
    layer = name.rpartition(".")[2]
    untraceable = [fname for fname in functions.get(layer, ()) if not callable(getattr(module, fname, None))]
    assert not untraceable, f"the tracer wraps {untraceable}, which {name} does not define"
    if layer == "series":
        # the tracer patches each method in PowerSeries.__dict__, so it must be defined there
        unpatchable = [method for method in series_methods if method not in module.PowerSeries.__dict__]
        assert not unpatchable, f"the tracer wraps {unpatchable}, which PowerSeries does not define"
