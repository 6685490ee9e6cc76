"""Every exported name resolves, so does every name the benchmark's tracer wraps,
every name a module of the package imports is used or exported, and no import
path of the package loads ``typing``."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "treewalks"

MODULES = (
    "treewalks",
    "treewalks.cli",
    "treewalks.genfunc",
    "treewalks.oracles",
    "treewalks.rationals",
    "treewalks.recurrence",
    "treewalks.routes",
    "treewalks.series",
    "treewalks.verify",
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


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports (``__future__`` aside) that its code never reads
    and its ``__all__`` does not re-export.  An ``__all__`` that is computed,
    not a literal list, reads its names through the code it is computed by."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    unused = _unused_imports(path)
    assert not unused, f"{path.name} imports {unused} and never uses them"


def test_star_import_and_dir_give_exactly_all():
    import treewalks

    namespace: dict = {}
    exec("from treewalks import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(treewalks.__all__) == dir(treewalks)
    layers = [importlib.import_module(f"treewalks.{name}") for name in ("rationals", "series", "recurrence", "genfunc", "oracles")]
    for name, value in namespace.items():
        home = next(layer for layer in layers if name in layer.__all__)
        assert value is getattr(home, name) is getattr(treewalks, name), name
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        treewalks.cli_main


def test_no_import_path_of_the_package_loads_typing():
    # typing costs a few ms of a no-work process wherever no site hook has imported it already;
    # under -S the helper executes every module of the package and fails if typing was imported
    script = Path(__file__).with_name("typing_free_imports.py")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-S", str(script)], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
