"""Exact counting of walks on m-regular trees and weighted Dyck paths.

The same numbers are computed three independent ways and verified to agree
coefficient by coefficient:

* a dynamic-programming recurrence on integers scaled by D^n, D the
  lcm of the weight denominators (:func:`build_table`, :func:`dp_row`),
* coefficient extraction from closed-form algebraic generating functions
  (:func:`tree_gf`, :func:`poids_gf`),
* brute-force enumeration oracles: all lattice paths, all walks on the
  tree's vertices numbered breadth first, and free-group word products
  (:mod:`treewalks.oracles`).

All arithmetic is over arbitrary-precision integers and exact rationals;
no floating point appears anywhere in the computation path.

``_HOMES`` is the one list of public names, each under the layer module
that defines it and serves it; ``__all__`` is their sorted union.  The layer
modules are registered lazily: each is in ``sys.modules`` from ``import
treewalks`` on, and is compiled and executed on first use, so a ``treewalks
walks`` process never executes the generating functions, the oracles or
``verify``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The one list of public names: each, by the layer module that defines it.
_HOMES = {
    "rationals": ("format_number", "parse_number"),
    "series": ("PowerSeries",),
    "recurrence": (
        "DEFAULT_MAX_STATES", "FeasibilityError", "WalkTable", "WeightConfig",
        "build_table", "dp_row", "mass_check", "tree_weights",
    ),
    "genfunc": ("dyck_gf", "irreducible_gf", "poids_gf", "tree_gf"),
    "oracles": ("enumerate_dyck", "free_group_count", "tree_walk_count"),
}

__all__ = sorted(name for names in _HOMES.values() for name in names)


def _lazy(name: str):
    """Register the submodule ``name`` in ``sys.modules``, to be executed on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


rationals, series, recurrence, genfunc, oracles, verify = map(
    _lazy, ("rationals", "series", "recurrence", "genfunc", "oracles", "verify")
)


def __getattr__(name: str):
    for home, names in _HOMES.items():
        if name in names:
            return getattr(globals()[home], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return list(__all__)
