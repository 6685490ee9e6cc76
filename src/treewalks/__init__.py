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
"""

from .genfunc import dyck_gf, irreducible_gf, poids_gf, tree_gf
from .oracles import DEFAULT_MAX_STATES, enumerate_dyck, free_group_count, tree_walk_count
from .rationals import format_number, parse_number
from .recurrence import FeasibilityError, WalkTable, WeightConfig, build_table, dp_row, mass_check, tree_weights
from .series import PowerSeries

__all__ = [
    "DEFAULT_MAX_STATES",
    "FeasibilityError",
    "PowerSeries",
    "WalkTable",
    "WeightConfig",
    "build_table",
    "dp_row",
    "dyck_gf",
    "enumerate_dyck",
    "format_number",
    "free_group_count",
    "irreducible_gf",
    "mass_check",
    "parse_number",
    "poids_gf",
    "tree_gf",
    "tree_walk_count",
    "tree_weights",
]

__version__ = "0.1.0"
