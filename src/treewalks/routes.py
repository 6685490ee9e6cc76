"""Every route to A(i, n), and the weight configurations ``verify`` checks.

Shared by the command-line parser and handlers (:mod:`treewalks.cli`) and
the cross-method checks (:mod:`treewalks.verify`).  A route calls the
library through its layer modules, looked up when the route is opened or
read, so a ``walks --method dp`` process never executes ``genfunc`` or
``oracles``, and a patch of a layer module's function reaches every route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from . import genfunc, oracles, recurrence
from .rationals import Rational
from .recurrence import WeightConfig, tree_weights
from .series import PowerSeries

__all__ = ["ROUTES", "SCOPES"]


def _rows(row: Callable[[int], PowerSeries]) -> Callable[[int, int], Rational]:
    """Reader of A(i, n) = row(i)[n], the t^n coefficient of the dp or gf series d_i(t); builds
    each row when first read and keeps only the last."""
    row = lru_cache(maxsize=1)(row)
    return lambda i, n: row(i)[n]


def _dp(w: WeightConfig, order: int, states: int) -> Callable[[int, int], Rational]:
    return _rows(lambda i: recurrence.dp_row(w, i, order))


# Every route to A(i, n), keyed by (command, method): route(weights, order,
# max_states) opens a reader (i, n) -> A(i, n) for n <= order.  dp and gf
# readers build the one row of height i they are asked for, and keep it.
# Opening an oracle route runs its guard, so an oversized enumeration is
# refused before any.
ROUTES: dict[tuple[str, str], Callable[[WeightConfig, int, int], Callable[[int, int], Rational]]] = {
    ("walks", "dp"): _dp,
    ("walks", "gf"): lambda w, order, states: _rows(lambda i: genfunc.tree_gf(w.m, i, order)),
    ("walks", "tree"): lambda w, order, states: (
        oracles.tree_guard(w.m, order, states) or partial(oracles.tree_walk_count, w.m, max_states=states)
    ),
    ("dyck", "dp"): _dp,
    ("dyck", "gf"): lambda w, order, states: _rows(lambda i: genfunc.poids_gf(w, i, order)),
    ("dyck", "enum"): lambda w, order, states: (
        oracles.dyck_guard(order, states) or partial(oracles.enumerate_dyck, w, max_states=states)
    ),
}

VERIFY_TRIPLES: tuple[WeightConfig, ...] = (
    tree_weights(2), tree_weights(3), tree_weights(4),
    WeightConfig(1, 1, 1), WeightConfig(2, 1, 5), WeightConfig(1, Fraction(1, 2), 2),
)

# The weight configurations of each verify --scope, as (where, weights) by --m-max.
SCOPES: dict[str, Callable[[int], list[tuple[str, WeightConfig]]]] = {
    "tree": lambda m_max: [(f"m={m}", tree_weights(m)) for m in range(2, m_max + 1)],
    "dyck": lambda m_max: [(f"weights {w.describe()}", w) for w in VERIFY_TRIPLES],
    "freegroup": lambda m_max: [(f"g={g}", tree_weights(2 * g)) for g in (1, 2)],
}
