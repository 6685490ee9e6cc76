"""Every route to A(i, n), and the weight configurations ``verify`` checks.

Shared by the command-line parser and handlers (:mod:`treewalks.cli`) and
the cross-method checks (:mod:`treewalks.verify`).  A route calls the
library through its layer modules, looked up when the route is opened or
read, so a ``walks --method dp`` process never executes ``genfunc`` or
``oracles``, and a patch of a layer module's function reaches every route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable

from . import genfunc, oracles, recurrence
from .rationals import Rational
from .recurrence import WeightConfig, tree_weights

__all__ = ["ROUTES", "SCOPES", "open_route"]


# Every route to A(i, n), keyed by (command, method).  dp and gf are rows:
# row(weights, i, order) is the graded series d_i(t), A(i, n) at t^n, to t^order.
# An oracle is an opener: opener(weights, order, max_states) runs its guard, so
# an oversized enumeration is refused before any, and returns a reader (i, n) -> A(i, n).
ROUTES: dict[tuple[str, str], Callable] = {
    ("walks", "dp"): lambda w, i, order: recurrence.dp_row(w, i, order),
    ("walks", "gf"): lambda w, i, order: genfunc.tree_gf(w.m, i, order),
    ("walks", "tree"): lambda w, order, states: (
        oracles.tree_guard(w.m, order, states) or partial(oracles.tree_walk_count, w.m, max_states=states)
    ),
    ("dyck", "dp"): lambda w, i, order: recurrence.dp_row(w, i, order),
    ("dyck", "gf"): lambda w, i, order: genfunc.poids_gf(w, i, order),
    ("dyck", "enum"): lambda w, order, states: (
        oracles.dyck_guard(order, states) or partial(oracles.enumerate_dyck, w, max_states=states)
    ),
}


def open_route(command: str, method: str, w: WeightConfig, i: int, order: int, states: int) -> Callable[[int], Rational]:
    """A route's reader n -> A(i, n) at one height i, n <= order; a row's ``coeffs`` are read once, here."""
    route = ROUTES[command, method]
    if method in ("dp", "gf"):
        return route(w, i, order).coeffs.__getitem__
    return partial(route(w, order, states), i)


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
