"""Cross-method checks: each route to A(i, n) against dp, and each identity.

Each check of ``treewalks verify`` is one row of ``CHECKS``, opened on the
weight configurations of its scope (:data:`treewalks.routes.SCOPES`); the
acceptance suite runs the same rows at larger sizes.  Every row reads
values: a gf route against dp row by row, as graded-int series; an oracle
against dp cell by cell; each dp column through the identity of
:func:`treewalks.recurrence.mass_check`; or products of the gf series
against their defining equations.  The checks call the library
through its layer modules, looked up when they run, so a patch of a layer
module's function (a corrupted route in a test, the benchmark's tracer)
reaches every check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from typing import Callable, Optional

from . import genfunc, oracles, rationals, recurrence
from .recurrence import WalkTable, WeightConfig
from .routes import ROUTES, SCOPES
from .series import PowerSeries

__all__ = ["CHECKS", "open_check", "open_checks"]

Check = tuple[str, Callable[[], Optional[str]]]


def _mismatch(label: str, expected: Fraction, got: Fraction) -> str:
    return f"{label}: expected {rationals.format_number(expected)}, got {rationals.format_number(got)}"


def _check_identity(table: WalkTable, weights: WeightConfig, order: int) -> Optional[str]:
    for n in range(order + 1):
        for k, (got, expected) in enumerate(zip(recurrence.mass_check(table, n), (0,) * n + (1,))):
            if got != expected:
                return _mismatch(f"weights {weights.describe()} n={n} coefficient of x^{k}", expected, got)
    return None


def _check_algebra(_table: WalkTable, weights: WeightConfig, order: int) -> Optional[str]:
    # Products only: each gf series against the equation that defines it.
    one, q = PowerSeries.one(order), weights.c1 * weights.c2
    a = genfunc.dyck_gf(weights, order)
    if (a * a * q).shift_mul(2).truncate(order) + one != a:
        return f"weights {weights.describe()}: quadratic residual is nonzero"
    b, c = genfunc.irreducible_gf(weights, order)
    if a * (one - b) != one:
        return f"weights {weights.describe()}: a*(1-b) differs from 1"
    if b != (a * q).shift_mul(2).truncate(order):
        return f"weights {weights.describe()}: b differs from c1*c2*t^2*a"
    d = genfunc.poids_gf(weights, 0, order)
    if d * (one - c) != one:
        return f"weights {weights.describe()}: d_0*(1-c) differs from 1"
    lift = (a * weights.c1).shift_mul(1).truncate(order)
    for i in range(1, min(6, order) + 1):
        d, previous = genfunc.poids_gf(weights, i, order), d
        if d != previous * lift:
            return f"weights {weights.describe()} i={i}: d_i differs from d_(i-1)*c1*t*a"
    return None


def _compare_rows(dp_table: WalkTable, row: Callable, order: int, where: str, name: str) -> Optional[str]:
    """Each dp row d_i, i <= order, against ``row(i)`` by one ``==`` of graded ints; only a
    mismatch reads cells, to name the first n that differs.  Rows of different orders differ,
    and reading the shorter one's missing coefficient raises ``IndexError``."""
    for i in range(order + 1):
        dp, got = dp_table.row(i), row(i)
        if dp.order != got.order or dp != got:
            n = next(n for n in range(max(dp.order, got.order) + 1) if dp[n] != got[n])
            return _mismatch(f"{where} i={i} n={n} {name} vs dp", dp[n], got[n])
    return None


# The cells (shown, i, n, key) of an oracle comparison, "{shown}={key} n={n}" in a FAIL line: the corner
# i <= n length by length (a memo holds one length), free-group target words length-major (one enumeration each).
def _corner(weights: WeightConfig, order: int) -> list:
    return [("i", i, n, i) for n in range(order + 1) for i in range(n + 1)]


_FREE_GROUP_WORDS = {1: [(), (1,), (-1,), (1, 1), (-1, -1)], 2: [(), (1,), (-2,), (1, 2), (2, -1)]}


def _words(weights: WeightConfig, order: int) -> list:
    targets = [target for target in _FREE_GROUP_WORDS[weights.m // 2] if len(target) <= order]
    return [("target", len(target), n, target) for n in range(order + 1) for target in targets]


def _free_group_route(weights: WeightConfig, order: int, states: int) -> Callable[[tuple, int], int]:
    """Opener, as in ROUTES, of the words reducing to a target on the 2g-regular tree; runs the guard."""
    g = weights.m // 2
    return oracles.free_group_guard(g, order, states) or partial(oracles.free_group_count, g, max_states=states)


# Every check of verify, in output order: (scope, title template, cap or
# None, check).  The cap is the largest order an oracle or the identity sweeps
# in seconds; the rest run to the full requested order.  A check is a function
# (table, weights, order) -> failure or None, or a comparison of one route with
# dp, (cells, label, route): the label names the route in a FAIL line.  With
# cells None the route is a row, compared whole with dp's rows; else it is an
# opener whose reader maps a cell's (key, n) to the value dp gives A(i, n).
CHECKS: tuple[tuple[str, str, Optional[int], object], ...] = (
    ("tree", "dp = closed form, {where}, n<={order}", None, (None, "closed form", ROUTES["walks", "gf"])),
    ("tree", "dp = constructed gf, {where}, n<={order}", None, (None, "constructed gf", ROUTES["dyck", "gf"])),
    ("tree", "dp = tree oracle, {where}, n<={order}", 10, (_corner, "tree oracle", ROUTES["walks", "tree"])),
    ("tree", "eigenvector identity sum_i A(i,n)*w_i(x) = x^n, {where}, n<={order}", 200, _check_identity),
    ("dyck", "dp = gf, {where}, n<={order}", None, (None, "gf", ROUTES["dyck", "gf"])),
    ("dyck", "dp = path enumeration, {where}, n<={order}", 14, (_corner, "enumeration", ROUTES["dyck", "enum"])),
    ("dyck", "series algebra by products (a, b, c, d_i), {where}", None, _check_algebra),
    ("dyck", "eigenvector identity sum_i A(i,n)*w_i(x) = x^n, {where}, n<={order}", 200, _check_identity),
    ("freegroup", "dp = free-group words, {where}, n<={order}", 8, (_words, "free-group count", _free_group_route)),
)


def _order(row: tuple, n_max: int) -> int:
    return n_max if row[2] is None else min(n_max, row[2])  # the row's cap, where it is below n_max


def open_check(row: tuple, where: str, weights: WeightConfig, n_max: int, max_states: int, table: Callable) -> Check:
    """One CHECKS row on one weight configuration, as (title, run), reading ``table(weights)`` when
    run.  Its oracle guard runs now, at the row's cap: an oversized check is refused before any runs."""
    order = _order(row, n_max)
    _, template, _, check = row
    title = template.format(where=where, order=order)
    if callable(check):
        return title, lambda: check(table(weights), weights, order)
    cells, name, route = check
    if cells is None:
        return title, lambda: _compare_rows(table(weights), lambda i: route(weights, i, order), order, where, name)
    read = route(weights, order, max_states)

    def compare() -> Optional[str]:
        dp_table = table(weights)
        for shown, i, n, key in cells(weights, order):
            dp, got = dp_table.count(i, n), read(key, n)
            if got != dp:
                return _mismatch(f"{where} {shown}={key} n={n} {name} vs dp", dp, got)
        return None

    return title, compare


def open_checks(scope: str, n_max: int, m_max: int, max_states: int) -> list[Check]:
    """Every CHECKS row of ``scope`` (or of "all") on each weight configuration of its scope, in output
    order; the rows on one configuration share one dp table, built to the largest order they read."""
    opened = [(row, *config) for row in CHECKS if scope in (row[0], "all") for config in SCOPES[row[0]](m_max)]
    table = cache(lambda w: recurrence.build_table(w, max(_order(row, n_max) for row, _, v in opened if v == w)))
    return [open_check(row, where, weights, n_max, max_states, table) for row, where, weights in opened]
