"""Cross-method checks: each route to A(i, n) against dp, and each identity.

Each check of ``treewalks verify`` is one row of ``CHECKS``, opened on the
weight configurations of its scope (:data:`treewalks.routes.SCOPES`); the
acceptance suite runs the same rows at larger sizes.  Every row reads
values: a gf route against dp row by row, their graded ints compared as
plain tuples, and in the same row the CLI's dp route against the table at
four heights; an oracle, the free-group word count among them, against dp
on every cell i <= n of the row's order; each dp column through the
identity of :func:`treewalks.recurrence.mass_check`; or products of the gf
series against their defining equations.  Each compared route is a key of
:data:`treewalks.routes.VERIFY_ROUTES`.  A failure names only what the
row's title does not: the cell, the equation or the error.  A check whose
route, table or series raises an arithmetic, lookup, type or value error (a
route that returns no number is caught where its value is compared or
shown) fails on that error, ``raised <Type>: <message>``, and the checks
after it still run.  The checks call the library through its layer modules,
looked up when they run, so a patch of a layer module's function (a
corrupted route in a test, the benchmark's tracer) reaches every check.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import cache, partial

from . import genfunc, rationals, recurrence
from .recurrence import WalkTable, WeightConfig
from .routes import ROWS, SCOPES, VERIFY_ROUTES
from .series import PowerSeries

__all__ = ["CHECKS", "open_check", "open_checks"]

Check = tuple[str, Callable[[], str | None]]


def _mismatch(label: str, expected: Fraction, got: Fraction) -> str:
    return f"{label}: expected {rationals.format_number(expected)}, got {rationals.format_number(got)}"


def _check_identity(table: WalkTable, order: int) -> str | None:
    for n in range(order + 1):
        for k, (got, expected) in enumerate(zip(recurrence.mass_check(table, n), (0,) * n + (1,))):
            if got != expected:
                return _mismatch(f"n={n} coefficient of x^{k}", expected, got)
    return None


def _check_algebra(table: WalkTable, order: int) -> str | None:
    # Products only: each gf series against the equation that defines it.
    weights = table.weights
    one, q = PowerSeries.one(order), weights.c1 * weights.c2
    a = genfunc.dyck_gf(weights, order)
    if (a * a * q).shift_mul(2).truncate(order) + one != a:
        return "quadratic residual is nonzero"
    b, c = genfunc.irreducible_gf(weights, order)
    if a * (one - b) != one:
        return "a*(1-b) differs from 1"
    if b != (a * q).shift_mul(2).truncate(order):
        return "b differs from c1*c2*t^2*a"
    d = genfunc.poids_gf(weights, 0, order)
    if d * (one - c) != one:
        return "d_0*(1-c) differs from 1"
    lift = (a * weights.c1).shift_mul(1).truncate(order)
    for i in range(1, min(6, order) + 1):
        d, previous = genfunc.poids_gf(weights, i, order), d
        if d != previous * lift:
            return f"i={i}: d_i differs from d_(i-1)*c1*t*a"
    return None


def _compare_rows(dp_table: WalkTable, route: Callable, dp_route: Callable, order: int) -> str | None:
    """Each dp row d_i, i <= order, against the row of ``route``; then, at i = 0, 1, order // 2 and order,
    the row of ``dp_route``, the dp route of the same command, which the CLI reads, named ``dp row vs dp
    table`` in a mismatch.  Each pair compares its orders, its gradings, then its graded ints as plain
    tuples, so the check trusts no series method; a mismatch names its first n."""
    rows = [(i, route, "") for i in range(order + 1)]
    rows += [(i, dp_route, " dp row vs dp table") for i in sorted({0, min(1, order), order // 2, order})]
    for i, read, label in rows:
        dp, got = dp_table.row(i), read(dp_table.weights, i, order)
        if dp.order != got.order:
            return f"i={i}{label}: expected a row of order {dp.order}, got order {got.order}"
        if (dp._den, dp._base) != (got._den, got._base):
            return (f"i={i}{label}: expected a row graded den {dp._den}, base {dp._base}, "
                    f"got den {got._den}, base {got._base}")
        if dp._num != got._num:
            n = next(n for n, (x, y) in enumerate(zip(dp._num, got._num)) if x != y)
            return _mismatch(f"i={i} n={n}{label}", dp[n], got[n])
    return None


# Every check of verify, in output order: (scope, title template, cap or
# None, check).  The cap is the largest order an oracle or the identity sweeps
# in seconds; the rest run to the full requested order.  A check is a function
# (table, order) -> failure or None, or the VERIFY_ROUTES key of a route
# compared with dp, which the title names.  A row (routes.ROWS) is compared
# whole with dp's rows; an opener's reader (i, n) -> A(i, n) is compared with
# dp on every cell i <= n, length by length (an oracle's memo holds one length).
CHECKS: tuple[tuple[str, str, int | None, object], ...] = (
    ("tree", "dp = closed form, {where}, n<={order}", None, ("walks", "gf")),
    ("tree", "dp = constructed gf, {where}, n<={order}", None, ("dyck", "gf")),
    ("tree", "dp = tree oracle, {where}, n<={order}", 10, ("walks", "tree")),
    ("tree", "eigenvector identity sum_i A(i,n)*w_i(x) = x^n, {where}, n<={order}", 200, _check_identity),
    ("dyck", "dp = gf, {where}, n<={order}", None, ("dyck", "gf")),
    ("dyck", "dp = path enumeration, {where}, n<={order}", 14, ("dyck", "enum")),
    ("dyck", "series algebra by products (a, b, c, d_i), {where}", None, _check_algebra),
    ("dyck", "eigenvector identity sum_i A(i,n)*w_i(x) = x^n, {where}, n<={order}", 200, _check_identity),
    ("freegroup", "dp = free-group words, {where}, n<={order}", 8, ("freegroup", "words")),
)


def _order(row: tuple, n_max: int) -> int:
    return n_max if row[2] is None else min(n_max, row[2])  # the row's cap, where it is below n_max


def _caught(run: Callable[[], str | None]) -> str | None:
    try:
        return run()
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:  # a faulty route, table or series
        return f"raised {type(exc).__name__}: {exc}"


def open_check(row: tuple, where: str, weights: WeightConfig, n_max: int, max_states: int, table: Callable) -> Check:
    """One CHECKS row on one weight configuration, as (title, run), reading ``table(weights)`` when
    run.  Its oracle guard runs now, at the row's cap: an oversized check is refused before any runs.
    The run returns its failure or None; an arithmetic, lookup, type or value error raised in it is its failure."""
    order = _order(row, n_max)
    _, template, _, check = row
    title = template.format(where=where, order=order)
    if callable(check):
        return title, partial(_caught, lambda: check(table(weights), order))
    command, method = check
    if method in ROWS:  # the command's dp route, which the CLI reads, is compared too
        gf, dp = VERIFY_ROUTES[check], VERIFY_ROUTES[command, "dp"]
        return title, partial(_caught, lambda: _compare_rows(table(weights), gf, dp, order))
    read = VERIFY_ROUTES[check](weights, order, max_states)

    def compare() -> str | None:
        dp_table = table(weights)
        for n in range(order + 1):
            for i in range(n + 1):
                dp, got = dp_table.count(i, n), read(i, n)
                if got != dp:
                    return _mismatch(f"i={i} n={n}", dp, got)
        return None

    return title, partial(_caught, compare)


def open_checks(scope: str, n_max: int, m_max: int, max_states: int) -> list[Check]:
    """Every CHECKS row of ``scope`` (or of "all") on each weight configuration of its scope, in output
    order; the rows on one configuration share one dp table, built to the largest order they read.
    Every guard runs now, the oracles' first and then each table's, so nothing runs before a refusal."""
    opened = [(row, *config) for row in CHECKS if scope in (row[0], "all") for config in SCOPES[row[0]](m_max)]
    orders: dict[WeightConfig, int] = {}
    for row, _, weights in opened:
        orders[weights] = max(orders.get(weights, 0), _order(row, n_max))
    table = cache(lambda w: recurrence.build_table(w, orders[w]))
    checks = [open_check(row, where, weights, n_max, max_states, table) for row, where, weights in opened]
    for weights, order in orders.items():
        recurrence.table_guard(weights, order)
    return checks
