"""Command-line driver: table building, series expansion, oracle runs,
cross-method verification, and OEIS-style b-file export.

Each route to A(i, n) is declared once, in ``ROUTES``: ``walks``, ``dyck``
and ``bfile`` read the route ``--method`` picks.  Each check of ``verify``,
every other route against dp and each identity, is one row of ``CHECKS``,
and the acceptance suite runs the same rows at larger sizes.

Exit codes are stable: 0 success, 1 verification failure, 2 usage or
validation error, 3 enumeration refused by the feasibility guard.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import product
from typing import Callable, Optional, Sequence

from .genfunc import dyck_gf, irreducible_gf, poids_gf, tree_gf
from .oracles import (
    DEFAULT_MAX_STATES,
    FeasibilityError,
    dyck_guard,
    enumerate_dyck,
    free_group_count,
    free_group_guard,
    tree_guard,
    tree_walk_count,
)
from .rationals import Rational, format_number, parse_number
from .recurrence import WalkTable, WeightConfig, build_table, dp_row, mass_check, tree_weights
from .series import PowerSeries

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treewalks",
        description=(
            "Exact counts of walks on m-regular trees and weighted Dyck paths, "
            "computed by recurrence (dp), by generating function (gf), or by "
            "brute-force oracles, with cross-method verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    walks = sub.add_parser("walks", help="counts of m-regular-tree walks ending at distance i")
    walks.add_argument("-m", type=int, required=True, help="tree degree (every vertex has m neighbors)")
    walks.add_argument("-i", type=_natural, default=0, help="end distance from the start vertex (default 0)")
    walks.add_argument("-n", "--n-max", type=_natural, required=True, dest="n_max", help="largest walk length")
    walks.add_argument("--method", choices=[method for command, method in ROUTES if command == "walks"], default="dp")
    walks.set_defaults(handler=_cmd_walks)

    dyck = sub.add_parser(
        "dyck",
        help="poids-sums of weighted lattice paths ending at height i",
        description="Weights are rationals such as 2, 1/2, -3 or -3/4; negative weights need no '--'.",
    )
    # argparse takes "-3/4" for an unknown option; read negative rationals as
    # values, as it already reads "-3".  This is argparse's private pattern,
    # and test_cli pins the behaviour.
    dyck._negative_number_matcher = re.compile(r"^-\d+(/[+-]?\d+)?$|^-\d*\.\d+$")
    dyck.add_argument("c1", type=parse_number, help="up-step weight (rational, e.g. 1 or 1/2)")
    dyck.add_argument("c2", type=parse_number, help="down-step weight away from the axis")
    dyck.add_argument("c3", type=parse_number, help="down-step weight landing on the axis")
    dyck.add_argument("-i", type=_natural, default=0, help="end height (default 0)")
    dyck.add_argument("-n", "--n-max", type=_natural, required=True, dest="n_max", help="largest path length")
    dyck.add_argument("--method", choices=[method for command, method in ROUTES if command == "dyck"], default="dp")
    dyck.set_defaults(handler=_cmd_dyck)

    verify = sub.add_parser("verify", help="run every cross-method invariant and report pass/fail per check")
    verify.add_argument("--scope", choices=(*SCOPES, "all"), default="all")
    verify.add_argument("-n", "--n-max", type=_natural, default=10, dest="n_max")
    verify.add_argument("--m-max", type=int, dest="m_max")  # read by --scope tree and all, default 4
    verify.set_defaults(handler=_cmd_verify)

    bfile = sub.add_parser("bfile", help="OEIS b-file of the parity-filtered sequence A_m(i, i+2k)")
    bfile.add_argument("-m", type=int, required=True, help="tree degree")
    bfile.add_argument("-i", type=_natural, default=0, help="end distance (default 0)")
    bfile.add_argument("--count", type=_natural, required=True, help="number of terms")
    bfile.set_defaults(handler=_cmd_bfile, method="dp", format="bfile", parity_filter=True, max_states=DEFAULT_MAX_STATES)

    for values in (walks, dyck):
        values.add_argument(
            "--format",
            choices=("plain", "csv", "json", "bfile"),
            default="plain",
            help="output format (default: plain)",
        )
        values.add_argument(
            "--parity-filter",
            action=argparse.BooleanOptionalAction,
            default=False,
            help="emit only the reachable lengths n = i, i+2, ...",
        )
    for brute in (walks, dyck, verify):
        brute.add_argument(
            "--max-states",
            type=_natural,
            default=DEFAULT_MAX_STATES,
            help=f"feasibility ceiling for brute-force methods (default {DEFAULT_MAX_STATES})",
        )
    for indexed in (walks, dyck, bfile):
        indexed.add_argument("--start", type=_natural, default=0, help="first index for bfile output (default 0)")

    return parser


def _emit(ns: Sequence[int], values: Sequence[Fraction], meta: dict, fmt: str, start: int) -> None:
    strs = [format_number(v) for v in values]
    if fmt == "plain":
        print(" ".join(strs))
    elif fmt == "csv":
        print("n,value")
        for n, s in zip(ns, strs):
            print(f"{n},{s}")
    elif fmt == "json":
        import json  # here, not at the top: only --format json pays for the import

        print(json.dumps({**meta, "n": list(ns), "values": strs}))
    else:  # bfile: one "index value" line per term, indices consecutive
        for k, s in enumerate(strs):
            print(f"{start + k} {s}")


def _rows(row: Callable[[int], PowerSeries]) -> Callable[[int, int], Rational]:
    """Reader of A(i, n) = row(i)[n], the t^n coefficient of the dp or gf series d_i(t); builds
    each row when first read and keeps only the last."""
    row = lru_cache(maxsize=1)(row)
    return lambda i, n: row(i)[n]


# Every route to A(i, n), keyed by (command, method): route(weights, order,
# max_states) opens a reader (i, n) -> A(i, n) for n <= order.  dp and gf
# readers build the one row of height i they are asked for, and keep it.
# Opening an oracle route runs its guard, so an oversized enumeration is
# refused before any.  Routes look library functions up as module globals
# when they run.
ROUTES: dict[tuple[str, str], Callable[[WeightConfig, int, int], Callable[[int, int], Rational]]] = {
    ("walks", "dp"): lambda w, order, states: _rows(lambda i: dp_row(w, i, order)),
    ("walks", "gf"): lambda w, order, states: _rows(lambda i: tree_gf(w.m, i, order)),
    ("walks", "tree"): lambda w, order, states: tree_guard(w.m, order, states) or partial(tree_walk_count, w.m, max_states=states),
    ("dyck", "dp"): lambda w, order, states: _rows(lambda i: dp_row(w, i, order)),
    ("dyck", "gf"): lambda w, order, states: _rows(lambda i: poids_gf(w, i, order)),
    ("dyck", "enum"): lambda w, order, states: dyck_guard(order, states) or partial(enumerate_dyck, w, max_states=states),
}


def _count(args: argparse.Namespace, command: str, weights: WeightConfig, meta: dict) -> int:
    """Print A(i, n) for the selected lengths n by the route --method picks."""
    i = args.i
    ns = range(i, args.n_max + 1, 2) if args.parity_filter else range(args.n_max + 1)
    read = ROUTES[command, args.method](weights, ns[-1] if ns else 0, args.max_states)
    if not ns:  # still read height i, so a height the route rejects exits 2
        read(i, 0)
    values = [read(i, n) for n in ns]
    _emit(ns, values, {**meta, "i": i, "method": args.method}, args.format, args.start)
    return EXIT_OK


def _cmd_walks(args: argparse.Namespace) -> int:
    m = args.m
    if m == 1 and args.i >= 2:
        raise ValueError(f"the 1-regular tree is a single edge; it has no vertex at distance i={args.i}")
    return _count(args, "walks", tree_weights(m), {"m": m})


def _cmd_dyck(args: argparse.Namespace) -> int:
    weights = WeightConfig(args.c1, args.c2, args.c3)
    shown = {"c1": format_number(weights.c1), "c2": format_number(weights.c2), "c3": format_number(weights.c3)}
    return _count(args, "dyck", weights, {"weights": shown})


def _cmd_bfile(args: argparse.Namespace) -> int:
    # walks --parity-filter --format bfile over the first `count` reachable lengths
    args.n_max = args.i + 2 * (args.count - 1)
    return _cmd_walks(args)


# --- verify -----------------------------------------------------------------

VERIFY_TRIPLES: tuple[WeightConfig, ...] = (
    tree_weights(2), tree_weights(3), tree_weights(4),
    WeightConfig(1, 1, 1), WeightConfig(2, 1, 5), WeightConfig(1, Fraction(1, 2), 2),
)

# The weight configurations of each --scope, as (where, weights) by --m-max.
SCOPES: dict[str, Callable[[int], list[tuple[str, WeightConfig]]]] = {
    "tree": lambda m_max: [(f"m={m}", tree_weights(m)) for m in range(2, m_max + 1)],
    "dyck": lambda m_max: [(f"weights {w.describe()}", w) for w in VERIFY_TRIPLES],
    "freegroup": lambda m_max: [(f"g={g}", tree_weights(2 * g)) for g in (1, 2)],
}

Check = tuple[str, Callable[[], Optional[str]]]


def _mismatch(label: str, expected: Fraction, got: Fraction) -> str:
    return f"{label}: expected {format_number(expected)}, got {format_number(got)}"


def _check_mass(table: WalkTable, weights: WeightConfig, order: int) -> Optional[str]:
    m = weights.m
    for n in range(order + 1):
        total = mass_check(m, n, table)
        if total != Fraction(m) ** n:
            return _mismatch(f"m={m} n={n} vertex-weighted total vs m^n", Fraction(m) ** n, total)
    return None


def _check_parity(table: WalkTable, weights: WeightConfig, order: int) -> Optional[str]:
    # The table stores only the reachable cells i = n, n-2, ...; every other entry is zero.
    for n in range(order + 1):
        if len(table.columns[n]) != n // 2 + 1:
            return f"weights {weights.describe()} n={n}: {len(table.columns[n])} cells stored, {n // 2 + 1} reachable"
    return None


def _check_algebra(_table: WalkTable, weights: WeightConfig, order: int) -> Optional[str]:
    q = weights.c1 * weights.c2
    radicand = PowerSeries([1, 0, -4 * q] + [0] * max(0, order - 2))
    s = radicand.sqrt()
    if s * s != radicand:
        return f"weights {weights.describe()}: sqrt squared differs from its radicand"
    a = dyck_gf(weights, order)
    quad = (a * a * q).shift_mul(2).truncate(order) - a + PowerSeries.one(order)
    if quad != PowerSeries.zero(order):
        return f"weights {weights.describe()}: quadratic residual is nonzero"
    if q != 0:
        b, _ = irreducible_gf(weights, order)
        if a != (PowerSeries.one(order) - b).inverse():
            return f"weights {weights.describe()}: a differs from 1/(1-b)"
        if b != (a * q).shift_mul(2).truncate(order):
            return f"weights {weights.describe()}: b differs from c1*c2*t^2*a"
    if weights.c2 != 0:
        d = poids_gf(weights, 0, order)
        lift = a * weights.c1
        for i in range(1, min(6, order) + 1):
            direct = poids_gf(weights, i, order)
            factored = (d * lift**i).shift_mul(i).truncate(order)
            if direct != factored:
                return f"weights {weights.describe()} i={i}: d_i differs from d*(c1*t*a)^i"
    return None


# The cells (label, i, n, key) of a comparison: the full square row by row
# for gf (a reader keeps one row), the corner i <= n length by length for the
# oracles (a memo holds one length), and target words length-major for the
# free group (one word enumeration per length).
def _square(where: str, weights: WeightConfig, order: int) -> list:
    return [(f"{where} i={i} n={n}", i, n, i) for i, n in product(range(order + 1), repeat=2)]


def _corner(where: str, weights: WeightConfig, order: int) -> list:
    return [(f"{where} i={i} n={n}", i, n, i) for n in range(order + 1) for i in range(n + 1)]


_FREE_GROUP_WORDS = {1: [(), (1,), (-1,), (1, 1), (-1, -1)], 2: [(), (1,), (-2,), (1, 2), (2, -1)]}


def _words(where: str, weights: WeightConfig, order: int) -> list:
    targets = [target for target in _FREE_GROUP_WORDS[weights.m // 2] if len(target) <= order]
    return [(f"{where} target={target} n={n}", len(target), n, target) for n in range(order + 1) for target in targets]


def _free_group_route(weights: WeightConfig, order: int, states: int) -> Callable[[tuple, int], int]:
    """Opener, as in ROUTES, of the words reducing to a target on the 2g-regular tree; runs the guard."""
    g = weights.m // 2
    return free_group_guard(g, order, states) or partial(free_group_count, g, max_states=states)


# Every check of verify, in output order: (scope, title template, oracle cap
# or None, check).  The cap is the largest order an oracle sweeps in seconds;
# the rest run to the full requested order.  A check is a function (table,
# weights, order) -> failure or None, or a comparison with dp, (cells,
# readers): readers are (FAIL-line label, opener), and an opener's reader
# maps a cell's (key, n) to the value dp gives A(i, n).
CHECKS: tuple[tuple[str, str, Optional[int], object], ...] = (
    ("tree", "dp = gf = closed form, {where}, n<={order}", None,
     (_square, (("closed form", ROUTES["walks", "gf"]), ("constructed gf", ROUTES["dyck", "gf"])))),
    ("tree", "dp = tree oracle, {where}, n<={order}", 10, (_corner, (("tree oracle", ROUTES["walks", "tree"]),))),
    ("tree", "mass conservation sum V_m(i)*A(i,n) = m^n, {where}", None, _check_mass),
    ("tree", "parity vanishing, {where}", None, _check_parity),
    ("dyck", "dp = gf, {where}, n<={order}", None, (_square, (("gf", ROUTES["dyck", "gf"]),))),
    ("dyck", "dp = path enumeration, {where}, n<={order}", 14, (_corner, (("enumeration", ROUTES["dyck", "enum"]),))),
    ("dyck", "series algebra (sqrt, quadratic, d_i factoring), {where}", None, _check_algebra),
    ("dyck", "parity vanishing, {where}", None, _check_parity),
    ("freegroup", "dp = free-group words, {where}, n<={order}", 8, (_words, (("free-group count", _free_group_route),))),
)


def open_check(row: tuple, where: str, weights: WeightConfig, n_max: int, max_states: int, table: Callable) -> Check:
    """One CHECKS row on one weight configuration, as (title, run), reading ``table(weights)`` when
    run.  Its oracle guards run now, at the row's cap: an oversized check is refused before any runs."""
    _, template, cap, check = row
    order = n_max if cap is None else min(n_max, cap)
    title = template.format(where=where, order=order)
    if callable(check):
        return title, lambda: check(table(weights), weights, order)
    cells, routes = check
    readers = [(label, opener(weights, order, max_states)) for label, opener in routes]

    def compare() -> Optional[str]:
        dp_table = table(weights)
        for label, i, n, key in cells(where, weights, order):
            dp = dp_table.count(i, n)
            for name, read in readers:
                got = read(key, n)
                if got != dp:
                    return _mismatch(f"{label} {name} vs dp", dp, got)
        return None

    return title, compare


def _verify_checks(scope: str, n_max: int, m_max: int, max_states: int) -> list[Check]:
    table = cache(lambda weights: build_table(weights, n_max))  # one per weight configuration
    return [
        open_check(row, where, weights, n_max, max_states, table)
        for row in CHECKS
        if scope in (row[0], "all")
        for where, weights in SCOPES[row[0]](m_max)
    ]


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.m_max is not None and args.scope in ("dyck", "freegroup"):
        raise ValueError(f"--scope {args.scope} does not read --m-max")
    m_max = 4 if args.m_max is None else args.m_max
    if m_max < 2:
        raise ValueError("--m-max must be >= 2")
    failures = 0
    checks = _verify_checks(args.scope, args.n_max, m_max, args.max_states)
    for name, run in checks:
        detail = run()
        print(f"PASS  {name}" if detail is None else f"FAIL  {name}: {detail}")
        failures += detail is not None
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


# --- entry points -------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    # CPython refuses str() and int() of an int over 4300 digits; values of any size must print and
    # parse, so the limit is lifted while main runs and restored for in-process callers.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    except (FeasibilityError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, ZeroDivisionError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
