"""Command-line driver: argument parsing, the ``walks``, ``dyck``, ``bfile``
and ``verify`` handlers, and output formatting.

Each route to A(i, n) is declared once, in :data:`treewalks.routes.ROUTES`:
``walks``, ``dyck`` and ``bfile`` read the route ``--method`` picks.  Each
check of ``verify`` is one row of :data:`treewalks.verify.CHECKS`.  A process
executes only the layers its command runs: the package registers its layer
modules lazily, and this module reaches ``verify``, and through the routes
``genfunc`` and ``oracles``, only when a handler calls them.

Exit codes are stable: 0 success, 1 verification failure, 2 usage or
validation error, 3 refused by a feasibility guard, 141 stdout closed.  The
console script freezes the GC heap before it exits, so the interpreter's
shutdown collections skip it, and atexit handlers still run.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import verify
from .rationals import format_number, natural, parse_number
from .recurrence import DEFAULT_MAX_STATES, FeasibilityError, WeightConfig, build_table, tree_weights
from .routes import ROUTES, SCOPES, open_route

# build_table is only re-exported: perfbench/test_perfbench.py reads cli.build_table to check
# that the benchmark's tracer puts back every name it patched.
__all__ = ["main", "entrypoint", "build_table"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = text  # not an int: refused below in the same words as a negative one
    try:
        natural("value", value)
    except ValueError as exc:  # argparse prints an ArgumentTypeError's text, and no ValueError's
        raise argparse.ArgumentTypeError(exc) from None
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

    checks = sub.add_parser("verify", help="run every cross-method invariant and report pass/fail per check")
    checks.add_argument("--scope", choices=(*SCOPES, "all"), default="all")
    checks.add_argument("-n", "--n-max", type=_natural, default=10, dest="n_max")
    checks.add_argument("--m-max", type=int, dest="m_max")  # read by --scope tree and all, default 4
    checks.set_defaults(handler=_cmd_verify)

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
    for brute in (walks, dyck, checks):
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


def _count(args: argparse.Namespace, command: str, weights: WeightConfig, meta: dict) -> int:
    """Print A(i, n) for the selected lengths n by the route --method picks."""
    i = args.i
    ns = range(i, args.n_max + 1, 2) if args.parity_filter else range(args.n_max + 1)
    read = open_route(command, args.method, weights, i, ns[-1] if ns else 0, args.max_states)
    values = [read(n) for n in ns]
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


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.m_max is not None and args.scope in ("dyck", "freegroup"):
        raise ValueError(f"--scope {args.scope} does not read --m-max")
    m_max = 4 if args.m_max is None else args.m_max
    natural("--m-max", m_max, 2)
    failures = 0
    checks = verify.open_checks(args.scope, args.n_max, m_max, args.max_states)
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
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe must raise here, not in the flush at exit
    except BrokenPipeError:  # the reader has gone: stdout goes to devnull, so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    # The output is done: frozen objects are skipped by the shutdown's full collections (about 6 ms
    # of a 52 ms `walks` process, 9-11 ms of `verify --scope all`), while refcounting still frees
    # them and atexit handlers and flushes still run.  Not in main: in-process callers keep a heap
    # that can still be collected.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
