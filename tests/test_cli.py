"""Exit codes, output formats, and cross-method agreement at the CLI surface."""

from __future__ import annotations

import ast
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treewalks.cli as cli
import treewalks.genfunc as genfunc
import treewalks.oracles as oracles
import treewalks.recurrence as recurrence
import treewalks.routes as routes
import treewalks.verify as verify
from treewalks.rationals import parse_number
from treewalks.recurrence import DEFAULT_MAX_STATES, MAX_TABLE_BYTES, WalkTable, build_table, tree_weights
from treewalks.series import PowerSeries


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- walks ---------------------------------------------------------------------


def test_walks_plain_parity_filtered(capsys):
    code, out, _ = run(capsys, "walks", "-m", "3", "-i", "0", "-n", "6", "--parity-filter")
    assert code == 0
    assert out == "1 3 15 87\n"


def test_walks_gf_central_binomials(capsys):
    code, out, _ = run(
        capsys, "walks", "-m", "2", "-n", "8", "--method", "gf", "--parity-filter"
    )
    assert code == 0
    assert out == "1 2 6 20 70\n"


def test_walks_unfiltered_by_default(capsys):
    code, out, _ = run(capsys, "walks", "-m", "3", "-n", "4")
    assert code == 0
    assert out == "1 0 3 0 15\n"


def test_walks_gf_accepts_single_edge(capsys):
    for i, row in (("0", "1 0 1 0 1 0 1\n"), ("1", "0 1 0 1 0 1 0\n")):
        outputs = [run(capsys, "walks", "-m", "1", "-i", i, "-n", "6", "--method", method) for method in ("gf", "dp", "tree")]
        assert outputs[0] == outputs[1] == outputs[2] == (0, row, ""), i


def test_walks_dp_accepts_single_edge(capsys):
    code, out, _ = run(capsys, "walks", "-m", "1", "-n", "4", "--parity-filter")
    assert code == 0
    assert out == "1 1 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        *(("walks", "-m", "1", "-i", "2", "-n", "6", "--method", method) for method in ("dp", "gf", "tree")),
        ("bfile", "-m", "1", "-i", "2", "--count", "3"),
    ],
)
def test_single_edge_has_no_vertex_beyond_distance_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_walks_tree_method_guard(capsys):
    code, _, err = run(
        capsys, "walks", "-m", "3", "-n", "12", "--method", "tree", "--max-states", "10"
    )
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("fmt", ["plain", "csv", "bfile"])
def test_methods_emit_identical_bytes(capsys, fmt):
    outputs = set()
    for method in ("dp", "gf", "tree"):
        code, out, _ = run(
            capsys, "walks", "-m", "3", "-i", "1", "-n", "7", "--method", method,
            "--format", fmt,
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_walks_json_metadata_and_values(capsys):
    code, out, _ = run(
        capsys, "walks", "-m", "4", "-i", "0", "-n", "6", "--method", "gf",
        "--format", "json", "--parity-filter",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 4 and doc["i"] == 0 and doc["method"] == "gf"
    assert doc["n"] == [0, 2, 4, 6]
    assert doc["values"] == ["1", "4", "28", "232"]


# --- dyck ----------------------------------------------------------------------


def test_dyck_enum_catalan(capsys):
    code, out, _ = run(
        capsys, "dyck", "1", "1", "1", "-n", "8", "--method", "enum", "--parity-filter"
    )
    assert code == 0
    assert out == "1 1 2 5 14\n"


def test_dyck_gf_row_one(capsys):
    code, out, _ = run(capsys, "dyck", "1", "2", "3", "-i", "1", "-n", "5", "--method", "gf")
    assert code == 0
    assert out == "0 1 0 5 0 29\n"


def test_dyck_gf_accepts_zero_c2(capsys):
    outputs = [run(capsys, "dyck", "1", "0", "3", "-n", "6", "--method", method) for method in ("gf", "dp", "enum")]
    assert outputs[0] == outputs[1] == outputs[2] == (0, "1 0 3 0 9 0 27\n", "")


def test_dyck_dp_accepts_zero_c2(capsys):
    code, out, _ = run(capsys, "dyck", "1", "0", "5", "-n", "4", "--parity-filter")
    assert code == 0
    assert out == "1 5 25\n"


def test_dyck_rational_weights_round_trip(capsys):
    code, out, _ = run(
        capsys, "dyck", "1", "1/2", "2", "-n", "8", "--format", "json", "--method", "gf"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["weights"] == {"c1": "1", "c2": "1/2", "c3": "2"}
    table = build_table(cli.WeightConfig(1, Fraction(1, 2), 2), 8)
    values = [parse_number(s) for s in doc["values"]]
    assert values == [table.count(0, n) for n in doc["n"]]


def test_dyck_enum_guard(capsys):
    code, _, err = run(
        capsys, "dyck", "1", "1", "1", "-n", "25", "--method", "enum", "--max-states", "100"
    )
    assert code == 3
    assert "error" in err


def test_dyck_reads_negative_fractional_weights_without_double_dash(capsys):
    direct = run(capsys, "dyck", "1", "1/2", "-3/4", "-n", "3")
    escaped = run(capsys, "dyck", "-n", "3", "--", "1", "1/2", "-3/4")
    assert direct == escaped == (0, "1 0 -3/4 0\n", "")
    assert run(capsys, "dyck", "1", "1/2", "-3/-4", "-n", "3") == (0, "1 0 3/4 0\n", "")
    code, out, _ = run(capsys, "dyck", "--help")
    assert code == 0
    assert "-3/4; negative weights need no '--'" in " ".join(out.split())


def test_dyck_rejects_malformed_weight(capsys):
    code, _, _ = run(capsys, "dyck", "1", "x", "3", "-n", "4")
    assert code == 2


# --- output formats --------------------------------------------------------------


def test_csv_round_trip(capsys):
    code, out, _ = run(capsys, "walks", "-m", "3", "-n", "6", "--format", "csv", "--parity-filter")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value"
    table = build_table(tree_weights(3), 6)
    for line in lines[1:]:
        n, value = line.split(",")
        assert parse_number(value) == table.count(0, int(n))


def test_bfile_degree_four(capsys):
    code, out, _ = run(capsys, "bfile", "-m", "4", "-i", "0", "--count", "4")
    assert code == 0
    assert out == "0 1\n1 4\n2 28\n3 232\n"


def test_bfile_degree_three(capsys):
    code, out, _ = run(capsys, "bfile", "-m", "3", "-i", "0", "--count", "5")
    assert code == 0
    assert out == "0 1\n1 3\n2 15\n3 87\n4 543\n"


def test_bfile_shifted_start(capsys):
    code, out, _ = run(capsys, "bfile", "-m", "2", "-i", "0", "--count", "3", "--start", "1")
    assert code == 0
    assert out == "1 1\n2 2\n3 6\n"


def test_bfile_round_trip(capsys):
    code, out, _ = run(capsys, "bfile", "-m", "3", "-i", "2", "--count", "4")
    assert code == 0
    table = build_table(tree_weights(3), 2 + 2 * 3)
    for k, line in enumerate(out.splitlines()):
        index, value = line.split(" ")
        assert int(index) == k
        assert parse_number(value) == table.count(2, 2 + 2 * k)


def test_bfile_lines_have_no_extra_whitespace(capsys):
    _, out, _ = run(capsys, "bfile", "-m", "2", "-i", "0", "--count", "3")
    for line in out.splitlines():
        assert line == line.strip()
        assert line.count(" ") == 1


# --- verify -----------------------------------------------------------------------


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "all", "-n", "6", "--m-max", "3")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 10


def test_verify_base_cases_only(capsys):
    code, out, _ = run(capsys, "verify", "-n", "0", "--m-max", "2")
    assert code == 0
    assert "FAIL" not in out


def test_verify_scope_selects_checks(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "freegroup", "-n", "4")
    assert code == 0
    assert "free-group" in out
    assert "enumeration" not in out


def test_verify_tree_scope_defaults_to_degree_four(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "tree", "-n", "1")
    assert code == 0
    assert [line.rsplit(", ", 2)[-2] for line in out.splitlines() if "identity" in line] == ["m=2", "m=3", "m=4"]


def test_verify_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(oracles, "enumerate_dyck", lambda w, i, n, max_states=0: Fraction(999))
    code, out, _ = run(capsys, "verify", "--scope", "dyck", "-n", "4")
    assert code == 1
    assert "FAIL" in out
    assert "expected" in out


ZERO_WEIGHTS = [recurrence.WeightConfig(*w) for w in ((1, 0, 3), (0, 1, 1), (2, 3, 0), (0, 0, 0))]


@pytest.mark.parametrize("weights", ZERO_WEIGHTS, ids=[w.describe() for w in ZERO_WEIGHTS])
def test_algebra_check_runs_every_identity_on_zero_weights(weights):
    assert verify._check_algebra(build_table(weights, 10), 10) is None


def test_algebra_check_catches_a_corrupted_catalan_power(monkeypatch):
    original = genfunc._catalan_power
    monkeypatch.setattr(genfunc, "_catalan_power", lambda i, q, terms: [c + k for k, c in enumerate(original(i, q, terms))])
    weights = recurrence.WeightConfig(1, Fraction(1, 2), 2)
    assert verify._check_algebra(build_table(weights, 10), 10) == "quadratic residual is nonzero"


def test_verify_builds_one_table_per_weight_config(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(recurrence, "build_table", lambda w, n_max: built.append(w) or build_table(w, n_max))
    code, _, _ = run(capsys, "verify", "--scope", "all", "-n", "5", "--m-max", "5")
    assert code == 0
    assert len(built) == len(set(built)) == 7  # degrees 2..5 plus three non-tree triples


@pytest.mark.parametrize("n_max", [500, 5000])
def test_verify_builds_each_table_to_the_order_its_rows_read(capsys, monkeypatch, n_max):
    # the free-group rows stop at n <= 8, so their tables do too, even past dp's ceiling at -n 5000
    built = []
    monkeypatch.setattr(recurrence, "build_table", lambda w, n: built.append((w, n)) or build_table(w, n))
    code, out, _ = run(capsys, "verify", "--scope", "freegroup", "-n", str(n_max))
    assert (code, out.splitlines()[-1]) == (0, "2/2 checks passed")
    assert built == [(tree_weights(2), 8), (tree_weights(4), 8)]


def test_identity_check_fails_on_a_raised_cell(capsys, monkeypatch):
    def build(weights, n_max):
        columns = [list(column) for column in build_table(weights, n_max).columns]
        columns[3][1] += 1  # A(3, 3) = 1 becomes 2
        return WalkTable._new(weights=weights, columns=columns)

    monkeypatch.setattr(recurrence, "build_table", build)
    code, out, _ = run(capsys, "verify", "--scope", "tree", "-n", "4", "--m-max", "2")
    assert code == 1
    # w_3(x) = x^3 - 3x at weights (1, 1, 2), so the extra walk adds -3 at x^1
    assert "FAIL  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, m=2, n<=4: "\
        "n=3 coefficient of x^1: expected 0, got -3" in out.splitlines()


@pytest.mark.parametrize(
    "module, name, mutate, argv, summary, raised, raising",
    [
        (genfunc, "_catalan_power", lambda f: lambda i, q, terms: [c + (k == 3) for k, c in enumerate(f(i, q, terms))],
         ("--scope", "all", "-n", "11", "--m-max", "5"), "22/42 checks passed",
         "raised ArithmeticError: poids row: coefficient 10 leaves a remainder", {"dp = gf": 1}),
        (genfunc, "dyck_gf", lambda f: lambda weights, order: f(weights, order - 2),
         ("--scope", "dyck", "-n", "11"), "18/24 checks passed", "raised ValueError: ", {"series algebra by products (a": 6}),
        (recurrence, "build_table", lambda f: lambda weights, order: f(weights, order - 1),
         ("--scope", "all", "-n", "11", "--m-max", "5"), "12/42 checks passed", "raised IndexError: ",
         {"eigenvector identity sum_i A(i": 10, "dp = path enumeration": 6}),
        # no number to compare: format_number refuses None in the mismatch text
        (oracles, "enumerate_dyck", lambda f: lambda *args, **kwargs: None,
         ("--scope", "dyck", "-n", "4"), "18/24 checks passed",
         "raised TypeError: value=None is a NoneType; values must be exact", {"dp = path enumeration": 6}),
    ],
    ids=["catalan power + 1 at k = 3", "dyck_gf two coefficients short", "build_table one order short",
         "enumerate_dyck returns None"],
)
def test_a_check_that_raises_is_its_own_fail_line(capsys, monkeypatch, module, name, mutate, argv, summary, raised,
                                                    raising):
    # every row still runs and prints, and verify ends with its summary and exit 1; the rows that raise,
    # counted by family (title text before its first comma), name the error
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    code, out, err = run(capsys, "verify", *argv)
    *rows, last = out.splitlines()
    assert (code, err, last, len(rows)) == (1, "", summary, int(summary.split()[0].split("/")[1]))
    assert all(row.startswith(("PASS  ", "FAIL  ")) for row in rows)
    assert Counter(row[6:].split(",")[0] for row in rows if row.startswith("FAIL  ") and raised in row) == raising


def test_a_memory_error_in_a_check_still_exits_infeasible(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(genfunc, "poids_gf", exhausted)
    code, out, err = run(capsys, "verify", "--scope", "all", "-n", "3", "--m-max", "2")
    assert (code, err) == (3, "error: out of memory\n")
    assert out == "PASS  dp = closed form, m=2, n<=3\n"  # the row before it; no summary


def test_every_route_is_compared_with_dp_in_verify():
    # a comparison is the VERIFY_ROUTES key of the route it compares with dp
    comparisons = {check for *_, check in verify.CHECKS if not callable(check)}
    assert comparisons == {key for key in routes.VERIFY_ROUTES if key[1] != "dp"}
    # every subcommand route, and the free-group words, which no subcommand reads
    assert routes.VERIFY_ROUTES.items() >= routes.ROUTES.items()
    assert routes.VERIFY_ROUTES.keys() - routes.ROUTES.keys() == {("freegroup", "words")}


def _doubled(function):
    return lambda *args, **kwargs: function(*args, **kwargs) * 2


def _raising(function):
    def raises(*args, **kwargs):
        raise ArithmeticError("a corrupted row")

    return raises


# (module, name, mutate): one route of each comparison family, the identity, the algebra (through
# poids_gf), the dp route the CLI reads, and a row that raises
CORRUPTIONS = [
    (genfunc, "tree_gf", _doubled),
    (genfunc, "poids_gf", _doubled),
    (oracles, "tree_walk_count", _doubled),
    (oracles, "enumerate_dyck", _doubled),
    (oracles, "free_group_count", _doubled),
    (recurrence, "mass_check", lambda mass_check: lambda table, n: tuple(c + 1 for c in mass_check(table, n))),
    (recurrence, "dp_row", _doubled),
    (genfunc, "tree_gf", _raising),
]


def test_a_fail_line_names_only_its_cell(monkeypatch):
    # the title names the row's route and configuration; the detail after it names neither again,
    # only the cell, the equation or the error, except the CLI's dp route checked inside a gf row
    wheres = {where for scope in routes.SCOPES.values() for where, _ in scope(3)}
    failed = []
    for module, name, mutate in CORRUPTIONS:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, mutate(getattr(module, name)))
            failed += [(title, detail) for title, run in verify.open_checks("all", 6, 3, DEFAULT_MAX_STATES)
                       if (detail := run())]
    families = {title.split(",")[0] for title, _ in failed}
    assert families == {row[1].split(",")[0] for row in verify.CHECKS}
    details = {detail for _, detail in failed}
    assert {"raised ArithmeticError: a corrupted row", "i=0 n=0 dp row vs dp table: expected 1, got 2"} <= details
    for title, detail in failed:
        rest = detail.replace("dp row vs dp table", "")
        assert not any(where in rest for where in wheres), (title, detail)
        assert " vs " not in rest and title.split(",")[0].removeprefix("dp = ") not in rest, (title, detail)


def test_a_passing_row_comparison_reads_no_cell(monkeypatch):
    # dp and gf rows compare as graded ints: no count, coeffs or label is built unless a cell differs
    for owner, name in ((recurrence.WalkTable, "count"), (PowerSeries, "coeffs"), (verify, "_mismatch")):
        fail = mock.Mock(side_effect=AssertionError(f"{name} called"))
        monkeypatch.setattr(owner, name, property(fail) if name == "coeffs" else fail)
    rows = [row for row in verify.CHECKS if not callable(row[3]) and row[3][1] in routes.ROWS]
    assert [row[1].split(",")[0] for row in rows] == ["dp = closed form", "dp = constructed gf", "dp = gf"]
    for row in rows:
        for where, weights in routes.SCOPES[row[0]](5):
            title, run = verify.open_check(row, where, weights, 30, DEFAULT_MAX_STATES, lambda w: build_table(w, 30))
            assert run() is None, title


@pytest.mark.parametrize(
    "scope,route,title,shift",
    [
        ("tree", "tree_gf", "dp = closed form", -1),
        ("tree", "poids_gf", "dp = constructed gf", -1),
        ("dyck", "poids_gf", "dp = gf", 1),
    ],
)
def test_a_gf_row_of_another_order_never_passes(capsys, monkeypatch, scope, route, title, shift):
    # == compares two series to their common order; a row one order short or long must still differ
    original = getattr(genfunc, route)
    monkeypatch.setattr(genfunc, route, lambda first, i, order: original(first, i, order + shift))
    m_max = ["--m-max", "2"] if scope == "tree" else []
    code, out, err = run(capsys, "verify", "--scope", scope, "-n", "4", *m_max)
    assert (code, err) == (1, "")
    assert not any(line.startswith(f"PASS  {title},") for line in out.splitlines())
    # one FAIL line per configuration, naming i and both orders; no row is read past its order
    assert [line for line in out.splitlines() if line.startswith(f"FAIL  {title},")] == [
        f"FAIL  {title}, {where}, n<=4: i=0: expected a row of order 4, got order {4 + shift}"
        for where, _ in routes.SCOPES[scope](2)
    ]


def test_algebra_check_reads_the_poids_series_c(capsys, monkeypatch):
    original = genfunc.irreducible_gf
    monkeypatch.setattr(genfunc, "irreducible_gf", lambda weights, order: (original(weights, order)[0],) * 2)
    code, out, _ = run(capsys, "verify", "--scope", "dyck", "-n", "10")
    assert code == 1
    # c = c1*c3*t^2*a equals b only where c2 = c3, at (1, 1, 1)
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL  series algebra by products (a, b, c, d_i), weights {w}: d_0*(1-c) differs from 1"
        for w in ("(1, 1, 2) [m=2]", "(1, 2, 3) [m=3]", "(1, 3, 4) [m=4]", "(2, 1, 5)", "(1, 1/2, 2)")
    ]


def test_algebra_check_takes_series_products_only(monkeypatch):
    for method in ("sqrt", "inverse", "__pow__"):
        monkeypatch.setattr(PowerSeries, method, mock.Mock(side_effect=AssertionError(f"PowerSeries.{method} called")))
    for weights in routes.VERIFY_TRIPLES:
        assert verify._check_algebra(build_table(weights, 12), 12) is None


@pytest.mark.parametrize(
    "argv,out",
    [
        (("walks", "-m", "3", "-i", "1", "-n", "7"), "0 1 0 5 0 29 0 181\n"),
        (("dyck", "1/2", "1", "3", "-i", "1", "-n", "7"), "0 1/2 0 1 0 17/8 0 37/8\n"),
    ],
)
@pytest.mark.parametrize("method", ["dp", "gf"])
def test_row_reader_reads_coeffs_once_per_row(capsys, monkeypatch, argv, out, method):
    # one Fraction per printed value: the reader keeps the row's coeffs, never indexes the series
    reads = []
    coeffs = PowerSeries.coeffs
    monkeypatch.setattr(PowerSeries, "coeffs", property(lambda series: reads.append(series.order) or coeffs.fget(series)))
    monkeypatch.setattr(PowerSeries, "__getitem__", mock.Mock(side_effect=AssertionError("a cell read")))
    assert run(capsys, *argv, "--method", method) == (0, out, "")
    assert reads == [7]
    readers = [routes.open_route(argv[0], method, tree_weights(3), i, 4, 0) for i in (0, 2)]
    assert [read(n) for read in readers for n in range(5)] == [1, 0, 3, 0, 15, 0, 0, 1, 0, 7]
    assert reads == [7, 4, 4]


def test_verify_rejects_bad_bounds(capsys):
    code, out, err = run(capsys, "verify", "-n", "-1")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument -n/--n-max: value must be an integer >= 0, got -1\n")
    assert run(capsys, "verify", "-n", "1.5")[0] == 2
    assert run(capsys, "verify", "--m-max", "1") == (2, "", "error: --m-max must be an integer >= 2, got 1\n")


@pytest.mark.parametrize(
    "argv,argument,text",
    [
        (("walks", "-m", "3", "-n", "x"), "-n/--n-max", "x"),
        (("bfile", "-m", "3", "--count", "1.5"), "--count", "1.5"),
        (("walks", "-m", "3", "-n", "3", "--method", "tree", "--max-states", "x"), "--max-states", "x"),
    ],
)
def test_a_count_that_is_no_integer_is_refused_in_the_words_of_a_negative_one(capsys, argv, argument, text):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {argument}: value must be an integer >= 0, got '{text}'\n")


# --- argparse plumbing --------------------------------------------------------------


def test_unknown_method_is_usage_error(capsys):
    code, _, _ = run(capsys, "walks", "-m", "3", "-n", "4", "--method", "magic")
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_negative_length_is_usage_error(capsys):
    code, _, _ = run(capsys, "walks", "-m", "3", "-n", "-4")
    assert code == 2


def test_help_exits_cleanly(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "walks" in out and "verify" in out


# (argv, exit code, stdout) of the console entry point, one per kind of exit
ENTRY_POINT_RUNS = pytest.mark.parametrize(
    "argv,code,out",
    [
        (("walks", "-m", "3", "-n", "6"), 0, "1 0 3 0 15 0 87\n"),
        (("dyck", "1", "1/0", "1", "-n", "3"), 2, ""),
        (("walks", "-m", "3", "-n", "50000"), 3, ""),
    ],
    ids=["values", "usage-error", "infeasible"],
)


@ENTRY_POINT_RUNS
def test_module_entry_point_exits_with_main_code(argv, code, out):
    # the in-process tests call cli.main; this runs `python -m treewalks.cli`,
    # so the exit code must pass through entrypoint's sys.exit
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "treewalks.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stdout) == (code, out)


def test_a_closed_stdout_exits_141_with_an_empty_stderr():
    # `treewalks walks -m 3 -n 2000 --format csv | head -n 2`: a closed pipe is no verification
    # failure (exit 1) and no traceback, but the 128 + SIGPIPE a shell reports for such a filter
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "treewalks.cli", "walks", "-m", "3", "-n", "2000", "--format", "csv"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as process:
        assert [process.stdout.readline() for _ in range(2)] == [b"n,value\n", b"0,1\n"]
        process.stdout.close()  # about 1 MB of rows remain, far more than a pipe holds
        err = process.stderr.read()
        code = process.wait(timeout=60)
    assert (code, err) == (141, b"")


# Calls the console entry point in a fresh interpreter, with an atexit hook that reports on stderr
# how many objects the GC heap holds frozen when the interpreter shuts down.
FROZEN_AT_EXIT = """
import atexit, gc, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count(), file=sys.stderr))
from treewalks.cli import entrypoint
entrypoint()
"""


@ENTRY_POINT_RUNS
def test_entry_point_freezes_the_heap_and_atexit_still_runs(argv, code, out):
    # the shutdown collections skip a frozen heap; unlike os._exit, exit codes, flushes and atexit hold
    done_code, done_out, err = _fresh("-c", FROZEN_AT_EXIT, *argv)
    assert (done_code, done_out) == (code, out)
    label, count = err.splitlines()[-1].split()
    assert label == "frozen" and int(count) > 0


def test_main_leaves_the_heap_unfrozen(capsys):
    # in-process callers, tests and the benchmark's traced passes need a heap that can still be collected
    before = gc.get_freeze_count()
    code, out, _ = run(capsys, "verify", "--scope", "tree", "-n", "3", "--m-max", "2")
    assert (code, out.splitlines()[-1]) == (0, "4/4 checks passed")
    assert gc.get_freeze_count() == before


def test_main_lets_a_closed_stdout_raise(monkeypatch):
    # only the console entry point turns a closed pipe into exit 141; in-process callers see it
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    with pytest.raises(BrokenPipeError):
        cli.main(["walks", "-m", "3", "-n", "4"])


# --- values of any size ---------------------------------------------------------

# The last values of these requests pass 10^4 digits, over CPython's default
# 4300-digit limit on str() of an int.  The strings are built by hand: the
# test process keeps that limit, so it cannot str() them either.
HUGE = "1" + "0" * 420
HUGE_ROWS = {"walks": ("walks", "-m", HUGE, "-n", "50"), "dyck": ("dyck", HUGE, "1", "1", "-n", "50")}
CATALAN_25 = "4861946401452"


def _last_value(out: str, fmt: str) -> str:
    if fmt == "json":
        return json.loads(out)["values"][-1]
    return out.split("\n")[-2].split("," if fmt == "csv" else " ")[-1]


@pytest.mark.parametrize("fmt", ["plain", "csv", "json", "bfile"])
@pytest.mark.parametrize("command", sorted(HUGE_ROWS))
def test_values_over_the_digit_limit_print_by_dp_and_gf(capsys, command, fmt):
    last = set()
    for method in ("dp", "gf"):
        code, out, err = run(capsys, *HUGE_ROWS[command], "--method", method, "--format", fmt)
        assert (code, err) == (0, "")
        last.add(_last_value(out, fmt))
    (value,) = last
    assert len(value) > 10_000 and value.isdigit()
    if command == "dyck":  # A(0, 50) = c1^25 * Catalan(25) when c2 = c3 = 1
        assert value == CATALAN_25 + "0" * (420 * 25)


def test_bfile_prints_values_over_the_digit_limit(capsys):
    _, walks, _ = run(capsys, *HUGE_ROWS["walks"], "--format", "bfile")
    code, out, err = run(capsys, "bfile", "-m", HUGE, "--count", "26")
    assert (code, err) == (0, "")
    assert out.split("\n")[-2] == "25 " + _last_value(walks, "bfile")
    assert len(_last_value(out, "bfile")) > 10_000


def test_weight_over_the_digit_limit_parses(capsys):
    weight = "1" + "0" * 5000
    code, out, err = run(capsys, "dyck", weight, "1", "1", "-n", "2")
    assert (code, out, err) == (0, f"1 0 {weight}\n", "")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit before 3.10.7")
@pytest.mark.parametrize("argv", [HUGE_ROWS["dyck"], ("dyck", "1", "1/0", "1", "-n", "3"), ("--help",)])
def test_main_restores_the_int_digit_limit(capsys, argv):
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        run(capsys, *argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


# --- start-up --------------------------------------------------------------------

# Runs main in a fresh interpreter and reports on stderr the modules that
# importing and running it loaded, beyond those loaded before the import.
STARTUP = """
import sys
before = set(sys.modules)
from treewalks.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)), file=sys.stderr)
sys.exit(code)
"""


def _fresh(*args):
    """Exit code, stdout and stderr of a fresh interpreter run with ``args``, this checkout's
    sources first on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)
    return done.returncode, done.stdout, done.stderr


def _fresh_main(*argv, script=STARTUP):
    code, out, err = _fresh("-c", script, *argv)
    return code, out, set(err.split())


def test_startup_loads_no_dataclasses_inspect_or_json():
    code, out, loaded = _fresh_main("walks", "-m", "2", "-n", "0")
    assert (code, out) == (0, "1\n")
    assert "treewalks.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "json"}


# Runs main in a fresh interpreter and reports on stderr the treewalks modules
# the run executed: a layer module registered lazily and never used is still
# a subclass of ModuleType, not ModuleType itself.
EXECUTED = """
import sys, types
from treewalks.cli import main
code = main(sys.argv[1:])
executed = [name for name, module in sys.modules.items() if name.startswith("treewalks.") and type(module) is types.ModuleType]
print(" ".join(executed), file=sys.stderr)
sys.exit(code)
"""

ALWAYS = {"treewalks.cli", "treewalks.rationals", "treewalks.recurrence", "treewalks.routes", "treewalks.series"}


@pytest.mark.parametrize(
    "argv,layers",
    [
        (("walks", "-m", "3", "-n", "6", "--method", "dp"), set()),
        (("bfile", "-m", "3", "--count", "4"), set()),
        (("dyck", "1/2", "-1", "2", "-n", "6"), set()),
        (("walks", "-m", "3", "-n", "6", "--method", "gf"), {"treewalks.genfunc"}),
        (("dyck", "1/2", "-1", "2", "-n", "6", "--method", "gf"), {"treewalks.genfunc"}),
        (("walks", "-m", "3", "-n", "6", "--method", "tree"), {"treewalks.oracles"}),
        (("dyck", "1/2", "-1", "2", "-n", "6", "--method", "enum"), {"treewalks.oracles"}),
        (("verify", "--scope", "all", "-n", "2", "--m-max", "2"), {"treewalks.genfunc", "treewalks.oracles", "treewalks.verify"}),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else None,
)
def test_a_command_executes_only_the_layers_it_runs(argv, layers):
    code, _, executed = _fresh_main(*argv, script=EXECUTED)
    assert code == 0
    assert executed == ALWAYS | layers


def test_importing_the_cli_registers_every_traced_layer():
    # the benchmark's tracer reads sys.modules["treewalks.<layer>"] right after `import treewalks.cli`
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    layers = ast.literal_eval(re.search(r"^LAYERS = (.*)$", path.read_text(), re.M)[1])
    script = "import sys, treewalks.cli; print(' '.join(sys.modules), file=sys.stderr)"
    code, _, registered = _fresh("-c", script)
    assert code == 0
    assert {f"treewalks.{layer}" for layer in layers} <= set(registered.split())


def test_module_entry_point_never_imports_treewalks_cli():
    # under -m the CLI runs as __main__; a second, imported copy would compile cli.py again
    code, out, err = _fresh("-X", "importtime", "-m", "treewalks.cli", "verify", "--scope", "all", "-n", "2", "--m-max", "2")
    assert (code, out.splitlines()[-1]) == (0, "30/30 checks passed")
    imported = {line.rpartition("|")[2].strip() for line in err.splitlines() if line.startswith("import time:")}
    assert "treewalks" in imported
    assert "treewalks.cli" not in imported


def test_json_format_still_prints_its_record_in_a_fresh_process():
    code, out, loaded = _fresh_main("walks", "-m", "3", "-n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"m": 3, "i": 0, "method": "dp", "n": [0, 1, 2], "values": ["1", "0", "3"]}


def test_zero_denominator_weight_is_usage_error(capsys):
    code, out, err = run(capsys, "dyck", "1", "1/0", "1", "-n", "3")
    assert code == 2
    assert out == ""
    assert err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("walks", "-m", "3", "-n", "4"),
        ("dyck", "1", "1", "1", "-n", "4"),
        ("bfile", "-m", "3", "--count", "4"),
    ],
)
def test_negative_start_is_usage_error(capsys, argv):
    code, out, _ = run(capsys, *argv, "--start", "-1")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--format", "json"),
        ("verify", "--parity-filter"),
        ("verify", "--start", "1"),
        ("bfile", "-m", "3", "--count", "4", "--format", "csv"),
        ("bfile", "-m", "3", "--count", "4", "--parity-filter"),
        ("bfile", "-m", "3", "--count", "4", "--max-states", "10"),
        ("verify", "--scope", "dyck", "-n", "3", "--m-max", "9"),
        ("verify", "--scope", "freegroup", "-n", "3", "--m-max", "4"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""


# --- feasibility guard and argv fuzz -------------------------------------------


def test_huge_dp_table_is_refused_at_once(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "walks", "-m", "3", "-n", "50000")
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert out == ""
    assert "estimated" in err and "ceiling" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("walks", "-m", "3", "-n", "30", "--method", "tree"),
        ("dyck", "1", "1", "1", "-n", "30", "--method", "enum"),
        # the first lengths over the default ceiling, though the oracle would
        # enumerate only to the length before
        ("walks", "-m", "3", "-n", "21", "--method", "tree"),
        ("dyck", "1", "1", "1", "-n", "24", "--method", "enum"),
    ],
)
def test_huge_oracle_request_is_refused_at_once(capsys, argv):
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert out == ""
    assert "exceed" in err


@pytest.mark.parametrize(
    "argv,oracle",
    [
        (("walks", "-m", "3", "-n", "6", "--method", "tree", "--max-states", "100"), "tree_walk_count"),  # 360 edge moves
        (("dyck", "1", "1", "1", "-n", "6", "--method", "enum", "--max-states", "50"), "enumerate_dyck"),  # 2^6 sequences
    ],
)
def test_oversized_oracle_request_is_refused_before_any_oracle_call(capsys, monkeypatch, argv, oracle):
    calls = []
    original = getattr(oracles, oracle)
    monkeypatch.setattr(oracles, oracle, lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert calls == []


def test_oversized_verify_oracle_check_is_refused_before_any_check(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "--scope", "tree", "-n", "10", "--m-max", "6")
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert out == ""
    assert "6-regular" in err


def test_oversized_verify_table_is_refused_before_any_check(capsys, monkeypatch):
    # the tables of m = 2 and 3 at order 2200 are under the ceiling, that of m = 4 over it: none is built
    built = []
    original = recurrence.build_table
    monkeypatch.setattr(recurrence, "build_table", lambda w, n_max: built.append(w) or original(w, n_max))
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "--scope", "tree", "-n", "2200", "--m-max", "4")
    assert time.perf_counter() - started < 1.0
    assert (code, out, built) == (3, "", [])
    assert err.startswith("error: a dp table of order 2200 for weights (1, 3, 4) [m=4] needs an estimated ")


def test_verify_names_the_oracle_when_an_oracle_and_a_table_would_both_refuse(capsys):
    # every table at order 3000 is over the ceiling too, but the oracle guards run first
    code, out, err = run(capsys, "verify", "--scope", "tree", "-n", "3000", "--m-max", "7")
    assert (code, out) == (3, "")
    assert err == (
        "error: walking to length 10 on the 6-regular tree needs an estimated 18310530 edge moves,"
        " exceeding the ceiling of 10000000 edge moves\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("walks", "-m", "3", "-n", "50000", "--method", "gf"),
        ("dyck", "1", "1/2", "2", "-n", "50000", "--method", "gf"),
    ],
)
def test_huge_gf_request_is_refused_at_once(capsys, argv):
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert out == ""
    assert "estimated" in err and "ceiling" in err


@pytest.mark.parametrize(
    "argv,estimate,ceiling",
    [
        *((("walks", "-m", "3", "-n", "1000000000", "--method", method), None, MAX_TABLE_BYTES) for method in ("dp", "gf")),
        (("walks", "-m", "3", "-n", "1000000000", "--method", "tree"), "2^1000000000", DEFAULT_MAX_STATES),
        (("walks", "-m", "5", "-n", "400000", "--method", "tree"), "4^400000", DEFAULT_MAX_STATES),
        (("dyck", "1", "1", "1", "-n", "1000000000", "--method", "enum"), "2^1000000000", DEFAULT_MAX_STATES),
        # 2^20000 has 6021 digits, more than str() converts by default
        (("dyck", "1", "1", "1", "-n", "20000", "--method", "enum"), "2^20000", DEFAULT_MAX_STATES),
        (("bfile", "-m", "3", "--count", "500000000"), None, MAX_TABLE_BYTES),
        # 4000000 * 4000001 edge moves, though the depth-4000000 ball has only 8000001 vertices
        (("walks", "-m", "2", "-n", "4000000", "--method", "tree"), "16000004000000", DEFAULT_MAX_STATES),
    ],
)
def test_refusal_names_its_estimate_and_ceiling_at_once(capsys, argv, estimate, ceiling):
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert out == ""
    shown = re.fullmatch(r"error: .* needs an estimated (\S+) (.+), exceeding the ceiling of (\d+) \2\n", err)
    assert shown, err
    assert int(shown[3]) == ceiling
    if estimate is None:
        assert int(shown[1]) > ceiling
    else:
        assert shown[1] == estimate


@pytest.mark.parametrize(
    "route,argv",
    [
        ("dp_row", ("walks", "-m", "3", "-n", "5")),
        ("build_table", ("verify", "--scope", "tree", "-n", "3", "--m-max", "2")),
    ],
)
def test_memory_error_exits_infeasible(capsys, monkeypatch, route, argv):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(recurrence, route, exhausted)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("walks", "-m", "3", "-n", "3", "--method", "tree"),
        ("dyck", "1", "1", "1", "-n", "3", "--method", "enum"),
        ("verify", "-n", "3"),
    ],
)
def test_negative_max_states_is_usage_error(capsys, argv):
    code, out, _ = run(capsys, *argv, "--max-states", "-1")
    assert code == 2
    assert out == ""


def test_oracle_memo_tables_hold_one_length(capsys):
    assert cli.main(["verify", "--scope", "all", "-n", "6", "--m-max", "3"]) == 0
    caches = [f for f in vars(oracles).values() if hasattr(f, "cache_info")]
    assert len(caches) == 2
    assert all(cache.cache_info().currsize <= 1 for cache in caches)


@pytest.mark.parametrize("i", ["2", "9"])  # beyond -n the row is zero
def test_dyck_gf_zero_c2_above_the_axis_equals_dp(capsys, i):
    outputs = [run(capsys, "dyck", "1", "0", "5", "-i", i, "-n", "4", "--method", method) for method in ("gf", "dp")]
    assert outputs[0] == outputs[1] == (0, "0 0 1 0 5\n" if i == "2" else "0 0 0 0 0\n", "")


SIZES = st.integers(min_value=-3, max_value=30).map(str)
# Degrees and weights near 10^9 and 10^200: with -n <= 30 some rows print
# values past CPython's 4300-digit str() limit.
BIG = st.one_of(
    st.integers(min_value=10**9 - 10**3, max_value=10**9 + 10**3),
    st.integers(min_value=10**200, max_value=10**200 + 10**3),
).map(str)
DEGREES = st.one_of(SIZES, BIG)
JUNK = st.sampled_from(["1/0", "-3", "x", "1/2", "-2/3", "0.5", "", "--", "-h", "--bogus"])
WEIGHTS = st.one_of(SIZES, BIG, JUNK)
VALUED_FLAGS = {
    **{flag: SIZES for flag in ("-i", "-n", "--n-max", "--count", "--start", "--max-states")},
    "-m": DEGREES,
    "--m-max": st.integers(min_value=-3, max_value=4).map(str),
    "--method": st.sampled_from(["dp", "gf", "tree", "enum", "x"]),
    "--format": st.sampled_from(["plain", "csv", "json", "bfile", "x"]),
    "--scope": st.sampled_from(["tree", "dyck", "freegroup", "all", "x"]),
}
# Each subcommand with its required arguments, so that most argv get past
# the parser; the pieces appended after it add flags, values and junk.
COMMANDS = st.one_of(
    st.tuples(st.just("walks"), st.just("-m"), DEGREES, st.just("-n"), SIZES),
    st.tuples(st.just("dyck"), WEIGHTS, WEIGHTS, WEIGHTS, st.just("-n"), SIZES),
    st.tuples(st.just("bfile"), st.just("-m"), DEGREES, st.just("--count"), SIZES),
    st.tuples(st.just("verify")),
    st.tuples(JUNK),
)
PIECES = st.one_of(
    *(values.map(lambda value, flag=flag: [flag, value]) for flag, values in VALUED_FLAGS.items()),
    st.sampled_from(["--parity-filter", "--no-parity-filter"]).map(lambda flag: [flag]),
    SIZES.map(lambda token: [token]),
    JUNK.map(lambda token: [token]),
)
ARGV = st.builds(
    lambda command, pieces: [*command, *(token for piece in pieces for token in piece)],
    COMMANDS,
    st.lists(PIECES, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(ARGV)
# rows of values over 4300 digits, which every run of the sweep then prints
@example(["dyck", str(10**200), str(10**200), str(10**200), "-n", "30"])
@example(["bfile", "-m", str(10**200 + 1), "--count", "30"])
@example(["dyck", str(10**9 + 7), str(10**200 + 1), str(10**200), "-n", "30", "--method", "gf"])
def test_any_argv_ends_in_a_published_exit_code(argv):
    # A small default ceiling keeps the brute-force methods at desk size
    # when the argv sets none; --max-states in the argv still overrides it.
    with mock.patch.object(cli, "DEFAULT_MAX_STATES", 2000), contextlib.redirect_stdout(
        io.StringIO()
    ), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
