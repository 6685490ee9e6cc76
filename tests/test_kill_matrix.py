"""Which rows of ``verify --scope all -n 11 --m-max 5`` each seeded fault fails.

Each row of the matrix is one mutant of one layer function: a monkeypatch, or
the function rebuilt from its source with one text change; no file is edited.
The matrix pins, for each mutant, how many of verify's rows fail in each row
family, the title text before its first comma.  A mutant that verify stops
seeing, or a row family that starts failing without cause, changes a pin.
"""

from __future__ import annotations

import __future__
import inspect
from collections import Counter

import pytest

import treewalks.genfunc as genfunc
import treewalks.oracles as oracles
import treewalks.recurrence as recurrence
import treewalks.verify as verify
from treewalks.recurrence import DEFAULT_MAX_STATES
from treewalks.series import PowerSeries

# The two families whose titles hold a comma of their own, cut there.
IDENTITY = "eigenvector identity sum_i A(i"
ALGEBRA = "series algebra by products (a"


def _replaced(old: str, new: str):
    """The mutant that compiles a function again from its source with ``old`` replaced by ``new``,
    once, over a copy of its module's globals, so the module itself keeps the original."""

    def mutate(function):
        source = inspect.getsource(function)
        assert source.count(old) == 1, f"{old!r} is not in {function.__name__} exactly once"
        namespace = dict(function.__globals__)
        exec(compile(source.replace(old, new), function.__code__.co_filename, "exec",
                     flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
        return namespace[function.__name__]

    return mutate


def _last_coefficient_raised(row):
    return lambda first, i, order: row(first, i, order) + PowerSeries([0] * order + [1])


def _shortened_by(k: int):
    """The mutant that computes a series or table k orders short of the order asked for."""
    return lambda function: lambda first, order: function(first, order - k)


def _raised_at(k: int):
    return lambda catalan_power: lambda i, q, terms: [c + (j == k) for j, c in enumerate(catalan_power(i, q, terms))]


# (mutant, module, name, mutate: the original function -> the mutant, the failing rows by family)
MUTANTS = [
    ("dp_row: last coefficient + 1", recurrence, "dp_row", _last_coefficient_raised,
     {"dp = closed form": 4, "dp = constructed gf": 4, "dp = gf": 6}),
    # the top cell gains the factor b/g, which is 1 at m = 2 and at (1, 1, 1), (2, 1, 5) and (1, 1/2, 2),
    # so those configurations pass
    ("_columns: top cell prev[-1] becomes b*prev[-1]", recurrence, "_columns",
     _replaced("column.append(prev[-1])", "column.append(b * prev[-1])"),
     {"dp = closed form": 3, "dp = constructed gf": 3, "dp = tree oracle": 3, IDENTITY: 5, "dp = gf": 2,
      "dp = path enumeration": 2, "dp = free-group words": 1}),
    # one row of the 20 fails by raising ArithmeticError: poids_gf's exact division leaves a remainder
    ("_catalan_power: + 1 at k = 3", genfunc, "_catalan_power", _raised_at(3),
     {"dp = closed form": 4, "dp = constructed gf": 4, "dp = gf": 6, ALGEBRA: 6}),
    # Known unseen: at -n 11 no row reads a Catalan power past k = 5 (t^10 of a(t), t^11 of d_1),
    # so a fault from k = 6 on passes every row; only a check beyond dp's order could see it.
    ("_catalan_power: + 1 at k = 7", genfunc, "_catalan_power", _raised_at(7), {}),
    ("tree_gf: last coefficient + 1", genfunc, "tree_gf", _last_coefficient_raised,
     {"dp = closed form": 4}),
    ("poids_gf: last coefficient + 1", genfunc, "poids_gf", _last_coefficient_raised,
     {"dp = constructed gf": 4, "dp = gf": 6, ALGEBRA: 6}),
    # the algebra row is the only check of c
    ("irreducible_gf: c built with v for x", genfunc, "irreducible_gf",
     _replaced("[u * x * n for", "[u * v * n for"),
     {ALGEBRA: 5}),
    ("_neighbours: drops the parent", oracles, "_neighbours",
     _replaced("range(parent, parent + 1)", "range(parent, parent)"),
     {"dp = tree oracle": 4}),
    ("_step_paths: axis landing counted at height 2", oracles, "_step_paths",
     _replaced("(height == 1)", "(height == 2)"),
     {"dp = path enumeration": 5}),
    ("_append_letters: cancels only words longer than two letters", oracles, "_append_letters",
     _replaced("if d == undo", "if d == undo and word >= base * base"),
     {"dp = free-group words": 2}),
    # each algebra row raises ValueError: a(t) is too short to be truncated to the order
    ("dyck_gf: two coefficients short", genfunc, "dyck_gf", _shortened_by(2),
     {ALGEBRA: 6}),
    # q = u*x, and v = x at (1, 1, 1), so that configuration passes
    ("dyck_gf: q = u*x", genfunc, "dyck_gf",
     _replaced("scale, u, v, _ =", "scale, u, _, v ="),
     {ALGEBRA: 5}),
    # the identity rows at n = 11 raise IndexError; the oracles and the words read no further than n = 10
    ("build_table: one order short", recurrence, "build_table", _shortened_by(1),
     {"dp = closed form": 4, "dp = constructed gf": 4, IDENTITY: 10, "dp = gf": 6, "dp = path enumeration": 6}),
    # beta_1 = a*c at k = 0; b = c only at (1, 1, 1)
    ("mass_check: beta at k = 0 read as a*b", recurrence, "mass_check",
     _replaced("a * c if k == 0", "a * b if k == 0"),
     {IDENTITY: 9}),
    # c2 and c3 trade places in each poids; they are equal only at (1, 1, 1)
    ("enumerate_dyck: off-axis and on-axis factors swapped", oracles, "enumerate_dyck",
     _replaced("off, on = p2 * q3, p3 * q2", "on, off = p2 * q3, p3 * q2"),
     {"dp = path enumeration": 5}),
    # -g becomes digit 0, no letter, so verify's targets (-g,) * i, every letter -g, are all coded as the
    # empty word; any other -k becomes the letter g - k, a word at the same distance, which counts the same
    ("_code: inverse letter -k written as digit g - k", oracles, "_code",
     _replaced("g - x", "g + x"),
     {"dp = free-group words": 2}),
    # a target of three letters or more is coded as its last two, a word at distance 2: only a row that
    # reads targets past two letters, at i >= 3, sees it
    ("_code: reads only the last two letters of a word", oracles, "_code",
     _replaced("for x in word:", "for x in word[-2:]:"),
     {"dp = free-group words": 2}),
]


@pytest.mark.parametrize("mutant, module, name, mutate, fails", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_verify_fails_the_pinned_rows_of_each_mutant(monkeypatch, mutant, module, name, mutate, fails):
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    checks = verify.open_checks("all", 11, 5, DEFAULT_MAX_STATES)
    assert len(checks) == 42
    assert Counter(title.split(",")[0] for title, run in checks if run() is not None) == Counter(fails)
