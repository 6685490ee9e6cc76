"""Decimal-string formatting and parsing, their round trip, and the range and exactness rules every entry shares."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treewalks.genfunc import dyck_gf, irreducible_gf, poids_gf, tree_gf
from treewalks.oracles import (
    dyck_guard,
    enumerate_dyck,
    free_group_count,
    free_group_guard,
    tree_guard,
    tree_walk_count,
)
from treewalks.rationals import format_number, parse_number
from treewalks.recurrence import WeightConfig, build_table, dp_row, mass_check, tree_weights
from treewalks.series import PowerSeries

rationals = st.fractions(max_denominator=100)


def test_format_examples():
    assert format_number(Fraction(-2, 3)) == "-2/3"
    assert format_number(Fraction(7)) == "7"
    assert format_number(0) == "0"
    assert format_number(Fraction(14, 2)) == "7"


@given(rationals)
def test_format_parse_round_trip(q):
    assert parse_number(format_number(q)) == q


def test_parse_tolerates_non_canonical():
    assert parse_number("4/-6") == Fraction(-2, 3)
    assert parse_number(" +7 ") == 7


@pytest.mark.parametrize("text", ["", "abc", "1.5", "2/3/4", "1//2"])
def test_parse_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_number(text)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError, match="'3/0'"):
        parse_number("3/0")


WEIGHTS = WeightConfig(1, Fraction(1, 2), 2)
TABLE = build_table(tree_weights(3), 4)
SERIES = PowerSeries([0, 0, 1, 2])

# Every library entry that takes an index, order, length or degree:
# (the name its refusal gives the argument, the least value it accepts, the call with that argument).
NATURAL_ARGUMENTS = {
    "tree_weights m": ("tree degree", 1, lambda v: tree_weights(v)),
    "build_table n_max": ("n_max", 0, lambda v: build_table(WEIGHTS, v)),
    "WalkTable.count i": ("i", 0, lambda v: TABLE.count(v, 2)),
    "WalkTable.count n": ("n", 0, lambda v: TABLE.count(0, v)),
    "WalkTable.row i": ("i", 0, lambda v: TABLE.row(v)),
    "dp_row i": ("i", 0, lambda v: dp_row(WEIGHTS, v, 4)),
    "dp_row n_max": ("n_max", 0, lambda v: dp_row(WEIGHTS, 0, v)),
    "dyck_gf order": ("order", 0, lambda v: dyck_gf(WEIGHTS, v)),
    "irreducible_gf order": ("order", 0, lambda v: irreducible_gf(WEIGHTS, v)),
    "poids_gf i": ("i", 0, lambda v: poids_gf(WEIGHTS, v, 4)),
    "poids_gf order": ("order", 0, lambda v: poids_gf(WEIGHTS, 0, v)),
    "tree_gf m": ("tree degree", 1, lambda v: tree_gf(v, 0, 4)),
    "tree_gf i": ("i", 0, lambda v: tree_gf(3, v, 4)),
    "tree_gf order": ("order", 0, lambda v: tree_gf(3, 0, v)),
    "enumerate_dyck i": ("i", 0, lambda v: enumerate_dyck(WEIGHTS, v, 4)),
    "enumerate_dyck n": ("n", 0, lambda v: enumerate_dyck(WEIGHTS, 0, v)),
    "tree_walk_count m": ("tree degree", 1, lambda v: tree_walk_count(v, 0, 4)),
    "tree_walk_count i": ("i", 0, lambda v: tree_walk_count(3, v, 4)),
    "tree_walk_count n": ("n", 0, lambda v: tree_walk_count(3, 0, v)),
    "free_group_count g": ("g", 1, lambda v: free_group_count(v, (), 4)),
    "free_group_count n": ("n", 0, lambda v: free_group_count(1, (), v)),
    "dyck_guard n": ("n", 0, lambda v: dyck_guard(v)),
    "tree_guard m": ("tree degree", 1, lambda v: tree_guard(v, 4)),
    "tree_guard n": ("n", 0, lambda v: tree_guard(3, v)),
    "free_group_guard g": ("g", 1, lambda v: free_group_guard(v, 4)),
    "free_group_guard n": ("n", 0, lambda v: free_group_guard(1, v)),
    "mass_check n": ("n", 0, lambda v: mass_check(TABLE, v)),
    "PowerSeries.constant order": ("truncation order", 0, lambda v: PowerSeries.constant(1, v)),
    "PowerSeries index": ("coefficient index", 0, lambda v: SERIES[v]),
    "PowerSeries.truncate order": ("truncation order", 0, lambda v: SERIES.truncate(v)),
    "PowerSeries.__pow__ exponent": ("series exponent", 0, lambda v: SERIES**v),
    "PowerSeries.shift_div k": ("shift exponent", 0, lambda v: SERIES.shift_div(v)),
    "PowerSeries.shift_mul k": ("shift exponent", 0, lambda v: SERIES.shift_mul(v)),
}


@pytest.mark.parametrize("value", [-1, 1.5])
@pytest.mark.parametrize("entry", NATURAL_ARGUMENTS)
def test_every_index_is_refused_by_the_one_natural_rule(entry, value):
    name, low, call = NATURAL_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer >= {low}, got {value!r}')}$"):
        call(value)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PowerSeries([0.1]), "coefficient=0.1 is a float; coefficients must be exact"),
        (lambda: PowerSeries.constant(0.5, 2), "coefficient=0.5 is a float; coefficients must be exact"),
        (lambda: PowerSeries([1, 2]) * 0.5, "scalar=0.5 is a float; scalars must be exact"),
        (lambda: 0.5 * PowerSeries([1, 2]), "scalar=0.5 is a float; scalars must be exact"),
        (lambda: PowerSeries([1, 2]) / 0.5, "scalar=0.5 is a float; scalars must be exact"),
        (lambda: format_number(0.1), "value=0.1 is a float; values must be exact"),
        (lambda: format_number("1/3"), "value='1/3' is a str; values must be exact"),
    ],
    ids=["list constructor", "constant", "times", "scalar times", "over", "format float", "format string"],
)
def test_every_scalar_is_refused_unless_exact(build, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        build()
