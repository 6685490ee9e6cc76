"""Decimal-string formatting and parsing, and their round trip."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treewalks.rationals import format_number, parse_number

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
