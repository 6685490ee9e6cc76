"""Exact rational scalars: decimal-string parse/format.

Every quantity in this package is an arbitrary-precision integer or an exact
rational (``fractions.Fraction``).  Nothing here ever rounds: walk counts are
exact integers and series coefficients are exact fractions.  The serialized
form is a decimal string, ``"7"`` or ``"-2/3"``, never a fixed-width machine
word, so exported values survive arbitrary magnitudes.  CPython refuses
``str()`` and ``int()`` of an int over 4300 digits by default; the CLI lifts
that limit while it runs, and a library caller printing larger values lifts it
with ``sys.set_int_max_str_digits(0)``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

__all__ = ["Rational", "format_number", "parse_number"]

Rational = Union[int, Fraction]

_NUMBER_RE = re.compile(r"^([+-]?\d+)(?:/([+-]?\d+))?$")


def format_number(value: Rational) -> str:
    """Decimal-string form: ``"7"`` for integers, ``"num/den"`` otherwise."""
    return str(Fraction(value))


def parse_number(text: str) -> Fraction:
    """Parse ``"7"``, ``"-2/3"``, ``"4/-6"`` back to a canonical Fraction.

    Inverse of :func:`format_number` (and tolerant of non-canonical input).
    """
    m = _NUMBER_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return Fraction(num, den)
