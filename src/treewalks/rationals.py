"""Exact rational scalars: decimal-string parse/format, and the one rule for
each promise of the package's values: an index, order, length or degree is a
natural number (:func:`natural`), a scalar is an int or a ``Fraction``, never
a float or a string (:func:`exact`), and a value is immutable (:class:`Frozen`).

Nothing here ever rounds: walk counts are exact integers and series
coefficients are exact fractions.  The serialized form is a decimal string,
``"7"`` or ``"-2/3"``, so exported values survive arbitrary magnitudes.
CPython refuses ``str()`` and ``int()`` of an int over 4300 digits by
default; the CLI lifts that limit while it runs, and a library caller
printing larger values lifts it with ``sys.set_int_max_str_digits(0)``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial

__all__ = ["Frozen", "Rational", "exact", "format_number", "natural", "parse_number"]

Rational = int | Fraction

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


def natural(name: str, value: int, low: int = 0) -> None:
    """Refuse ``value`` unless it is an int of at least ``low``."""
    if not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def exact(name: str, value: Rational) -> Fraction:
    """``value`` as a Fraction if it is an int or a Fraction; refuse anything else, named by ``name``."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{name}={value!r} is a {type(value).__name__}; {name.split()[0]}s must be exact")
    return Fraction(value)


class Frozen:
    """A slotted value built once, by ``_new``, and rebuilt by copy and pickle through ``_new`` from its
    slots; no field is assigned, deleted or set again, and no frozen dataclass loads ``inspect``."""

    __slots__ = ()

    @classmethod
    def _new(cls, **fields: object) -> Frozen:
        value = object.__new__(cls)
        for name, field in fields.items():
            object.__setattr__(value, name, field)
        return value

    def __reduce__(self) -> tuple:
        return partial(self._new, **{name: getattr(self, name) for name in self.__slots__}), ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
