"""Truncated formal power series with exact rational coefficients.

A series is a finite coefficient vector ``c[0..order]`` standing for
``c0 + c1*t + ... + c_order*t^order + O(t^(order+1))``.  Binary operations
truncate to the smaller order of their operands, so every identity in this
package is asserted "mod t^(order+1)" for an explicit, caller-chosen order.
There is no ambient global precision and no floating point anywhere.

The coefficients are stored graded on integers, as
:func:`treewalks.recurrence.build_table` stores ``A(i, n) * D^n``: a series
holds integers ``num[k]``, a denominator ``den > 0`` and a base
``base > 0`` with ``c_k = num[k] / (den * base**k)``.  Every operation runs
on those integers, one way each, and takes no gcd.  Once both operands
share a base, a product is a plain integer convolution; inverse and sqrt
solve their triangles on ints and return a series on a wider base:
``|c0|`` times wider for an inverse, ``4 * den`` times for a sqrt.  No
coefficient is ever normalised.  A dp row is the same type (den 1, base
D).  ``Fraction`` is only the API edge: the list constructor reads
rationals, and ``coeffs`` and indexing build them, and normalise them,
when read; a series keeps no rational copy of its integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .rationals import Frozen, Rational, exact, format_number, natural

__all__ = ["PowerSeries"]


def _rescale(num: Sequence[int], factor: int, step: int) -> list[int]:
    """[num[k] * factor * step**k]: one series moved to a wider grading."""
    if step == 1:
        return list(num) if factor == 1 else [x * factor for x in num]
    out = []
    for x in num:
        out.append(x * factor)
        factor *= step
    return out


def _halving_root(p: Sequence[int]) -> list[int]:
    """Integer s with s*s = p term by term, s0 = 1, for p0 = 1.

    From 2*s_k = p_k - sum_{j=1..k-1} s_j s_{k-j}.  A halving with a
    remainder raises: the caller picks a base at which every halving is exact.
    """
    s = [1] * len(p)
    for k in range(1, len(p)):
        half, odd = divmod(p[k] - sum(map(mul, s[1:k], s[k - 1 : 0 : -1])), 2)
        if odd:
            raise ArithmeticError(f"square root: halving coefficient {k} leaves a remainder")
        s[k] = half
    return s


class PowerSeries(Frozen):
    """Immutable truncated power series over exact rationals.

    A float or a string coefficient is refused.  Built once, by the list constructor or
    ``_graded``, and rebuilt by copy and pickle from its graded ints.  Equality compares
    coefficients up to the common (minimum) truncation order; accordingly instances are unhashable.
    """

    __slots__ = ("_num", "_den", "_base")

    _num: tuple[int, ...]
    _den: int
    _base: int

    def __new__(cls, coeffs: Iterable[Rational]) -> PowerSeries:
        values = tuple(exact("coefficient", c) for c in coeffs)
        if not values:
            raise ValueError("a series needs at least its constant coefficient")
        den = lcm(*(v.denominator for v in values))
        return cls._new(_num=tuple(v.numerator * (den // v.denominator) for v in values), _den=den, _base=1)

    @classmethod
    def _graded(cls, num: Sequence[int], den: int, base: int) -> PowerSeries:
        """The series c_k = num[k] / (den * base**k), for den, base > 0, as given."""
        return cls._new(_num=tuple(num), _den=den, _base=base)

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> PowerSeries:
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> PowerSeries:
        return cls.constant(1, order)

    @classmethod
    def constant(cls, value: Rational, order: int) -> PowerSeries:
        natural("truncation order", order)
        value = exact("coefficient", value)
        return cls._graded([value.numerator] + [0] * order, value.denominator, 1)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as exact rationals, built in one pass on each read."""
        scale, values = self._den, []
        for x in self._num:
            # Fraction(x) keeps x itself: no gcd, and no copy of a long int
            values.append(Fraction(x, scale) if scale > 1 else Fraction(x))
            scale *= self._base
        return tuple(values)

    @property
    def order(self) -> int:
        """Truncation order: the highest power of t retained (inclusive)."""
        return len(self._num) - 1

    def __getitem__(self, k: int) -> Fraction:
        natural("coefficient index", k)
        if k > self.order:
            raise IndexError(f"coefficient index {k} outside truncation order {self.order}")
        return Fraction(self._num[k], self._den * self._base**k)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    # -- ring operations (all truncate to the common order) ----------------

    def _aligned(self, other: PowerSeries) -> tuple[list[int], list[int], int, int]:
        """Both operands' numerators, cut to the common order, over one
        denominator and one base; then that denominator and base."""
        n = min(self.order, other.order) + 1
        den, base = lcm(self._den, other._den), lcm(self._base, other._base)
        a = _rescale(self._num[:n], den // self._den, base // self._base)
        b = _rescale(other._num[:n], den // other._den, base // other._base)
        return a, b, den, base

    def _scaled(self, scalar: Fraction) -> PowerSeries:
        p = scalar.numerator
        return PowerSeries._graded([x * p for x in self._num], self._den * scalar.denominator, self._base)

    def truncate(self, order: int) -> PowerSeries:
        natural("truncation order", order)
        if order > self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to order {order}")
        return PowerSeries._graded(self._num[: order + 1], self._den, self._base)

    def __add__(self, other: PowerSeries) -> PowerSeries:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        a, b, den, base = self._aligned(other)
        return PowerSeries._graded([x + y for x, y in zip(a, b)], den, base)

    def __sub__(self, other: PowerSeries) -> PowerSeries:
        return self + -other if isinstance(other, PowerSeries) else NotImplemented

    def __neg__(self) -> PowerSeries:
        return PowerSeries._graded([-x for x in self._num], self._den, self._base)

    def __mul__(self, other: object) -> PowerSeries:
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order) + 1
            base = lcm(self._base, other._base)
            a = _rescale(self._num[:n], 1, base // self._base)
            b = _rescale(other._num[:n], 1, base // other._base)
            out = [sum(map(mul, a, b[k::-1])) for k in range(n)]
            return PowerSeries._graded(out, self._den * other._den, base)
        return self._scaled(exact("scalar", other))

    __rmul__ = __mul__

    def __truediv__(self, scalar: Rational) -> PowerSeries:
        scalar = exact("scalar", scalar)
        if scalar == 0:
            raise ZeroDivisionError("division of a series by the scalar zero")
        return self._scaled(1 / scalar)

    def __pow__(self, exponent: int) -> PowerSeries:
        natural("series exponent", exponent)
        if exponent == 0:
            return PowerSeries.one(self.order)
        # Square and multiply from the leading bit, so no product is spent on 1.
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- the three nontrivial algebraic operations -------------------------

    def inverse(self) -> PowerSeries:
        """Multiplicative inverse g with self * g = 1 mod t^(order+1).

        With f_k = num_k / (den * base^k), c0 = num_0 and e = |c0|: over
        u = t / (e * base), self is (c0 / den) * (1 + sum_j h_j u^j) with the
        integers h_j = sign(c0) * num_j * e^(j-1), so its inverse is
        (den / c0) * sum_k U_k u^k with U_0 = 1 and
        U_k = -sum_{j=1..k} h_j U_{k-j}: the triangle
        g_k = -(1/f0) * sum_{j=1..k} f_j g_{k-j}, cleared of every division.
        The base grows by |c0|.
        """
        num, den = self._num, self._den
        c0 = num[0]
        if c0 == 0:
            raise ValueError("series is not invertible: constant term is zero")
        e, sign = abs(c0), -1 if c0 < 0 else 1
        h = _rescale(num[1:], sign, e)
        u = [1]
        for _ in range(1, len(num)):
            u.append(-sum(map(mul, h, reversed(u))))
        return PowerSeries._graded(_rescale(u, sign * den, 1), e, e * self._base)

    def sqrt(self) -> PowerSeries:
        """Square root s with s * s = self mod t^(order+1) and s0 = 1.

        Restricted to radicands with constant term exactly 1 so that every
        coefficient stays rational.  At the base B = 4 * den * base the
        radicand is sum_k P_k (t/B)^k with the integers P_0 = 1 and
        P_k = num_k * den^(k-1) * 4^k, that is 1 + 4*(an integer series), so
        its root has integer coefficients (binomial(1/2, j) * 4^j is an
        integer) and every halving of the squaring identity
        2*s_k = P_k - sum_{j=1..k-1} s_j s_{k-j} is exact.
        """
        num, den = self._num, self._den
        if num[0] != den:
            raise ValueError("square root requires constant term exactly 1")
        return PowerSeries._graded(_halving_root([1, *_rescale(num[1:], 4, 4 * den)]), 1, 4 * den * self._base)

    def shift_div(self, k: int) -> PowerSeries:
        """Exact division by t^k; the truncation order drops by k.

        Every coefficient below index k must be exactly zero, otherwise
        ValueError: a nonzero low coefficient is an algebra bug upstream and
        is never silently truncated away.
        """
        natural("shift exponent", k)
        if k > self.order:
            raise ValueError(f"cannot divide an order-{self.order} series by t^{k}")
        for j in range(k):
            if self._num[j] != 0:
                raise ValueError(
                    f"series is not divisible by t^{k}: coefficient of t^{j} is "
                    f"{format_number(self[j])}"
                )
        return PowerSeries._graded(self._num[k:], self._den * self._base**k, self._base)

    def shift_mul(self, k: int) -> PowerSeries:
        """Multiplication by t^k; the truncation order grows by k."""
        natural("shift exponent", k)
        return PowerSeries._graded([0] * k + _rescale(self._num, self._base**k, 1), self._den, self._base)

    # -- comparison and display --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        a, b, _, _ = self._aligned(other)
        return a == b

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PowerSeries({[format_number(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        body = ""
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if c < 0:
                sign = " - " if body else "-"
            else:
                sign = " + " if body else ""
            magnitude = abs(c)
            if k == 0:
                text = format_number(magnitude)
            else:
                var = "t" if k == 1 else f"t^{k}"
                text = var if magnitude == 1 else f"{format_number(magnitude)}*{var}"
            body += sign + text
        if not body:
            body = "0"
        return f"{body} + O(t^{self.order + 1})"
