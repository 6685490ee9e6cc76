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
on those integers.  Once both operands share a base, a product is a plain
integer convolution; inverse and sqrt solve their triangles on ints and
return a series on a wider base: at most ``|c0|`` times wider for an
inverse, ``4 * den`` times for a sqrt.  No coefficient is ever
normalised.  The only gcds are one linear scan per series built, which
keeps ``den`` coprime to the numerators, and one in ``inverse``, which
keeps its base as narrow as the constant term allows.  A dp row is the
same type (den 1, base D).  ``Fraction`` is only the API edge: the list
constructor reads rationals, ``coeffs`` builds them once, on first read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .rationals import Rational, format_number

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


def _halving_root(p: Sequence[int], exact: bool) -> Optional[list[int]]:
    """Integer s with s*s = p term by term, s0 = 1, for p0 = 1.

    From 2*s_k = p_k - sum_{j=1..k-1} s_j s_{k-j}; the sum is symmetric, so
    each product off the middle is taken once and doubled.  A halving with
    a remainder returns None, or raises when the caller chose a base at
    which every halving is exact.
    """
    s = [1] * len(p)
    for k in range(1, len(p)):
        acc = p[k] - 2 * sum(map(mul, s[1 : (k + 1) // 2], s[k - 1 : k // 2 : -1]))
        if k % 2 == 0:
            acc -= s[k // 2] ** 2
        half, odd = divmod(acc, 2)
        if odd:
            if exact:
                raise ArithmeticError(f"square root: halving coefficient {k} leaves a remainder")
            return None
        s[k] = half
    return s


class PowerSeries:
    """Immutable truncated power series over exact rationals.

    Equality compares coefficients up to the common (minimum) truncation
    order of the two operands; accordingly instances are unhashable.
    """

    __slots__ = ("_num", "_den", "_base", "_coeffs")

    _num: tuple[int, ...]
    _den: int
    _base: int
    _coeffs: Optional[tuple[Fraction, ...]]

    def __init__(self, coeffs: Iterable[Rational]):
        values = tuple(Fraction(c) for c in coeffs)
        if not values:
            raise ValueError("a series needs at least its constant coefficient")
        den = lcm(*(v.denominator for v in values))
        self._set([v.numerator * (den // v.denominator) for v in values], den, 1, values)

    def _set(self, num: Iterable[int], den: int, base: int, coeffs: Optional[tuple[Fraction, ...]]) -> None:
        for name, value in (("_num", tuple(num)), ("_den", den), ("_base", base), ("_coeffs", coeffs)):
            object.__setattr__(self, name, value)

    @classmethod
    def _graded(cls, num: Sequence[int], den: int, base: int) -> PowerSeries:
        """The series c_k = num[k] / (den * base**k), for den, base > 0.

        den is divided by its gcd with every num[k], so no series carries a
        factor in den that all its numerators cancel.
        """
        g = den
        for x in num:
            if g == 1:
                break
            g = gcd(g, x)
        series = object.__new__(cls)
        series._set([x // g for x in num] if g > 1 else num, den // g, base, None)
        return series

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PowerSeries is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> PowerSeries:
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> PowerSeries:
        return cls.constant(1, order)

    @classmethod
    def constant(cls, value: Rational, order: int) -> PowerSeries:
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        return cls._graded([value.numerator] + [0] * order, value.denominator, 1)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as exact rationals, built on first read and kept."""
        if self._coeffs is None:
            scale, values = self._den, []
            for x in self._num:
                # Fraction(x) keeps x itself: no gcd, and no copy of a long int
                values.append(Fraction(x, scale) if scale > 1 else Fraction(x))
                scale *= self._base
            object.__setattr__(self, "_coeffs", tuple(values))
        return self._coeffs

    @property
    def order(self) -> int:
        """Truncation order: the highest power of t retained (inclusive)."""
        return len(self._num) - 1

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient index {k} outside truncation order {self.order}")
        return self.coeffs[k]

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
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to order {order}")
        return PowerSeries._graded(self._num[: order + 1], self._den, self._base)

    def __add__(self, other: PowerSeries) -> PowerSeries:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        a, b, den, base = self._aligned(other)
        return PowerSeries._graded([x + y for x, y in zip(a, b)], den, base)

    def __sub__(self, other: PowerSeries) -> PowerSeries:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        a, b, den, base = self._aligned(other)
        return PowerSeries._graded([x - y for x, y in zip(a, b)], den, base)

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
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar: Rational) -> PowerSeries:
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of a series by the scalar zero")
        return self._scaled(1 / Fraction(scalar))

    def __pow__(self, exponent: int) -> PowerSeries:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series exponent must be a non-negative integer")
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

        With f_k = num_k / (den * base^k) and c0 = num_0, let q be the gcd
        of c0 and every num_j and e = |c0| / q.  Over u = t / (e * base),
        self is (c0 / den) * (1 + sum_j h_j u^j) with the integers
        h_j = sign(c0) * (num_j / q) * e^(j-1), so its inverse is
        (den / c0) * sum_k U_k u^k with U_0 = 1 and
        U_k = -sum_{j=1..k} h_j U_{k-j}: the triangle
        g_k = -(1/f0) * sum_{j=1..k} f_j g_{k-j}, cleared of every division.
        The base grows by e: by |c0| at worst, not at all when c0 divides
        every coefficient.
        """
        num, den = self._num, self._den
        c0 = num[0]
        if c0 == 0:
            raise ValueError("series is not invertible: constant term is zero")
        q = abs(c0)
        for x in num[1:]:
            if q == 1:
                break
            q = gcd(q, x)
        e, sign = abs(c0) // q, -1 if c0 < 0 else 1
        h = _rescale([x // q for x in num[1:]], sign, e)
        u = [1]
        for _ in range(1, len(num)):
            u.append(-sum(map(mul, h, reversed(u))))
        return PowerSeries._graded(_rescale(u, sign * den, 1), abs(c0), e * self._base)

    def sqrt(self) -> PowerSeries:
        """Square root s with s * s = self mod t^(order+1) and s0 = 1.

        Restricted to radicands with constant term exactly 1 so that every
        coefficient stays rational.  At the base B = den * base the radicand
        is sum_k P_k (t/B)^k with integers P_0 = 1 and
        P_k = num_k * den^(k-1), and the root's coefficients come term by
        term from the squaring identity 2*s_k = P_k - sum_{j=1..k-1} s_j s_{k-j}.
        When a halving leaves a remainder the root is taken again at base
        4B, where the radicand is 1 + 4*(an integer series) and its root has
        integer coefficients (binomial(1/2, j) * 4^j is an integer), so
        every halving is exact.
        """
        num, den = self._num, self._den
        if num[0] != den:
            raise ValueError("square root requires constant term exactly 1")
        base = den * self._base
        p = [1, *_rescale(num[1:], 1, den)]
        s = _halving_root(p, exact=False)
        if s is None:
            base *= 4
            s = _halving_root(_rescale(p, 1, 4), exact=True)
        return PowerSeries._graded(s, 1, base)

    def shift_div(self, k: int) -> PowerSeries:
        """Exact division by t^k; the truncation order drops by k.

        Every coefficient below index k must be exactly zero, otherwise
        ValueError: a nonzero low coefficient is an algebra bug upstream and
        is never silently truncated away.
        """
        if k < 0:
            raise ValueError("shift exponent must be >= 0")
        if k > self.order:
            raise ValueError(f"cannot divide an order-{self.order} series by t^{k}")
        for j in range(k):
            if self._num[j] != 0:
                raise ValueError(
                    f"series is not divisible by t^{k}: coefficient of t^{j} is "
                    f"{format_number(self.coeffs[j])}"
                )
        return PowerSeries._graded(self._num[k:], self._den * self._base**k, self._base)

    def shift_mul(self, k: int) -> PowerSeries:
        """Multiplication by t^k; the truncation order grows by k."""
        if k < 0:
            raise ValueError("shift exponent must be >= 0")
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
