"""Reference series kernel: the plain ``Fraction`` ``PowerSeries`` that the
graded integer kernel of ``treewalks.series`` replaced, kept verbatim so
tests can compare every operation against it for exact equality.  Only its
index, order and exponent checks changed: they call ``rationals.natural``,
as the kernel does, so a refusal's message compares equal too.

Truncated formal power series with exact rational coefficients.

A series is a finite coefficient vector ``c[0..order]`` standing for
``c0 + c1*t + ... + c_order*t^order + O(t^(order+1))``.  Binary operations
truncate to the smaller order of their operands, so every identity in this
package is asserted "mod t^(order+1)" for an explicit, caller-chosen order.
There is no ambient global precision and no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from treewalks.rationals import Rational, format_number, natural

__all__ = ["PowerSeries"]


class PowerSeries:
    """Immutable truncated power series over exact rationals.

    Equality compares coefficients up to the common (minimum) truncation
    order of the two operands; accordingly instances are unhashable.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Rational]):
        values = tuple(Fraction(c) for c in coeffs)
        if not values:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coeffs", values)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PowerSeries is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> PowerSeries:
        return cls([Fraction(0)] * (order + 1))

    @classmethod
    def one(cls, order: int) -> PowerSeries:
        return cls.constant(1, order)

    @classmethod
    def constant(cls, value: Rational, order: int) -> PowerSeries:
        natural("truncation order", order)
        return cls([Fraction(value)] + [Fraction(0)] * order)

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        """Truncation order: the highest power of t retained (inclusive)."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        natural("coefficient index", k)
        if k > self.order:
            raise IndexError(f"coefficient index {k} outside truncation order {self.order}")
        return self.coeffs[k]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    # -- ring operations (all truncate to the common order) ----------------

    def truncate(self, order: int) -> PowerSeries:
        natural("truncation order", order)
        if order > self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to order {order}")
        return PowerSeries(self.coeffs[: order + 1])

    def __add__(self, other: PowerSeries) -> PowerSeries:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other: PowerSeries) -> PowerSeries:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __neg__(self) -> PowerSeries:
        return PowerSeries([-c for c in self.coeffs])

    def __mul__(self, other: object) -> PowerSeries:
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            out = []
            for k in range(n + 1):
                acc = Fraction(0)
                for j in range(k + 1):
                    acc += self.coeffs[j] * other.coeffs[k - j]
                out.append(acc)
            return PowerSeries(out)
        if isinstance(other, (int, Fraction)):
            return PowerSeries([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar: Rational) -> PowerSeries:
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of a series by the scalar zero")
        return PowerSeries([c / scalar for c in self.coeffs])

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

        Coefficients come from solving the convolution triangle:
        g0 = 1/f0 and g_k = -(1/f0) * sum_{j=1..k} f_j g_{k-j}.
        """
        f = self.coeffs
        if f[0] == 0:
            raise ValueError("series is not invertible: constant term is zero")
        inv0 = 1 / f[0]
        g = [inv0] + [Fraction(0)] * self.order
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += f[j] * g[k - j]
            g[k] = -inv0 * acc
        return PowerSeries(g)

    def sqrt(self) -> PowerSeries:
        """Square root s with s * s = self mod t^(order+1) and s0 = 1.

        Restricted to radicands with constant term exactly 1 so that every
        coefficient stays rational.  Term by term from the squaring
        identity 2*s0*s_k = f_k - sum_{j=1..k-1} s_j s_{k-j}.
        """
        f = self.coeffs
        if f[0] != 1:
            raise ValueError("square root requires constant term exactly 1")
        s = [Fraction(1)] + [Fraction(0)] * self.order
        for k in range(1, self.order + 1):
            acc = f[k]
            for j in range(1, k):
                acc -= s[j] * s[k - j]
            s[k] = acc / 2
        return PowerSeries(s)

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
            if self.coeffs[j] != 0:
                raise ValueError(
                    f"series is not divisible by t^{k}: coefficient of t^{j} is "
                    f"{format_number(self.coeffs[j])}"
                )
        return PowerSeries(self.coeffs[k:])

    def shift_mul(self, k: int) -> PowerSeries:
        """Multiplication by t^k; the truncation order grows by k."""
        natural("shift exponent", k)
        return PowerSeries((Fraction(0),) * k + self.coeffs)

    # -- comparison and display --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

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
