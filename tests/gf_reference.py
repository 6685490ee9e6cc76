"""Reference series: the radical/inverse construction that ``genfunc`` once
ran, kept so tests can check the Catalan-power series against an independent
expansion of the same closed forms.

Each takes one power-series square root, and the rows one inverse and one
power:

* a(t) = (1 - sqrt(1 - 4*c1*c2*t^2)) / (2*c1*c2*t^2), the constant 1 at
  c1*c2 = 0;
* b = c1*c2*t^2*a = (1 - sqrt(1 - 4*c1*c2*t^2)) / 2 and c = (c3/c2) * b, so
  c2 = 0 is refused;
* poids: d_i(t) = d(t) * (c1*t*a(t))^i with d = 1/(1 - c), so c2 = 0 is
  refused;
* tree: 2(m-1) / (m-2 + m*sqrt(1 - 4(m-1)t^2)) times
  ((1 - sqrt(1 - 4(m-1)t^2)) / (2(m-1)t))^i, so m = 1 is refused.

None runs a size guard: the tests call them at small orders only.
"""

from __future__ import annotations

from treewalks.rationals import Rational
from treewalks.recurrence import WeightConfig
from treewalks.series import PowerSeries

__all__ = ["dyck_reference", "irreducible_reference", "poids_reference", "tree_reference"]


def _sqrt_radical(product: Rational, order: int) -> PowerSeries:
    """sqrt(1 - 4*product*t^2), truncated at ``order``."""
    radicand = [product.denominator, 0, -4 * product.numerator] + [0] * (order - 2)
    return PowerSeries._graded(radicand[: order + 1], product.denominator, 1).sqrt()


def _irreducible(weights: WeightConfig, order: int) -> PowerSeries:
    """b(t) = (1 - sqrt(1 - 4*c1*c2*t^2)) / 2."""
    return (PowerSeries.one(order) - _sqrt_radical(weights.c1 * weights.c2, order)) / 2


def dyck_reference(weights: WeightConfig, order: int) -> PowerSeries:
    """a(t) from its radical, the removable t^2 taken off by exact shift division."""
    q = weights.c1 * weights.c2
    if q == 0:
        return PowerSeries.one(order)
    return _irreducible(weights, order + 2).shift_div(2) / q


def irreducible_reference(weights: WeightConfig, order: int) -> tuple[PowerSeries, PowerSeries]:
    """(b, c) with c = (c3/c2) * b."""
    if weights.c2 == 0:
        raise ValueError("degenerate weights: c2 = 0 leaves the poids ratio c3/c2 undefined")
    b = _irreducible(weights, order)
    return b, b * (weights.c3 / weights.c2)


def poids_reference(weights: WeightConfig, i: int, order: int) -> PowerSeries:
    """d_i(t) = d(t) * (c1*t*a(t))^i, the t^i prefactor applied as a final shift."""
    if weights.c2 == 0:
        raise ValueError("degenerate weights: c2 = 0 leaves the poids ratio c3/c2 undefined")
    if i > order:
        return PowerSeries.zero(order)
    inner = order - i
    b = _irreducible(weights, inner + 2)
    d = (PowerSeries.one(inner) - b * (weights.c3 / weights.c2)).inverse()
    if i == 0:
        return d
    lift = (b / weights.c2).shift_div(2)
    return (d * lift**i).shift_mul(i)


def tree_reference(m: int, i: int, order: int) -> PowerSeries:
    """The tree's own radical closed form, one sqrt for both factors; m >= 2."""
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"tree degree m={m!r} rejected: the closed form divides by the constant 2(m-1)")
    if i > order:
        return PowerSeries.zero(order)
    inner = order - i
    s = _sqrt_radical(m - 1, inner + 2)
    base = (PowerSeries.constant(m - 2, inner) + s * m).inverse() * (2 * (m - 1))
    if i == 0:
        return base
    lift = (PowerSeries.one(inner + 2) - s).shift_div(2) / (2 * (m - 1))
    return (base * lift**i).shift_mul(i)
