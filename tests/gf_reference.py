"""Reference rows: the radical/inverse construction that ``poids_gf`` and
``tree_gf`` once ran, kept so tests can check the Catalan-power rows against
an independent expansion of the same closed forms.

Each takes one power-series square root, one inverse and one power:

* poids: d_i(t) = d(t) * (c1*t*a(t))^i with d = 1/(1 - (c3/c2)*b) and
  b = c1*c2*t^2*a = (1 - sqrt(1 - 4*c1*c2*t^2)) / 2, so c2 = 0 is refused;
* tree: 2(m-1) / (m-2 + m*sqrt(1 - 4(m-1)t^2)) times
  ((1 - sqrt(1 - 4(m-1)t^2)) / (2(m-1)t))^i, so m = 1 is refused.

Neither runs a size guard: the tests call them at small orders only.
"""

from __future__ import annotations

from treewalks.genfunc import _irreducible, _sqrt_radical
from treewalks.recurrence import WeightConfig
from treewalks.series import PowerSeries

__all__ = ["poids_reference", "tree_reference"]


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
