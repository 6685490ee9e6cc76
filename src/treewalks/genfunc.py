"""Closed-form generating functions for weighted Dyck paths and tree walks.

Write U for an up-step and D for a down-step of a lattice path that never
dips below the x-axis.  A path's weight is c1^#U * c2^#D; its poids replaces
c2 by c3 for every D that lands on the axis.  With A(i, n) the poids-sum
over length-n paths ending at height i (the table of
:func:`treewalks.recurrence.build_table`), the series built here expand the
algebraic solution of that counting system, one radical (sqrt) per call:

* ``dyck_gf``            a(t), the weight enumerator of paths ending on the
                         axis: the power-series root of
                         (c1*c2*t^2) * a^2 - a + 1 = 0,
                         a(t) = (1 - sqrt(1 - 4*c1*c2*t^2)) / (2*c1*c2*t^2).
* ``irreducible_gf``     the pair (b, c) enumerating irreducible paths
                         (on the axis only at their endpoints) by weight and
                         by poids: b = c1*c2*t^2 * a, c = (c3/c2) * b.
* ``poids_gf``           d_i(t) = d(t) * (c1*t*a(t))^i, whose t^n
                         coefficient is A(i, n); d = 1/(1 - c) is the i = 0
                         case, because a path ending on the axis is a free
                         sequence of irreducible components.  A path ending
                         at height i splits uniquely as W0 U W1 U ... U Wi
                         with each Wk ending on the axis, which is where the
                         (c1*t*a)^i factor comes from, with c1*a = b/(c2*t^2).
* ``tree_gf``            the tree specialization (c1, c2, c3) = (1, m-1, m),
                         evaluated from its own radical closed form
                         2(m-1) / (m-2 + m*sqrt(1 - 4(m-1)t^2))
                         times ((1 - sqrt(1 - 4(m-1)t^2)) / (2(m-1)t))^i,
                         one sqrt for both factors; it shares no series
                         with ``poids_gf``, so the two cross-check.

Each public function estimates its series' memory before building any, and
:func:`~treewalks.recurrence.check_cost` refuses one over ``MAX_TABLE_BYTES``.

The removable t^2 (or t) factors in these formulas are handled by exact
shift division with a hard zero check on the low coefficients, never by
symbolic limit-taking: a nonzero low coefficient means an algebra bug and
raises immediately.  All arithmetic is exact, so agreement with the
recurrence table is coefficient for coefficient.
"""

from __future__ import annotations

from .rationals import Rational
from .recurrence import MAX_TABLE_BYTES, WeightConfig, check_cost, int_bytes, step_bits, tree_weights
from .series import PowerSeries

__all__ = ["dyck_gf", "irreducible_gf", "poids_gf", "tree_gf"]


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("truncation order must be >= 0")


# A Fraction object and its slot in the cached tuple.
_FRACTION_BYTES = 56


def _widest_int_bits(weights: WeightConfig, order: int) -> int:
    """Bits of the widest int a series of this order holds in any function
    here, numerators and denominators alike (see :func:`_check_size`)."""
    numerator, denominator = step_bits(weights)
    return (order + 2) * (numerator + denominator)


def _check_size(weights: WeightConfig, order: int) -> None:
    """Refuse, before building any series, a computation whose series would
    hold more than ``MAX_TABLE_BYTES``.

    The series kernel stores c_k as num_k / (den * base^k), with den as small
    as that base allows.  With D the lcm of the weight denominators, every
    base here divides D^2: the sqrt grades by the denominator of 4*c1*c2
    (times 4 when a halving is not exact, which needs an even D), and the
    inverse widens that only to another divisor of D^2.  A coefficient of
    t^k is at most (M/D)^k, M as in :func:`step_bits`, and den * base^k adds
    at most 2*log2(D) bits per power of t, so an int needs about k steps of
    ``step_bits``, numerator plus denominator bits.  (order + 2) steps also
    cover the constant factors (c3/c2, powers of c1) of the intermediate
    series; a sweep in the tests checks that width against the widest int
    each computation builds.  It is charged to every coefficient of three
    series of order + 3 coefficients (a few more are alive at once, but most
    of their ints are narrower), plus the ``Fraction`` tuple that reading
    the result caches, at the dp widths of A(i, n).
    """
    numerator, denominator = step_bits(weights)
    graded = 3 * (order + 3) * int_bytes(_widest_int_bits(weights, order))
    cached = (order + 1) * (_FRACTION_BYTES + int_bytes(order * numerator) + int_bytes(order * denominator))
    what = lambda: f"series of order {order} for weights {weights.describe()}"
    check_cost(what, graded + cached, MAX_TABLE_BYTES, "bytes")


def _sqrt_radical(product: Rational, order: int) -> PowerSeries:
    """sqrt(1 - 4*product*t^2), truncated at ``order``."""
    radicand = [product.denominator, 0, -4 * product.numerator] + [0] * (order - 2)
    return PowerSeries._graded(radicand[: order + 1], product.denominator, 1).sqrt()


def _irreducible(weights: WeightConfig, order: int) -> PowerSeries:
    """b(t) = (1 - sqrt(1 - 4*c1*c2*t^2)) / 2, unguarded: each caller checks the order it was asked."""
    return (PowerSeries.one(order) - _sqrt_radical(weights.c1 * weights.c2, order)) / 2


def dyck_gf(weights: WeightConfig, order: int) -> PowerSeries:
    """Weight enumerator a(t) of all paths ending on the axis.

    Degenerate c1*c2 = 0 admits only the empty path (no up-step can ever be
    matched), so the formula's 0/0 is resolved combinatorially to the
    constant series 1.
    """
    _check_order(order)
    _check_size(weights, order)
    q = weights.c1 * weights.c2
    if q == 0:
        return PowerSeries.one(order)
    return _irreducible(weights, order + 2).shift_div(2) / q


def irreducible_gf(weights: WeightConfig, order: int) -> tuple[PowerSeries, PowerSeries]:
    """Enumerators (b, c) of irreducible paths by weight and by poids.

    An irreducible path's single axis-landing D contributes c3 instead of
    c2, hence c = (c3/c2) * b; c2 = 0 makes that ratio meaningless and is
    rejected.
    """
    _check_order(order)
    if weights.c2 == 0:
        raise ValueError("degenerate weights: c2 = 0 leaves the poids ratio c3/c2 undefined")
    _check_size(weights, order)
    b = _irreducible(weights, order)
    return b, b * (weights.c3 / weights.c2)


def poids_gf(weights: WeightConfig, i: int, order: int) -> PowerSeries:
    """Poids enumerator d_i(t) of paths ending at height i.

    The t^n coefficient equals the recurrence table entry A(i, n).  The t^i
    prefactor of d(t) * (c1*t*a(t))^i is applied as a final shift so every
    intermediate value is a genuine power series.
    """
    _check_order(order)
    if i < 0:
        raise ValueError("end height must be >= 0")
    if weights.c2 == 0:
        raise ValueError("degenerate weights: c2 = 0 leaves the poids ratio c3/c2 undefined")
    _check_size(weights, order)
    if i > order:
        return PowerSeries.zero(order)
    inner = order - i
    b = _irreducible(weights, inner + 2)
    d = (PowerSeries.one(inner) - b * (weights.c3 / weights.c2)).inverse()
    if i == 0:
        return d
    lift = (b / weights.c2).shift_div(2)
    return (d * lift**i).shift_mul(i)


def tree_gf(m: int, i: int, order: int) -> PowerSeries:
    """Enumerator of m-regular-tree walks ending at distance i, closed form.

    Rejects m <= 1: at m = 1 the closed form's constant denominator
    m - 2 + m = 2(m - 1) vanishes, so there is no power-series inverse
    (the recurrence route in :mod:`treewalks.recurrence` still works there).
    """
    if not isinstance(m, int) or m < 2:
        raise ValueError(
            f"tree degree m={m!r} rejected: the closed form divides by the constant "
            "2(m-1), which vanishes at m=1; use the recurrence table instead"
        )
    _check_order(order)
    if i < 0:
        raise ValueError("end distance must be >= 0")
    _check_size(tree_weights(m), order)
    if i > order:
        return PowerSeries.zero(order)
    inner = order - i
    s = _sqrt_radical(m - 1, inner + 2)
    base = (PowerSeries.constant(m - 2, inner) + s * m).inverse() * (2 * (m - 1))
    if i == 0:
        return base
    lift = (PowerSeries.one(inner + 2) - s).shift_div(2) / (2 * (m - 1))
    return (base * lift**i).shift_mul(i)
