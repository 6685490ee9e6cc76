"""Closed-form generating functions for weighted Dyck paths and tree walks.

Write U for an up-step and D for a down-step of a lattice path that never
dips below the x-axis.  A path's weight is c1^#U * c2^#D; its poids replaces
c2 by c3 for every D that lands on the axis.  With A(i, n) the poids-sum
over length-n paths ending at height i (the table of
:func:`treewalks.recurrence.build_table`), the series built here expand the
algebraic solution of that counting system.  Everything is a rational
function of a(t), the power-series root of (c1*c2*t^2) * a^2 - a + 1 = 0:

* ``dyck_gf``            a(t) itself, the weight enumerator of paths ending
                         on the axis, from its radical (one sqrt per call):
                         a(t) = (1 - sqrt(1 - 4*c1*c2*t^2)) / (2*c1*c2*t^2).
* ``irreducible_gf``     the pair (b, c) enumerating irreducible paths
                         (on the axis only at their endpoints) by weight and
                         by poids: b = c1*c2*t^2 * a, c = (c3/c2) * b, from
                         the same radical.
* ``poids_gf``           d_i(t), whose t^n coefficient is A(i, n).  A path
                         ending on the axis is a free sequence of irreducible
                         components, so d_0 = 1/(1 - c); a path ending at
                         height i splits uniquely as W0 U W1 U ... U Wi with
                         each Wk ending on the axis, so d_i = d_0 * (c1*t*a)^i.
                         Cleared of the inverse with a = 1 + c1*c2*t^2*a^2:
                         d_i = (c1*t)^i * ((c2-c3)*a^i + c1*c2*c3*t^2*a^(i+1))
                               / ((c2-c3) + c1*c3^2*t^2).
* ``tree_gf``            the tree specialization (c1, c2, c3) = (1, m-1, m),
                         McKay's form: with L = t*a(t) at c1*c2 = m-1,
                         d_i = (L^i - m(m-1)*t*L^(i+1)) / (1 - m^2*t^2).
                         It shares no code with ``poids_gf`` but the
                         coefficients of a^i, so the two cross-check.

The two rows need no series operation: by Lagrange inversion
[t^(2k)] a^i = i/(2k+i) * C(2k+i, k) * (c1*c2)^k, each coefficient follows
from the one before by an exact integer ratio (:func:`_catalan_power`), and
dividing by the binomial denominator in t^2 is one pass over the row.  A row
is O(n) operations on ints of O(n) bits.

Each public function estimates its memory before building anything, and
:func:`~treewalks.recurrence.check_cost` refuses one over ``MAX_TABLE_BYTES``.

The removable t^2 (or t) factors of the radical are handled by exact shift
division with a hard zero check on the low coefficients, and the rows'
divisions by a hard zero check on the remainder, never by symbolic
limit-taking: a nonzero remainder means an algebra bug and raises
immediately.  All arithmetic is exact, so agreement with the recurrence
table is coefficient for coefficient.
"""

from __future__ import annotations

from math import lcm

from .rationals import Rational
from .recurrence import MAX_TABLE_BYTES, WeightConfig, check_cost, int_bytes, step_bits, tree_weights
from .series import PowerSeries

__all__ = ["dyck_gf", "irreducible_gf", "poids_gf", "tree_gf"]


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("truncation order must be >= 0")


# A Fraction object and its slot in the cached tuple.
_FRACTION_BYTES = 56

# Live int lists of order + 3 ints, at most, that each route holds at once:
# a row holds two Catalan-power lists of order // 2 + 1 ints and the row;
# the radical route about three series.
_ROW_SERIES, _RADICAL_SERIES = 2, 3


def _widest_int_bits(weights: WeightConfig, order: int) -> int:
    """Bits of the widest int that any function here builds at this order,
    numerators and denominators alike (see :func:`_check_size`)."""
    numerator, denominator = step_bits(weights)
    return (order + 2) * (numerator + denominator)


def _check_size(weights: WeightConfig, order: int, series: int) -> None:
    """Refuse, before building anything, a computation that would hold more
    than ``MAX_TABLE_BYTES`` in ``series`` live lists of order + 3 ints.

    Let M and log2(D) be the bits of :func:`step_bits`, with D the lcm of
    the weight denominators and u, v, x = D*c1, D*c2, D*c3.

    * A row (``poids_gf``, ``tree_gf``) holds two Catalan-power lists of
      order // 2 + 1 ints and the row of order + 1 ints: two such lists.
      Its ints are the coefficients [t^(2k)] a^j at D*t (j = i, i + 1),
      the row N_n = A(i, n) * D^n, and the numerators (v - x) * N_n that
      the row divides.  Each is at most a few terms
      C(2k + j, k) * |u|^(k+j) * |v|^k times a weight, and that product is
      one term of (|u| + |v|)^(2k+j), so no int is wider than
      (order + 1) * M + 2 bits.
    * The radical route (``dyck_gf``, ``irreducible_gf``) holds about three
      series of order + 3 coefficients (a few more are alive at once, but
      most of their ints are narrower).  The series kernel stores c_k as
      num_k / (den * base^k), and every base here divides D^2: the sqrt
      grades by the denominator of 4*c1*c2 (times 4 when a halving is not
      exact, which needs an even D).  A coefficient of t^k is at most
      (M/D)^k, and den * base^k adds at most 2*log2(D) bits per power of t.

    ``_widest_int_bits``, (order + 2) * (M + log2(D)) bits, bounds both; a
    sweep in the tests checks it against the widest int each function
    builds.  Every int is charged that width, plus the ``Fraction`` tuple
    that reading the result caches, at the dp widths of A(i, n).
    """
    numerator, denominator = step_bits(weights)
    graded = series * (order + 3) * int_bytes(_widest_int_bits(weights, order))
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


def _catalan_power(i: int, q: int, terms: int) -> list[int]:
    """[t^(2k)] a^i for k < terms, where a = sum_k Cat_k * q^k * t^(2k) is the
    root of a = 1 + q*t^2*a^2.

    By Lagrange inversion [t^(2k)] a^i = i/(2k+i) * C(2k+i, k) * q^k, so each
    term is the one before times q*(2k+i)(2k+i+1) / ((k+1)(k+i+1)), and that
    division is exact.  At i = 0 the list is [1, 0, 0, ...].
    """
    power, out = 1, [1]
    for k in range(terms - 1):
        power = power * (q * (2 * k + i) * (2 * k + i + 1)) // ((k + 1) * (k + i + 1))
        out.append(power)
    return out


def dyck_gf(weights: WeightConfig, order: int) -> PowerSeries:
    """Weight enumerator a(t) of all paths ending on the axis.

    Degenerate c1*c2 = 0 admits only the empty path (no up-step can ever be
    matched), so the formula's 0/0 is resolved combinatorially to the
    constant series 1.
    """
    _check_order(order)
    _check_size(weights, order, _RADICAL_SERIES)
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
    _check_size(weights, order, _RADICAL_SERIES)
    b = _irreducible(weights, order)
    return b, b * (weights.c3 / weights.c2)


def poids_gf(weights: WeightConfig, i: int, order: int) -> PowerSeries:
    """Poids enumerator d_i(t) of paths ending at height i, for every weight triple.

    The t^n coefficient equals the recurrence table entry A(i, n).  With D
    the lcm of the weight denominators and u, v, x = D*c1, D*c2, D*c3, the
    row N_n = A(i, n) * D^n is d_i at D*t, where a's parameter c1*c2 becomes
    q = u*v.  With C_k(j) = [t^(2k)] a^j at that q, the closed form gives,
    at n = i + 2k,

        (v-x) * N_n = u^i * ((v-x) * C_k(i) + u*v*x * C_(k-1)(i+1)) - u*x^2 * N_(n-2),

    one exact division per term (``ArithmeticError`` on a remainder).  When
    v = x the denominator's constant vanishes and its t^2 cancels:
    N_(i+2k) = u^i * C_k(i+1), which also holds for c1 = 0 (the empty path
    only) and c2 = c3 = 0 (d_i = (c1*t)^i).  Nothing divides by c1 or c2,
    so no weight is refused.
    """
    _check_order(order)
    if i < 0:
        raise ValueError("end height must be >= 0")
    _check_size(weights, order, _ROW_SERIES)
    if i > order:
        return PowerSeries.zero(order)
    scale = lcm(weights.c1.denominator, weights.c2.denominator, weights.c3.denominator)
    u, v, x = (w.numerator * (scale // w.denominator) for w in (weights.c1, weights.c2, weights.c3))
    terms, lift = (order - i) // 2 + 1, u**i
    row = [0] * (order + 1)
    next_power = _catalan_power(i + 1, u * v, terms)
    if v == x:
        row[i::2] = [lift * c for c in next_power]
        return PowerSeries._graded(row, 1, scale)
    divisor, n = v - x, 0
    for k, c in enumerate(_catalan_power(i, u * v, terms)):
        numerator = lift * (divisor * c + (u * v * x * next_power[k - 1] if k else 0)) - u * x * x * n
        n, rest = divmod(numerator, divisor)
        if rest:
            raise ArithmeticError(f"poids row: coefficient {i + 2 * k} leaves a remainder")
        row[i + 2 * k] = n
    return PowerSeries._graded(row, 1, scale)


def tree_gf(m: int, i: int, order: int) -> PowerSeries:
    """Enumerator of m-regular-tree walks ending at distance i, McKay's form.

    With q = m - 1 and C_k(j) = [t^(2k)] a^j, the numerator
    L^i - m(m-1)*t*L^(i+1) has the coefficient C_k(i) - m*q*C_(k-1)(i+1) at
    t^(i+2k), and dividing by 1 - m^2*t^2 adds m^2 times the row two steps
    back.  At m = 1 this is t^i / (1 - t^2): the single edge, which the
    table gives too.
    """
    weights = tree_weights(m)
    _check_order(order)
    if i < 0:
        raise ValueError("end distance must be >= 0")
    _check_size(weights, order, _ROW_SERIES)
    if i > order:
        return PowerSeries.zero(order)
    q, square = m - 1, m * m
    terms = (order - i) // 2 + 1
    next_power = _catalan_power(i + 1, q, terms)
    row, y = [0] * (order + 1), 0
    for k, c in enumerate(_catalan_power(i, q, terms)):
        y = c - (m * q * next_power[k - 1] if k else 0) + square * y
        row[i + 2 * k] = y
    return PowerSeries._graded(row, 1, 1)
