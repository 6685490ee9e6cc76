"""Closed-form generating functions for weighted Dyck paths and tree walks.

Write U for an up-step and D for a down-step of a lattice path that never
dips below the x-axis.  A path's weight is c1^#U * c2^#D; its poids replaces
c2 by c3 for every D that lands on the axis.  With A(i, n) the poids-sum
over length-n paths ending at height i (the table of
:func:`treewalks.recurrence.build_table`), the series built here expand the
algebraic solution of that counting system.  Everything is a rational
function of a(t), the power-series root of (c1*c2*t^2) * a^2 - a + 1 = 0:

* ``dyck_gf``            a(t) itself, the weight enumerator of paths ending
                         on the axis.
* ``irreducible_gf``     the pair (b, c) enumerating irreducible paths
                         (on the axis only at their endpoints) by weight and
                         by poids: b = c1*c2*t^2 * a, c = c1*c3*t^2 * a.
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

No function here takes a series operation: by Lagrange inversion
[t^(2k)] a^i = i/(2k+i) * C(2k+i, k) * (c1*c2)^k, each coefficient follows
from the one before by an exact integer ratio (:func:`_catalan_power`).
a(t), b and c are one such list, scaled; a row divides by the binomial
denominator in t^2 in one pass.  Each series is O(n) operations on ints of
O(n) bits.

Each public function estimates its memory before building anything, and
:func:`~treewalks.recurrence.check_cost` refuses one over ``MAX_TABLE_BYTES``.

A row's division that leaves a remainder means an algebra bug and raises
at once.  All arithmetic is exact, so agreement with the recurrence table
is coefficient for coefficient.
"""

from __future__ import annotations

from math import gcd

from .rationals import natural
from .recurrence import MAX_TABLE_BYTES, WeightConfig, check_cost, int_bytes, step_bits, tree_weights
from .series import PowerSeries

__all__ = ["dyck_gf", "irreducible_gf", "poids_gf", "tree_gf"]


# A Fraction object and its slot in the coefficient tuple.
_FRACTION_BYTES = 56

# The objects a call builds whatever its order: the weights, the series and
# the headers of their lists and tuples.  tracemalloc reads at most 1.2 KiB
# (CPython 3.11, order 0).
_CALL_BYTES = 1536


def _widest_int_bits(weights: WeightConfig, order: int) -> int:
    """Bits of the widest int that any function here builds at this order,
    numerators and denominators alike (see :func:`_check_size`)."""
    numerator, denominator = step_bits(weights)
    return (order + 2) * (numerator + denominator)


def _check_size(weights: WeightConfig, order: int) -> None:
    """Refuse, before building anything, an order that is not natural or a call
    that would hold more than ``MAX_TABLE_BYTES``: two lists of order + 3 ints,
    the ``Fraction`` tuple that a reader of ``coeffs`` holds, and ``_CALL_BYTES``.

    With M and log2(D) the bits of :func:`step_bits` and u, v, x = D*c1,
    D*c2, D*c3, every int built here is a coefficient [t^(2k)] a^j at D*t,
    that times a weight or two, a row entry N_n = A(i, n) * D^n, or the
    (v - x) * N_n that a row divides: at most a few terms
    C(2k + j, k) * |u|^(k+j) * |v|^k times weights, each one term of
    max(|u| + |v|, |x|)^n at t^n.  So none is wider than (order + 1) * M + 2
    bits, and each is charged the wider ``_widest_int_bits``.

    * A row (``poids_gf``, ``tree_gf``) holds two Catalan-power lists of
      order // 2 + 1 ints and the row of order + 1 ints: the two lists.
    * ``dyck_gf`` holds one Catalan-power list, which its row shares.
    * ``irreducible_gf`` holds one Catalan-power list and two rows of
      order // 2 ints each, and returns two series whose tuples may both
      be held.  b and c vanish at t^0 and every odd power, so the two
      tuples hold no more nonzero coefficients than one dense tuple; their
      zero Fractions and the rows' zero slots take the half list left
      over, the ints narrower than charged, and below about order 30 part
      of ``_CALL_BYTES``.

    A coefficient in the tuple is charged at the dp widths of A(i, n).  Tests
    check the width against the widest int each function builds, and the
    estimate against each function's ``tracemalloc`` peak.
    """
    natural("order", order)
    numerator, denominator = step_bits(weights)
    graded = 2 * (order + 3) * int_bytes(_widest_int_bits(weights, order))
    rational = (order + 1) * (_FRACTION_BYTES + int_bytes(order * numerator) + int_bytes(order * denominator))
    what = lambda: f"series of order {order} for weights {weights.describe()}"
    check_cost(what, graded + rational + _CALL_BYTES, MAX_TABLE_BYTES, "bytes")


def _scaled_weights(weights: WeightConfig) -> tuple[int, int, int, int]:
    """D, the lcm of the weight denominators, and u, v, x = D*c1, D*c2, D*c3.

    The recurrence scales the weights to the same numbers.  This second copy,
    written another way, is deliberate; do not merge the two: verify's dp = gf
    rows compare these series with dp, and a fault in one scaling shared by
    both routes would agree with itself.
    """
    scale, triple = 1, (weights.c1, weights.c2, weights.c3)
    for w in triple:
        scale *= w.denominator // gcd(scale, w.denominator)
    return (scale, *(int(w * scale) for w in triple))


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

    With D the lcm of the weight denominators and u, v = D*c1, D*c2, the
    t^(2k) coefficient is Cat_k * (c1*c2)^k = C_k / D^(2k), where C_k is
    the Catalan-power coefficient at q = u*v.  At c1*c2 = 0 only the empty
    path is left, and C_k is 1, 0, 0, ...
    """
    _check_size(weights, order)
    scale, u, v, _ = _scaled_weights(weights)
    row = [0] * (order + 1)
    row[::2] = _catalan_power(1, u * v, order // 2 + 1)
    return PowerSeries._graded(row, 1, scale)


def irreducible_gf(weights: WeightConfig, order: int) -> tuple[PowerSeries, PowerSeries]:
    """Enumerators (b, c) of irreducible paths by weight and by poids.

    An irreducible path is U, a path ending on the axis lifted by one, and
    the D that lands on the axis, which weighs c3 instead of c2 for the
    poids: b = c1*c2*t^2 * a and c = c1*c3*t^2 * a.  Their t^(2k+2)
    numerators at base D are u*v*C_k and u*x*C_k, with C_k as in
    :func:`dyck_gf`, so every weight has an answer.
    """
    _check_size(weights, order)
    scale, u, v, x = _scaled_weights(weights)
    # the t^2 shift moves a's last term past the order
    catalan = _catalan_power(1, u * v, order // 2 + 1)[:-1]
    b, c = [0] * (order + 1), [0] * (order + 1)
    b[2::2] = [u * v * n for n in catalan]
    c[2::2] = [u * x * n for n in catalan]
    return PowerSeries._graded(b, 1, scale), PowerSeries._graded(c, 1, scale)


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
    natural("i", i)
    _check_size(weights, order)
    if i > order:
        return PowerSeries.zero(order)
    scale, u, v, x = _scaled_weights(weights)
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
    natural("i", i)
    _check_size(weights, order)
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
