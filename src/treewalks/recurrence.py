"""Walk counts from the three-clause recurrence: the whole table
(:func:`build_table`) or one row of it as the series d_i(t) (:func:`dp_row`),
and the identity that checks a table from the weights alone
(:func:`mass_check`).

The table A(i, n) solves

    A(i, 0) = 1 if i == 0 else 0
    A(0, n) = c3 * A(1, n-1)                          for n >= 1
    A(i, n) = c1 * A(i-1, n-1) + c2 * A(i+1, n-1)     for i >= 1, n >= 1

For general weights, A(i, n) is the poids-sum over nonnegative U/D lattice
paths of length n ending at height i (see :func:`treewalks.oracles.enumerate_dyck`
for the path vocabulary).  Such a path has u = (n+i)/2 up steps and
d = (n-i)/2 down steps, j of them landing on the axis, and its poids is
c1^u c2^(d-j) c3^j, McKay's (1983) ballot form.  So every path of a cell
shares the factor c1^u, and the loop (:func:`_columns`) sums the poids with
it, and with the gcd of the two down weights to the power d, factored out.
For the specialization (c1, c2, c3) = (1, m-1, m) it counts length-n walks
on the m-regular tree that end at a fixed vertex at distance i from the
start: such a vertex has one neighbor closer to the start and m-1 neighbors
farther, except the start itself whose m neighbors are all at distance 1.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import mul

from .rationals import Frozen, Rational, exact, format_number, natural
from .series import PowerSeries

__all__ = [
    "DEFAULT_MAX_STATES",
    "MAX_TABLE_BYTES",
    "FeasibilityError",
    "WeightConfig",
    "WalkTable",
    "tree_weights",
    "build_table",
    "dp_row",
    "check_cost",
    "int_bytes",
    "mass_check",
    "step_bits",
    "table_guard",
]


class WeightConfig(Frozen):
    """Step weights: c1 per U, c2 per D off the axis, c3 per D landing on it.

    Exact (a float or a string is refused), built once and never changed,
    compared and hashed by (c1, c2, c3).  Whether the weights are a tree's is
    read off them (:attr:`m`), not stored.
    """

    __slots__ = ("c1", "c2", "c3")

    c1: Fraction
    c2: Fraction
    c3: Fraction

    def __new__(cls, c1: Rational, c2: Rational, c3: Rational) -> WeightConfig:
        return cls._new(c1=exact("weight c1", c1), c2=exact("weight c2", c2), c3=exact("weight c3", c3))

    @property
    def m(self) -> int | None:
        """The tree degree m if the weights are (1, m-1, m) for an integer m >= 1, else None."""
        c3 = self.c3
        return c3.numerator if self.c1 == 1 and c3 == self.c2 + 1 and c3.denominator == 1 and c3 >= 1 else None

    def _key(self) -> tuple:
        return self.c1, self.c2, self.c3

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"WeightConfig(c1={self.c1!r}, c2={self.c2!r}, c3={self.c3!r})"

    def describe(self) -> str:
        parts = ", ".join(format_number(c) for c in (self.c1, self.c2, self.c3))
        return f"({parts})" if self.m is None else f"({parts}) [m={self.m}]"


def tree_weights(m: int) -> WeightConfig:
    """Weights (1, m-1, m) for walks on the m-regular tree.

    m = 1 is accepted, by the table and the closed-form series alike: the
    1-regular tree is a single edge, and both are right only at its two
    vertices, i <= 1.  With c2 = 0 the entries for i >= 2 count lattice
    paths that have no tree vertex behind them (the tree has none there),
    so the CLI refuses m = 1 above distance 1.
    """
    natural("tree degree", m, 1)
    return WeightConfig(1, m - 1, m)


class FeasibilityError(RuntimeError):
    """A computation was refused because its estimated cost exceeds a ceiling."""


# Ceiling on the estimated memory of a dp table or a series computation.  An
# estimate charges every int the widest width, so a dp table at it holds ~2/3.
MAX_TABLE_BYTES = 1 << 30
# Default ceiling on the states (paths, edge moves, words) a brute-force oracle enumerates.
DEFAULT_MAX_STATES = 10_000_000


def check_cost(what: Callable[[], str], estimate: int | tuple[int, int], ceiling: int, unit: str) -> None:
    """The one refusal rule: refuse ``what()``, called only to word the refusal, if its estimated
    cost in ``unit`` is over ``ceiling``.  An estimate (base, exponent) is base^exponent, shown in
    that closed form and never evaluated once base >= 2 and exponent >= bit_length(ceiling)."""
    base, exponent = estimate if isinstance(estimate, tuple) else (estimate, 1)
    if base >= 2 and exponent >= ceiling.bit_length() or base**exponent > ceiling:
        shown = f"{base}^{exponent}" if isinstance(estimate, tuple) else estimate
        raise FeasibilityError(f"{what()} needs an estimated {shown} {unit}, exceeding the ceiling of {ceiling} {unit}")


def int_bytes(bits: int) -> int:
    """CPython's bytes for a ``bits``-bit int in a list: 4 per 30-bit digit, 24 of header, 8 of slot."""
    return 4 * (bits // 30 + 1) + 32


def _integers(weights: WeightConfig) -> tuple[int, int, int, int]:
    """D, the lcm of the weight denominators, and the integer weights a, b, c = D*c1, D*c2, D*c3."""
    scale = lcm(weights.c1.denominator, weights.c2.denominator, weights.c3.denominator)
    return (scale, *(w.numerator * (scale // w.denominator) for w in (weights.c1, weights.c2, weights.c3)))


def step_bits(weights: WeightConfig) -> tuple[int, int]:
    """Bits that one step adds, at most, to the numerator and to the
    denominator of an entry A(i, n).

    With a, b, c = D*c1, D*c2, D*c3, the scaled entry N(i, n) = A(i, n) * D^n
    is an integer with |N(i, n)| <= max(|a| + |b|, |c|)^n, and the
    denominator of A(i, n) divides D^n.
    """
    scale, *integers = _integers(weights)
    a, b, c = map(abs, integers)
    return max(a + b, c).bit_length(), scale.bit_length()


def table_guard(weights: WeightConfig, n_max: int) -> None:
    """Refuse, by :func:`check_cost`, a dp table of order n_max whose memory, estimated in closed
    form, is over ``MAX_TABLE_BYTES``.  There are sum(n // 2 + 1) = n_max^2 // 4 + n_max + 1
    reachable cells, and |N(i, n)| <= max(|a| + |b|, |c|)^n, so no entry is wider than
    n_max * bit_length(max(|a| + |b|, |c|)) bits (:func:`step_bits`), and each is charged the
    :func:`int_bytes` of that width.  A cut table holds fewer cells but is charged the same, so
    the estimate also bounds the work."""
    natural("n_max", n_max)
    cells = n_max * n_max // 4 + n_max + 1
    what = lambda: f"a dp table of order {n_max} for weights {weights.describe()}"
    check_cost(what, cells * int_bytes(n_max * step_bits(weights)[0]), MAX_TABLE_BYTES, "bytes")


class WalkTable(Frozen):
    """A(i, n) for 0 <= n <= n_max, stored as integers N(i, n) = A(i, n) * D^n.

    D is the lcm of the weight denominators.  ``columns[n][k]`` holds
    N(2k + n % 2, n): only the reachable cells i <= n with n - i even are
    stored, every other entry is exactly zero.  Built once, by
    :func:`build_table`; neither field is assigned again or deleted, and the
    columns are tuples, so no cell is set either.
    """

    __slots__ = ("weights", "columns")

    weights: WeightConfig
    columns: tuple[tuple[int, ...], ...]

    @property
    def n_max(self) -> int:
        return len(self.columns) - 1

    def count(self, i: int, n: int) -> Fraction:
        """A(i, n).  Unreachable i > n gives 0; n outside the table raises."""
        natural("i", i)
        natural("n", n)
        if n > self.n_max:
            raise IndexError(f"n={n} exceeds the table order n_max={self.n_max}")
        if i > n or (n - i) % 2:
            return Fraction(0)
        return Fraction(self.columns[n][i // 2], _integers(self.weights)[0] ** n)

    def row(self, i: int) -> PowerSeries:
        """d_i(t) to order n_max, the series :func:`dp_row` returns: the ints N(i, n), den 1, base D."""
        natural("i", i)
        row = [0] * (self.n_max + 1)
        row[i::2] = [column[i // 2] for column in self.columns[i::2]]
        return PowerSeries._graded(row, 1, _integers(self.weights)[0])

    def __repr__(self) -> str:
        return f"WalkTable(weights={self.weights.describe()}, n_max={self.n_max})"


def _factors(weights: WeightConfig) -> tuple[int, int, int, int]:
    """a, g, b // g and c // g, for the integer weights a, b, c = D*c1, D*c2, D*c3 and
    g = gcd(b, c), or g = 1 if b = c = 0."""
    _, a, b, c = _integers(weights)
    g = gcd(b, c) or 1
    return a, g, b // g, c // g


def _columns(weights: WeightConfig, n_max: int, bottom: int, top: int) -> Iterator[tuple[int, list[int]]]:
    """Yield the columns n = 0..n_max of the recurrence on integers M(i, n), each cut
    to the heights that can still reach a height in ``bottom``..``top`` by length
    n_max, that is bottom - (n_max - n) <= h <= top + (n_max - n).

    With the integer weights a, b, c = D*c1, D*c2, D*c3 a path of a cell (i, n),
    with u = (n+i)/2 up steps and d = (n-i)/2 down steps, j of them landing on
    the axis, has the poids a^u b^(d-j) c^j on the scale D^n.  All paths of the
    cell share a^u, and g^d with g = gcd(b, c) (1 if b = c = 0), so the loop
    sums M(i, n) = sum over those paths of (b/g)^(d-j) (c/g)^j, and
    N(i, n) = A(i, n) * D^n = a^u g^d M(i, n).  Since a step up adds one to u
    and a step down one to d, M(0, n) = (c/g)*M(1, n-1) and
    M(i, n) = M(i-1, n-1) + (b/g)*M(i+1, n-1).  Column n holds M(2k + n % 2, n)
    at index k - skip, yielded as (skip, column), where skip counts the cells
    cut from below, and reads column n-1, of the other parity: the cell i = 0
    (n even) has only the c-term and the top cell i = n only the term from
    below, because A(n+1, n-1) is unreachable.  Where column n-1 was cut, the
    cells past either cut of column n are not computed or are dropped.

    Before anything is computed, :func:`table_guard` runs.
    """
    table_guard(weights, n_max)
    _, _, b, c = _factors(weights)
    skip, column = 0, [1]
    for n in range(n_max + 1):
        parity = n % 2
        if n and column:
            prev = column
            column = [c * prev[0]] if parity == 0 and skip == 0 else []
            column += [x + b * y for x, y in zip(prev, prev[1:])]
            column.append(prev[-1])
            if parity == 0 and skip:
                skip += 1  # column n-1's heights 2(skip + j) + 1 lead to 2(skip + 1 + j)
        low = max(0, (bottom - (n_max - n) - parity + 1) // 2 - skip)
        del column[:low]
        skip += low
        del column[max(0, (top + (n_max - n) - parity) // 2 + 1 - skip) :]
        yield skip, column


def build_table(weights: WeightConfig, n_max: int) -> WalkTable:
    """Fill the whole table column by column in n, on the integers M(i, n) of :func:`_columns`,
    then scale each column in place to N(i, n) = a^u g^d M(i, n), from lists of the powers of a
    and g; at a = g = 1, as at every tree weight, the cells are stored as they are."""
    columns = [tuple(column) for _, column in _columns(weights, n_max, 0, n_max)]
    a, g, _, _ = _factors(weights)
    if a != 1 or g != 1:
        a_powers = list(accumulate(repeat(a, n_max), mul, initial=1))
        g_powers = list(accumulate(repeat(g, n_max // 2), mul, initial=1))
        for n, column in enumerate(columns):
            # the cell k of column n is at height 2k + n % 2: u = (n + 1) // 2 + k, d = n // 2 - k
            columns[n] = tuple(x * a_powers[(n + 1) // 2 + k] * g_powers[n // 2 - k] for k, x in enumerate(column))
    return WalkTable._new(weights=weights, columns=tuple(columns))


def dp_row(weights: WeightConfig, i: int, n_max: int) -> PowerSeries:
    """d_i(t) = sum_n A(i, n) t^n to order n_max, holding one column and the row.

    The same loop as :func:`build_table`, under the same guard, with each
    column cut to the heights that can still reach i by length n_max, from
    above and from below.  Each M(i, n) is scaled back to
    N(i, n) = A(i, n) * D^n = a^u g^d M(i, n) as it is read: by a^i at n = i,
    and by one more a*g every two lengths.  The row N(i, n) (0 off parity) is
    the series' graded ints as it stands: den 1, base D.
    """
    natural("i", i)
    a, g, _, _ = _factors(weights)
    row, scale = [], 1
    for n, (skip, column) in enumerate(_columns(weights, n_max, i, i)):
        on_row = n >= i and (n - i) % 2 == 0
        if n == i:
            scale = a**i  # only once the guard, run as the first column is made, has passed
        elif on_row:
            scale *= a * g
        row.append(column[i // 2 - skip] * scale if on_row else 0)
    return PowerSeries._graded(row, 1, _integers(weights)[0])


def mass_check(table: WalkTable, n: int) -> tuple[Fraction, ...]:
    """The coefficients, lowest first, of sum_i A(i, n) * w_i(x); they are
    those of x^n whenever c1 != 0, since w, with w_0 = 1, w_1 = x/c1,
    w_2 = (x*w_1 - c3)/c1 and w_(k+1) = (x*w_k - c2*w_(k-1))/c1, is an
    eigenvector of one step (Flajolet, Discrete Math. 32, 1980).  At tree
    weights w_i(m) = V_m(i), so the value at x = m is m^n.  Summed on the
    ints N(i, n) * a^(n-i) over the monic W_i(D*x) = a^i * w_i(x), a = D*c1.
    """
    # D and a, b, c are read off the weights here, not through _integers, so the identity also checks
    # the table against the weights and not only against dp's own scaling of them
    c1, c2, c3 = table.weights.c1, table.weights.c2, table.weights.c3
    scale = lcm(c1.denominator, c2.denominator, c3.denominator)
    a, b, c = ((w * scale).numerator for w in (c1, c2, c3))
    if a == 0:
        raise ValueError("the identity divides by c1, which is 0")
    natural("n", n)
    if n > table.n_max:
        raise IndexError(f"n={n} outside the table order n_max={table.n_max}")
    # W_(k+1) = z*W_k - beta_k*W_(k-1) at z = D*x, beta_1 = a*c, beta_k = a*b (k >= 2); Clenshaw's
    # B_k = N(k, n)*a^(n-k) + z*B_(k+1) - beta_(k+1)*B_(k+2), held as [z^(n-k-2j)] B_k, j >= 0
    after, last = [], []
    for k in range(n, -1, -1):
        beta = a * c if k == 0 else a * b
        last, after = [x - beta * y for x, y in zip(last + [0], [0] + after)], last
        if (n - k) % 2 == 0:
            last[-1] += table.columns[n][k // 2] * a ** (n - k)
    coeffs = [Fraction(0)] * (n + 1)
    for j, value in enumerate(last):
        if value:
            coeffs[n - 2 * j] = Fraction(value, a**n * scale ** (2 * j))
    return tuple(coeffs)
