"""Walk-count tables from the three-clause recurrence.

The table A(i, n) solves

    A(i, 0) = 1 if i == 0 else 0
    A(0, n) = c3 * A(1, n-1)                          for n >= 1
    A(i, n) = c1 * A(i-1, n-1) + c2 * A(i+1, n-1)     for i >= 1, n >= 1

For general weights, A(i, n) is the poids-sum over nonnegative U/D lattice
paths of length n ending at height i (see :mod:`treewalks.oracles` for the
path vocabulary).  For the specialization (c1, c2, c3) = (1, m-1, m) it
counts length-n walks on the m-regular tree that end at a fixed vertex at
distance i from the start: such a vertex has one neighbor closer to the
start and m-1 neighbors farther, except the start itself whose m neighbors
are all at distance 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import Rational, format_number

__all__ = ["WeightConfig", "WalkTable", "tree_weights", "build_table", "mass_check"]


@dataclass(frozen=True)
class WeightConfig:
    """Step weights: c1 per U, c2 per D off the axis, c3 per D landing on it.

    ``m`` tags the m-regular-tree specialization and is validated against
    the weights, not trusted.
    """

    c1: Fraction
    c2: Fraction
    c3: Fraction
    m: int | None = None

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3"):
            value = getattr(self, name)
            if isinstance(value, float):
                raise TypeError(f"weight {name}={value!r} is a float; weights must be exact")
            object.__setattr__(self, name, Fraction(value))
        if self.m is not None:
            if not isinstance(self.m, int) or self.m < 1:
                raise ValueError(f"tree degree must be an integer >= 1, got {self.m!r}")
            expected = (Fraction(1), Fraction(self.m - 1), Fraction(self.m))
            if (self.c1, self.c2, self.c3) != expected:
                raise ValueError(
                    f"weights ({self.c1}, {self.c2}, {self.c3}) are not the "
                    f"degree-{self.m} tree specialization (1, m-1, m)"
                )

    def describe(self) -> str:
        parts = ", ".join(format_number(c) for c in (self.c1, self.c2, self.c3))
        return f"({parts})" if self.m is None else f"({parts}) [m={self.m}]"


def tree_weights(m: int) -> WeightConfig:
    """Weights (1, m-1, m) for walks on the m-regular tree.

    m = 1 is accepted (a single edge; the recurrence still applies) even
    though the closed-form series route rejects it.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"tree degree must be an integer >= 1, got {m!r}")
    return WeightConfig(Fraction(1), Fraction(m - 1), Fraction(m), m=m)


class WalkTable:
    """Dense square of A(i, n) values for 0 <= i, n <= n_max.

    Entries with i > n (or with n - i odd) are exactly zero; the square is
    kept anyway for clarity at desk scale.  Built by :func:`build_table`.
    """

    def __init__(self, weights: WeightConfig, n_max: int, rows: list[list[Fraction]]):
        self.weights = weights
        self.n_max = n_max
        self._rows = rows

    def count(self, i: int, n: int) -> Fraction:
        """A(i, n).  Unreachable i > n gives 0; n outside the table raises."""
        if i < 0 or n < 0:
            raise ValueError("indices must be non-negative")
        if n > self.n_max:
            raise IndexError(f"n={n} exceeds the table order n_max={self.n_max}")
        if i > n:
            return Fraction(0)
        return self._rows[i][n]

    def row(self, i: int) -> tuple[Fraction, ...]:
        """All of A(i, 0..n_max)."""
        if not 0 <= i <= self.n_max:
            raise IndexError(f"i={i} outside 0..{self.n_max}")
        return tuple(self._rows[i])

    def to_json_dict(self) -> dict:
        """JSON-ready export; every number is a decimal string."""
        weights: dict[str, object] = {
            "c1": format_number(self.weights.c1),
            "c2": format_number(self.weights.c2),
            "c3": format_number(self.weights.c3),
        }
        if self.weights.m is not None:
            weights["m"] = str(self.weights.m)
        return {
            "weights": weights,
            "n_max": self.n_max,
            "entries": [[format_number(v) for v in row] for row in self._rows],
        }

    def __repr__(self) -> str:
        return f"WalkTable(weights={self.weights.describe()}, n_max={self.n_max})"


def build_table(weights: WeightConfig, n_max: int) -> WalkTable:
    """Fill the table column by column in n.

    The top row i = n_max never needs A(n_max+1, n-1): that entry is zero
    because n_max+1 > n-1 is unreachable, and the code treats it so
    explicitly rather than reading padding.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    size = n_max + 1
    zero = Fraction(0)
    rows = [[zero] * size for _ in range(size)]
    rows[0][0] = Fraction(1)
    for n in range(1, size):
        prev = n - 1
        rows[0][n] = weights.c3 * rows[1][prev]
        for i in range(1, size):
            acc = weights.c1 * rows[i - 1][prev]
            if i + 1 < size:
                acc += weights.c2 * rows[i + 1][prev]
            rows[i][n] = acc
    if weights.m is not None and not all(v.denominator == 1 and v >= 0 for row in rows for v in row):
        raise ArithmeticError("tree walk counts must be non-negative integers")
    return WalkTable(weights, n_max, rows)


def mass_check(m: int, n: int, table: WalkTable) -> Fraction:
    """Total walks of length n from the root: sum of V_m(i) * A_m(i, n).

    V_m(i) is the number of vertices at distance i (1 for i = 0, then
    m*(m-1)^(i-1)).  Every step of a walk has m choices, so the sum equals
    m^n exactly; callers assert that identity.
    """
    if not isinstance(m, int) or m < 2:
        raise ValueError("mass check needs a tree degree m >= 2")
    if table.weights.m != m:
        raise ValueError(
            f"table was built for weights {table.weights.describe()}, not tree degree {m}"
        )
    if not 0 <= n <= table.n_max:
        raise IndexError(f"n={n} outside the table order n_max={table.n_max}")
    total = Fraction(0)
    vertices = 1
    for i in range(n + 1):
        if i == 1:
            vertices = m
        elif i > 1:
            vertices *= m - 1
        total += vertices * table.count(i, n)
    return total
