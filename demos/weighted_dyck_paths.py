"""Weighted Dyck paths and the two weightings that drive everything.

A path takes U = (+1,+1) and D = (+1,-1) steps and never dips below the
x-axis.  Its weight multiplies c1 per U and c2 per D; its poids swaps in
c3 for every D that lands on the axis.  The poids-sum A(i, n) over all
length-n paths ending at height i is computed here three ways: by
enumerating every step sequence, by the recurrence table, and from the
generating function.
"""

from fractions import Fraction

from treewalks import WeightConfig, build_table, enumerate_dyck, poids_gf

w = WeightConfig(c1=1, c2=2, c3=3)

# Brute force against the recurrence: enumerate_dyck filters all step
# sequences and tallies the paths that never dip below the axis.
table = build_table(w, 10)
print("poids-sums by enumeration and by the recurrence:")
for i, n in ((0, 2), (0, 4), (1, 5), (2, 6), (0, 10)):
    enum = enumerate_dyck(w, i, n)
    print(f"  A({i}, {n:2d}): enum={enum}  dp={table.count(i, n)}")
    assert enum == table.count(i, n)

# The poids-sums A(i, n) over all length-n paths ending at height i obey
#   A(0, n) = c3 * A(1, n-1)
#   A(i, n) = c1 * A(i-1, n-1) + c2 * A(i+1, n-1)
# and the table agrees with the generating function d(t) * (c1*t*a(t))^i.
print("\npoids-sums ending on the axis (even lengths):")
print("  dp:", [str(table.count(0, 2 * n)) for n in range(6)])
series = poids_gf(w, 0, 10)
print("  gf:", [str(series[2 * n]) for n in range(6)])

# Rational weights are fine: the engine never leaves exact arithmetic.
half = WeightConfig(1, Fraction(1, 2), 2)
table = build_table(half, 8)
print("\nweights (1, 1/2, 2), ending at height 2:")
print("  ", [str(table.count(2, n)) for n in range(9)])
