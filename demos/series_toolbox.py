"""The exact power-series toolbox underneath the generating functions.

Everything is a truncated series with exact rational coefficients, stored
as integers graded by a base and read back as Fractions; inverse and
square root are solved coefficient by coefficient, and division by powers
of t demands exact divisibility instead of taking limits.
"""

from treewalks import PowerSeries

# Geometric series: 1/(1 - t).
geom = PowerSeries([1, -1, 0, 0, 0, 0]).inverse()
print("1/(1-t)      =", geom)

# The square root that powers the closed forms.
radicand = PowerSeries([1, 0, -4, 0, 0, 0, 0, 0, 0])
s = radicand.sqrt()
print("sqrt(1-4t^2) =", s)
assert s * s == radicand

# (1 - sqrt(1-4t^2)) / (2t^2) is the Catalan generating function in t^2;
# shift_div checks the low coefficients really are zero before shifting.
catalan = (PowerSeries.one(8) - s).shift_div(2) / 2
print("catalan(t^2) =", catalan)

# Exactness means identities hold on the nose, not approximately.
f = PowerSeries([1, 2, 3, 4, 5])
assert f * f.inverse() == PowerSeries.one(4)
print("f * 1/f      =", f * f.inverse())

# Refusals are loud: a series with a nonzero constant term has no t-divisor.
try:
    PowerSeries([1, 1]).shift_div(1)
except ValueError as exc:
    print("shift_div refused:", exc)
