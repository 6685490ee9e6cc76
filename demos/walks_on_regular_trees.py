"""Counting walks on regular trees.

In the infinite tree where every vertex has exactly m neighbors, how many
length-n walks start at a fixed vertex and end at a fixed vertex at
distance i?  Two exact answers that always agree: a dynamic-programming
table and coefficient extraction from a closed-form generating function.
"""

from treewalks import build_table, mass_check, tree_gf, tree_weights

# The m = 2 tree is the integer line: returning walks are counted by the
# central binomial coefficients C(2n, n).
table = build_table(tree_weights(2), 12)
print("walks on the integer line returning to the start:")
print("  ", [int(table.count(0, 2 * n)) for n in range(7)])

# Degree 3: the OEIS sequence A089022.
table = build_table(tree_weights(3), 12)
print("degree-3 tree, returning walks:")
print("  ", [int(table.count(0, 2 * n)) for n in range(7)])

# The same numbers drop out of McKay's closed form
#   (1 - m(m-1) t L(t)) / (1 - m^2 t^2),  L(t) = t * sum_k Cat_k (m-1)^k t^(2k),
# expanded as an exact power series.
series = tree_gf(3, 0, 12)
print("same sequence from the closed form:")
print("  ", [int(series[2 * n]) for n in range(7)])

# Walks that end one step away from home (odd lengths only).
series = tree_gf(3, 1, 9)
print("degree-3 tree, ending at distance 1:")
print("  ", [int(series[2 * n + 1]) for n in range(5)])

# Sanity: summing over all possible endpoints, weighted by how many
# vertices sit at each distance, must give exactly m^n.  mass_check returns
# the coefficients of sum_i A(i, n) w_i(x), which is x^n for any weights;
# at tree weights w_i(m) is the number of vertices at distance i.
table = build_table(tree_weights(4), 10)
print("mass check on the degree-4 tree:")
for n in (0, 5, 10):
    total = sum(c * 4**k for k, c in enumerate(mass_check(table, n)))
    print(f"   n={n}: sum = {total} = 4^{n}")
