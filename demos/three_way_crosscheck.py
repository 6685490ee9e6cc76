"""Three independent computations of the same numbers, compared exactly.

The recurrence table, the generating-function coefficients, and a
brute-force sweep over the step sequences have nothing in common but
the answer; any bug in one shows up as a mismatch against the others.
"""

from treewalks import (
    WeightConfig,
    build_table,
    enumerate_dyck,
    poids_gf,
    tree_walk_count,
    tree_weights,
)

w = WeightConfig(2, 1, 5)
n_max = 12
table = build_table(w, n_max)

print(f"weights {w.describe()}, all heights, n <= {n_max}:")
mismatches = 0
for i in range(n_max + 1):
    series = poids_gf(w, i, n_max)
    for n in range(n_max + 1):
        dp = table.count(i, n)
        gf = series[n]
        brute = enumerate_dyck(w, i, n)
        if not (dp == gf == brute):
            mismatches += 1
            print(f"  MISMATCH at i={i} n={n}: dp={dp} gf={gf} enum={brute}")
print(f"  {(n_max + 1) ** 2} cells compared, {mismatches} mismatches")

# For tree weights there is a fourth method: the breadth-first tree oracle,
# which moves walk counts over the tree's vertices numbered breadth first.
m = 3
table = build_table(tree_weights(m), 8)
print(f"\ndegree-{m} tree vs. the breadth-first tree oracle, n <= 8:")
agree = all(
    tree_walk_count(m, i, n) == table.count(i, n) for n in range(9) for i in range(n + 1)
)
print("  all cells agree:", agree)
