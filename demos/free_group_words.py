"""Walks on even-degree trees are products in a free group.

The 2g-regular tree is the Cayley graph of the free group on g generators,
so the number of length-n generator products that reduce to a given word
of length i equals the walk count A_{2g}(i, n), whichever reduced word of
that length you pick.
"""

from treewalks import build_table, free_group_count, tree_weights

# A product reduces by cancelling adjacent x, 1/x (letters +k, -k), and its
# reduced word is the vertex of the Cayley tree where its walk ends.
print("g=2, length-3 products reducing to each one-letter word:")
print("  ", {letter: free_group_count(2, (letter,), 3) for letter in (1, -1, 2, -2)})
print("   walks to distance 1:", int(build_table(tree_weights(4), 3).count(1, 3)))

# g = 1: words over x and 1/x, i.e. walks on the integer line.
table = build_table(tree_weights(2), 8)
print("\ng=1, products reducing to the empty word:")
print("  count:", [free_group_count(1, (), n) for n in range(0, 9, 2)])
print("  walks:", [int(table.count(0, n)) for n in range(0, 9, 2)])

# g = 2: the 4-regular tree.  The target word's spelling is irrelevant,
# only its length matters.
table = build_table(tree_weights(4), 6)
for target in ((1, 2), (2, -1)):
    counts = [free_group_count(2, target, n) for n in range(2, 7, 2)]
    print(f"\ng=2, products reducing to {target}: {counts}")
print("walks to distance 2:", [int(table.count(2, n)) for n in range(2, 7, 2)])
