"""Reference path tally: the per-sequence filter that the prefix-sharing
stream of ``treewalks.oracles`` replaced, kept so tests can compare the two.

It walks each of the 2^n U/D step sequences on its own, from height 0,
drops it at its first step below the axis, and tallies the survivors by
final height and by down-steps landing on the axis.
"""

from __future__ import annotations

import itertools
from collections import Counter

__all__ = ["paths_by_end_per_sequence"]


def paths_by_end_per_sequence(n: int) -> Counter[tuple[int, int]]:
    """Number of valid length-n paths, keyed by (final height, down-steps landing on the axis)."""
    tally: Counter[tuple[int, int]] = Counter()
    for steps in itertools.product("UD", repeat=n):
        height = returns = 0
        for step in steps:
            if step == "U":
                height += 1
            else:
                height -= 1
                if height < 0:
                    break
                if height == 0:
                    returns += 1
        else:
            tally[height, returns] += 1
    return tally
