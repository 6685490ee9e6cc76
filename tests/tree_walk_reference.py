"""Reference tree walk: the from-scratch walk that the per-degree memo of
``treewalks.oracles`` replaced, kept so tests can compare every answer of
the memo, in any order of requests, against a walk run for that length alone.

It builds the depth-n ball of the m-regular tree breadth first as a parent
list, then moves every count along each edge (v, parent[v]), down and up,
n times.  Before step k + 1 no walk is farther than k from the root, so the
step only needs the edges inside the depth-(k + 1) ball.
"""

from __future__ import annotations

__all__ = ["walk_from_scratch"]


def walk_from_scratch(m: int, n: int) -> tuple[list[range], tuple[int, ...]]:
    """The levels of the depth-n ball and the length-n walk counts from its root to each vertex."""
    parent: list[int | None] = [None]
    levels = [range(1)]
    for _ in range(n):
        start = len(parent)
        for v in levels[-1]:
            fanout = m if v == 0 else m - 1
            parent.extend([v] * fanout)
        levels.append(range(start, len(parent)))
    counts = [0] * len(parent)
    counts[0] = 1
    for step in range(n):
        fresh = [0] * len(counts)
        for v in range(1, levels[step + 1].stop):
            p = parent[v]
            fresh[v] += counts[p]
            fresh[p] += counts[v]
        counts = fresh
    return levels, tuple(counts)
