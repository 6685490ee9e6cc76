"""Reference tree walk: the explicit tree that the tree oracle's breadth-first
numbering is checked against, and the from-scratch walk on it that the
per-degree memo of ``treewalks.oracles`` replaced, kept so tests can compare
every answer of the memo, in any order of requests, against a walk run for
that length alone.

:func:`ball` builds the depth-n ball of the m-regular tree breadth first as a
parent list; :func:`walk_from_scratch` then moves every count along each edge
(v, parent[v]), down and up, n times.  Before step k + 1 no walk is farther
than k from the root, so the step only needs the edges inside the
depth-(k + 1) ball.
"""

from __future__ import annotations

__all__ = ["ball", "walk_from_scratch"]


def ball(m: int, depth: int) -> tuple[list[int | None], list[range]]:
    """The m-regular tree out to ``depth``, numbered breadth first.

    The root has m children and every deeper internal vertex has m-1, so
    each vertex has degree m once its parent is counted.  ``parent[v]`` is
    the parent of v (``None`` for the root 0), and ``levels[d]`` is the
    range of vertices at distance d.  The edges are the pairs (v, parent[v])
    for v >= 1.
    """
    parent: list[int | None] = [None]
    levels = [range(1)]
    for _ in range(depth):
        start = len(parent)
        for v in levels[-1]:
            parent.extend([v] * (m if v == 0 else m - 1))
        levels.append(range(start, len(parent)))
    return parent, levels


def walk_from_scratch(m: int, n: int) -> tuple[list[range], tuple[int, ...]]:
    """The levels of the depth-n ball and the length-n walk counts from its root to each vertex."""
    parent, levels = ball(m, n)
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
