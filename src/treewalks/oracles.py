"""Brute-force ground truth: exhaustive enumerators kept too simple to be wrong.

Three independent oracles cross-check the recurrence table and the series
coefficients:

* weighted Dyck paths, by filtering all 2^n step sequences;
* walks on an explicitly built truncated tree, given by its parent list,
  by moving a count distribution along every edge one step at a time;
* products of free-group generators, by enumerating all (2g)^n words and
  freely reducing each one.

Each enumeration refuses inputs whose state space exceeds ``max_states``
(default 10^7), at once at any size and before enumerating anything: these
are desk-scale verification tools, not production counters.  The state
count of each (for the tree, its edge moves) lives in its guard
(``dyck_guard``, ``tree_guard``, ``free_group_guard``, which callers may
also run ahead of a batch), and :func:`treewalks.recurrence.check_cost`
raises the :class:`FeasibilityError`.

Each oracle counts on ints: the Dyck paths by end height and by down-steps
landing on the axis (the weights are applied to those tallies afterwards), the
tree walks by end vertex, and the free-group words by their reduction.  The
path and word oracles memoize only the length they last enumerated; the tree
oracle keeps, for the degree it last walked, the ball and its counts at the
last length, and a longer length advances them from there.  Callers ask
length by length, so every later height, weight or target word of a length is
a cache hit, and a run up to length n walks each step once.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .recurrence import FeasibilityError, WeightConfig, check_cost

__all__ = [
    "DEFAULT_MAX_STATES",
    "FeasibilityError",
    "TruncatedTree",
    "dyck_guard",
    "enumerate_dyck",
    "tree_guard",
    "tree_walk_count",
    "tree_walk_distribution",
    "reduce_word",
    "free_group_guard",
    "free_group_count",
]

DEFAULT_MAX_STATES = 10_000_000


@lru_cache(maxsize=1)
def _paths_by_end(n: int) -> Counter[tuple[int, int]]:
    """Number of valid length-n paths, keyed by (final height, down-steps
    landing on the axis)."""
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


def dyck_guard(n: int, max_states: int = DEFAULT_MAX_STATES) -> None:
    """Refuse length-n path enumeration over ``max_states`` step sequences (2^n)."""
    check_cost(lambda: f"the length-{n} path enumeration", (2, n), max_states, "step sequences")


def enumerate_dyck(
    weights: WeightConfig, i: int, n: int, max_states: int = DEFAULT_MAX_STATES
) -> Fraction:
    """Poids-sum over all valid length-n paths ending at height i.

    Iterates over all 2^n step sequences and filters, on purpose: the point
    of this oracle is independence from any counting cleverness under test.
    The paths are tallied on ints by end height and by the number j of
    down-steps landing on the axis.  A path ending at height i has
    (n + i)/2 up-steps and (n - i)/2 down-steps, so its poids is
    c1^((n+i)/2) * c2^((n-i)/2 - j) * c3^j, and the weights are applied
    once per tally key instead of once per step.
    """
    if i < 0 or n < 0:
        raise ValueError("height and length must be non-negative")
    dyck_guard(n, max_states)
    c1, c2, c3 = weights.c1, weights.c2, weights.c3
    ups, downs = (n + i) // 2, (n - i) // 2
    total = Fraction(0)
    for (height, j), count in _paths_by_end(n).items():
        if height == i:
            total += count * c1**ups * c2 ** (downs - j) * c3**j
    return total


class TruncatedTree:
    """The m-regular tree out to a depth, given by its parent list.

    The root has m children and every deeper internal vertex has m-1, so
    each vertex has degree m once its parent is counted.  Vertices are
    numbered breadth first: ``parent[v]`` is the parent of v (``None`` for
    the root 0), and ``levels[d]`` is the range of vertices at distance d.
    The edges are the pairs (v, parent[v]) for v >= 1.  :meth:`grow` adds
    the next level in place, and the constructor grows the bare root
    ``depth`` times.
    """

    def __init__(self, m: int, depth: int):
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"tree degree must be an integer >= 1, got {m!r}")
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.m = m
        self.depth = 0
        self.parent: list[int | None] = [None]
        self.levels: list[range] = [range(1)]
        for _ in range(depth):
            self.grow()

    def grow(self) -> None:
        """Add the vertices at distance depth + 1, the children of the deepest level."""
        start = len(self.parent)
        for v in self.levels[-1]:
            fanout = self.m if v == 0 else self.m - 1
            self.parent.extend([v] * fanout)
        self.levels.append(range(start, len(self.parent)))
        self.depth += 1

    def vertex_count(self) -> int:
        return len(self.parent)


@lru_cache(maxsize=1)
def _walks_from_root(m: int) -> list:
    """The memo of one degree, [tree, counts]: the ball the walks have reached
    and the number of length-``tree.depth`` walks from the root to each of its
    vertices.  It starts at length 0 and :func:`_walk` advances it."""
    return [TruncatedTree(m, 0), [1]]


def _walk(m: int, n: int, max_states: int) -> tuple[TruncatedTree, list[int]]:
    """Counts of length-n walks from the root to every vertex of the depth-n
    ball, after :func:`tree_guard`.

    Advances the memo of degree m from its length, or from the root when n is
    shorter.  Step k + 1 first grows the depth-(k + 1) ball, the farthest a
    walk can then reach, and then moves every walk along each of its edges
    (v, parent[v]), down and up.
    """
    tree_guard(m, n, max_states)
    memo = _walks_from_root(m)
    if n < memo[0].depth:
        memo[:] = TruncatedTree(m, 0), [1]
    tree, counts = memo
    parent = tree.parent
    while tree.depth < n:
        tree.grow()
        counts += [0] * (len(parent) - len(counts))
        fresh = [0] * len(parent)
        for v in range(1, len(parent)):
            p = parent[v]
            fresh[v] += counts[p]
            fresh[p] += counts[v]
        counts = memo[1] = fresh
    return tree, counts


def tree_guard(m: int, n: int, max_states: int = DEFAULT_MAX_STATES) -> None:
    """Refuse walking to length n on the m-regular tree if it moves counts along more than
    ``max_states`` edges.  Step k covers the depth-k ball, |ball_k| - 1 edges, so a run from
    length 0 makes sum_{k=1..n} (|ball_k| - 1) edge moves: n at m = 1, n(n+1) at m = 2, and
    m((m-1)((m-1)^n - 1)/(m-2) - n)/(m-2) at m >= 3, within a factor (m-1)/(m-2) of the
    depth-n ball.  At m >= 3 and n >= 1 the run is refused on the lower bound (m-1)^n of its
    last step's moves, uncounted, when that is over."""
    what = lambda: f"walking to length {n} on the {m}-regular tree"
    if m >= 3:
        if n:
            check_cost(what, (m - 1, n), max_states, "edge moves")
        moves = m * ((m - 1) * ((m - 1) ** n - 1) // (m - 2) - n) // (m - 2)
    else:
        moves = n * (n + 1) if m == 2 else n
    check_cost(what, moves, max_states, "edge moves")


def tree_walk_count(m: int, i: int, n: int, max_states: int = DEFAULT_MAX_STATES) -> int:
    """Number of length-n walks on the m-regular tree from the root to one
    fixed vertex at distance i (the first-built vertex of that level; the
    count is the same at every vertex of the level, a symmetry the test
    suite spot-checks).

    The tree is built out to depth n, which loses nothing: no length-n walk
    leaves that ball.  The memo of the degree last walked keeps the ball and
    its counts at the last length asked for, so asking the lengths in
    increasing order walks each step once.
    """
    if i < 0 or n < 0:
        raise ValueError("distance and length must be non-negative")
    if i > n:
        return 0
    tree, counts = _walk(m, n, max_states)
    if not tree.levels[i]:
        return 0
    return counts[tree.levels[i][0]]


def tree_walk_distribution(
    m: int, n: int, max_states: int = DEFAULT_MAX_STATES
) -> tuple[TruncatedTree, tuple[int, ...]]:
    """The full end-vertex count distribution after n steps, with its own
    depth-n tree, which later requests leave as it is."""
    if n < 0:
        raise ValueError("length must be non-negative")
    counts = tuple(_walk(m, n, max_states)[1])
    return TruncatedTree(m, n), counts


def reduce_word(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a word over generators +k and inverses -k.

    Stack discipline: push each letter, pop when it cancels the letter on
    top.  The result has no adjacent cancelling pair and reducing again is
    a no-op.
    """
    stack: list[int] = []
    for x in letters:
        if not isinstance(x, int) or x == 0:
            raise ValueError(f"letters are nonzero integers +-k, got {x!r}")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


@lru_cache(maxsize=1)
def _reductions(g: int, n: int) -> Counter[tuple[int, ...]]:
    """How many of the (2g)^n words of length n reduce to each reduced word."""
    alphabet = tuple(range(1, g + 1)) + tuple(range(-1, -g - 1, -1))
    return Counter(reduce_word(word) for word in itertools.product(alphabet, repeat=n))


def free_group_guard(g: int, n: int, max_states: int = DEFAULT_MAX_STATES) -> None:
    """Refuse enumerating the (2g)^n words of length n over ``max_states``."""
    check_cost(lambda: f"the length-{n} word enumeration over {g} generators", (2 * g, n), max_states, "words")


def free_group_count(
    g: int, target: Sequence[int], n: int, max_states: int = DEFAULT_MAX_STATES
) -> int:
    """Number of length-n products of the 2g generators/inverses of the free
    group on g letters whose free reduction equals ``target``.

    Equals the walk count A_{2g}(len(target), n) on the 2g-regular tree, for
    any choice of reduced target of that length; the test suite checks the
    word-choice independence empirically.
    """
    if not isinstance(g, int) or g < 1:
        raise ValueError(f"need at least one generator, got g={g!r}")
    if n < 0:
        raise ValueError("length must be non-negative")
    target = tuple(target)
    for x in target:
        if not isinstance(x, int) or x == 0 or abs(x) > g:
            raise ValueError(f"target letter {x!r} outside the +-1..+-{g} alphabet")
    if reduce_word(target) != target:
        raise ValueError(f"target word {target!r} is not reduced")
    free_group_guard(g, n, max_states)
    return _reductions(g, n)[target]
