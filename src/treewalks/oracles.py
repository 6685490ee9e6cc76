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
count of each lives in its guard (``dyck_guard``, ``tree_guard``,
``free_group_guard``, which callers may also run ahead of a batch), and
:func:`treewalks.recurrence.check_cost` raises the :class:`FeasibilityError`.

Each oracle memoizes only the length it last enumerated, and counts on ints
there: the Dyck paths by end height and by down-steps landing on the axis
(the weights are applied to those tallies afterwards), the tree walks by end
vertex, and the free-group words by their reduction.  Callers ask length by
length, so every later height, weight or target word of that length is a
cache hit.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .recurrence import FeasibilityError, WeightConfig, check_cost

__all__ = [
    "DEFAULT_MAX_STATES",
    "FeasibilityError",
    "LatticePath",
    "TruncatedTree",
    "weight_and_poids",
    "irreducible_components",
    "dyck_guard",
    "enumerate_dyck",
    "tree_guard",
    "tree_walk_count",
    "tree_walk_distribution",
    "reduce_word",
    "is_reduced",
    "free_group_guard",
    "free_group_count",
]

DEFAULT_MAX_STATES = 10_000_000


@dataclass(frozen=True)
class LatticePath:
    """A U/D step sequence whose running height never goes negative."""

    steps: str

    def __post_init__(self) -> None:
        height = 0
        for k, step in enumerate(self.steps):
            if step == "U":
                height += 1
            elif step == "D":
                height -= 1
            else:
                raise ValueError(f"step {k} is {step!r}; only 'U' and 'D' are allowed")
            if height < 0:
                raise ValueError(f"path {self.steps!r} dips below the x-axis after step {k}")

    def __len__(self) -> int:
        return len(self.steps)

    def heights(self) -> list[int]:
        """Height after each step (length == number of steps)."""
        out = []
        height = 0
        for step in self.steps:
            height += 1 if step == "U" else -1
            out.append(height)
        return out

    @property
    def final_height(self) -> int:
        return self.steps.count("U") - self.steps.count("D")


def weight_and_poids(path: LatticePath, weights: WeightConfig) -> tuple[Fraction, Fraction]:
    """(weight, poids) of a path: c1 per U; c2 per D, or c3 when the D lands
    at height 0.  The t-exponent is implicit in the path length."""
    weight = Fraction(1)
    poids = Fraction(1)
    height = 0
    for step in path.steps:
        if step == "U":
            height += 1
            weight *= weights.c1
            poids *= weights.c1
        else:
            height -= 1
            weight *= weights.c2
            poids *= weights.c3 if height == 0 else weights.c2
    return weight, poids


def irreducible_components(path: LatticePath) -> list[LatticePath]:
    """Split an axis-ending path at its returns to height 0.

    Each component starts and ends on the axis and stays strictly above it
    in between; their concatenation is the original path.
    """
    if path.final_height != 0:
        raise ValueError(f"path {path.steps!r} ends at height {path.final_height}, not 0")
    components = []
    height = 0
    start = 0
    for k, step in enumerate(path.steps):
        height += 1 if step == "U" else -1
        if height == 0:
            components.append(LatticePath(path.steps[start : k + 1]))
            start = k + 1
    return components


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
    """The m-regular tree out to a fixed depth, given by its parent list.

    The root has m children and every deeper internal vertex has m-1, so
    each vertex has degree m once its parent is counted.  Vertices are
    numbered breadth first: ``parent[v]`` is the parent of v (``None`` for
    the root 0), and ``levels[d]`` is the range of vertices at distance d.
    The edges are the pairs (v, parent[v]) for v >= 1.
    """

    def __init__(self, m: int, depth: int):
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"tree degree must be an integer >= 1, got {m!r}")
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.m = m
        self.depth = depth
        self.parent: list[int | None] = [None]
        self.levels: list[range] = [range(1)]
        for _ in range(depth):
            start = len(self.parent)
            for v in self.levels[-1]:
                fanout = m if v == 0 else m - 1
                self.parent.extend([v] * fanout)
            self.levels.append(range(start, len(self.parent)))

    def vertex_count(self) -> int:
        return len(self.parent)


@lru_cache(maxsize=1)
def _tree_distribution(m: int, n: int) -> tuple[TruncatedTree, tuple[int, ...]]:
    """Counts of length-n walks from the root to every vertex.

    A step moves every walk along one edge (v, parent[v]), down or up.
    Before step k + 1 no walk is farther than k from the root, so the step
    only needs the edges inside the depth-(k + 1) ball, v < levels[k + 1].stop.
    """
    tree = TruncatedTree(m, n)
    parent = tree.parent
    counts = [0] * tree.vertex_count()
    counts[0] = 1
    for step in range(n):
        fresh = [0] * len(counts)
        for v in range(1, tree.levels[step + 1].stop):
            p = parent[v]
            fresh[v] += counts[p]
            fresh[p] += counts[v]
        counts = fresh
    return tree, tuple(counts)


def tree_guard(m: int, n: int, max_states: int = DEFAULT_MAX_STATES) -> None:
    """Refuse the depth-n ball of the m-regular tree if it has more than ``max_states`` vertices:
    1 + m + m(m-1) + ... + m(m-1)^(n-1), or (m(m-1)^n - 2)/(m-2) for m >= 3, which is within a
    factor m/(m-2) of (m-1)^n; the ball is refused on that power, uncounted, when it is over."""
    what = lambda: f"the depth-{n} ball of the {m}-regular tree"
    if m >= 3:
        check_cost(what, (m - 1, n), max_states, "vertices")
        size = (m * (m - 1) ** n - 2) // (m - 2)
    else:
        size = 1 + m * (n if m == 2 else min(n, 1))
    check_cost(what, size, max_states, "vertices")


def tree_walk_count(m: int, i: int, n: int, max_states: int = DEFAULT_MAX_STATES) -> int:
    """Number of length-n walks on the m-regular tree from the root to one
    fixed vertex at distance i (the first-built vertex of that level; the
    count is the same at every vertex of the level, a symmetry the test
    suite spot-checks).

    The tree is truncated at depth n, which loses nothing: no length-n walk
    leaves that ball.
    """
    if i < 0 or n < 0:
        raise ValueError("distance and length must be non-negative")
    if i > n:
        return 0
    tree, counts = tree_walk_distribution(m, n, max_states)
    if not tree.levels[i]:
        return 0
    return counts[tree.levels[i][0]]


def tree_walk_distribution(
    m: int, n: int, max_states: int = DEFAULT_MAX_STATES
) -> tuple[TruncatedTree, tuple[int, ...]]:
    """The full end-vertex count distribution after n steps, with its tree."""
    if n < 0:
        raise ValueError("length must be non-negative")
    tree_guard(m, n, max_states)
    return _tree_distribution(m, n)


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


def is_reduced(word: Sequence[int]) -> bool:
    return all(word[k] != -word[k + 1] for k in range(len(word) - 1))


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
    if not is_reduced(target):
        raise ValueError(f"target word {target!r} is not reduced")
    free_group_guard(g, n, max_states)
    return _reductions(g, n)[target]
