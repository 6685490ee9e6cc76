"""Brute-force ground truth: exhaustive enumerators kept too simple to be wrong.

Three independent oracles cross-check the recurrence table and the series
coefficients: weighted Dyck paths, by filtering step sequences; walks on the
tree, numbered breadth first, by moving a count distribution along every edge
of the ball one step at a time; and free-group words, by freely reducing each.

The path oracle enumerates every sequence up to length n - 1 and takes the
last step at its target height i only, summing the length-(n - 1) counts at
i - 1 and i + 1.  The word oracle enumerates every word up to length n - 2
and takes the last two letters at its target t only, summing the
length-(n - 2) counts over the (2g)^2 words t x y that two letters spell from
t in the Cayley tree.  The tree oracle walks to length n - 3 and takes the
last three steps at its target v only, summing the length-(n - 3) counts at
the ends of the three-step walks from v, which :func:`_neighbours`, the one
copy of the breadth-first neighbour arithmetic outside the walk itself,
spells out.  A length shorter
than the finish takes all its steps at the target.  So every length-n path,
word and walk is counted once, through its last step, its last two letters
or its last three steps.  A tree step runs C-level list passes over
strided slices of the breadth-first numbering, a fixed chunk at a time, and
advances the count list in place, so it holds the new ball, the old
interior's up-sums and one chunk's temporaries.  The
words and paths stream through one generator per step, chained by the one
tally loop :func:`_tally`, so those that share a prefix share its work.  A
reduced word is one int whose base-(2g+1) digits are its letters, so a push
or a pop is one multiplication or division, and :func:`_append_letters` is
the one free reduction.

Each enumeration refuses inputs whose state space exceeds ``max_states``
(default 10^7), at once at any size and before enumerating anything: its
guard (``dyck_guard``, ``tree_guard``, ``free_group_guard``, which callers
may run ahead of a batch) passes the estimate to
:func:`treewalks.recurrence.check_cost`, which raises the
:class:`FeasibilityError`.  A guard charges the whole length-n enumeration,
an upper bound on the run it makes (to n - 1: about 2x for the paths; to
n - 2: about (2g)^2 x for the words; to n - 3: about (m - 1)^3 x for the tree
at m >= 3) kept so that no refusal moves.  Every oracle runs its guard
first, and only then answers a target out of reach, a height, distance or
word length over n, with 0, enumerating nothing; so an out-of-reach read
over budget is refused like any other read of its length.

Each oracle counts on ints: the paths by end height and by down-steps landing
on the axis (the weights are applied to those tallies afterwards), the tree
walks by end vertex, the words by their reduction.  The path and word oracles
share one memo, the tally of the length last enumerated; the tree oracle
keeps, for the degree it last walked, its counts over the ball at the last
length, and a longer length advances them in place.  Callers ask length
by length, so later heights, weights and targets of a length are cache hits,
and a run up to length n walks each step once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add

from .rationals import natural
from .recurrence import DEFAULT_MAX_STATES, FeasibilityError, WeightConfig, check_cost

__all__ = [
    "FeasibilityError",
    "dyck_guard",
    "enumerate_dyck",
    "tree_guard",
    "tree_walk_count",
    "free_group_guard",
    "free_group_count",
]


def _step_paths(paths: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Extend each (height, down-steps landing on the axis) by U and by D,
    dropping a path at its first dip below the axis."""
    for height, returns in paths:
        yield height + 1, returns
        if height:
            yield height - 1, returns + (height == 1)


@lru_cache(maxsize=1)
def _tally(n: int, step: Callable[..., Iterator[Hashable]], start: Hashable, *args: object) -> Counter:
    """How many length-n sequences from ``start`` end in each state.  Every
    sequence streams through n chained ``step(states, *args)``, one per step:
    paths from (0, 0) by :func:`_step_paths`, keyed by (final height,
    down-steps landing on the axis); words from the empty word by
    :func:`_append_letters`, keyed by their reduction's :func:`_code`."""
    states: Iterable[Hashable] = [start]
    for _ in range(n):
        states = step(states, *args)
    return Counter(states)


def dyck_guard(n: int, max_states: int = DEFAULT_MAX_STATES) -> None:
    """Refuse length-n path enumeration over ``max_states`` step sequences (2^n)."""
    natural("n", n)
    check_cost(lambda: f"the length-{n} path enumeration", (2, n), max_states, "step sequences")


def enumerate_dyck(
    weights: WeightConfig, i: int, n: int, max_states: int = DEFAULT_MAX_STATES
) -> Fraction:
    """Poids-sum over all valid length-n paths ending at height i.

    Enumerates all 2^(n-1) step sequences of length n - 1 and filters, on
    purpose: the point of this oracle is independence from any counting
    cleverness under test.  The sequences share their prefixes, and each is
    dropped at its first dip below the axis.  The paths are tallied on ints
    by end height and by the number j of down-steps landing on the axis.  A
    length-n path ending at height i is one of those ending at height i - 1
    followed by an up-step, or at height i + 1 followed by a down-step, which
    lands on the axis when i = 0; only those two tallies are read.  It has
    (n + i)/2 up-steps and (n - i)/2 down-steps, so its poids is
    c1^((n+i)/2) * c2^((n-i)/2 - j) * c3^j, and the weights are applied
    once per tally key instead of once per step.  With ck = pk/qk, the sum
    is taken on ints over the common denominator q1^ups (q2 q3)^downs,
    where a tally key j weighs (p2 q3)^(downs-j) (p3 q2)^j, so one
    ``Fraction`` is made per call.  :func:`dyck_guard` runs first; only
    then is a height i > n, which no path reaches, answered with 0 before
    anything is enumerated.
    """
    natural("i", i)
    dyck_guard(n, max_states)
    if i > n:
        return Fraction(0)
    if n == 0:
        return Fraction(1)
    tally: Counter[int] = Counter()
    for (height, j), count in _tally(n - 1, _step_paths, (0, 0)).items():
        if height == i - 1:
            tally[j] += count
        elif height == i + 1:
            tally[j + (i == 0)] += count
    if not tally:  # n - i odd
        return Fraction(0)
    (p1, q1), (p2, q2), (p3, q3) = (c.as_integer_ratio() for c in (weights.c1, weights.c2, weights.c3))
    ups, downs = (n + i) // 2, (n - i) // 2
    off, on = p2 * q3, p3 * q2
    total = sum(count * off ** (downs - j) * on**j for j, count in tally.items())
    return Fraction(p1**ups * total, q1**ups * (q2 * q3) ** downs)


def _ball_size(m: int, depth: int) -> int:
    """Vertices within distance ``depth`` of the root, 1 + m(1 + k + ... + k^(depth-1))
    with k = m - 1; at depth i - 1 that is the first vertex at distance i."""
    return 1 + m * (depth if m == 2 else ((m - 1) ** depth - 1) // (m - 2))


@lru_cache(maxsize=1)
def _walks_from_root(m: int) -> list:
    """The memo of one degree, [length, counts]: the number of walks of that
    length from the root to each vertex of the depth-``length`` ball, numbered
    breadth first.  It starts at length 0 and :func:`_walk` advances it, the
    count list in place."""
    return [0, [1]]


# Slots that each pass of a tree step reads per chunk, so each temporary
# list holds at most this many pointers (64 KiB).  A chunk's own loop costs
# 1-2 us (Python 3.11, 2-core x86-64 VM), under 1% of the slice work it
# drives; at 4096 it is over 1% at m = 5.
_CHUNK = 8192


def _walk(m: int, n: int) -> list[int]:
    """Counts of length-n walks from the root to every vertex of the depth-n
    ball, numbered breadth first.  It runs no guard: its one caller,
    :func:`tree_walk_count`, has run :func:`tree_guard` at a longer length
    (n + 3, or 1 to 3 at n = 0), and the guard's charge grows with the length.

    The list returned is the memo's own, which a later request for a longer
    length advances in place; only a shorter request starts a new list, and
    leaves the earlier one as it was.  Advances the memo of degree m from its
    length, or from the root when n is shorter.  With k = m - 1 the root's
    children are 1..m and the children of a vertex v >= 1 are
    m+1+(v-1)k .. m+vk, so the j-th children of the vertices 1, 2, ... sit at
    the stride-k slice from m+1+j.  A step to the depth-(d + 1) ball, the
    farthest a walk can then reach, moves every walk along each edge by list
    passes.  Before any count moves, it sums the k stride-k slices of
    children, read only inside the depth-d ball, into ``ups``: the root's
    sum, and one list per chunk of the vertices 1..parents that have
    children there.  It then grows the list to the new ball and moves the
    counts down by slice assignment, from each chunk of 1, 2, ... to the
    chunk's j-th children, deepest chunk first, so that each count is read
    before it is overwritten as a child.  Last, the old root moves to 1..m,
    the root takes its sum, and each chunk of ``ups`` is added onto its
    parents and dropped, deepest first.  A chunk reads at most
    :data:`_CHUNK` slots, so a step holds the new ball, the old interior's
    up-sums and a few chunk-sized temporaries, whatever the ball's size.
    At m = 1 (k = 0) the root's one child has no children.
    """
    memo = _walks_from_root(m)
    length, counts = memo if n >= memo[0] else (0, [1])
    memo[:] = 0, [1]  # a step stopped part way (an interrupt) leaves no half-moved counts in the memo
    k = m - 1
    while length < n:
        reached = len(counts)
        parents = (reached - m - 1) // k if reached > m + 1 else 0  # 1..parents have children in the ball
        root = sum(counts[1 : m + 1])
        chunks = range(1, parents + 1, max(1, _CHUNK // m))
        ups = []
        for a in chunks:
            start = m + 1 + (a - 1) * k
            stop = m + 1 + (min(a + chunks.step, parents + 1) - 1) * k
            up = counts[start:stop:k]
            for j in range(1, k):
                up = map(add, up, counts[start + j : stop : k])
            ups.append(list(up) if k > 1 else up)  # sums the chunk now, freeing its k slices
        counts += repeat(0, m + 1 + k * (reached - 1) - reached)
        for a in reversed(range(1, reached, _CHUNK)):
            above = counts[a : min(a + _CHUNK, reached)]
            start = m + 1 + (a - 1) * k
            stop = start + len(above) * k
            for j in range(k):
                counts[start + j : stop : k] = above
        counts[1 : m + 1] = [counts[0]] * m
        counts[0] = root
        for a in reversed(chunks):
            up = ups.pop()
            counts[a : a + len(up)] = map(add, counts[a : a + len(up)], up)
        length += 1
    memo[:] = length, counts
    return counts


def _neighbours(m: int, v: int) -> tuple[range, range]:
    """Vertex v's parent (none for the root) and its children, 1..m for the
    root and m+1+(v-1)k .. m+vk for v >= 1 with k = m - 1, as two ranges of
    the breadth-first numbering."""
    if v == 0:
        return range(0), range(1, m + 1)
    k = m - 1
    parent = (v - m - 1) // k + 1 if v > m else 0
    return range(parent, parent + 1), range(m + 1 + (v - 1) * k, m + v * k + 1)


def tree_guard(m: int, n: int, max_states: int = DEFAULT_MAX_STATES) -> None:
    """Refuse walking to length n on the m-regular tree if it moves counts along more than
    ``max_states`` edges.  Step k covers the depth-k ball, |ball_k| - 1 edges, so a run from
    length 0 makes sum_{k=1..n} (|ball_k| - 1) edge moves: n at m = 1, n(n+1) at m = 2, and
    m((m-1)((m-1)^n - 1)/(m-2) - n)/(m-2) at m >= 3, within a factor (m-1)/(m-2) of the
    depth-n ball.  At m >= 3 and n >= 1 the run is refused on the lower bound (m-1)^n of its
    last step's moves, uncounted, when that is over.  :func:`tree_walk_count` is charged
    the walk to n although it walks only to n - 3, about (m-1)^3 times over at m >= 3, so
    that no refusal moves."""
    natural("tree degree", m, 1)
    natural("n", n)
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
    fixed vertex v at distance i (the first vertex of that level in the
    breadth-first numbering; the count is the same at every vertex of the
    level, a symmetry the test suite spot-checks).

    :func:`tree_guard` runs first, charging the walk to length n, an upper
    bound kept so that no refusal moves; only then is a distance i > n,
    which no walk reaches, answered with 0, walking nothing.  The 1-regular
    tree is one edge, with no vertex at distance 2 or more.

    The walk covers the depth-(n - last) ball to length n - last, with
    last = min(n, 3), which loses nothing: no shorter walk leaves it.  The
    last ``last`` steps are taken at v only: :func:`_neighbours` spells out
    the ends of the walks of ``last`` steps from v, one per walk, and A_n(v)
    is the sum of the length-(n - last) counts at those ends, an end
    outside the ball counting 0.  The memo of the degree last walked keeps
    the counts over the ball at the last length n - last asked for, so
    asking the lengths in increasing order walks each step once.
    """
    natural("i", i)
    tree_guard(m, n, max_states)
    if i > n or m == 1 and i > 1:
        return 0
    if n == 0:
        return 1
    last = min(n, 3)
    counts = _walk(m, n - last)
    ends = [_ball_size(m, i - 1) if i else 0]
    for _ in range(last):
        ends = [u for w in ends for family in _neighbours(m, w) for u in family]
    reached = len(counts)
    return sum(counts[u] for u in ends if u < reached)


def _code(g: int, word: Iterable[int]) -> int:
    """A reduced word as one int: its letters are the base-(2g+1) digits, the
    last letter in the lowest digit, with +k as digit k and -k as digit g + k.
    The empty word is 0, and each code names one vertex of the 2g-regular
    Cayley tree."""
    code = 0
    for x in word:
        code = code * (2 * g + 1) + (x if x > 0 else g - x)
    return code


def _append_letters(words: Iterable[int], g: int) -> Iterator[int]:
    """Append each letter to each reduced word held as a :func:`_code`: a
    stack whose top is the lowest digit.  Digit d pops a top that it cancels,
    digit (d + g - 1) % 2g + 1, and is pushed on any other."""
    base = 2 * g + 1
    cancels = (0, *((d + g - 1) % (2 * g) + 1 for d in range(1, base)))
    digits = range(1, base)
    for word in words:
        undo = cancels[word % base]
        pushed = word * base
        for d in digits:
            yield word // base if d == undo else pushed + d


def free_group_guard(g: int, n: int, max_states: int = DEFAULT_MAX_STATES) -> None:
    """Refuse enumerating the (2g)^n words of length n over ``max_states``.
    :func:`free_group_count` is charged the words of length n although it
    enumerates only those of length n - 2, (2g)^2 times fewer, so that no
    refusal moves."""
    natural("g", g, 1)
    natural("n", n)
    check_cost(lambda: f"the length-{n} word enumeration over {g} generators", (2 * g, n), max_states, "words")


def free_group_count(
    g: int, target: Sequence[int], n: int, max_states: int = DEFAULT_MAX_STATES
) -> int:
    """Number of length-n products of the 2g generators/inverses of the free
    group on g letters whose free reduction equals ``target``.

    Equals the walk count A_{2g}(len(target), n) on the 2g-regular tree, for
    any choice of reduced target of that length; the test suite checks the
    word-choice independence empirically.  :func:`free_group_guard` runs
    first, charging the (2g)^n words of length n; only then is a target
    longer than n, which no word reaches, answered with 0, enumerating
    nothing.

    The (2g)^(n-last) words of length n - last, with last = min(n, 2), are
    enumerated, and the last ``last`` letters are taken at the target only: a
    word w x y reduces to t exactly when w reduces to t y^-1 x^-1.  As x and
    y run over the 2g letters, so do y^-1 and x^-1, so the count is the sum,
    over the (2g)^2 words t a b that ``last`` passes of
    :func:`_append_letters` spell from t's code, of the words of length
    n - last reducing to each.
    """
    natural("g", g, 1)
    target = tuple(target)
    for x in target:
        if not isinstance(x, int) or x == 0 or abs(x) > g:
            raise ValueError(f"target letter {x!r} outside the +-1..+-{g} alphabet")
    if any(x == -y for x, y in zip(target, target[1:])):
        raise ValueError(f"target word {target!r} is not reduced")
    free_group_guard(g, n, max_states)
    if len(target) > n:
        return 0
    last = min(n, 2)
    reductions = _tally(n - last, _append_letters, 0, g)
    ends: Iterable[int] = [_code(g, target)]
    for _ in range(last):
        ends = _append_letters(ends, g)
    return sum(map(reductions.__getitem__, ends))
