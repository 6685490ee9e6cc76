"""The brute-force enumerators are the ground truth; pin them down hard."""

from __future__ import annotations

import itertools
import random
import struct
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyck_path_reference import paths_by_end_per_sequence
from poids_reference import LatticePath, irreducible_components, valid_paths, weight_and_poids
from tree_walk_reference import ball, walk_from_scratch
from word_reference import reduce_word
from treewalks import oracles
from treewalks.oracles import (
    FeasibilityError,
    dyck_guard,
    enumerate_dyck,
    free_group_count,
    free_group_guard,
    tree_guard,
    tree_walk_count,
)
from treewalks.oracles import _append_letters, _ball_size, _code, _step_paths, _tally, _walk, _walks_from_root
from treewalks.recurrence import WeightConfig, build_table, dp_row, tree_weights

small_weights = st.fractions(min_value=0, max_value=3, max_denominator=4)


def weight_triples(require_c2: bool = False) -> st.SearchStrategy[WeightConfig]:
    c2 = small_weights.filter(lambda q: q != 0) if require_c2 else small_weights
    return st.builds(WeightConfig, small_weights, c2, small_weights)


# --- lattice paths: the per-path poids reference ------------------------------


def test_path_accepts_valid_sequences():
    for steps in ("", "UD", "UUDD", "UDU", "UUU", "UDUDUU"):
        assert LatticePath(steps).steps == steps


def test_path_rejects_negative_height():
    with pytest.raises(ValueError):
        LatticePath("DU")
    with pytest.raises(ValueError):
        LatticePath("UDD")


def test_path_rejects_bad_characters():
    with pytest.raises(ValueError):
        LatticePath("UX")


def test_path_heights_and_final():
    p = LatticePath("UUDDU")
    assert p.heights() == [1, 2, 1, 0, 1]
    assert p.final_height == 1
    assert len(p) == 5


def test_weight_and_poids_single_arch():
    w = WeightConfig(1, 2, 3)
    assert weight_and_poids(LatticePath("UD"), w) == (Fraction(2), Fraction(3))


def test_weight_and_poids_empty_path():
    assert weight_and_poids(LatticePath(""), WeightConfig(5, 7, 11)) == (
        Fraction(1),
        Fraction(1),
    )


def test_weight_and_poids_nested_arch():
    # first D lands at height 1 (factor c2), second lands on the axis (c3)
    w = WeightConfig(1, 2, 3)
    assert weight_and_poids(LatticePath("UUDD"), w) == (Fraction(4), Fraction(6))


def test_irreducible_components_examples():
    assert irreducible_components(LatticePath("UDUD")) == [
        LatticePath("UD"),
        LatticePath("UD"),
    ]
    assert irreducible_components(LatticePath("UUDD")) == [LatticePath("UUDD")]
    assert irreducible_components(LatticePath("")) == []


def test_irreducible_components_rejects_open_path():
    with pytest.raises(ValueError):
        irreducible_components(LatticePath("UDU"))


def axis_paths(max_len: int = 12) -> st.SearchStrategy[LatticePath]:
    def to_path(bits: list[bool]) -> str:
        return "".join("U" if b else "D" for b in bits)

    return (
        st.lists(st.booleans(), max_size=max_len)
        .map(to_path)
        .filter(_is_valid_axis_path)
        .map(LatticePath)
    )


def _is_valid_axis_path(steps: str) -> bool:
    h = 0
    for s in steps:
        h += 1 if s == "U" else -1
        if h < 0:
            return False
    return h == 0


@given(axis_paths())
def test_components_concatenate_back(path):
    parts = irreducible_components(path)
    assert "".join(p.steps for p in parts) == path.steps
    for part in parts:
        inner = part.heights()[:-1]
        assert part.final_height == 0
        assert all(h > 0 for h in inner)


@given(axis_paths(), weight_triples(require_c2=True))
def test_poids_factors_through_components(path, w):
    weight, poids = weight_and_poids(path, w)
    k = len(irreducible_components(path))
    assert poids == weight * (w.c3 / w.c2) ** k


# --- exhaustive Dyck enumeration ----------------------------------------------


def test_enumerate_dyck_catalan():
    w = WeightConfig(1, 1, 1)
    assert enumerate_dyck(w, 0, 6) == 5
    assert [enumerate_dyck(w, 0, 2 * n) for n in range(5)] == [1, 1, 2, 5, 14]


def test_enumerate_dyck_tree_weights():
    assert enumerate_dyck(tree_weights(3), 0, 4) == 15


def test_enumerate_dyck_empty_path_misses_height_one():
    assert enumerate_dyck(WeightConfig(1, 1, 1), 1, 0) == 0


@pytest.mark.parametrize("n", range(15))
def test_path_stream_matches_the_per_sequence_filter(n):
    assert _tally(n, _step_paths, (0, 0)) == paths_by_end_per_sequence(n)


def test_enumerate_dyck_guard():
    with pytest.raises(FeasibilityError):
        enumerate_dyck(WeightConfig(1, 1, 1), 0, 24, max_states=1000)


def test_dyck_heights_above_the_length_enumerate_nothing():
    # no path of length n reaches a height i > n: the count is 0 before any
    # tally is read, yet the guard still runs first
    w = WeightConfig(Fraction(2, 7), Fraction(4, 3), Fraction(1, 5))
    for n in range(16):
        before = _tally.cache_info()
        for i in range(n + 1, n + 4):
            assert enumerate_dyck(w, i, n) == 0
        assert _tally.cache_info() == before
    with pytest.raises(FeasibilityError):
        enumerate_dyck(w, 50, 40)


@settings(max_examples=25, deadline=None)
@given(weight_triples(), st.integers(min_value=0, max_value=9))
def test_enumeration_matches_recurrence(w, n):
    table = build_table(w, n)
    for i in range(n + 1):
        assert enumerate_dyck(w, i, n) == table.count(i, n)


SIGNED_WEIGHTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), Fraction(3))


# Every pair of positions meets every pair of values (an orthogonal array):
# zero and signed weights in each place, without the full 6^3 grid.
@pytest.mark.parametrize(
    "c1,c2", itertools.product(SIGNED_WEIGHTS, repeat=2), ids=lambda c: str(c)
)
def test_tallied_enumeration_matches_per_step_poids(c1, c2):
    c3 = SIGNED_WEIGHTS[(SIGNED_WEIGHTS.index(c1) + SIGNED_WEIGHTS.index(c2)) % len(SIGNED_WEIGHTS)]
    w = WeightConfig(c1, c2, c3)
    sums: Counter[tuple[int, int]] = Counter()
    for path in valid_paths():
        sums[path.final_height, len(path)] += weight_and_poids(path, w)[1]
    for n in range(13):
        for i in range(n + 1):
            assert enumerate_dyck(w, i, n) == sums[i, n]


GRID_WEIGHTS = (Fraction(0), Fraction(1), Fraction(-3), Fraction(1, 2), Fraction(-5, 4))


def test_common_denominator_weights_match_dp_rows():
    # the full grid holds c1 = 0, c2 = 0, c3 = 0 and c2 = c3, signed and non-integral;
    # i runs to n + 1, so odd n - i and i > n are asked too
    order = 10
    configs = [WeightConfig(*c) for c in itertools.product(GRID_WEIGHTS, repeat=3)]
    rows = {(w, i): dp_row(w, i, order) for w in configs for i in range(order + 2)}
    for n in range(order + 1):
        for w in configs:
            for i in range(n + 2):
                got = enumerate_dyck(w, i, n)
                assert type(got) is Fraction
                assert got == rows[w, i][n], (w, i, n)


def _poids_at_length(w: WeightConfig, i: int, n: int) -> Fraction:
    """The poids-sum read off the length-n tallies themselves, at height i."""
    ups, downs = (n + i) // 2, (n - i) // 2
    tallies = _tally(n, _step_paths, (0, 0))
    return sum(
        (count * w.c1**ups * w.c2 ** (downs - j) * w.c3**j for (h, j), count in tallies.items() if h == i),
        Fraction(0),
    )


@pytest.mark.parametrize(
    "c1,c2", itertools.product(SIGNED_WEIGHTS, repeat=2), ids=lambda c: str(c)
)
def test_path_last_step_matches_the_length_n_tallies(c1, c2):
    # the oracle reads the length n - 1 tallies at heights i - 1 and i + 1;
    # the reference reads the length-n tallies at height i, up to i = n + 1
    c3 = SIGNED_WEIGHTS[(SIGNED_WEIGHTS.index(c1) + 2 * SIGNED_WEIGHTS.index(c2)) % len(SIGNED_WEIGHTS)]
    w = WeightConfig(c1, c2, c3)
    for n in range(13):
        expected = [_poids_at_length(w, i, n) for i in range(n + 2)]
        assert [enumerate_dyck(w, i, n) for i in range(n + 2)] == expected


# --- walks on the truncated tree ----------------------------------------------


@pytest.mark.parametrize("m,depth", [(2, 5), (3, 4), (4, 3), (1, 3)])
def test_tree_level_sizes(m, depth):
    parent, levels = ball(m, depth)
    expected = [1] + [m * (m - 1) ** (d - 1) for d in range(1, depth + 1)]
    assert [len(level) for level in levels] == expected
    assert len(parent) == sum(expected)


def _depths_to_ball(m: int, vertices: int = 10**4, deepest: int = 200) -> list[int]:
    """Depths 0, 1, ... whose ball has at most ``vertices`` vertices, up to
    ``deepest`` (the ball grows only linearly, or not at all, at m <= 2)."""
    return [d for d in range(deepest + 1) if _ball_size(m, d) <= vertices]


@pytest.mark.parametrize("m", range(1, 7))
def test_breadth_first_child_arithmetic_matches_the_parent_list(m):
    # the tree oracle's numbering: the root's children are 1..m, those of
    # v >= 1 are m+1+(v-1)k .. m+vk with k = m - 1, and the depth-d ball
    # is the first _ball_size(m, d) vertices
    k = m - 1
    for depth in _depths_to_ball(m):
        built, levels = ball(m, depth)
        assert _ball_size(m, depth) == len(built)
        parent: list[int | None] = [None] * len(built)
        for v in range(levels[-1].start):
            for child in range(1, m + 1) if v == 0 else range(m + 1 + (v - 1) * k, m + v * k + 1):
                parent[child] = v
        assert parent == built


def test_tree_internal_degrees():
    for m, depth in [(3, 4), (1, 3), (2, 5), (5, 3)]:
        parent, levels = ball(m, depth)
        children = Counter(parent)
        for v in range(levels[depth].start):
            has_parent = parent[v] is not None
            assert children[v] + has_parent == m


# (5, 10) is verify's largest tree oracle run: 2330150 edge moves, under the default ceiling
@pytest.mark.parametrize(
    "m,depth", [(1, 0), (1, 4), (2, 5), (3, 4), (5, 3), (6, 2), (2, 0), (3, 0), (2, 1), (4, 6), (7, 4), (5, 10)]
)
def test_tree_guard_counts_the_built_ball(m, depth):
    # step k moves counts along the |ball_k| - 1 edges of the built depth-k ball
    moves = sum(len(ball(m, k)[0]) - 1 for k in range(1, depth + 1))
    tree_guard(m, depth, max_states=moves)
    with pytest.raises(FeasibilityError):
        tree_guard(m, depth, max_states=moves - 1)


def test_enumeration_guards_count_the_sequences():
    dyck_guard(5, max_states=2**5)
    free_group_guard(2, 3, max_states=4**3)
    with pytest.raises(FeasibilityError):
        dyck_guard(5, max_states=2**5 - 1)
    with pytest.raises(FeasibilityError):
        free_group_guard(2, 3, max_states=4**3 - 1)


# the longest accepted length under the default ceiling of 10^7, per degree
TREE_GUARD_LONGEST = {2: 3161, 3: 20, 4: 13, 5: 11, 6: 9, 7: 8, 8: 8}


@pytest.mark.parametrize("m,longest", TREE_GUARD_LONGEST.items())
def test_tree_guard_charges_the_walk_to_length_n(m, longest):
    # the oracle walks only to n - 3 (or to 0 at n <= 3) but is still charged
    # the walk to n, so each refusal stays at the same length
    tree_guard(m, longest)
    with pytest.raises(FeasibilityError):
        tree_guard(m, longest + 1)
    with pytest.raises(FeasibilityError):
        tree_walk_count(m, 0, longest + 1)


def test_each_tree_read_runs_the_guard_once(monkeypatch):
    # tree_walk_count guards at n once; the walk to n - 3 it then runs is
    # covered by that charge and guards nothing again
    calls = []
    guard = oracles.tree_guard
    monkeypatch.setattr(oracles, "tree_guard", lambda *args: calls.append(args[:2]) or guard(*args))
    for m in range(1, 8):
        for n in range(8):
            for i in range(n + 1):
                calls.clear()
                tree_walk_count(m, i, n)
                assert calls == [(m, n)]
        calls.clear()
        _walk(m, 7)
        assert calls == []
    for m, longest in TREE_GUARD_LONGEST.items():
        calls.clear()
        with pytest.raises(FeasibilityError):
            tree_walk_count(m, 1, longest + 1)
        assert calls == [(m, longest + 1)]


@pytest.mark.parametrize("g,longest", [(1, 23), (2, 11), (3, 8)])
def test_word_guard_charges_the_words_of_length_n(g, longest):
    free_group_guard(g, longest)
    with pytest.raises(FeasibilityError):
        free_group_guard(g, longest + 1)
    with pytest.raises(FeasibilityError):
        free_group_count(g, (), longest + 1)


def test_path_guard_charges_the_sequences_of_length_n():
    dyck_guard(23)
    with pytest.raises(FeasibilityError):
        dyck_guard(24)
    with pytest.raises(FeasibilityError):
        enumerate_dyck(WeightConfig(1, 1, 1), 0, 24)


def test_tree_walk_count_examples():
    assert tree_walk_count(3, 0, 4) == 15
    assert tree_walk_count(2, 0, 6) == comb(6, 3)
    assert tree_walk_count(4, 2, 4) == 10


def test_tree_walk_count_unreachable():
    assert tree_walk_count(3, 5, 3) == 0


def test_tree_walk_count_single_edge():
    # m=1 is a single edge: the walk bounces, so even lengths return
    assert [tree_walk_count(1, 0, n) for n in range(6)] == [1, 0, 1, 0, 1, 0]
    assert [tree_walk_count(1, 1, n) for n in range(6)] == [0, 1, 0, 1, 0, 1]
    assert tree_walk_count(1, 2, 4) == 0


def test_tree_walk_count_guard():
    with pytest.raises(FeasibilityError):
        tree_walk_count(3, 0, 30, max_states=1000)


def test_tree_distances_above_the_length_walk_nothing():
    # no walk of length n reaches a distance i > n: the guard runs first, and
    # only then is the count 0, with the memo neither walked nor read
    for m in (1, 2, 3, 5):
        tree_walk_count(m, 0, 6)
        memo = _walks_from_root(m)
        before = _walks_from_root.cache_info(), memo[0], list(memo[1])
        for n in range(9):
            for i in range(n + 1, n + 4):
                assert tree_walk_count(m, i, n) == 0
        assert (_walks_from_root.cache_info(), memo[0], memo[1]) == before
    with pytest.raises(FeasibilityError):
        tree_walk_count(3, 50, 40)


@pytest.mark.parametrize("m", [-1, 0])
def test_tree_walk_count_rejects_a_degree_below_one(m):
    with pytest.raises(ValueError, match=f"tree degree must be an integer >= 1, got {m}"):
        tree_walk_count(m, 0, 3)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_tree_matches_recurrence(m):
    table = build_table(tree_weights(m), 8)
    for n in range(9):
        for i in range(n + 1):
            assert tree_walk_count(m, i, n) == table.count(i, n)


def test_single_edge_matches_recurrence_at_its_two_vertices():
    # m=1 has vertices at distance 0 and 1 only; the recurrence's A_1(i, n)
    # for i >= 2 counts height paths with no tree vertex behind them
    table = build_table(tree_weights(1), 8)
    for n in range(9):
        for i in range(min(n, 1) + 1):
            assert tree_walk_count(1, i, n) == table.count(i, n)


def test_tree_oracle_memo_matches_the_from_scratch_walk():
    # The memo grows one ball per degree and advances its counts from the last
    # length asked for; each answer, in any order of lengths and degrees, must
    # equal a walk run from the root for that length alone.
    lengths = [*range(8), *range(7, -1, -1), 5, 5, 5, 3, 7, 2, 2, 6, 0, 4]
    reference = cache(walk_from_scratch)
    for m in (1, 2, 3, 4, 3, 5, 7):
        for k, n in enumerate(lengths):
            levels, expected = reference(m, n)
            want = [expected[level[0]] if level else 0 for level in levels]
            if k % 2:
                assert [tree_walk_count(m, i, n) for i in range(n + 1)] == want
            counts = _walk(m, n)
            assert counts is _walks_from_root(m)[1]
            assert tuple(counts) == expected
            # these reads ask for length n - 3: a shorter request starts a new
            # list and leaves the one returned as it was
            assert [tree_walk_count(m, i, n) for i in range(n + 1)] == want
            assert (_walks_from_root(m)[1] is counts) == (n == 0)
            assert tuple(counts) == expected
    # the list returned is the memo's own, which a longer request advances in
    # place; a shorter one starts a new list and leaves the earlier one as it was
    for m in (1, 2, 3, 5):
        counts = _walk(m, 3)
        assert _walk(m, 5) is counts
        assert tuple(counts) == reference(m, 5)[1]
        shorter = _walk(m, 4)
        assert shorter is not counts
        assert tuple(shorter) == reference(m, 4)[1]
        assert tuple(counts) == reference(m, 5)[1]


def test_a_tree_step_stopped_part_way_leaves_no_half_moved_counts(monkeypatch):
    # a step rewrites the memo's list in place; one stopped after its counts
    # moved down (at m = 2 the first add is the last pass) must leave the memo
    # at a length whose counts it holds
    def interrupt(*args):
        raise KeyboardInterrupt

    _walk(2, 4)
    monkeypatch.setattr(oracles, "add", interrupt)
    with pytest.raises(KeyboardInterrupt):
        _walk(2, 6)
    monkeypatch.undo()
    assert tuple(_walk(2, 6)) == walk_from_scratch(2, 6)[1]


def _check_walks_in_shuffled_order():
    # every length whose ball has at most 10^4 vertices, up to 200 at m <= 2,
    # asked in shuffled order so the memo both advances and restarts
    rng = random.Random(0)
    for m in range(1, 8):
        lengths = _depths_to_ball(m)
        rng.shuffle(lengths)
        for n in lengths:
            assert tuple(_walk(m, n)) == walk_from_scratch(m, n)[1]


def test_tree_walk_matches_the_from_scratch_walk_in_shuffled_order():
    _check_walks_in_shuffled_order()


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_tree_walk_matches_the_from_scratch_walk_across_chunk_seams(monkeypatch, chunk):
    # chunks of one vertex, a partial last chunk, and up-pass chunks whose
    # parents span levels: no seam may drop or double a count
    monkeypatch.setattr(oracles, "_CHUNK", chunk)
    _walks_from_root.cache_clear()
    _check_walks_in_shuffled_order()


@pytest.mark.parametrize("m,n,chunk", [(2, 600, 64), (3, 15, None), (5, 9, None)])
def test_a_tree_step_holds_the_new_ball_the_up_sums_and_a_fixed_chunk(monkeypatch, m, n, chunk):
    # Over the new ball a step may hold the up-sums, a slot for the root and
    # for each vertex with children in the old ball, plus a fixed number of
    # chunk-sized temporaries: a slice, the list a slice assignment builds
    # (overallocated by up to an eighth) and the buffer of the slots it
    # replaces, and a chunk's new counts.  The old ball is built while traced
    # and not held here, so a step that built the new ball beside it would
    # show the old ball in the peak.
    if chunk:
        monkeypatch.setattr(oracles, "_CHUNK", chunk)
    assert _ball_size(m, n - 1) >= 4 * oracles._CHUNK
    _walks_from_root.cache_clear()
    tracemalloc.start()
    try:
        _walk(m, n - 1)
        tracemalloc.reset_peak()
        counts = _walk(m, n)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ups = sys.getsizeof([0] * _ball_size(m, n - 2))
    chunks = 3 * oracles._CHUNK * struct.calcsize("P") + oracles._CHUNK * sys.getsizeof(max(counts))
    assert peak - held <= ups + chunks


@pytest.mark.parametrize("m", range(1, 8))
def test_tree_last_step_matches_the_full_walk_at_every_level(m):
    # the count at the first vertex of each level, summed over the
    # neighbours of each two-step walk's end at length n - 3 (all the steps
    # taken at the target when n <= 3, on the length-0 counts), against the
    # walk to length n over the whole depth-n ball;
    # at m = 1 the levels beyond distance 1 are empty and count 0
    for n in _depths_to_ball(m):
        levels, expected = walk_from_scratch(m, n)
        want = [expected[level[0]] if level else 0 for level in levels]
        assert [tree_walk_count(m, i, n) for i in range(n + 1)] == want


@pytest.mark.parametrize("m", range(1, 7))
def test_tree_memo_stops_three_lengths_short(m):
    # a count at length n walks the ball only to length n - 3; at n <= 3
    # every step is taken at the target, on the length-0 counts
    for n in range(1, 9):
        for i in range(n + 1):
            tree_walk_count(m, i, n)
            length, counts = _walks_from_root(m)
            shorter = max(n - 3, 0)
            assert (length, len(counts)) == (shorter, _ball_size(m, shorter))


@pytest.mark.parametrize("m", [1, 2, 3, 200])
def test_tree_reads_outside_the_ball_count_zero(m):
    # at n <= 3 the finish reads the length-0 counts; for i >= n - 2 the
    # target v lies outside the depth-(n - 3) ball, from i = n - 1 its parent
    # too and at i = n its grandparent, and every read there must count 0
    # and raise nothing; at m = 1 no vertex lies beyond distance 1, as in the
    # single-edge test above.  The ceiling is lifted so that m = 200 reaches
    # n = 5, whose walk to length 2 covers 40001 vertices.
    table = build_table(tree_weights(m), 5)
    for n in range(6):
        for i in range(n + 1):
            want = table.count(i, n) if m > 1 or i <= 1 else 0
            assert tree_walk_count(m, i, n, max_states=10**12) == want


def test_verifys_tree_corner_at_m_5_holds_the_depth_7_ball():
    # verify's tree oracle rows read 0 <= i <= n <= 10; at m = 5 the longest
    # walk is to length 7, so the peak may hold that ball, the up-sums of the
    # step to it and one chunk's temporaries
    _walks_from_root.cache_clear()
    tracemalloc.start()
    try:
        for n in range(11):
            for i in range(n + 1):
                tree_walk_count(5, i, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counts = _walks_from_root(5)[1]
    depth_7 = sys.getsizeof([0] * _ball_size(5, 7))
    ups = sys.getsizeof([0] * _ball_size(5, 6))
    chunks = 3 * oracles._CHUNK * struct.calcsize("P") + oracles._CHUNK * sys.getsizeof(max(counts))
    assert peak <= depth_7 + ups + chunks


def test_level_counts_are_symmetric():
    # every vertex of a level is equivalent, so the designated-vertex choice
    # cannot matter; check the whole distribution for m in {1, 3, 5}, n <= 6
    for m in (1, 3, 5):
        for n in range(7):
            counts = _walk(m, n)
            for level in ball(m, n)[1]:
                values = {counts[v] for v in level}
                assert len(values) <= 1


# --- free-group words ----------------------------------------------------------


def test_reduce_word_examples():
    assert reduce_word([1, -1]) == ()
    assert reduce_word([1, 2, -2, -1]) == ()
    assert reduce_word([1, 2, -1]) == (1, 2, -1)
    assert reduce_word([2, -1, 1, -2, 1]) == (1,)


def test_reduce_word_rejects_zero():
    with pytest.raises(ValueError):
        reduce_word([1, 0, 2])


@given(st.lists(st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0), max_size=30))
def test_reduce_word_idempotent(letters):
    once = reduce_word(letters)
    assert all(a != -b for a, b in zip(once, once[1:]))
    assert reduce_word(once) == once


def test_free_group_count_examples():
    assert free_group_count(1, (), 4) == comb(4, 2)
    assert free_group_count(2, (), 4) == 28
    assert free_group_count(2, (1, 2), 2) == 1


def test_free_group_count_validates_target():
    # a cancelling pair anywhere in the target is refused, before the guard
    for target in [(1, -1), (1, 2, -2), (2, -1, 1, 2), (1, 2, 1, -1), (-2, 2, 1)]:
        with pytest.raises(ValueError) as refused:
            free_group_count(2, target, 2)
        assert str(refused.value) == f"target word {target!r} is not reduced"
        with pytest.raises(ValueError, match="is not reduced"):
            free_group_count(2, target, 100)
    with pytest.raises(ValueError):
        free_group_count(1, (2,), 3)
    with pytest.raises(ValueError):
        free_group_count(0, (), 2)


def test_free_group_count_guard():
    with pytest.raises(FeasibilityError):
        free_group_count(2, (), 20, max_states=1000)


def test_word_targets_longer_than_the_length_enumerate_nothing():
    # no word of length n reduces to a longer target: the guard runs first,
    # and only then is the count 0, with no tally read
    for g in (1, 2):
        for n in range(10):
            before = _tally.cache_info()
            for size in range(n + 1, n + 4):
                assert free_group_count(g, tuple(k % g + 1 for k in range(size)), n) == 0
            assert _tally.cache_info() == before
    with pytest.raises(FeasibilityError):
        free_group_count(2, (1,) * 50, 40)


@pytest.mark.parametrize("g", [1, 2])
def test_free_group_matches_recurrence(g):
    words = {1: [(), (1,), (-1,), (1, 1), (-1, -1)], 2: [(), (2,), (-1,), (1, 2), (2, 1)]}
    table = build_table(tree_weights(2 * g), 6)
    for target in words[g]:
        for n in range(7):
            assert free_group_count(g, target, n) == table.count(len(target), n)


@pytest.mark.parametrize("g,n", itertools.product([1, 2, 3], range(7)))
def test_word_stream_matches_per_word_reduction(g, n):
    alphabet = [x for k in range(1, g + 1) for x in (k, -k)]
    expected = Counter(_code(g, reduce_word(word)) for word in itertools.product(alphabet, repeat=n))
    assert _tally(n, _append_letters, 0, g) == expected


@pytest.mark.parametrize("g", [1, 2, 3])
def test_word_code_is_injective_on_reduced_words(g):
    alphabet = [x for k in range(1, g + 1) for x in (k, -k)]
    reduced = {word for n in range(7) for word in itertools.product(alphabet, repeat=n) if reduce_word(word) == word}
    assert len(reduced) == 1 + sum(2 * g * (2 * g - 1) ** (n - 1) for n in range(1, 7))
    assert len({_code(g, word) for word in reduced}) == len(reduced)


# Targets of each length with positive and inverse letters: the count is the same for every reduced
# target of one length, whichever word is chosen
FREE_GROUP_WORDS = [(1, word) for word in [(), (1,), (-1,), (1, 1), (-1, -1)]]
FREE_GROUP_WORDS += [(2, word) for word in [(), (1,), (-2,), (1, 2), (2, -1)]]


@pytest.mark.parametrize("g, target", FREE_GROUP_WORDS)
def test_free_group_count_matches_the_dp_row(g, target):
    assert free_group_count(g, target, 10) == dp_row(tree_weights(2 * g), len(target), 10)[10]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_free_group_count_matches_per_word_reduction(g):
    alphabet = [x for k in range(1, g + 1) for x in (k, -k)]
    targets = [t for size in range(4) for t in itertools.product(alphabet, repeat=size) if reduce_word(t) == t]
    for n in range(7):
        reductions = [reduce_word(word) for word in itertools.product(alphabet, repeat=n)]
        for target in targets:
            assert free_group_count(g, target, n) == reductions.count(target)


@pytest.mark.parametrize("g,n", itertools.product([1, 2, 3], range(7)))
def test_word_last_letter_matches_the_length_n_reductions(g, n):
    # every reduced target up to length n + 1, read off the length n - 2
    # words against the length-n words themselves
    expected = _tally(n, _append_letters, 0, g)
    alphabet = [x for k in range(1, g + 1) for x in (k, -k)]
    targets = [()]
    for size in range(n + 1):
        targets += [(*t, x) for t in targets if len(t) == size for x in alphabet if not t or t[-1] != -x]
    for target in targets:
        assert free_group_count(g, target, n) == expected[_code(g, target)]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_word_memo_stops_two_lengths_short(g):
    # a count at length n enumerates the words only to length n - 2, the
    # memo's one entry; at n <= 2 every letter is taken at the target.  The
    # ceiling is lifted to (2g)^9, which the guard charges at n = 9.
    table = build_table(tree_weights(2 * g), 9)
    for n in range(10):
        for size in range(n + 1):
            target = tuple(k % g + 1 for k in range(size))
            assert free_group_count(g, target, n, max_states=(2 * g) ** 9) == table.count(size, n)
            hits = _tally.cache_info().hits
            _tally(max(n - 2, 0), _append_letters, 0, g)
            assert _tally.cache_info().hits == hits + 1
