"""The three-clause recurrence table: base cases, residuals, conservation."""

from __future__ import annotations

import copy
import functools
import pickle
import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treewalks.genfunc import poids_gf
from treewalks.oracles import enumerate_dyck
from treewalks.recurrence import (
    MAX_TABLE_BYTES,
    FeasibilityError,
    WalkTable,
    WeightConfig,
    build_table,
    dp_row,
    mass_check,
    table_guard,
    tree_weights,
)
from treewalks.recurrence import _columns
from treewalks.series import PowerSeries

small_weights = st.fractions(min_value=0, max_value=3, max_denominator=4)
weight_triples = st.builds(WeightConfig, small_weights, small_weights, small_weights)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# --- weight configuration --------------------------------------------------------


@pytest.mark.parametrize("m,expected", [(3, (1, 2, 3)), (2, (1, 1, 2)), (1, (1, 0, 1))])
def test_tree_weights(m, expected):
    w = tree_weights(m)
    assert (w.c1, w.c2, w.c3) == expected
    assert w.m == m


def test_tree_weights_rejects_degenerate_degree():
    with pytest.raises(ValueError):
        tree_weights(0)
    with pytest.raises(ValueError):
        tree_weights(-2)


def test_weight_config_coerces_to_fractions():
    w = WeightConfig(1, 2, 3)
    assert isinstance(w.c1, Fraction)
    assert w.c2 == Fraction(2)


@pytest.mark.parametrize(
    "weights,m",
    [
        ((1, 2, 3), 3),
        ((1, 0, 1), 1),
        ((Fraction(2, 2), Fraction(6, 3), 3), 3),
        ((1, Fraction(1, 2), Fraction(3, 2)), None),
        ((2, 2, 4), None),
        ((1, -1, 0), None),
        ((1, 2, 4), None),
        ((1, -2, -1), None),
    ],
)
def test_weight_config_reads_the_tree_degree_off_the_weights(weights, m):
    w = WeightConfig(*weights)
    assert w.m == m and (m is None or type(w.m) is int)
    assert m is None or w == tree_weights(m)
    assert w.describe().endswith(f" [m={m}]") == (m is not None)
    assert eval(repr(w)) == w and hash(eval(repr(w))) == hash(w)


def test_weight_config_rejects_floats():
    with pytest.raises(TypeError, match="^weight c2=0.1 is a float; weights must be exact$"):
        WeightConfig(1, 0.1, 2)
    with pytest.raises(TypeError, match="^weight c3=2.0 is a float"):
        WeightConfig(c1=1, c2=1, c3=2.0)
    with pytest.raises(TypeError, match="^weight c1='1/2' is a str; weights must be exact$"):
        WeightConfig("1/2", 1, 1)


def test_weight_config_equality_and_hash_over_its_fields():
    w = WeightConfig(1, 2, 3)
    assert w == tree_weights(3) == WeightConfig(c1=Fraction(1), c2=Fraction(2), c3=Fraction(3))
    assert hash(w) == hash(tree_weights(3))
    assert WeightConfig(1, 2, 4) != w and WeightConfig(1, 1, 2) != w
    assert WeightConfig(1, Fraction(1, 2), 2) == WeightConfig(Fraction(2, 2), Fraction(2, 4), 2)
    assert WeightConfig(1, 2, 3) != (Fraction(1), Fraction(2), Fraction(3))
    assert {w: "dyck", WeightConfig(1, 2, 4): "other"}[tree_weights(3)] == "dyck"  # the degree is no part of the key
    built = []
    keyed = functools.cache(lambda weights: built.append(weights) or len(built))
    assert keyed(w) == keyed(tree_weights(3)) == 1 and keyed(WeightConfig(1, 2, 4)) == 2


def test_weight_config_is_immutable():
    w = tree_weights(3)
    for field in ("c1", "m"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(w, field, 2)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(w, field)
    with pytest.raises(AttributeError):
        w.extra = 1
    assert w == tree_weights(3)
    assert copy.deepcopy(w) == pickle.loads(pickle.dumps(w)) == w
    named = {w: "tree 3"}
    w.__init__(5, 5, 5)  # a second __init__ rewrites nothing, so w stays findable under its hash
    assert w == WeightConfig(1, 2, 3) and named[WeightConfig(1, 2, 3)] == named[w] == "tree 3"


def test_walk_table_is_immutable_and_survives_copy_and_pickle():
    table = build_table(WeightConfig(1, Fraction(1, 2), 2), 6)
    assert "__init__" not in vars(WalkTable)  # built once, by Frozen._new
    with pytest.raises(AttributeError, match="^cannot assign to field 'weights'$"):
        table.weights = tree_weights(5)
    with pytest.raises(AttributeError, match="^cannot delete field 'columns'$"):
        del table.columns
    with pytest.raises(AttributeError):
        table.extra = 1
    with pytest.raises(TypeError):  # read-only all the way down: no column or cell is set
        table.columns[0][0] = 5
    with pytest.raises(TypeError):
        table.columns[6] = (5, 5, 5, 5)
    for twin in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert type(twin) is WalkTable
        assert twin.weights == table.weights and twin.columns == table.columns
        assert twin.row(2) == table.row(2) and twin.count(2, 6) == table.count(2, 6) == Fraction(33, 4)


def test_weight_config_repr_and_describe():
    w = WeightConfig(c1=1, c2=2, c3=3)
    assert repr(w) == "WeightConfig(c1=Fraction(1, 1), c2=Fraction(2, 1), c3=Fraction(3, 1))"
    assert repr(WeightConfig(1, Fraction(-1, 2), 0)) == (
        "WeightConfig(c1=Fraction(1, 1), c2=Fraction(-1, 2), c3=Fraction(0, 1))"
    )
    assert eval(repr(w)) == w == tree_weights(3)
    assert w.describe() == "(1, 2, 3) [m=3]"
    assert WeightConfig(1, Fraction(-1, 2), 0).describe() == "(1, -1/2, 0)"


# --- table values -----------------------------------------------------------------


def test_degree_three_axis_row():
    table = build_table(tree_weights(3), 6)
    assert [table.count(0, n) for n in range(7)] == [1, 0, 3, 0, 15, 0, 87]


def test_degree_two_gives_central_binomials():
    table = build_table(tree_weights(2), 40)
    for n in range(21):
        assert table.count(0, 2 * n) == comb(2 * n, n)


def test_unit_weights_give_catalan_numbers():
    table = build_table(WeightConfig(1, 1, 1), 16)
    for n in range(9):
        assert table.count(0, 2 * n) == catalan(n)


def test_walk_count_examples():
    t3 = build_table(tree_weights(3), 5)
    assert t3.count(1, 5) == 29
    assert t3.count(5, 3) == 0
    t4 = build_table(tree_weights(4), 6)
    assert t4.count(0, 6) == 232
    assert t4.count(2, 4) == 10


def test_count_range_errors():
    table = build_table(tree_weights(3), 3)
    with pytest.raises(IndexError):
        table.count(0, 4)
    with pytest.raises(ValueError):
        table.count(-1, 2)
    with pytest.raises(ValueError):
        table.count(0, -1)
    # i beyond the table is simply unreachable, not an error
    assert table.count(7, 3) == 0


def test_trivial_table():
    table = build_table(tree_weights(5), 0)
    assert table.count(0, 0) == 1
    assert table.count(1, 0) == 0


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        build_table(tree_weights(2), -1)


@given(weight_triples, st.integers(min_value=0, max_value=12))
def test_base_column(w, n_max):
    table = build_table(w, n_max)
    assert table.count(0, 0) == 1
    for i in range(1, n_max + 1):
        assert table.count(i, 0) == 0


@settings(max_examples=40)
@given(weight_triples, st.integers(min_value=1, max_value=10))
def test_recurrence_residuals(w, n_max):
    # a table one order larger supplies the A(i+1, n-1) entries near the
    # diagonal, so no phantom zero padding can mask a bug
    big = build_table(w, n_max + 1)
    for n in range(1, n_max + 1):
        assert big.count(0, n) == w.c3 * big.count(1, n - 1)
        for i in range(1, n_max + 1):
            expected = w.c1 * big.count(i - 1, n - 1) + w.c2 * big.count(i + 1, n - 1)
            assert big.count(i, n) == expected


@given(weight_triples, st.integers(min_value=0, max_value=10))
def test_parity_vanishing(w, n_max):
    table = build_table(w, n_max)
    for i in range(n_max + 1):
        for n in range(n_max + 1):
            if n < i or (n - i) % 2 == 1:
                assert table.count(i, n) == 0


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10))
def test_tree_tables_are_nonnegative_integers(m, n_max):
    table = build_table(tree_weights(m), n_max)
    for i in range(n_max + 1):
        for n in range(n_max + 1):
            v = table.count(i, n)
            assert v.denominator == 1
            assert v >= 0


@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=9),
)
def test_integer_weights_give_integer_entries(c1, c2, c3, n_max):
    table = build_table(WeightConfig(c1, c2, c3), n_max)
    for i in range(n_max + 1):
        for n in range(n_max + 1):
            v = table.count(i, n)
            assert v.denominator == 1
            assert v >= 0


# --- integer kernel against the square Fraction loop -------------------------------


def _reference_table(weights: WeightConfig, n_max: int) -> list[list[Fraction]]:
    """rows[i][n] = A(i, n) over the full (n_max+1)^2 square, by the plain
    Fraction recurrence that the integer kernel replaced."""
    size = n_max + 1
    zero = Fraction(0)
    rows = [[zero] * size for _ in range(size)]
    rows[0][0] = Fraction(1)
    for n in range(1, size):
        prev = n - 1
        rows[0][n] = weights.c3 * rows[1][prev]
        for i in range(1, size):
            acc = weights.c1 * rows[i - 1][prev]
            if i + 1 < size:
                acc += weights.c2 * rows[i + 1][prev]
            rows[i][n] = acc
    return rows


def _assert_matches_reference(weights: WeightConfig, n_max: int) -> None:
    rows = _reference_table(weights, n_max)
    table = build_table(weights, n_max)
    for n in range(n_max + 1):
        for i in range(n_max + 3):
            got = table.count(i, n)
            assert type(got) is Fraction
            assert got == (rows[i][n] if i <= n_max else 0), (i, n)
    for i in range(n_max + 1):
        assert tuple(table.count(i, n) for n in range(n_max + 1)) == tuple(rows[i])


SWEEP_WEIGHTS = [
    *(tree_weights(m) for m in range(1, 9)),
    WeightConfig(Fraction(2, 5), Fraction(1, 3), Fraction(4, 7)),
    WeightConfig(1, 0, 2),
    WeightConfig(0, 1, 2),
    WeightConfig(0, 0, 0),
    WeightConfig(-1, Fraction(1, 2), Fraction(-3, 4)),
]


@settings(max_examples=15, deadline=None)
@pytest.mark.parametrize("weights", SWEEP_WEIGHTS, ids=[w.describe() for w in SWEEP_WEIGHTS])
@given(n_max=st.integers(min_value=0, max_value=40))
@example(n_max=40)
def test_integer_kernel_matches_reference(weights, n_max):
    _assert_matches_reference(weights, n_max)


signed_weights = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@settings(max_examples=60, deadline=None)
@given(st.builds(WeightConfig, signed_weights, signed_weights, signed_weights), st.integers(0, 40))
def test_integer_kernel_matches_reference_on_any_weights(w, n_max):
    _assert_matches_reference(w, n_max)


# --- one row of the recurrence ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.builds(WeightConfig, signed_weights, signed_weights, signed_weights), st.integers(0, 40))
@example(WeightConfig(0, 0, 0), 40)
@example(tree_weights(1), 40)
def test_dp_row_matches_the_table_row(w, n_max):
    table = build_table(w, n_max)
    for i in range(n_max + 3):
        row = dp_row(w, i, n_max)
        assert type(row) is PowerSeries and row.order == n_max
        assert all(type(value) is Fraction for value in row)
        assert row.coeffs == tuple(table.count(i, n) for n in range(n_max + 1)), i  # count gives 0 for n < i


@settings(max_examples=60, deadline=None)
@given(st.builds(WeightConfig, signed_weights, signed_weights, signed_weights), st.integers(0, 40))
@example(WeightConfig(0, 0, 0), 40)
@example(WeightConfig(Fraction(1, 3), Fraction(4, 5), Fraction(2, 7)), 40)
def test_table_row_is_the_dp_row_as_it_stands(w, n_max):
    # the same graded ints, den 1 and base D, so == between the two is a compare of int lists
    table = build_table(w, n_max)
    for i in range(n_max + 3):
        row, expected = table.row(i), dp_row(w, i, n_max)
        assert (row._num, row._den, row._base) == (expected._num, expected._den, expected._base), i
    with pytest.raises(ValueError):
        table.row(-1)


def test_dp_row_above_the_order_is_zero():
    assert dp_row(tree_weights(3), 9, 5).coeffs == (0,) * 6
    assert dp_row(WeightConfig(Fraction(1, 3), 2, 5), 1, 0).coeffs == (0,)


@pytest.mark.parametrize("i", [0, 1, 7, 20, 29, 30, 33])
def test_dp_row_columns_hold_only_the_heights_within_reach(i):
    # column n keeps the cells within n_max - n of the row, cut from above and
    # from below; index k - skip holds the height 2k + n % 2
    w = WeightConfig(Fraction(1, 3), Fraction(4, 5), Fraction(2, 7))
    a, g = 35, 6  # over D = 105, a, b, c = 35, 84, 30 and g = gcd(84, 30)
    table = build_table(w, 30)
    for n, (skip, column) in enumerate(_columns(w, 30, i, i)):
        heights = range(2 * skip + n % 2, 2 * (skip + len(column)) + n % 2, 2)
        assert [abs(h - i) <= 30 - n for h in heights] == [True] * len(column)
        # the loop's cell at height h is N(h, n) with the factor a^u g^d of its paths taken out
        scaled = tuple(x * a ** ((n + h) // 2) * g ** ((n - h) // 2) for x, h in zip(column, heights))
        assert scaled == table.columns[n][skip : skip + len(column)]


@pytest.mark.parametrize("i", [0, 13, 200, 400])
def test_dp_loop_cells_are_no_wider_than_their_paths_without_the_shared_factors(i):
    # over D = 105, a, b, c = 35, 60, 42 and g = 6; a cell (h, n) sums at most C(n, d) paths, each
    # (b/g)^(d-j) (c/g)^j with d = (n-h)/2 <= 200, so it has at most n + 200 * bit_length(10) + 1 bits
    w = WeightConfig(Fraction(1, 3), Fraction(4, 7), Fraction(2, 5))
    n_max = 400
    bound = n_max + n_max // 2 * max(60 // 6, 42 // 6, 1).bit_length() + 1
    assert max(x.bit_length() for _, column in _columns(w, n_max, i, i) for x in column) <= bound


EDGE_WEIGHTS = [
    WeightConfig(0, 2, 3),  # c1 = 0: a = 0, every cell past n = 0 is 0
    WeightConfig(Fraction(3, 2), 0, 0),  # c2 = c3 = 0: g falls back to 1
    WeightConfig(Fraction(2, 3), 0, Fraction(5, 7)),  # c2 = 0 alone
    WeightConfig(Fraction(-3, 4), Fraction(5, 6), Fraction(-2, 9)),  # a = -27, b = 30, c = -8, g = 2
    WeightConfig(Fraction(1, 3), Fraction(4, 5), Fraction(2, 7)),
    *(tree_weights(m) for m in range(1, 9)),
]


@pytest.mark.parametrize("w", EDGE_WEIGHTS, ids=[w.describe() for w in EDGE_WEIGHTS])
def test_dp_rows_match_the_path_enumeration_and_the_closed_form_at_edge_weights(w):
    table = build_table(w, 12)
    for i in range(15):
        expected = tuple(enumerate_dyck(w, i, n) for n in range(13))
        assert dp_row(w, i, 12).coeffs == table.row(i).coeffs == expected, i
    table = build_table(w, 200)
    for i in range(203):
        expected = poids_gf(w, i, 200)
        assert dp_row(w, i, 200) == table.row(i) == expected, i


def test_dp_row_shares_the_table_guard_and_checks():
    with pytest.raises(FeasibilityError) as row_refused:
        dp_row(tree_weights(3), 0, 50_000)
    with pytest.raises(FeasibilityError) as table_refused:
        build_table(tree_weights(3), 50_000)
    with pytest.raises(FeasibilityError) as guard_refused:
        table_guard(tree_weights(3), 50_000)
    assert str(row_refused.value) == str(table_refused.value) == str(guard_refused.value)
    with pytest.raises(ValueError):
        dp_row(tree_weights(2), 0, -1)


def test_dp_row_holds_one_column_and_the_row():
    # build_table at this order holds about 350 MiB
    tracemalloc.start()
    try:
        row = dp_row(tree_weights(3), 0, 2480)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row[2] == 3 and row.order == 2480
    assert peak < 8 << 20


# --- feasibility guard --------------------------------------------------------------


def test_guard_names_the_limit_and_the_estimate():
    with pytest.raises(FeasibilityError) as refused:
        build_table(tree_weights(3), 50_000)
    message = str(refused.value)
    assert str(MAX_TABLE_BYTES) in message
    # 50000^2 // 4 + 50001 cells, each at most 50000 * bit_length(3) bits: 30-bit
    # digits of 4 bytes, plus a 24-byte header and an 8-byte slot
    assert str((50_000**2 // 4 + 50_001) * (4 * (100_000 // 30 + 1) + 32)) in message


@pytest.mark.parametrize(
    "weights",
    # the widest weights the benchmark draws: over D = 105, max(|a| + |b|, |c|) = 182
    [tree_weights(8), WeightConfig(Fraction(4, 3), Fraction(2, 5), Fraction(1, 7))],
)
def test_guard_admits_benchmark_sizes(weights):
    assert build_table(weights, 506).n_max == 506


# --- the eigenvector identity sum_i A(i, n) * w_i(x) = x^n (mass conservation at x = m) ----

IDENTITY_GRID = (1, -1, 0, Fraction(1, 2), Fraction(-2, 3), 3)
IDENTITY_TRIPLES = [WeightConfig(*w) for w in product(IDENTITY_GRID, repeat=3) if w[0] != 0]


def x_power(n: int) -> tuple:
    return (0,) * n + (1,)


def value_at(coeffs: tuple, x: int) -> Fraction:
    return sum(c * x**k for k, c in enumerate(coeffs))


@pytest.mark.parametrize("m,n,expected", [(3, 2, 9), (2, 4, 16), (4, 0, 1)])
def test_mass_check_examples(m, n, expected):
    table = build_table(tree_weights(m), max(n, 1))
    assert value_at(mass_check(table, n), m) == expected


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_mass_conservation(m):
    table = build_table(tree_weights(m), 12)
    for n in range(13):
        assert mass_check(table, n) == x_power(n)
        assert value_at(mass_check(table, n), m) == Fraction(m) ** n


def test_mass_check_holds_for_every_weight_with_c1_nonzero():
    for weights in IDENTITY_TRIPLES:
        table = build_table(weights, 30)
        for n in range(31):
            assert mass_check(table, n) == x_power(n), (weights, n)


@pytest.mark.parametrize("weights", [tree_weights(3), WeightConfig(Fraction(1, 3), Fraction(4, 5), Fraction(2, 7)),
                                     WeightConfig(-3, Fraction(2, 7), Fraction(-5, 4)), WeightConfig(1, 0, 3),
                                     WeightConfig(2, 3, 0)])
def test_mass_check_catches_every_single_cell_corruption(weights):
    table = build_table(weights, 12)
    for n in range(13):
        for k in range(len(table.columns[n])):
            columns = [list(column) for column in table.columns]
            columns[n][k] += 1
            assert mass_check(WalkTable._new(weights=weights, columns=columns), n) != x_power(n), (n, k)
        assert mass_check(table, n) == x_power(n)


def test_mass_check_usage_errors():
    table = build_table(tree_weights(3), 4)
    with pytest.raises(ValueError, match="c1"):
        mass_check(build_table(WeightConfig(0, 1, 1), 4), 2)
    with pytest.raises(IndexError):
        mass_check(table, 9)
    with pytest.raises(ValueError, match="^n must be an integer >= 0, got -1$"):
        mass_check(table, -1)
