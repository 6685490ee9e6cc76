"""Generating functions against the recurrence table and the enumerators."""

from __future__ import annotations

import gc
import time
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treewalks.genfunc as genfunc
from gf_reference import dyck_reference, irreducible_reference, poids_reference, tree_reference
from poids_reference import irreducible_components, valid_paths, weight_and_poids
from treewalks.genfunc import dyck_gf, irreducible_gf, poids_gf, tree_gf
from treewalks.oracles import enumerate_dyck
from treewalks.rationals import format_number
from treewalks.recurrence import FeasibilityError, WeightConfig, build_table, dp_row, step_bits, tree_weights
from treewalks.series import PowerSeries

small_weights = st.fractions(min_value=0, max_value=3, max_denominator=4)
weight_triples = st.builds(WeightConfig, small_weights, small_weights, small_weights)
live_triples = st.builds(
    WeightConfig,
    small_weights,
    small_weights.filter(lambda q: q != 0),
    small_weights,
)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def decimals(s: PowerSeries) -> list[str]:
    return [format_number(c) for c in s.coeffs]


# --- a(t): all paths ending on the axis, by weight --------------------------------


def test_dyck_gf_catalan():
    a = dyck_gf(WeightConfig(1, 1, 1), 6)
    assert decimals(a) == ["1", "0", "1", "0", "2", "0", "5"]


def test_dyck_gf_degenerate_weights():
    assert dyck_gf(WeightConfig(0, 7, 7), 5) == PowerSeries.one(5)
    assert dyck_gf(WeightConfig(7, 0, 7), 5) == PowerSeries.one(5)


def test_dyck_gf_weighted():
    a = dyck_gf(WeightConfig(1, 2, 3), 4)
    assert decimals(a) == ["1", "0", "2", "0", "8"]
    for n in range(3):
        assert a[2 * n] == catalan(n) * 2**n


@settings(max_examples=30)
@given(weight_triples, st.integers(min_value=0, max_value=16))
def test_dyck_gf_quadratic_residual(w, order):
    q = w.c1 * w.c2
    a = dyck_gf(w, order)
    residual = (a * a * q).shift_mul(2).truncate(order) - a + PowerSeries.one(order)
    assert residual == PowerSeries.zero(order)


@settings(max_examples=30)
@given(live_triples, st.integers(min_value=0, max_value=14))
def test_dyck_gf_is_weight_sum(w, order):
    # independent oracle: sum path weights directly
    unit = WeightConfig(w.c1, w.c2, w.c2)  # poids == weight when c3 == c2
    a = dyck_gf(w, order)
    for n in range(min(order, 10) + 1):
        assert a[n] == enumerate_dyck(unit, 0, n)


# --- (b, c): irreducible paths by weight and poids ---------------------------------


def test_irreducible_gf_unit_weights():
    b, c = irreducible_gf(WeightConfig(1, 1, 1), 4)
    assert decimals(b) == ["0", "0", "1", "0", "1"]
    assert c == b


def test_irreducible_gf_tree_weights():
    b, c = irreducible_gf(tree_weights(3), 2)
    assert decimals(b) == ["0", "0", "2"]
    assert decimals(c) == ["0", "0", "3"]


def test_irreducible_gf_zero_axis_weight():
    _, c = irreducible_gf(WeightConfig(1, 1, 0), 4)
    assert c == PowerSeries.zero(4)


def _check_irreducible_gf_against_enumeration(w):
    # oracle: filter single-component paths out of the full enumeration
    b, c = irreducible_gf(w, 8)
    for n in range(9):
        weight_sum = Fraction(0)
        poids_sum = Fraction(0)
        for path in valid_paths():
            if len(path) == n > 0 and path.final_height == 0 and len(irreducible_components(path)) == 1:
                weight, poids = weight_and_poids(path, w)
                weight_sum += weight
                poids_sum += poids
        assert b[n] == weight_sum, (w, n)
        assert c[n] == poids_sum, (w, n)


def test_irreducible_gf_against_enumeration():
    _check_irreducible_gf_against_enumeration(WeightConfig(1, Fraction(1, 2), 2))


def test_irreducible_gf_at_zero_c2():
    # at c2 = 0 only the one-peak path UD is irreducible, and c is its poids c1*c3
    for w in (WeightConfig(1, 0, 5), WeightConfig(2, 0, Fraction(3, 2))):
        _check_irreducible_gf_against_enumeration(w)


@settings(max_examples=30)
@given(weight_triples, st.integers(min_value=0, max_value=16))
def test_system_consistency(w, order):
    q = w.c1 * w.c2
    a = dyck_gf(w, order)
    b, _ = irreducible_gf(w, order)
    assert a == (PowerSeries.one(order) - b).inverse()
    assert b == (a * q).shift_mul(2).truncate(order)


# --- d_i(t): paths ending at height i, by poids -------------------------------------


def test_poids_gf_matches_degree_three_rows():
    assert decimals(poids_gf(tree_weights(3), 0, 6)) == [
        "1",
        "0",
        "3",
        "0",
        "15",
        "0",
        "87",
    ]
    assert decimals(poids_gf(tree_weights(3), 1, 5)) == ["0", "1", "0", "5", "0", "29"]


def test_poids_gf_order_zero():
    assert poids_gf(WeightConfig(2, 3, 5), 0, 0).coeffs == (1,)


def test_poids_gf_height_beyond_order():
    assert poids_gf(WeightConfig(1, 1, 1), 7, 4) == PowerSeries.zero(4)


def test_poids_gf_accepts_zero_c2():
    # nothing divides by c2: a path steps down only onto the axis (the signed grid
    # below compares every c2 = 0 row with dp)
    assert decimals(poids_gf(WeightConfig(1, 0, 3), 0, 6)) == ["1", "0", "3", "0", "9", "0", "27"]
    assert decimals(poids_gf(WeightConfig(1, 0, 5), 2, 6)) == ["0", "0", "1", "0", "5", "0", "25"]


@settings(max_examples=30, deadline=None)
@given(weight_triples, st.integers(min_value=0, max_value=10))
def test_poids_gf_matches_recurrence(w, n_max):
    table = build_table(w, n_max)
    for i in range(n_max + 1):
        series = poids_gf(w, i, n_max)
        for n in range(n_max + 1):
            assert series[n] == table.count(i, n)


@settings(max_examples=25)
@given(live_triples, st.integers(min_value=1, max_value=6), st.integers(min_value=6, max_value=14))
def test_poids_gf_product_structure(w, i, order):
    d = poids_gf(w, 0, order)
    lift = (dyck_gf(w, order) * w.c1) ** i
    assert poids_gf(w, i, order) == (d * lift).shift_mul(i).truncate(order)


# --- the tree specialization ----------------------------------------------------------


def test_tree_gf_central_binomials():
    f = tree_gf(2, 0, 8)
    assert decimals(f) == ["1", "0", "2", "0", "6", "0", "20", "0", "70"]
    for n in range(5):
        assert f[2 * n] == comb(2 * n, n)


def test_tree_gf_degree_four():
    assert decimals(tree_gf(4, 0, 6)) == ["1", "0", "4", "0", "28", "0", "232"]


def test_tree_gf_distance_two():
    assert decimals(tree_gf(3, 2, 4)) == ["0", "0", "1", "0", "7"]


def test_tree_gf_rejects_small_degree():
    for m in (0, -1):
        with pytest.raises(ValueError):
            tree_gf(m, 0, 4)


def test_tree_gf_single_edge():
    # m = 1: L = t, so d_i = t^i / (1 - t^2); test_dp_row_is_the_tree_series compares it with dp
    assert decimals(tree_gf(1, 0, 6)) == ["1", "0", "1", "0", "1", "0", "1"]
    assert decimals(tree_gf(1, 3, 6)) == ["0", "0", "0", "1", "0", "1", "0"]


def test_tree_gf_distance_beyond_order():
    assert tree_gf(3, 9, 4) == PowerSeries.zero(4)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_closed_form_equals_constructed_route(m):
    for i in range(5):
        assert tree_gf(m, i, 12) == poids_gf(tree_weights(m), i, 12)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_tree_gf_parity(m):
    for i in range(4):
        f = tree_gf(m, i, 9)
        for n in range(10):
            if n < i or (n - i) % 2 == 1:
                assert f[n] == 0


# --- genfunc takes no series operation, and no row shares a series with another route --

RATIONAL = WeightConfig(2, Fraction(1, 2), 3)
CLOSED_FORMS = {
    "poids_gf": (partial(poids_gf, RATIONAL), RATIONAL),
    "poids_gf tree": (partial(poids_gf, tree_weights(3)), tree_weights(3)),
    "tree_gf": (partial(tree_gf, 3), tree_weights(3)),
}
# a(t) and (b, c) take no height: each is built at order 10 + i, against its radical reference
SERIES_FORMS = {
    "dyck_gf": (lambda order: (dyck_gf(RATIONAL, order),), lambda order: (dyck_reference(RATIONAL, order),)),
    "irreducible_gf": (partial(irreducible_gf, RATIONAL), partial(irreducible_reference, RATIONAL)),
}
SERIES_OPERATIONS = (
    "sqrt", "inverse", "__pow__", "__mul__", "__rmul__", "__truediv__",
    "__add__", "__sub__", "__neg__", "shift_div", "shift_mul", "truncate",
)


@pytest.mark.parametrize("i", [0, 3])
@pytest.mark.parametrize("route", [*CLOSED_FORMS, *SERIES_FORMS])
def test_each_closed_form_takes_no_series_operation(monkeypatch, route, i):
    if route in CLOSED_FORMS:
        gf, weights = CLOSED_FORMS[route]
        build, expected = lambda: (gf(i, 10),), (dp_row(weights, i, 10),)
    else:
        gf, reference = SERIES_FORMS[route]
        build, expected = partial(gf, 10 + i), reference(10 + i)

    def refuse(*args):
        raise AssertionError(f"{route} called a series operation")

    for name in SERIES_OPERATIONS:
        monkeypatch.setattr(PowerSeries, name, refuse)
    assert [series.coeffs for series in build()] == [series.coeffs for series in expected]


@pytest.mark.parametrize("route", CLOSED_FORMS)
def test_closed_forms_do_not_read_dyck_gf(monkeypatch, route):
    # dyck_gf is what the d_i factoring check compares poids_gf against, so
    # neither composite series may be built from it
    gf, weights = CLOSED_FORMS[route]
    monkeypatch.setattr(genfunc, "dyck_gf", lambda w, order: dyck_gf(w, order) * 2)
    table = build_table(weights, 10)
    for i in range(12):
        series = gf(i, 10)
        assert [series[n] for n in range(11)] == [table.count(i, n) for n in range(11)]


# --- the size guard bounds every int the graded kernel builds ------------------------

GUARD_WEIGHTS = [
    *(tree_weights(m) for m in (2, 3, 5, 8)),
    WeightConfig(Fraction(1, 3), Fraction(4, 5), Fraction(2, 7)),
    WeightConfig(Fraction(-5, 3), Fraction(-5, 6), Fraction(-2, 3)),
    WeightConfig(Fraction(1, 2), 1, Fraction(1, 1000)),
    WeightConfig(Fraction(-131072, 27), Fraction(-1, 54), Fraction(8, 3)),
    WeightConfig(Fraction(1, 442368), Fraction(1, 24576), 0),
    WeightConfig(1000, 1, Fraction(1, 7)),
]


@pytest.mark.parametrize("order", [0, 1, 2, 7, 30, 90])
@pytest.mark.parametrize("weights", GUARD_WEIGHTS, ids=[w.describe() for w in GUARD_WEIGHTS])
def test_size_guard_bounds_the_widest_int(monkeypatch, weights, order):
    widest, bases = 0, set()
    original = PowerSeries._new

    def measured(cls, _num, _den, _base):
        nonlocal widest
        widest = max(widest, _den.bit_length(), *(abs(x).bit_length() for x in _num))
        bases.add(_base)
        return original(_num=_num, _den=_den, _base=_base)

    original_power, original_divmod = genfunc._catalan_power, divmod

    def catalan_power(i, q, terms):
        nonlocal widest
        out = original_power(i, q, terms)
        widest = max(widest, *(abs(x).bit_length() for x in out))
        return out

    def measured_divmod(numerator, divisor):
        nonlocal widest
        widest = max(widest, abs(numerator).bit_length())
        return original_divmod(numerator, divisor)

    monkeypatch.setattr(PowerSeries, "_new", classmethod(measured))
    monkeypatch.setattr(genfunc, "_catalan_power", catalan_power)
    monkeypatch.setattr(genfunc, "divmod", measured_divmod, raising=False)
    bound = genfunc._widest_int_bits(weights, order)
    scale = lcm(weights.c1.denominator, weights.c2.denominator, weights.c3.denominator)
    calls = [partial(dyck_gf, weights, order), partial(irreducible_gf, weights, order)]
    for i in sorted({0, 1, 3, order // 2, order}):
        calls.append(partial(poids_gf, weights, i, order))
        if weights.m is not None:
            calls.append(partial(tree_gf, weights.m, i, order))
    for gf in calls:
        widest = 0
        gf()
        assert 0 < widest <= min(bound, (order + 1) * step_bits(weights)[0] + 2), (gf, widest, bound)
    assert bases <= {1, scale}, bases


def _estimate(weights: WeightConfig, order: int) -> int:
    """The bytes ``_check_size`` charges a call at this order."""
    estimates = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(genfunc, "check_cost", lambda what, estimate, ceiling, unit: estimates.append(estimate))
        genfunc._check_size(weights, order)
    return estimates[0]


def _traced_peak(gf) -> int:
    """Bytes ``gf()`` and reading every coefficient of every series it returns hold at their peak."""
    gf()  # a first call may fill interpreter caches that no later call allocates again
    gc.collect()
    tracemalloc.start()
    try:
        for series in gf():
            series.coeffs
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("order", [0, 1, 2, 7, 12, 30, 90, 300])
@pytest.mark.parametrize("weights", GUARD_WEIGHTS, ids=[w.describe() for w in GUARD_WEIGHTS])
def test_size_guard_bounds_the_traced_peak(weights, order):
    calls = {"dyck_gf": lambda: (dyck_gf(weights, order),), "irreducible_gf": partial(irreducible_gf, weights, order)}
    for i in sorted({0, 1, order}):
        calls[f"poids_gf i={i}"] = lambda i=i: (poids_gf(weights, i, order),)
        if weights.m is not None:
            calls[f"tree_gf i={i}"] = lambda i=i: (tree_gf(weights.m, i, order),)
    estimate = _estimate(weights, order)
    for name, gf in calls.items():
        assert _traced_peak(gf) <= estimate, name


# --- dp and gf hand back the same series -----------------------------------------------

SIGNED_GRID = (0, 1, -1, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), 3, Fraction(-7, 4), Fraction(11, 13))


@pytest.mark.parametrize("c1", SIGNED_GRID)
def test_dp_row_is_the_poids_series_on_a_signed_grid(c1):
    for c2, c3 in product(SIGNED_GRID, repeat=2):
        w = WeightConfig(c1, c2, c3)
        for i in (0, 1, 3, 11):
            row = dp_row(w, i, 10)
            assert row.order == 10 and row == poids_gf(w, i, 10), (w, i)


@pytest.mark.parametrize("m", range(1, 9))
def test_dp_row_is_the_tree_series(m):
    for i in (0, 1, 2, 5, 19, 20, 21, 40):
        row = dp_row(tree_weights(m), i, 20)
        assert row.order == 20 and row == tree_gf(m, i, 20), i


def test_rows_build_no_series_through_the_rational_constructor(monkeypatch):
    def refuse(cls, coeffs):
        raise RuntimeError("PowerSeries built from a list of rationals")

    monkeypatch.setattr(PowerSeries, "__new__", refuse)
    w = WeightConfig(Fraction(1, 3), Fraction(-4, 5), Fraction(2, 7))
    for i in (0, 3, 9):  # 9 is above the order: the zero series
        for row in (dp_row(w, i, 8), dp_row(tree_weights(3), i, 8), poids_gf(w, i, 8), tree_gf(3, i, 8)):
            assert row.order == 8
    for series in (dyck_gf(w, 8), *irreducible_gf(w, 8), dyck_gf(WeightConfig(0, 1, 1), 8)):
        assert series.order == 8
    with pytest.raises(RuntimeError):
        PowerSeries([1])


@pytest.mark.parametrize("gf", [dyck_gf, irreducible_gf])
def test_dyck_and_irreducible_gf_are_refused_at_once(gf):
    started = time.perf_counter()
    with pytest.raises(FeasibilityError, match=r"^series of order 200000 for weights \(1, 1, 1\) needs an estimated"):
        gf(WeightConfig(1, 1, 1), 200_000)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("i", [0, 1, 4, 12])
def test_each_gf_is_guarded_once_at_the_order_asked(monkeypatch, i):
    checked = []
    original = genfunc._check_size
    monkeypatch.setattr(genfunc, "_check_size", lambda w, order: checked.append(order) or original(w, order))
    routes = (partial(poids_gf, RATIONAL, i), partial(tree_gf, 3, i), partial(dyck_gf, RATIONAL), partial(irreducible_gf, RATIONAL))
    for gf in routes:
        checked.clear()
        gf(10)
        assert checked == [10], gf


# --- the Catalan-power series equal the radical/inverse route they replace ----------


def test_catalan_power_is_the_lagrange_coefficient():
    for i, q in product((0, 1, 2, 5), (0, 1, 2, -3, 10**20)):
        assert genfunc._catalan_power(i, q, 9) == [
            (1 if k == 0 else 0) if i == 0 else i * comb(2 * k + i, k) // (2 * k + i) * q**k for k in range(9)
        ], (i, q)


@pytest.mark.parametrize("c1", SIGNED_GRID)
def test_poids_gf_equals_the_radical_route(c1):
    for c2, c3 in product(SIGNED_GRID, repeat=2):
        if c2 == 0:  # the radical route divides by c2
            continue
        w = WeightConfig(c1, c2, c3)
        for i in (0, 1, 3, 11):
            assert poids_gf(w, i, 30) == poids_reference(w, i, 30), (w, i)


@pytest.mark.parametrize("c1", SIGNED_GRID)
def test_dyck_and_irreducible_gf_equal_the_radical_route(c1):
    for c2, c3 in product(SIGNED_GRID, repeat=2):
        w = WeightConfig(c1, c2, c3)
        for order in (0, 1, 2, 3, 10, 31):
            assert dyck_gf(w, order) == dyck_reference(w, order), (w, order)
            if c2 != 0:  # the radical route divides by c2
                assert irreducible_gf(w, order) == irreducible_reference(w, order), (w, order)


@pytest.mark.parametrize("m", range(2, 9))
def test_tree_gf_equals_the_radical_route(m):
    for i in (0, 1, 5, 20):
        assert tree_gf(m, i, 30) == tree_reference(m, i, 30), i
