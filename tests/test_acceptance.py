"""Acceptance suite: every cross-method guarantee, exact, one criterion per test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  All comparisons are exact equality of arbitrary-precision
rationals; there are no tolerances to tune.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from treewalks.genfunc import dyck_gf, poids_gf, tree_gf
from treewalks.oracles import enumerate_dyck, free_group_count, tree_walk_count
from treewalks.recurrence import WeightConfig, WalkTable, build_table, mass_check, tree_weights
from treewalks.series import PowerSeries

# Cross-checked sequence prefixes, vendored from the OEIS rather than fetched:
# even-length return counts on the m-regular tree for m = 2, 3, 4.
OEIS_A000984 = (1, 2, 6, 20, 70, 252, 924, 3432, 12870, 48620, 184756)
OEIS_A089022 = (1, 3, 15, 87, 543, 3543)
OEIS_A035610 = (1, 4, 28, 232, 2092)

GENERAL_TRIPLES = (
    WeightConfig(1, 1, 1),
    WeightConfig(1, 2, 3),
    WeightConfig(1, 3, 4),
    WeightConfig(2, 1, 5),
    WeightConfig(1, Fraction(1, 2), 2),
)


def criterion(label: str):
    """Print one PASS/FAIL line per acceptance criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  {label}")
                raise
            print(f"PASS  {label}")

        return wrapper

    return decorate


@functools.lru_cache(maxsize=None)
def tree_table(m: int, n_max: int) -> WalkTable:
    return build_table(tree_weights(m), n_max)


@functools.lru_cache(maxsize=None)
def triple_table(index: int, n_max: int) -> WalkTable:
    return build_table(GENERAL_TRIPLES[index], n_max)


@criterion("criterion 1: A_2(0,2n) = C(2n,n) for n <= 20, dp and gf")
def test_central_binomial_identification():
    table = tree_table(2, 40)
    series = tree_gf(2, 0, 40)
    for n in range(21):
        expected = comb(2 * n, n)
        assert table.count(0, 2 * n) == expected
        assert series[2 * n] == expected
    assert tuple(table.count(0, 2 * n) for n in range(11)) == OEIS_A000984


@criterion("criterion 2: closed form = recurrence, m in 2..8, i in 0..6, through t^60")
def test_closed_form_matches_recurrence():
    for m in range(2, 9):
        table = tree_table(m, 60)
        for i in range(7):
            closed = tree_gf(m, i, 60)
            constructed = poids_gf(tree_weights(m), i, 60)
            for n in range(61):
                dp = table.count(i, n)
                assert closed[n] == dp
                assert constructed[n] == dp


@criterion("criterion 3: exhaustive enumeration = dp = gf, five weight triples, n <= 14")
def test_general_weights_equivalence():
    for index, w in enumerate(GENERAL_TRIPLES):
        table = triple_table(index, 14)
        series = {i: poids_gf(w, i, 14) for i in range(15)}
        for n in range(15):
            for i in range(n + 1):
                dp = table.count(i, n)
                assert enumerate_dyck(w, i, n) == dp
                assert series[i][n] == dp


@criterion("criterion 4: explicit tree walks = recurrence, m in {2,3,4}, n <= 10")
def test_tree_oracle_agreement():
    for m in (2, 3, 4):
        table = tree_table(m, 10)
        for n in range(11):
            for i in range(n + 1):
                assert tree_walk_count(m, i, n) == table.count(i, n)


@criterion("criterion 5: free-group word counts = A_{2g}(i,n), g in {1,2}, n <= 8")
def test_free_group_agreement():
    words = {
        1: [(), (1,), (-1,), (1, 1), (-1, -1)],
        2: [(), (1,), (-2,), (1, 2), (2, -1)],
    }
    for g in (1, 2):
        table = tree_table(2 * g, 8)
        for n in range(9):
            for target in words[g]:
                assert free_group_count(g, target, n) == table.count(len(target), n)


@criterion("criterion 6: algebraic residuals vanish mod t^61")
def test_algebraic_residuals():
    order = 60
    one = PowerSeries.one(order)
    for w in GENERAL_TRIPLES + tuple(tree_weights(m) for m in (2, 3, 4)):
        q = w.c1 * w.c2
        radicand = PowerSeries([1, 0, -4 * q] + [0] * (order - 2))
        s = radicand.sqrt()
        assert s * s == radicand
        a = dyck_gf(w, order)
        assert (a * a * q).shift_mul(2).truncate(order) - a + one == PowerSeries.zero(order)
        d = poids_gf(w, 0, order)
        lift = a * w.c1
        for i in range(1, 7):
            assert poids_gf(w, i, order) == (d * lift**i).shift_mul(i).truncate(order)


@criterion("criterion 7: sum_i V_m(i) A_m(i,n) = m^n, m in 2..5, n <= 16")
def test_mass_conservation():
    for m in (2, 3, 4, 5):
        table = tree_table(m, 16)
        for n in range(17):
            assert mass_check(m, n, table) == Fraction(m) ** n


@criterion("criterion 8: vendored OEIS prefixes reproduced by every method")
def test_sequence_prefixes():
    cases = [(3, OEIS_A089022[:5], 8), (4, OEIS_A035610[:4], 6)]
    for m, prefix, n_top in cases:
        table = tree_table(m, n_top)
        closed = tree_gf(m, 0, n_top)
        constructed = poids_gf(tree_weights(m), 0, n_top)
        for k, expected in enumerate(prefix):
            n = 2 * k
            assert table.count(0, n) == expected
            assert closed[n] == expected
            assert constructed[n] == expected
            assert tree_walk_count(m, 0, n) == expected
            assert enumerate_dyck(tree_weights(m), 0, n) == expected


@criterion("criterion 9: A(i,n) = 0 whenever n < i or n and i differ in parity")
def test_parity_vanishing():
    for m in range(2, 9):
        table = tree_table(m, 60)
        for i in range(61):
            for n in range(61):
                if n < i or (n - i) % 2 == 1:
                    assert table.count(i, n) == 0
    for index, w in enumerate(GENERAL_TRIPLES):
        table = triple_table(index, 14)
        for i in range(15):
            series = poids_gf(w, i, 14)
            for n in range(15):
                if n < i or (n - i) % 2 == 1:
                    assert table.count(i, n) == 0
                    assert series[n] == 0


# The benchmark's rational draws: numerators 1, 2, 4 over denominators 3, 5, 7.
BENCHMARK_TRIPLES = (
    WeightConfig(Fraction(1, 3), Fraction(4, 5), Fraction(2, 7)),
    WeightConfig(Fraction(4, 7), Fraction(2, 5), Fraction(1, 3)),
    WeightConfig(Fraction(2, 3), Fraction(1, 7), Fraction(4, 5)),
)
SIGNED_GRID = (0, 1, -1, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), 3, Fraction(-7, 4), Fraction(11, 13))


@criterion("criterion 10: gf = dp at benchmark sizes: tree_gf to t^300, poids_gf to t^220")
def test_gf_matches_recurrence_at_benchmark_sizes():
    for m in range(2, 9):
        table = build_table(tree_weights(m), 300)
        for i in (0, 1, 17, 24):
            assert tree_gf(m, i, 300).coeffs == table.row(i)
    for w in BENCHMARK_TRIPLES:
        table = build_table(w, 220)
        for i in (0, 5, 6):
            assert poids_gf(w, i, 220).coeffs == table.row(i)


@criterion("criterion 11: poids_gf = dp on a signed and zero weight grid through t^24")
def test_poids_gf_matches_recurrence_on_signed_grid():
    for c1, c2, c3 in product(SIGNED_GRID, repeat=3):
        w = WeightConfig(c1, c2, c3)
        table = build_table(w, 24)
        for i in (0, 1, 3):
            if c2 == 0:
                with pytest.raises(ValueError):
                    poids_gf(w, i, 24)
            else:
                assert poids_gf(w, i, 24).coeffs == table.row(i)
