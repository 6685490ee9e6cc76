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

from treewalks.genfunc import poids_gf, tree_gf
from treewalks.recurrence import DEFAULT_MAX_STATES, WeightConfig, WalkTable, build_table, mass_check, tree_weights
from treewalks.routes import ROUTES, SCOPES, open_route
from treewalks.verify import CHECKS, open_check

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
TRIPLES = [(f"weights {w.describe()}", w) for w in GENERAL_TRIPLES]
TREES = SCOPES["tree"]  # (where, weights) for the degrees m = 2..m_max

# The size of each verify.CHECKS row here, keyed by (scope, title template):
# (weight configurations, order).  Each is at least verify's default size.
SIZES = {
    ("tree", "dp = closed form, {where}, n<={order}"): (TREES(8), 60),
    ("tree", "dp = constructed gf, {where}, n<={order}"): (TREES(8), 60),
    ("tree", "dp = tree oracle, {where}, n<={order}"): (TREES(4), 10),
    ("tree", "eigenvector identity sum_i A(i,n)*w_i(x) = x^n, {where}, n<={order}"): (TREES(8), 60),
    ("dyck", "dp = gf, {where}, n<={order}"): (TRIPLES, 14),
    ("dyck", "dp = path enumeration, {where}, n<={order}"): (TRIPLES, 14),
    ("dyck", "series algebra by products (a, b, c, d_i), {where}"): (
        TRIPLES + [(f"weights {w.describe()}", w) for _, w in TREES(4)],
        60,
    ),
    ("dyck", "eigenvector identity sum_i A(i,n)*w_i(x) = x^n, {where}, n<={order}"): (TRIPLES, 60),
    ("freegroup", "dp = free-group words, {where}, n<={order}"): (SCOPES["freegroup"](0), 8),
}


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
def table(weights: WeightConfig, n_max: int) -> WalkTable:
    return build_table(weights, n_max)


def run_rows(*keys: tuple[str, str]) -> None:
    """Run each keyed row of verify.CHECKS on its SIZES, as verify runs it."""
    for key in keys:
        row = next(row for row in CHECKS if row[:2] == key)
        configs, order = SIZES[key]
        for where, weights in configs:
            title, run = open_check(row, where, weights, order, DEFAULT_MAX_STATES, lambda w: table(w, order))
            failure = run()
            assert failure is None, f"{title}: {failure}"


def test_every_check_row_has_acceptance_sizes():
    assert [row[:2] for row in CHECKS] == list(SIZES)


@criterion("criterion 1: A_2(0,2n) = C(2n,n) for n <= 20, dp and gf")
def test_central_binomial_identification():
    dp = table(tree_weights(2), 40)
    series = tree_gf(2, 0, 40)
    for n in range(21):
        expected = comb(2 * n, n)
        assert dp.count(0, 2 * n) == expected
        assert series[2 * n] == expected
    assert tuple(dp.count(0, 2 * n) for n in range(11)) == OEIS_A000984


@criterion("criterion 2: closed form = constructed gf = recurrence, m in 2..8, i, n <= 60")
def test_closed_form_matches_recurrence():
    run_rows(("tree", "dp = closed form, {where}, n<={order}"), ("tree", "dp = constructed gf, {where}, n<={order}"))


@criterion("criterion 3: exhaustive enumeration = dp = gf, five weight triples, n <= 14")
def test_general_weights_equivalence():
    run_rows(("dyck", "dp = gf, {where}, n<={order}"), ("dyck", "dp = path enumeration, {where}, n<={order}"))


@criterion("criterion 4: explicit tree walks = recurrence, m in {2,3,4}, n <= 10")
def test_tree_oracle_agreement():
    run_rows(("tree", "dp = tree oracle, {where}, n<={order}"))


@criterion("criterion 5: free-group word counts = A_{2g}(i,n), g in {1,2}, n <= 8")
def test_free_group_agreement():
    run_rows(("freegroup", "dp = free-group words, {where}, n<={order}"))


@criterion("criterion 6: algebraic residuals vanish mod t^61")
def test_algebraic_residuals():
    run_rows(("dyck", "series algebra by products (a, b, c, d_i), {where}"))


@criterion("criterion 7: sum_i V_m(i) A_m(i,n) = m^n, m in 2..5, n <= 16")
def test_mass_conservation():
    # The identity sum_i A(i,n)*w_i(x) = x^n for every weight; at tree weights w_i(m) = V_m(i).
    run_rows(("tree", "eigenvector identity sum_i A(i,n)*w_i(x) = x^n, {where}, n<={order}"), ("dyck", "eigenvector identity sum_i A(i,n)*w_i(x) = x^n, {where}, n<={order}"))
    for m in range(2, 6):
        for n in range(17):
            assert sum(c * m**k for k, c in enumerate(mass_check(table(tree_weights(m), 16), n))) == m**n


@criterion("criterion 8: vendored OEIS prefixes reproduced by every route")
def test_sequence_prefixes():
    for m, prefix in ((3, OEIS_A089022[:5]), (4, OEIS_A035610[:4])):
        order = 2 * (len(prefix) - 1)
        for key in ROUTES:
            read = open_route(*key, tree_weights(m), 0, order, DEFAULT_MAX_STATES)
            assert tuple(read(2 * k) for k in range(len(prefix))) == prefix, key


@criterion("criterion 9: A(i,n) = 0 whenever n < i or n and i differ in parity")
def test_parity_vanishing():
    # Every route's reader, at its verify size: dp and gf rows, the tree oracle, the path enumeration.
    configs = {"walks": (TREES(4), {"tree": 10}), "dyck": (TRIPLES, {"enum": 14})}
    for command, method in ROUTES:
        weight_configs, caps = configs[command]
        order = caps.get(method, 24)
        for _, weights in weight_configs:
            readers = [open_route(command, method, weights, i, order, DEFAULT_MAX_STATES) for i in range(order + 1)]
            for n, i in product(range(order + 1), repeat=2):  # length-major: an oracle memo holds one length
                if n < i or (n - i) % 2:
                    assert readers[i](n) == 0, (command, method, weights, i, n)


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
            assert tree_gf(m, i, 300).coeffs == tuple(table.count(i, n) for n in range(table.n_max + 1))
    for w in BENCHMARK_TRIPLES:
        table = build_table(w, 220)
        for i in (0, 5, 6):
            assert poids_gf(w, i, 220).coeffs == tuple(table.count(i, n) for n in range(table.n_max + 1))


@criterion("criterion 11: poids_gf = dp on a signed and zero weight grid through t^24, c2 = 0 included")
def test_poids_gf_matches_recurrence_on_signed_grid():
    for c1, c2, c3 in product(SIGNED_GRID, repeat=3):
        w = WeightConfig(c1, c2, c3)
        table = build_table(w, 24)
        for i in (0, 1, 3):
            assert poids_gf(w, i, 24).coeffs == tuple(table.count(i, n) for n in range(table.n_max + 1))
