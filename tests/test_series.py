"""Truncated series arithmetic, pinned by a naive polynomial oracle."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_series import PowerSeries as Reference
from treewalks.genfunc import poids_gf
from treewalks.recurrence import WeightConfig, dp_row
from treewalks.series import PowerSeries, _halving_root

coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def series(min_size: int = 1, max_size: int = 9) -> st.SearchStrategy[PowerSeries]:
    return st.lists(coeff, min_size=min_size, max_size=max_size).map(PowerSeries)


def poly_mul(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """Schoolbook polynomial product, the oracle for the Cauchy product."""
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for a, x in enumerate(f):
        for b, y in enumerate(g):
            out[a + b] += x * y
    return out


# --- construction and inspection -----------------------------------------------


def test_empty_coefficients_rejected():
    with pytest.raises(ValueError):
        PowerSeries([])


def test_order_and_getitem():
    f = PowerSeries([1, 2, 3])
    assert f.order == 2
    assert f[1] == 2
    with pytest.raises(IndexError):
        f[3]
    with pytest.raises(ValueError, match="^coefficient index must be an integer >= 0, got -1$"):
        f[-1]


def test_constants():
    assert PowerSeries.one(3).coeffs == (1, 0, 0, 0)
    assert PowerSeries.zero(2).coeffs == (0, 0, 0)
    assert PowerSeries.constant(Fraction(1, 2), 1).coeffs == (Fraction(1, 2), 0)


def test_immutable():
    f = PowerSeries([1])
    with pytest.raises(AttributeError):
        f.coeffs = (Fraction(2),)
    with pytest.raises(AttributeError, match="^cannot delete field '_num'$"):
        del f._num
    assert f == PowerSeries([1])


@pytest.mark.parametrize(
    "build",
    [
        lambda: dp_row(WeightConfig(1, Fraction(1, 2), 2), 1, 9),
        lambda: poids_gf(WeightConfig(Fraction(1, 3), Fraction(4, 5), Fraction(2, 7)), 2, 9),
        lambda: PowerSeries([1, Fraction(-2, 3), 0, 5]),
    ],
    ids=["dp row", "gf row", "list-built"],
)
def test_a_series_survives_copy_and_pickle(build):
    f = build()
    for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert type(twin) is PowerSeries
        assert twin == f and twin.coeffs == f.coeffs and twin.order == f.order
    f.__init__([9])  # a second __init__ rewrites nothing
    assert f == build() and f.coeffs == build().coeffs and f.order == build().order


def test_str_rendering():
    assert str(PowerSeries([1, 0, -2])) == "1 - 2*t^2 + O(t^3)"
    assert str(PowerSeries([-1, 1])) == "-1 + t + O(t^2)"
    assert str(PowerSeries.zero(1)) == "0 + O(t^2)"


# --- ring operations -----------------------------------------------------------


def test_mul_difference_of_squares():
    one_plus = PowerSeries([1, 1, 0])
    one_minus = PowerSeries([1, -1, 0])
    assert (one_plus * one_minus).coeffs == (1, 0, -1)


def test_mul_identity():
    f = PowerSeries([3, Fraction(1, 2), 7])
    assert f * PowerSeries.one(2) == f


def test_mul_hand_example():
    f = PowerSeries([1, 2, 1, 0])
    g = PowerSeries([1, -1, 0, 0])
    expected = poly_mul(list(f.coeffs), list(g.coeffs))[:4]
    assert expected == [1, 1, -1, -1]
    assert (f * g).coeffs == tuple(expected)


@given(series(), series())
def test_mul_matches_polynomial_oracle(f, g):
    n = min(f.order, g.order)
    product = f * g
    oracle = poly_mul(list(f.coeffs), list(g.coeffs))[: n + 1]
    assert product.coeffs == tuple(oracle)
    assert product.order == n


@given(series(), series())
def test_mul_commutes(f, g):
    assert f * g == g * f


def test_add_sub_truncate_to_common_order():
    f = PowerSeries([1, 2, 3, 4])
    g = PowerSeries([1, 1])
    assert (f + g).coeffs == (2, 3)
    assert (f - g).coeffs == (0, 1)


def test_scalar_operations():
    f = PowerSeries([1, 2])
    assert (f * 3).coeffs == (3, 6)
    assert (3 * f).coeffs == (3, 6)
    assert (f / 2).coeffs == (Fraction(1, 2), 1)
    with pytest.raises(ZeroDivisionError):
        f / 0
    assert (-f).coeffs == (-1, -2)


@given(series(), st.integers(min_value=0, max_value=5))
def test_pow_matches_repeated_mul(f, k):
    expected = PowerSeries.one(f.order)
    for _ in range(k):
        expected = expected * f
    assert f**k == expected


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        PowerSeries([1]) ** -1


def test_pow_spends_no_product_on_one(monkeypatch):
    # square and multiply: bit_length(k) - 1 squarings, popcount(k) - 1 products
    f = PowerSeries([1, Fraction(1, 2), -2])
    powers = [PowerSeries.one(f.order)]
    for _ in range(40):
        powers.append(powers[-1] * f)
    calls = 0
    original = PowerSeries.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(PowerSeries, "__mul__", counted)
    for k in range(1, 41):
        calls = 0
        assert f**k == powers[k]
        assert calls == k.bit_length() - 1 + bin(k).count("1") - 1


# --- inverse, sqrt, shifts ------------------------------------------------------


def test_inverse_geometric():
    f = PowerSeries([1, -1, 0, 0, 0])
    assert f.inverse().coeffs == (1, 1, 1, 1, 1)


def test_inverse_of_one():
    assert PowerSeries.one(4).inverse() == PowerSeries.one(4)


def test_inverse_hand_example():
    f = PowerSeries([2, 1, 0])
    inv = f.inverse()
    assert inv.coeffs == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))
    assert f * inv == PowerSeries.one(2)


def test_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        PowerSeries([0, 1]).inverse()


@given(series().filter(lambda f: f.coeffs[0] != 0))
def test_inverse_contract(f):
    assert f * f.inverse() == PowerSeries.one(f.order)


def test_sqrt_of_one():
    assert PowerSeries.one(5).sqrt() == PowerSeries.one(5)


def test_sqrt_perfect_square():
    assert PowerSeries([1, 2, 1]).sqrt().coeffs == (1, 1, 0)


def test_sqrt_central_radicand():
    # frozen after checking the square reproduces the radicand exactly
    f = PowerSeries([1, 0, -4, 0, 0, 0, 0, 0, 0])
    s = f.sqrt()
    assert s * s == f
    assert s.coeffs == (1, 0, -2, 0, -2, 0, -4, 0, -10)


def test_sqrt_requires_unit_constant():
    with pytest.raises(ValueError):
        PowerSeries([4, 1]).sqrt()
    with pytest.raises(ValueError):
        PowerSeries([0, 1]).sqrt()


@given(st.lists(coeff, min_size=0, max_size=8))
def test_sqrt_contract(tail):
    f = PowerSeries([Fraction(1), *tail])
    s = f.sqrt()
    assert s * s == f
    assert s.coeffs[0] == 1


def test_shift_div_examples():
    assert PowerSeries([0, 0, 1, 1]).shift_div(2).coeffs == (1, 1)
    with pytest.raises(ValueError):
        PowerSeries([1, 1]).shift_div(1)
    with pytest.raises(ValueError):
        PowerSeries([0, 1]).shift_div(2)


def test_shift_div_after_sqrt():
    f = PowerSeries([1, 0, -4, 0, 0, 0, 0, 0, 0])
    g = (PowerSeries.one(8) - f.sqrt()).shift_div(2)
    assert g.coeffs == (2, 0, 2, 0, 4, 0, 10)
    assert g.order == 6


@given(series(), st.integers(min_value=0, max_value=4))
def test_shift_round_trip(f, k):
    lifted = f.shift_mul(k)
    assert lifted.order == f.order + k
    assert lifted.shift_div(k) == f


# --- equality semantics ----------------------------------------------------------


def test_equality_up_to_common_order():
    assert PowerSeries([1, 2]) == PowerSeries([1, 2, 99])
    assert PowerSeries([1, 2]) != PowerSeries([1, 3, 2])
    assert PowerSeries([1]) != 1


def test_truncate():
    f = PowerSeries([1, 2, 3])
    assert f.truncate(1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        f.truncate(5)


# --- the graded integer kernel against the Fraction reference --------------------


def _outcome(run):
    try:
        return run()
    except Exception as exc:  # the exception type and message are compared
        return type(exc), str(exc)


def _assert_same(got, want):
    if isinstance(want, Reference):
        assert isinstance(got, PowerSeries)
        assert all(type(c) is Fraction for c in got.coeffs)
        assert got.coeffs == want.coeffs
        assert got.order == want.order
        assert list(got) == list(want)
        assert str(got) == str(want)
        assert repr(got) == repr(want)
        assert got == PowerSeries(want.coeffs)
    else:
        assert got == want


def _unit(f, arg, index):
    """f with its constant term replaced by 1: a radicand sqrt accepts."""
    return f - type(f).constant(f[0], f.order) + type(f).one(f.order)


# name -> (number of series operands, op(*series, scalar, index))
OPS = {
    "+": (2, lambda f, g, x, k: f + g),
    "-": (2, lambda f, g, x, k: f - g),
    "*": (2, lambda f, g, x, k: f * g),
    "==": (2, lambda f, g, x, k: f == g),
    "neg": (1, lambda f, x, k: -f),
    "times scalar": (1, lambda f, x, k: f * x),
    "scalar times": (1, lambda f, x, k: x * f),
    "over scalar": (1, lambda f, x, k: f / x),
    "pow": (1, lambda f, x, k: f**k),
    "inverse": (1, lambda f, x, k: f.inverse()),
    "sqrt": (1, lambda f, x, k: f.sqrt()),
    "sqrt of unit": (1, lambda f, x, k: _unit(f, x, k).sqrt()),
    "shift_div": (1, lambda f, x, k: f.shift_div(k)),
    "shift_mul": (1, lambda f, x, k: f.shift_mul(k)),
    "truncate": (1, lambda f, x, k: f.truncate(k)),
    "getitem": (1, lambda f, x, k: f[k]),
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_graded_kernel_matches_fraction_reference(data):
    starts = data.draw(st.lists(st.lists(coeff, min_size=1, max_size=7), min_size=2, max_size=3))
    pool = [(PowerSeries(c), Reference(c)) for c in starts]
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        arity, op = OPS[data.draw(st.sampled_from(sorted(OPS)))]
        picks = [data.draw(st.sampled_from(pool)) for _ in range(arity)]
        arg = data.draw(st.one_of(st.integers(min_value=-2, max_value=3), coeff))
        index = data.draw(st.integers(min_value=-1, max_value=3))
        got = _outcome(lambda: op(*(graded for graded, _ in picks), arg, index))
        want = _outcome(lambda: op(*(reference for _, reference in picks), arg, index))
        _assert_same(got, want)
        if isinstance(want, Reference):
            pool.append((got, want))


BASE_CASES = {
    # an inverse and a sqrt are graded on different bases
    "inverse times sqrt": lambda S: S([3, 1, -2, 5, 0, 1]).inverse() * S([1, Fraction(1, 3), 0, -2, 1, 0]).sqrt(),
    "sum across bases": lambda S: S([2, 1, 0, 1, 4]).inverse() + S([1, 0, -3, 0, 1]).sqrt() - S([5, 7, 0, 0, 0]).inverse(),
    "equal across bases": lambda S: S([2, 1, 0, 1]).inverse() == (S([2, 1, 0, 1]) * Fraction(1, 2)).inverse() / 2,
    "negative constant term": lambda S: S([-2, 1, Fraction(1, 2), 0, 3]).inverse(),
    "negative constant term, squared": lambda S: S([Fraction(-3, 4), 2, 0, -1, 0, 0]).inverse() ** 2,
    # the halving is not exact at the radicand's own base
    "sqrt of 1 + t": lambda S: S([1, 1, 0, 0, 0, 0, 0, 0]).sqrt(),
    "sqrt of 1 + t/3 - t^2/2": lambda S: S([1, Fraction(1, 3), Fraction(-1, 2), 0, 0, 0, 0]).sqrt(),
    "sqrt of an inverse": lambda S: (S([1, -1, 0, 0, 0, 0]).inverse()).sqrt(),
    "inverse of a zero constant term": lambda S: S([0, Fraction(-2, 3), 1]).inverse(),
    "shift_div refusal names the coefficient": lambda S: (S([1, 0, 0, 0]) - S([2, 1, 0]).inverse() * 2).shift_div(2),
}


@pytest.mark.parametrize("case", BASE_CASES)
def test_graded_kernel_matches_reference_on(case):
    build = BASE_CASES[case]
    _assert_same(_outcome(lambda: build(PowerSeries)), _outcome(lambda: build(Reference)))


def test_halving_remainder_raises():
    # 1 + t at its own base: s_1 = 1/2 is not an integer
    with pytest.raises(ArithmeticError):
        _halving_root([1, 1, 0])
