import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpchroma.errors import InexactDivision
from dpchroma.poly import IntPoly, M, eventual_compare, forest_polynomial


def test_normalization_and_degree():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0]).is_zero()
    assert (M - M).is_zero()


def test_arithmetic_and_eval():
    p = M**2 - M
    assert p(3) == 6
    assert IntPoly()(12345) == 0
    assert (M - 1) ** 3 == M**3 - 3 * M**2 + 3 * M - 1
    assert str(M**2 - M) == "0 + -1*m + 1*m^2"


def test_exact_division():
    assert (M**2 - M).exact_div(M) == M - 1
    with pytest.raises(InexactDivision):
        (M**2 + 1).exact_div(M)
    with pytest.raises(InexactDivision):
        (3 * M**2).exact_div(2 * M)
    with pytest.raises(ZeroDivisionError):
        M.exact_div(IntPoly())


coeffs = st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=11)


@settings(max_examples=200)
@given(coeffs, coeffs)
def test_division_round_trip(a, b):
    p, q = IntPoly(a), IntPoly(b)
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


def test_eventual_compare_examples():
    assert eventual_compare(M**2, M**2 - 3) == ("greater", 4)
    assert eventual_compare(M**2, M**2) == ("equal", 1)
    assert eventual_compare(M**3 - 10 * M**2, M**3) == ("less", 11)


small_coeffs = st.lists(st.integers(min_value=-50, max_value=50), max_size=6)


@settings(max_examples=100)
@given(small_coeffs, small_coeffs)
def test_eventual_compare_sign_holds_beyond_bound(a, b):
    p, q = IntPoly(a), IntPoly(b)
    relation, bound = eventual_compare(p, q)
    assert bound >= 1
    for m in range(bound, bound + 21):
        d = p(m) - q(m)
        if relation == "equal":
            assert d == 0
        elif relation == "greater":
            assert d > 0
        else:
            assert d < 0


def test_big_coefficients_stay_exact():
    p = (M - 1) ** 64
    assert p(2) == 1
    assert p(3) == 2**64
    assert p.exact_div((M - 1) ** 30) == (M - 1) ** 34


def test_subtraction_matches_adding_the_negation():
    rng = random.Random(5150)
    for _ in range(300):
        a = IntPoly(rng.randint(-(10**9), 10**9) for _ in range(rng.randint(0, 9)))
        b = IntPoly(rng.randint(-(10**9), 10**9) for _ in range(rng.randint(0, 9)))
        k = rng.randint(-(10**6), 10**6)
        assert a - b == a + (-b)
        assert b - a == -(a - b)
        assert a - k == a + IntPoly([-k])
        assert k - a == IntPoly([k]) + (-a)
        assert (a - b)(7) == a(7) - b(7)


def test_subtraction_normalizes_cancelled_top_coefficients():
    a = IntPoly([4, 3, 2, 1])
    b = IntPoly([1, 1, 2, 1])
    assert (a - b).coeffs == (3, 2)
    assert (b - a).coeffs == (-3, -2)
    assert (a - a).coeffs == ()
    assert (1 - IntPoly([1])).coeffs == ()
    assert (IntPoly([5]) - 5).coeffs == ()


def test_forest_polynomial_is_the_product():
    for trees in range(4):
        for edges in range(7):
            assert forest_polynomial(trees, edges) == M**trees * (M - 1) ** edges
