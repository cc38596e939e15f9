import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpchroma.chromatic import theta_closed_form
from dpchroma.errors import InexactDivision
from dpchroma.poly import (
    IntPoly,
    M,
    _normalized,
    _text,
    eventual_compare,
    forest_polynomial,
    pack,
    poly_to_json,
    positive_from,
    prod,
    unpack,
)


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
    assert eventual_compare(M**2, M**2 - 3) == ("greater", 1)
    assert eventual_compare(M**2, M**2) == ("equal", 1)
    assert eventual_compare(M**3 - 10 * M**2, M**3) == ("less", 1)
    assert eventual_compare(M**2, 5 * M) == ("greater", 6)


def test_positive_from_examples():
    assert positive_from(IntPoly([7])) == 1
    assert positive_from(M**2 - 5 * M) == 6  # zero at 5
    assert positive_from((M - 5) ** 2) == 6  # touches zero at 5 only
    assert positive_from((M - 3) ** 2 + 1) == 1  # no real root
    assert positive_from((M - 1000) * (M - 1001)) == 1002  # positive below 1000


def _root_bound(p: IntPoly) -> float:
    """A bound on the absolute value of every root of p: the lesser of
    Cauchy's 1 + max |c_i| (the leading coefficient is at least 1) and
    Fujiwara's 2 max |c_i / c_d|^(1 / (d - i))."""
    *rest, lead = p.coeffs
    cauchy = 1 + max(map(abs, rest), default=0)
    fujiwara = 2 * max((abs(c / lead) ** (1 / (len(rest) - i)) for i, c in enumerate(rest)), default=0)
    return min(cauchy, fujiwara)


def test_positive_from_matches_exhaustive_evaluation():
    # beyond every root p keeps the sign of its leading term, so evaluation
    # up to a root bound decides the fold
    rng = random.Random(26)
    for _ in range(2000):
        degree = rng.randint(0, 8)
        if rng.random() < 0.5:
            p = IntPoly([rng.randint(-60, 60) for _ in range(degree)] + [rng.randint(1, 4)])
        else:  # integer roots, some repeated, where p reaches 0 exactly
            shift = rng.randint(-2, 2) if degree else 0
            p = rng.randint(1, 3) * prod(M - rng.randint(-4, 30) for _ in range(degree)) + shift
        n = positive_from(p)
        assert n >= 1, p
        assert all(p(m) > 0 for m in range(n, int(_root_bound(p)) + 2)), p
        assert n == 1 or p(n - 1) <= 0, p
        # from a start fold: the least N >= start past which p stays positive
        start = rng.randint(1, 40)
        assert positive_from(p, start) == max(n, start), (p, start)


small_coeffs = st.lists(st.integers(min_value=-50, max_value=50), max_size=6)


@settings(max_examples=100)
@given(small_coeffs, small_coeffs)
def test_eventual_compare_sign_holds_beyond_bound(a, b):
    p, q = IntPoly(a), IntPoly(b)
    relation, bound = eventual_compare(p, q)
    assert bound >= 1
    cauchy = 1 + max(map(abs, (p - q).coeffs), default=0)
    for m in range(bound, max(bound, cauchy) + 21):
        d = p(m) - q(m)
        if relation == "equal":
            assert d == 0
        elif relation == "greater":
            assert d > 0
        else:
            assert d < 0
    if bound > 1:  # the fold is the least one
        d = p(bound - 1) - q(bound - 1)
        assert d <= 0 if relation == "greater" else d >= 0


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
    # a wide star: the binomials, built as a running product, against math.comb
    edges = 4_001
    want = [(-1) ** (edges - j) * math.comb(edges, j) for j in range(edges + 1)]
    assert forest_polynomial(1, edges).coeffs == (0, *want)


def test_unpack_reads_signed_digits():
    # width 1: base 2^8, digits in [-128, 128)
    assert unpack(0, 1) == IntPoly()
    assert unpack(-5, 1) == IntPoly([-5])
    assert unpack(3 * 256 - 7, 1) == IntPoly([-7, 3])
    assert unpack(-(2**16) + 5, 1) == IntPoly([5, 0, -1])
    # a low digit of -1 borrows from the top one: 2^16 - 1 is m^2 - 1
    assert unpack(2**16 - 1, 1) == IntPoly([-1, 0, 1])
    assert unpack(2**8 - 128, 1) == IntPoly([-128, 1])
    assert unpack(127, 1) == IntPoly([127])


@given(
    st.lists(st.integers(min_value=-(2**23), max_value=2**23 - 1), max_size=12),
    st.integers(min_value=3, max_value=5),
)
@settings(max_examples=200)
def test_pack_and_unpack_are_inverse(coeffs, width):
    p = IntPoly(coeffs)
    value = pack(p, width)
    assert value == p(2 ** (8 * width))
    assert unpack(value, width) == p


def test_pack_and_unpack_at_extreme_digits():
    rng = random.Random(64)
    for width in (1, 2, 9):
        half = 2 ** (8 * width - 1)
        for _ in range(200):
            p = IntPoly(rng.choice([-half, half - 1, -1, 0, 1]) for _ in range(rng.randint(0, 40)))
            assert unpack(pack(p, width), width) == p, (width, p)


def test_json_text_is_the_polynomial_text():
    # poly_to_json builds its text from its own decimal strings
    for coeffs in ([], [7], [0, 1], [2, -3, 0, 1], [-(10**40), 0, 5]):
        p = IntPoly(coeffs)
        payload = poly_to_json(p)
        assert payload == {"coefficients": [str(c) for c in p.coeffs], "text": str(p)}


def _from_every_construction():
    a, b = IntPoly([2, -3, 0, 1]), IntPoly([-(10**40), 0, 5])
    return [
        IntPoly(),
        IntPoly([7, 0, 0]),
        a,
        b,
        _normalized([0, 4, -1, 0, 0]),
        _normalized([0, 0]),
        unpack(pack(a, 2), 2),
        unpack(0, 1),
        a + b,
        a - b,
        b - b,
        -b,
        a * b,
        a**3,
        (a * b).exact_div(b),
        theta_closed_form((2, 3, 4)),
        theta_closed_form((4, 3, 2)),
        theta_closed_form((1, 5)),
    ]


def test_text_is_kept_and_matches_the_coefficients():
    # str builds the text at its first call and returns it after
    for p in _from_every_construction():
        want = _text(list(map(str, p.coeffs)))
        assert str(p) == want, p
        assert str(p) == want, p


def test_polynomials_stay_immutable_and_pickle():
    # the search's process pool pickles across workers
    for p in _from_every_construction():
        for _ in range(2):  # before and after its text is kept
            with pytest.raises(AttributeError):
                p.coeffs = (1,)
            q = pickle.loads(pickle.dumps(p))
            assert q == p and q.coeffs == p.coeffs and str(q) == str(p), p
        with pytest.raises(AttributeError):
            p._str = "0"
