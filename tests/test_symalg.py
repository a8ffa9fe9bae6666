from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grslice.symalg import (
    MINUS_INFINITY,
    NonDivisible,
    Polynomial,
    RationalFunction,
    exact_div,
)

# two variables: a1 and h
A = Polynomial.gen(2, 0)
H = Polynomial.gen(2, 1)
ONE = Polynomial.one(2)


def test_deg_a():
    assert (A**2 * H**3).deg_a() == 2
    assert H.deg_a() == 0
    p = Polynomial.gen(3, 0) * Polynomial.gen(3, 1) + Polynomial.gen(3, 2) * Polynomial.gen(3, 0)
    assert p.deg_a() == 2  # a1*a2 + h*a1
    assert Polynomial.zero(2).deg_a() == MINUS_INFINITY
    assert MINUS_INFINITY < -(10**9)


def test_exact_div():
    assert exact_div(A**2 - H**2, A - H) == A + H
    p = 3 * A**2 * H - 7 * A + ONE
    assert exact_div(p, ONE) == p
    assert exact_div(H * A, A) == H
    with pytest.raises(NonDivisible):
        exact_div(A + H, A)
    with pytest.raises(ZeroDivisionError):
        exact_div(A, Polynomial.zero(2))


def test_truncate_mod_h2():
    assert (A + H + H**2).truncate_mod_h2() == A + H
    assert (H**2).truncate_mod_h2() == Polynomial.zero(2)
    assert ((A + H) * (A + H)).truncate_mod_h2() == A**2 + 2 * A * H


def test_div_h():
    p = A * H + 2 * H**2
    assert p.div_h() == A + 2 * H
    with pytest.raises(NonDivisible):
        (A + H).div_h()


def test_linear_form_builder():
    f = Polynomial.linear_form([2, -1], Fraction(1, 2))
    assert f.nvars == 3
    assert f == 2 * Polynomial.gen(3, 0) - Polynomial.gen(3, 1) + Fraction(1, 2) * Polynomial.gen(3, 2)


def test_json_round_trip():
    p = A**2 * H - Fraction(7, 3) * A + 5 * ONE + H**4
    obj = p.to_json()
    assert obj["1"] == "5"
    assert obj["a1^2*h"] == "1"
    assert obj["a1"] == "-7/3"
    assert Polynomial.from_json(obj, 2) == p
    assert Polynomial.from_json(Polynomial.zero(2).to_json(), 2) == Polynomial.zero(2)


def test_str_readable():
    assert str(A - H) == "a1 - h"
    assert str(Polynomial.zero(2)) == "0"
    assert str(-A) == "-a1"


# ------------------------------------------------------------ rational functions

def test_rational_function_basic():
    half = RationalFunction(ONE, (2 * A,))  # 1/(2 a1)
    assert half * (2 * A) == ONE
    assert (half + half) * A == ONE
    r = RationalFunction(A**2 - H**2, (A + H,))
    assert r == A - H
    assert r.to_polynomial() == A - H


def test_rational_function_cross_multiplication_equality():
    r1 = RationalFunction(A + H, (A, A))  # (a+h)/a^2
    r2 = RationalFunction((A + H) * (A - H), (A, A, A - H))
    assert r1 == r2
    assert not (r1 == RationalFunction(A, (A + H,)))


def test_rational_function_rejects_nonlinear_denominator():
    with pytest.raises(ValueError):
        RationalFunction(ONE, (A**2 + H,))
    with pytest.raises(ValueError):
        RationalFunction(ONE, (A + ONE,))


def test_rational_function_to_polynomial_failure():
    r = RationalFunction(A + H, (A,))
    with pytest.raises(NonDivisible):
        r.to_polynomial()


def test_rational_function_zero():
    z = RationalFunction(Polynomial.zero(2), (A, A + H))
    assert z.is_zero()
    assert z == 0
    assert z.den_factors == ()


def _divides(p, f):
    try:
        exact_div(p, f)
    except NonDivisible:
        return False
    return True


# canonical and non-canonical forms, fractional coefficients, pure a and pure h
LINEAR_FACTORS = [
    A,
    H,
    3 * A,
    Fraction(-1, 2) * H,
    A + H,
    2 * A - H,
    Fraction(1, 2) * A + Fraction(3, 4) * H,
    A - Fraction(2, 3) * H,
]


@pytest.mark.parametrize("f", LINEAR_FACTORS, ids=str)
def test_cancellation_divides_exactly_where_exact_div_does(f):
    g = A + 2 * H  # coprime to every factor above
    numerators = [
        Polynomial.zero(2),
        ONE,
        f * g,  # divisible, homogeneous
        f * f * g,  # divisible twice
        f * (A**2 + H + 3 * ONE),  # divisible, inhomogeneous
        f * g + H * A**3,  # not divisible, inhomogeneous
        g**3,  # not divisible, homogeneous
        f * g + 7 * ONE,  # divisible in degrees 1 and 2, not in degree 0
        A**2 * H + H**2 * A + A + H,  # a mix of pure and mixed terms
        Fraction(5, 3) * A**4 - H**4,
    ]
    for num in numerators:
        r = RationalFunction(num, (f, f))
        cancelled = 2 - len(r.den_factors)
        expected = 0
        quotient = num
        while expected < 2 and not num.is_zero() and _divides(quotient, f):
            quotient = exact_div(quotient, f)
            expected += 1
        if num.is_zero():
            expected = 2
        assert cancelled == expected, (str(num), str(f))
        assert r * f * f == num


# ------------------------------------------------------------ property tests

@st.composite
def polys(draw, nvars=2, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        terms[exp] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
    return Polynomial(nvars, terms)


@settings(max_examples=120, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + Polynomial.zero(2) == p
    assert p * Polynomial.one(2) == p


@settings(max_examples=100, deadline=None)
@given(polys(), polys())
def test_exact_div_inverts_multiplication(p, q):
    if q.is_zero():
        return
    assert exact_div(p * q, q) == p


@settings(max_examples=150, deadline=None)
@given(polys(), st.integers(-4, 4), st.integers(1, 3), st.integers(-4, 4), st.integers(1, 3),
       st.booleans())
def test_cancellation_agrees_with_exact_div(p, an, ad, hn, hd, times_factor):
    if an == 0 and hn == 0:
        return
    f = Fraction(an, ad) * A + Fraction(hn, hd) * H
    num = p * f if times_factor else p
    r = RationalFunction(num, (f,))
    assert (not r.den_factors) == (num.is_zero() or _divides(num, f))
    assert r * f == num


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_rational_function_arithmetic_consistency(p, q):
    den1 = A + H
    den2 = 2 * A - H
    r1 = RationalFunction(p, (den1,))
    r2 = RationalFunction(q, (den2,))
    total = r1 + r2
    assert total * (den1 * den2) == p * den2 + q * den1
    prod = r1 * r2
    assert prod * (den1 * den2) == p * q
    assert r1 - r1 == 0
