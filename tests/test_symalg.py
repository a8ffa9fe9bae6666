from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grslice.symalg import MINUS_INFINITY, NonDivisible, Polynomial, RationalFunction

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

def test_rational_function_cross_multiplication_equality():
    r1 = RationalFunction(A + H, A * A)  # (a+h)/a^2
    r2 = RationalFunction((A + H) * (A - H), A * A * (A - H))
    assert r1 == r2 and r2 == r1
    assert not (r1 == RationalFunction(A, A + H))
    # int, Fraction and Polynomial operands compare as den * other
    assert RationalFunction(2 * A + 2 * H, A + H) == 2
    assert RationalFunction(A, 2 * A) == Fraction(1, 2)
    assert RationalFunction(A * A - H * H, A + H) == A - H
    assert RationalFunction(Polynomial.zero(2), A * H) == 0
    assert not (RationalFunction(A, A + H) == 1)
    assert not (RationalFunction(A + H, A) == A)
    with pytest.raises(TypeError):
        hash(r1)


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
