"""Exact polynomials over Q: how they are named and printed.

Variables are a_1..a_r (coordinates on the torus weight lattice, simple-root
basis) plus a final variable h (the deformation class).  Exponent vectors
therefore have length r+1 with the h-degree in the last slot.
monomial_key names a monomial and polynomial_text prints every polynomial.
Polynomial and RationalFunction (a numerator over a denominator, compared
by cross-multiplication) are the tests' reference arithmetic, which no
program route builds.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Tuple


def _norm_scalar(x):
    # ints stay ints, integral Fractions collapse; floats are banned to keep
    # every computation exact.  Plain ints, most scalars, return at once.
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError(f"exact arithmetic only, got float {x!r}")
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


def monomial_key(exp: tuple) -> str:
    """The name of the monomial with exponent vector exp, as documents print
    it: "a1^2*h", and "1" for the constant monomial."""
    parts = []
    for i, e in enumerate(exp[:-1]):
        if e == 1:
            parts.append(f"a{i + 1}")
        elif e > 1:
            parts.append(f"a{i + 1}^{e}")
    if exp[-1] == 1:
        parts.append("h")
    elif exp[-1] > 1:
        parts.append(f"h^{exp[-1]}")
    return "*".join(parts) if parts else "1"


def polynomial_text(terms: Iterable[Tuple[str, object]]) -> str:
    """The text of the polynomial with the given (monomial name, nonzero
    coefficient) pairs, in descending exponent order: "a1^2 - 3/2*a1*h + 2",
    and "0" for no pairs.  Coefficients print with str, so an int, an equal
    Fraction and the text of either print alike."""
    out = []
    for name, coeff in terms:
        c = str(coeff)
        if name == "1":
            body = c
        elif c == "1" or c == "-1":
            body = c[:-1] + name  # the sign alone
        else:
            body = f"{c}*{name}"
        if out:
            body = " - " + body[1:] if body[0] == "-" else " + " + body
        out.append(body)
    return "".join(out) or "0"


class Polynomial:
    """Immutable sparse polynomial: map exponent vector -> nonzero coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[tuple, object]):
        clean = {}
        for exp, coeff in terms.items():
            c = _norm_scalar(coeff)
            if c != 0:
                e = tuple(int(x) for x in exp)
                if len(e) != nvars or any(x < 0 for x in e):
                    raise ValueError(f"bad exponent vector {e} for nvars={nvars}")
                clean[e] = c
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: Dict[tuple, object]) -> "Polynomial":
        """Wrap the result of a ring operation on valid polynomials.

        Exponents are known to be valid and coefficients exact, so only zero
        coefficients are dropped; integral Fractions may stay Fractions,
        which compare, hash and print like the equal ints.
        """
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = {e: c for e, c in terms.items() if c}
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.nvars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for exp, c in o.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return Polynomial._trusted(self.nvars, terms)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return Polynomial._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial._trusted(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = {}
        get = terms.get
        right = list(o.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                exp = tuple(map(add, e1, e2))
                terms[exp] = get(exp, 0) + c1 * c2
        return Polynomial._trusted(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- display -----------------------------------------------------------

    def __str__(self):
        return polynomial_text((monomial_key(e), self.terms[e])
                               for e in sorted(self.terms, reverse=True))

    def __repr__(self):
        return f"Polynomial({self})"


class RationalFunction:
    """num / den, two polynomials; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        self.num = num
        self.den = den

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.num * other.den == other.num * self.den
        if isinstance(other, (int, Fraction, Polynomial)):
            return self.num == self.den * other
        return NotImplemented

    __hash__ = None  # equality is by cross-multiplication; not hashable

    def __repr__(self):
        return f"RationalFunction(({self.num}) / ({self.den}))"
