"""Exact sparse polynomial arithmetic over Q.

Variables are a_1..a_r (coordinates on the torus weight lattice, simple-root
basis) plus a final variable h (the deformation class).  Exponent vectors
therefore have length r+1 with the h-degree in the last slot.

A localization sum is kept as a plain numerator over a denominator, with
equality decided by cross-multiplication; nothing is ever cancelled.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Sequence

MINUS_INFINITY = float("-inf")


class NonDivisible(ArithmeticError):
    """An exact polynomial quotient that does not exist was asked for.

    Raised by Polynomial.div_h and by the rank-one synthetic division, as
    NonDivisible(template, *operands); the message is formatted
    only when it is shown, since most failed divisions are caught silently.
    """

    def __str__(self):
        template, *operands = self.args
        return template.format(*operands)


def _norm_scalar(x):
    # ints stay ints, integral Fractions collapse; floats are banned to keep
    # every computation exact.  Plain ints, most scalars, return at once.
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError(f"exact arithmetic only, got float {x!r}")
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


class Polynomial:
    """Immutable sparse polynomial: map exponent vector -> nonzero coefficient."""

    __slots__ = ("nvars", "terms", "_hash")

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
        self._hash = None

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
        p._hash = None
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

    @classmethod
    def gen(cls, nvars: int, index: int) -> "Polynomial":
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1})

    @classmethod
    def linear_form(cls, a_coords: Sequence, h_coeff) -> "Polynomial":
        """c_1 a_1 + .. + c_r a_r + (h_coeff) h."""
        r = len(a_coords)
        terms = {}
        for i, c in enumerate(a_coords):
            if c != 0:
                exp = [0] * (r + 1)
                exp[i] = 1
                terms[tuple(exp)] = c
        if h_coeff != 0:
            terms[(0,) * r + (1,)] = h_coeff
        return cls(r + 1, terms)

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
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    # -- queries -----------------------------------------------------------

    def deg_a(self):
        """Max total degree in the a-variables; h ignored; zero -> -infinity."""
        if not self.terms:
            return MINUS_INFINITY
        return max(sum(e[:-1]) for e in self.terms)

    def h_degree(self):
        if not self.terms:
            return MINUS_INFINITY
        return max(e[-1] for e in self.terms)

    def total_degree(self):
        if not self.terms:
            return MINUS_INFINITY
        return max(sum(e) for e in self.terms)

    def coefficient(self, exp: tuple):
        return self.terms.get(tuple(exp), 0)

    def truncate_mod_h2(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: c for e, c in self.terms.items() if e[-1] < 2})

    def div_h(self) -> "Polynomial":
        """Exact division by the variable h."""
        if any(e[-1] == 0 for e in self.terms):
            raise NonDivisible("{} is not divisible by h", self)
        return Polynomial(
            self.nvars, {e[:-1] + (e[-1] - 1,): c for e, c in self.terms.items()}
        )

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Ring map sending a_i, h to images[i]; images share one variable count."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        nv = images[0].nvars
        result = Polynomial.zero(nv)
        for exp, coeff in self.terms.items():
            term = Polynomial.constant(nv, coeff)
            for img, e in zip(images, exp):
                if e:
                    term = term * img**e
            result = result + term
        return result

    # -- display / serialization -------------------------------------------

    def _monomial_key(self, exp: tuple) -> str:
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

    def to_json(self) -> dict:
        return {self._monomial_key(e): str(Fraction(c)) for e, c in sorted(self.terms.items())}

    @classmethod
    def from_json(cls, obj: dict, nvars: int) -> "Polynomial":
        terms: Dict[tuple, object] = {}
        for key, val in obj.items():
            exp = [0] * nvars
            if key != "1":
                for factor in key.split("*"):
                    if "^" in factor:
                        name, power = factor.split("^")
                        e = int(power)
                    else:
                        name, e = factor, 1
                    idx = nvars - 1 if name == "h" else int(name[1:]) - 1
                    exp[idx] += e
            t = tuple(exp)
            terms[t] = Fraction(val) + Fraction(terms.get(t, 0))
        return cls(nvars, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for exp in sorted(self.terms, reverse=True):
            coeff = self.terms[exp]
            key = self._monomial_key(exp)
            if key == "1":
                body = str(coeff)
            elif coeff == 1:
                body = key
            elif coeff == -1:
                body = "-" + key
            else:
                body = f"{coeff}*{key}"
            chunks.append(body)
        out = chunks[0]
        for body in chunks[1:]:
            out += " - " + body[1:] if body.startswith("-") else " + " + body
        return out

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
