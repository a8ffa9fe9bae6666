"""Exact sparse polynomial and rational-function arithmetic over Q.

Variables are a_1..a_r (coordinates on the torus weight lattice, simple-root
basis) plus a final variable h (the deformation class).  Exponent vectors
therefore have length r+1 with the h-degree in the last slot.

Rational functions keep their denominators as multisets of *linear forms*
(every denominator produced by localization is a product of forms
c_1 a_1 + .. + c_r a_r + c h), with cancellation attempted
factor by factor; equality is decided by cross-multiplication, so partial
cancellation is harmless.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd
from operator import add, sub
from typing import Dict, Iterable, Sequence

MINUS_INFINITY = float("-inf")


class NonDivisible(ArithmeticError):
    """exact_div was asked for a quotient that does not exist.

    Raised as NonDivisible(template, *operands); the message is formatted
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

    def leading(self):
        """Lex-largest (exponent, coefficient) pair."""
        exp = max(self.terms)
        return exp, self.terms[exp]

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


def exact_div(p: Polynomial, q: Polynomial) -> Polynomial:
    """Quotient s with s*q = p exactly; NonDivisible when none exists."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.nvars != q.nvars:
        raise ValueError("variable count mismatch")
    q_exp, q_coeff = q.leading()
    q_terms = list(q.terms.items())
    remainder = dict(p.terms)
    quotient_terms: Dict[tuple, object] = {}
    # each step cancels the lex-leading term of the remainder, so the
    # leading exponents strictly decrease and no quotient term repeats
    while remainder:
        r_exp = max(remainder)
        exp = tuple(map(sub, r_exp, q_exp))
        if any(e < 0 for e in exp):
            raise NonDivisible("({}) is not divisible by ({})", p, q)
        coeff = Fraction(remainder[r_exp], q_coeff)
        if coeff.denominator == 1:
            coeff = coeff.numerator
        quotient_terms[exp] = coeff
        for e, c in q_terms:
            t = tuple(map(add, exp, e))
            value = remainder.get(t, 0) - coeff * c
            if value:
                remainder[t] = value
            else:
                del remainder[t]
    # exponents are checked differences, coefficients nonzero and normalized
    return Polynomial._trusted(p.nvars, quotient_terms)


def _canonical_linear(f: Polynomial):
    """Scale a linear form to coprime integer coefficients, lex-leading one positive.

    Returns (canonical form, scalar) with f = scalar * canonical.
    """
    if f.is_zero() or any(sum(e) != 1 for e in f.terms):
        raise ValueError(f"denominator factor is not a homogeneous linear form: {f}")
    _, lead = f.leading()
    g, l = 0, 1
    for c in f.terms.values():
        c = Fraction(c)
        g = gcd(g, abs(c.numerator))
        l = l * c.denominator // gcd(l, c.denominator)
    scalar = Fraction(g, l) if lead > 0 else -Fraction(g, l)
    return Polynomial(f.nvars, {e: Fraction(c) / scalar for e, c in f.terms.items()}), scalar


def _cancel(num: Polynomial, den: Iterable[Polynomial]):
    """Cancel canonical linear factors into num; returns (num, sorted factors).

    Each factor is divided out when it divides the numerator left by the
    factors before it; a factor that does not divide it then divides none
    of its later quotients either, so no kept factor divides the result.
    """
    if num.is_zero():
        return num, ()
    remaining = []
    for f in den:
        try:
            num = exact_div(num, f)
        except NonDivisible:
            remaining.append(f)
    return num, tuple(sorted(remaining, key=_factor_key))


def _factor_key(f: Polynomial):
    """The order in which a rational function keeps its denominator factors."""
    return sorted(f.terms.items())


class RationalFunction:
    """num / product(linear factors); equality by cross-multiplication."""

    __slots__ = ("num", "den_factors")

    def __init__(self, num: Polynomial, factors: Iterable[Polynomial] = ()):
        den = []
        scale = Fraction(1)
        for f in factors:
            canon, s = _canonical_linear(f)
            den.append(canon)
            scale *= s
        if scale != 1:
            num = num * (1 / scale)
        self.num, self.den_factors = _cancel(num, den)

    @classmethod
    def _trusted(cls, num: Polynomial, den_factors: tuple) -> "RationalFunction":
        """num / den_factors as given: canonical, sorted and already cancelled."""
        r = object.__new__(cls)
        r.num = num
        r.den_factors = den_factors
        return r

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls._trusted(p, ())

    @classmethod
    def reciprocal(cls, nvars: int, factors: Iterable[Polynomial], scalar=1) -> "RationalFunction":
        return cls(Polynomial.constant(nvars, scalar), factors)

    @property
    def den(self) -> Polynomial:
        prod = Polynomial.one(self.num.nvars)
        for f in self.den_factors:
            prod = prod * f
        return prod

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction._trusted(other, ())
        if isinstance(other, (int, Fraction)):
            return RationalFunction._trusted(Polynomial.constant(self.num.nvars, other), ())
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        mine, theirs = Counter(self.den_factors), Counter(o.den_factors)
        lcm = mine | theirs
        left = self.num
        for f, k in (lcm - mine).items():
            left = left * f**k
        right = o.num
        for f, k in (lcm - theirs).items():
            right = right * f**k
        return RationalFunction._trusted(*_cancel(left + right, lcm.elements()))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._trusted(-self.num, self.den_factors)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # no kept factor divides num, so none divides a nonzero multiple
            return RationalFunction._trusted(self.num * other, self.den_factors if other else ())
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction._trusted(
            *_cancel(self.num * o.num, self.den_factors + o.den_factors)
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.nvars != self.num.nvars:
            raise ValueError("variable count mismatch")
        if o.den_factors == self.den_factors:
            return self.num == o.num
        return self.num * o.den == o.num * self.den

    __hash__ = None  # equality is by cross-multiplication; not hashable

    def to_polynomial(self) -> Polynomial:
        """Clear the denominator exactly; NonDivisible if the value is not polynomial."""
        p = self.num
        for f in self.den_factors:
            p = exact_div(p, f)
        return p

    def __str__(self):
        if not self.den_factors:
            return str(self.num)
        den = " * ".join(f"({f})" for f in self.den_factors)
        return f"({self.num}) / {den}"

    def __repr__(self):
        return f"RationalFunction({self})"
