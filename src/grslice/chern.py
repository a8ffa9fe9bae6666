"""Divisor-class multiplication operators in the stable basis.

The slice carries tautological line bundles L_0, ..., L_l (L_0 trivial) and
successive quotients E_i = L_i / L_{i-1}.  Multiplying the stable basis by
the first Chern class of any of these acts through an upper-triangular
matrix: a diagonal family of linear equivariant weights plus strictly
triangular corrections supported on adjacent fixed-point pairs.  The module
builds these matrices from the combinatorial formula and, in rank one,
recomputes them by equivariant localization against the exact restriction
matrices, so the two routes can be compared entry by entry.

Every entry is a linear form in (a, h): a diagonal entry is a bundle weight,
an off-diagonal one a rational multiple of h.  Like the bundle weights, an
entry is kept as its coefficient tuple (a_1, .., a_r, h), keyed by the index
pair of its points, and OperatorMatrix.entry reads one cell as that tuple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, mul, neg, sub
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .cartan import Chamber
from .slices import (
    FixedPoint,
    RootMonomial,
    SliceSpec,
    _point,
    adjacent_pairs,
    enumerate_fixed_points,
    point_index,
    repelling_euler,
)
from .stab_a1 import (
    ExactDivisionFailure,
    _form_div,
    _pairing_sums,
    _unpack,
    normalize_polarization,
    stab_matrix,
)
from .stab_general import sigma_sign
from .symalg import NonDivisible, _norm_scalar


class NonLinearFormEntry(RuntimeError):
    """A localization sum failed to reduce to a linear form in (a, h)."""


BundleTag = Union[str, Tuple[str, int]]


def parse_bundle(spec: SliceSpec, bundle: BundleTag) -> Tuple[str, int]:
    """Normalize a bundle tag to ("L", k) with 0 <= k <= l or ("E", i) with 1 <= i <= l."""
    if bundle is None:
        raise ValueError("mult needs a bundle tag L<k> or E<i>")
    if isinstance(bundle, str):
        kind, digits = bundle[:1], bundle[1:]
        # str.isdigit admits digits that int() rejects or reads as others
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"malformed bundle tag {bundle!r}")
        idx = int(digits)
    else:
        kind, idx = bundle
    kind = kind.upper()
    if kind not in ("L", "E"):
        raise ValueError(f"unknown bundle kind {kind!r}")
    l = spec.length
    if kind == "L" and 0 <= idx <= l:
        return kind, idx
    if kind == "E" and 1 <= idx <= l:
        return kind, idx
    raise ValueError(f"bundle {kind}{idx} out of range for a length-{l} slice")


def line_bundle_weight(spec: SliceSpec, p: FixedPoint, i: int) -> tuple:
    """Torus weight of L_i at the fixed point p, for 0 <= i <= l, as the
    coefficient tuple (a_1..a_r, h) of the linear form sharp(sigma_i) +
    (h/2) (sigma_i, sigma_i); an A coefficient is an int where it is one,
    and the h coefficient is a Fraction.

    The weights of L_0..L_l are computed once per spec and point; callers
    share them.
    """
    if not 0 <= i <= spec.length:
        raise ValueError(f"line bundle index {i} out of range")
    weights = spec._line_weights.get(p)
    if weights is None:
        cartan = spec.cartan
        den = cartan.gram.den
        weights = spec._line_weights[p] = tuple(
            tuple([_over(x, den) for x in cartan.sharp(sigma)])
            + (Fraction(cartan.inner(sigma, sigma), 2 * den),)
            for sigma in p.sigma()
        )
    return weights[i]


def e_bundle_weight(spec: SliceSpec, p: FixedPoint, i: int) -> tuple:
    """Torus weight of E_i = L_i / L_{i-1} at p, for 1 <= i <= l, as a
    coefficient tuple like line_bundle_weight's."""
    if not 1 <= i <= spec.length:
        raise ValueError(f"quotient bundle index {i} out of range")
    return tuple(map(sub, line_bundle_weight(spec, p, i), line_bundle_weight(spec, p, i - 1)))


def bundle_weight(spec: SliceSpec, p: FixedPoint, bundle: BundleTag) -> tuple:
    kind, idx = parse_bundle(spec, bundle)
    if kind == "L":
        return line_bundle_weight(spec, p, idx)
    return e_bundle_weight(spec, p, idx)


class OperatorMatrix:
    """Matrix of an operator in the stable basis.

    Column p lists the coefficients over rows q: the operator sends the basis
    element at p to sum_q entry(q, p) times the basis element at q.  The
    basis is enumerate_fixed_points(spec), so a point's index is its
    point_index.  entries holds the nonzero coefficients only, keyed by the
    index pair (qi, pi), each a linear form in (a, h) as its coefficient
    tuple (a_1, .., a_r, h); zero is the all-zero tuple, and entry reads a
    cell by point, zero where none is stored.
    """

    __slots__ = ("spec", "chamber", "basis", "entries", "label", "zero")

    def __init__(
        self,
        spec: SliceSpec,
        chamber: Optional[Chamber],
        entries: Dict[Tuple[int, int], tuple],
        label: Optional[str] = None,
    ):
        self.spec = spec
        self.chamber = chamber
        self.basis = enumerate_fixed_points(spec)
        self.entries = {key: e for key, e in entries.items() if any(e)}
        self.label = label
        self.zero = (0,) * (spec.cartan.rank + 1)

    def entry(self, q: FixedPoint, p: FixedPoint) -> tuple:
        index = point_index(self.spec)
        return self.entries.get((index[q], index[p]), self.zero)

    def validate(self) -> None:
        """Entries are linear forms; off-diagonal ones rational multiples of h."""
        width = len(self.zero)
        for qi, pi in sorted(self.entries):
            e = self.entries[qi, pi]
            if len(e) != width:
                raise AssertionError(
                    f"entry ({self.basis[qi]}, {self.basis[pi]}) is not a linear form"
                )
            if qi != pi and any(e[:-1]):
                raise AssertionError(
                    f"off-diagonal entry ({self.basis[qi]}, {self.basis[pi]}) "
                    "is not a rational multiple of h"
                )

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.spec != other.spec:
            raise ValueError("operator matrices live on different slices")
        entries = dict(self.entries)
        for key, b in other.entries.items():
            a = entries.get(key)
            entries[key] = tuple(map(neg, b)) if a is None else tuple(map(sub, a, b))
        chamber = self.chamber if self.chamber == other.chamber else None
        return OperatorMatrix(self.spec, chamber, entries)


def h_operator(spec: SliceSpec, i: int) -> OperatorMatrix:
    """Diagonal operator with eigenvalue sharp(delta_i) + (h/2) (delta_i, mu) at p."""
    if not 1 <= i <= spec.length:
        raise ValueError(f"slot index {i} out of range")
    cartan = spec.cartan
    den = cartan.gram.den
    entries = {}
    for pi, p in enumerate(enumerate_fixed_points(spec)):
        d = p[i - 1]
        entries[pi, pi] = (tuple([_over(x, den) for x in cartan.sharp(d)])
                           + (Fraction(cartan.inner(d, spec.mu), 2 * den),))
    return OperatorMatrix(spec, None, entries, label=f"H{i}")


def omega_operators(
    spec: SliceSpec,
    i: int,
    j: int,
    ch: Chamber,
    polarization_signs=None,
) -> OperatorMatrix:
    """h times the chamber operator Omega_ij between slots: half the pairing
    part plus all positive-root parts.  The entries of Omega_ij are
    constants, which are not linear forms in (a, h), so the operator comes
    as h Omega_ij, the form in which it enters the slot formula for E_i."""
    if not 1 <= i < j <= spec.length:
        raise ValueError("slots must satisfy 1 <= i < j <= l")
    a_zero = (0,) * spec.cartan.rank
    den = spec.cartan.gram.den
    entries = {}
    for pi, p in enumerate(enumerate_fixed_points(spec)):
        entries[pi, pi] = a_zero + (Fraction(spec.cartan.inner(p[i - 1], p[j - 1]), 2 * den),)
    for pi, qi, w, sign in _pair_table(spec, ch, polarization_signs):
        if (w.i, w.j) != (i, j):
            continue
        entries[qi, pi] = a_zero + (sign * spec.cartan.half_lengths[w.column],)
    return OperatorMatrix(spec, ch, entries)


def _pair_table(spec: SliceSpec, ch: Chamber, polarization_signs=None) -> list:
    """All lowering moves: tuples (p, q, witness, sigma) of point indices,
    one per adjacent pair."""
    signs = normalize_polarization(enumerate_fixed_points(spec), polarization_signs)
    return [(p, q, w, sigma_sign(spec, p, q, w.column, ch, signs))
            for (p, q), w in adjacent_pairs(spec, ch).items()]


def _over(n: int, d: int):
    """n / d, an int where it is one."""
    return n // d if n % d == 0 else Fraction(n, d)


def _slot_step(spec: SliceSpec, d: Tuple[int, ...]) -> tuple:
    """For a slot step d, as ints times the gram denominator: the coordinates
    of sharp(d), <d, mu> and a map d' -> <d, d'> keyed by the coordinates of
    d', which _mult_l fills as it needs it (each as <d', sharp(d)>); once
    per spec and step."""
    found = spec._slot_inners.get(d)
    if found is None:
        sharp = spec.cartan.sharp(d)
        found = spec._slot_inners[d] = (sharp, sum(map(mul, spec.mu, sharp)), {})
    return found


def _mult_l(spec: SliceSpec, k: int, ch: Chamber, pair_table: list) -> OperatorMatrix:
    """Matrix of multiplication by c_1(L_k): sum of the slot operators up to k
    minus h times the chamber operators across the cut at k."""
    points = enumerate_fixed_points(spec)
    a_zero = (0,) * spec.cartan.rank
    scale = spec.cartan.gram.den
    entries = {}
    for pi, p in enumerate(points):
        # sum over slots i <= k of sharp(delta_i) + (h/2) (delta_i, mu),
        # less (h/2) (delta_i, delta_j) for every slot j > k, all times scale
        a_part = a_zero
        twice_h = 0
        for d in p[:k]:
            sharp, with_mu, inner = _slot_step(spec, d)
            a_part = tuple(map(add, a_part, sharp))
            twice_h += with_mu
            for c in p[k:]:
                value = inner.get(c)
                if value is None:
                    value = inner[c] = sum(map(mul, c, sharp))
                twice_h -= value
        entries[pi, pi] = tuple([_over(x, scale) for x in a_part]) + (_over(twice_h, 2 * scale),)
    for pi, qi, w, sign in pair_table:
        if not w.i <= k < w.j:
            continue
        entries[qi, pi] = a_zero + (-sign * spec.cartan.half_lengths[w.column],)
    return OperatorMatrix(spec, ch, entries, label=f"L{k}")


def mult_matrix(
    spec: SliceSpec,
    bundle: BundleTag,
    ch: Chamber,
    polarization_signs=None,
) -> OperatorMatrix:
    """Matrix of multiplication by c_1 of the bundle in the stable basis for ch."""
    kind, idx = parse_bundle(spec, bundle)
    table = _pair_table(spec, ch, polarization_signs)
    if kind == "L":
        mat = _mult_l(spec, idx, ch, table)
    else:
        mat = _mult_l(spec, idx, ch, table) - _mult_l(spec, idx - 1, ch, table)
        mat.label = f"E{idx}"
    mat.validate()
    return mat


def line_bundle_matrices(
    spec: SliceSpec, ch: Chamber, polarization_signs=None
) -> List[OperatorMatrix]:
    """The matrices of c_1(L_0), ..., c_1(L_l), built on one table of lowering moves."""
    table = _pair_table(spec, ch, polarization_signs)
    matrices = [_mult_l(spec, k, ch, table) for k in range(spec.length + 1)]
    for mat in matrices:
        mat.validate()
    return matrices


def mult_matrix_via_localization(
    spec: SliceSpec,
    bundle: BundleTag,
    ch: Chamber,
    polarization_signs=None,
) -> OperatorMatrix:
    """Multiplication matrix recomputed by localization against exact restrictions.

    Expands c_1 of the bundle times the stable class of p in the dual stable
    basis for the opposite chamber; each coefficient is a localization sum
    that must collapse to a degree-one polynomial.  Only available where the
    exact restriction matrices are (rank one).
    """
    kind, idx = parse_bundle(spec, bundle)
    plus = stab_matrix(spec, ch, polarization_signs)
    minus = stab_matrix(spec, -ch, polarization_signs)
    points = plus.points
    # in rank one a bundle weight (a, h) is already a form of degree one
    weight = [bundle_weight(spec, x, (kind, idx)) for x in points]
    den = 1  # a common denominator of the weights
    for d in {c.denominator for w in weight for c in w}:
        den *= d
    weight = [tuple(c.numerator * (den // c.denominator) for c in w) for w in weight]
    b, lcm, sums = _pairing_sums(plus, minus, weight)
    # the lcm is the product of the forms a + s h, s counted in lcm
    shifts = list(lcm.elements())
    entries = {}
    # each sum has degree deg(lcm) + 1, so its quotient is a linear form,
    # whose coefficients (c_0, c_1) are already the tuple (a, h)
    for (p, q), total in sums.items():
        form = _unpack(total, b, len(shifts) + 1)
        try:
            for s in shifts:
                form = _form_div(form, s)
        except NonDivisible as exc:
            raise NonLinearFormEntry(
                f"localization entry ({points[q]}, {points[p]}) is not polynomial"
            ) from exc
        entries[q, p] = tuple([_over(c, den) for c in form])
    return OperatorMatrix(spec, ch, entries, label=f"{kind}{idx}")


def reconstruct_coefficient(
    spec: SliceSpec,
    ch: Chamber,
    entries: Mapping[Tuple[int, int], RootMonomial],
    p: int,
    q: int,
    bundle: BundleTag,
    signs: Tuple[int, ...],
) -> Fraction:
    """Off-diagonal multiplication coefficient recovered from restriction data,
    for the points of indices p and q.

    entries are the factored restrictions stab_mod_h2(spec, ch, signs), with
    signs resolved by normalize_polarization.  Divides the restriction of
    the stable class of p at q, over h and times the difference of the
    bundle weights at q and p, by the polarization at q; all of them are
    products of positive roots and h, so the quotient is a difference of
    exponent vectors, and its being a constant pins the coefficient of h in
    the matrix entry.
    """
    entry = entries.get((p, q))
    if entry is None:
        return Fraction(0)
    at_p, at_q = _point(spec, p), _point(spec, q)
    # the A-part of the weight difference is the sharp of the coroot that
    # moves p to q, up to sign: an integer multiple of a root, with integral
    # coefficients that may be Fractions; every root is primitive, so the difference is
    # the gcd of its coefficients times a root, and that root is +-1 times
    # its slot's form
    diff = [_norm_scalar(c) for c in map(sub, bundle_weight(spec, at_q, bundle)[:-1],
                                        bundle_weight(spec, at_p, bundle)[:-1])]
    if not any(diff):
        return Fraction(0)
    g = gcd(*diff)
    slot, root_sign = spec.cartan._slots[spec.cartan._column[tuple([c // g for c in diff])]]
    eps_q = repelling_euler(spec, q, ch)
    # times the root of the difference, over eps_q and h; the signs +-1 of
    # eps_q and the polarization are their own inverses
    ratio = [-m for m in eps_q.exponents]
    ratio[slot] += 1
    ratio[-1] -= 1
    quotient = entry.times_ratio(ratio, g * root_sign * signs[q] * eps_q.scalar)
    if quotient is None:
        raise ExactDivisionFailure(
            f"the polarization at {at_q.label()} does not divide the "
            f"reconstruction of ({at_p.label()}, {at_q.label()})"
        )
    if any(quotient.exponents):
        raise AssertionError("reconstructed coefficient is not a constant")
    return Fraction(quotient.scalar)
