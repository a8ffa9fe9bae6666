"""Divisor-class multiplication operators in the stable basis.

The slice carries tautological line bundles L_0, ..., L_l (L_0 trivial) and
successive quotients E_i = L_i / L_{i-1}, so every bundle is a quotient
L_hi / L_lo, (lo, hi): L_k is (0, k) and E_i is (i - 1, i).  Multiplying
the stable basis by its first Chern class acts through an upper-triangular
matrix: a diagonal family of linear equivariant weights, L_hi's less
L_lo's, plus strictly triangular corrections supported on adjacent
fixed-point pairs.  The module builds these matrices by one kernel from
the combinatorial formula and, in rank one, recomputes them by equivariant
localization against the exact restriction matrices, so the two routes
can be compared entry by entry.

Every entry is a linear form in (a, h): a diagonal entry is a bundle weight,
an off-diagonal one a rational multiple of h.  Like the bundle weights, an
entry is kept as its coefficient tuple (a_1, .., a_r, h), keyed by the index
pair of its points, and OperatorMatrix.zero is the value of a cell where
none is stored.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, mul, sub
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .cartan import Chamber
from .slices import (
    FixedPoint,
    RootMonomial,
    SliceSpec,
    adjacent_pairs,
    enumerate_fixed_points,
    memoized,
    point_index,
    repelling_euler,
)
from .stab_a1 import _form_div, _pairing_sums, _unpack, normalize_polarization, stab_matrix
from .stab_general import sigma_sign
from .symalg import _norm_scalar

BundleTag = Union[str, Tuple[str, int]]


def parse_bundle(spec: SliceSpec, bundle: BundleTag) -> Tuple[str, int]:
    """Normalize a bundle tag to ("L", k) with 0 <= k <= l or ("E", i) with 1 <= i <= l."""
    if bundle is None:
        raise ValueError("mult needs a bundle tag L<k> or E<i>")
    if isinstance(bundle, str):
        kind, digits = bundle[:1], bundle[1:]
        # str.isdigit admits digits that int() rejects or reads as others
        idx = int(digits) if digits.isascii() and digits.isdigit() else None
    else:
        kind, idx = bundle if isinstance(bundle, tuple) and len(bundle) == 2 else (None, None)
    # a bool is an int to isinstance, and no index here
    if not isinstance(kind, str) or type(idx) is not int:
        raise ValueError(f"malformed bundle tag {bundle!r}")
    kind = kind.upper()
    if kind not in ("L", "E"):
        raise ValueError(f"unknown bundle kind {kind!r}")
    l = spec.length
    if kind == "L" and 0 <= idx <= l:
        return kind, idx
    if kind == "E" and 1 <= idx <= l:
        return kind, idx
    raise ValueError(f"bundle {kind}{idx} out of range for a length-{l} slice")


def _quotient(kind: str, idx: int) -> Tuple[int, int]:
    """(lo, hi) of a parsed bundle L_hi / L_lo: L_k is (0, k), E_i is (i - 1, i)."""
    return (0, idx) if kind == "L" else (idx - 1, idx)


def line_bundle_weight(spec: SliceSpec, p: FixedPoint, i: int) -> tuple:
    """Torus weight of L_i at the fixed point p, for 0 <= i <= l, as the
    coefficient tuple (a_1..a_r, h) of the linear form sharp(sigma_i) +
    (h/2) (sigma_i, sigma_i); an A coefficient is an int where it is one,
    and the h coefficient is a Fraction.

    The weights of L_0..L_l are computed once per spec and point; callers
    share them.  p is a FixedPoint or the plain tuple of its steps; a point
    that is not a fixed point of the slice raises ValueError.
    """
    if type(i) is not int or not 0 <= i <= spec.length:
        raise ValueError(f"line bundle index {i!r} out of range")
    return _line_weights(spec, _index(spec, p))[i]


def _index(spec: SliceSpec, p: FixedPoint) -> int:
    """The point index of p, which is refused unless a fixed point of the slice."""
    x = point_index(spec).get(p)
    if x is None:
        raise ValueError("point is not a fixed point of this slice")
    return x


@memoized
def _line_weights(spec: SliceSpec, x: int) -> Tuple[tuple, ...]:
    """The weights of L_0..L_l at the point of index x, for line_bundle_weight."""
    cartan = spec.cartan
    den = cartan.gram.den
    return tuple(tuple([_over(c, den) for c in cartan.sharp(sigma)])
                 + (Fraction(cartan.inner(sigma, sigma), 2 * den),)
                 for sigma in spec._points[x].sigma())


def bundle_weight(spec: SliceSpec, p: FixedPoint, bundle: BundleTag) -> tuple:
    """Torus weight of the bundle L_hi / L_lo at p, that of L_hi less that
    of L_lo, as a coefficient tuple like line_bundle_weight's."""
    lo, hi = _quotient(*parse_bundle(spec, bundle))
    weights = _line_weights(spec, _index(spec, p))
    return tuple(map(sub, weights[hi], weights[lo]))


class OperatorMatrix:
    """Matrix of an operator in the stable basis.

    Column p lists the coefficients over rows q: the operator sends the basis
    element at p to sum_q entry(q, p) times the basis element at q.  The
    basis is enumerate_fixed_points(spec), so a point's index is its
    point_index.  entries holds the nonzero coefficients only, keyed by the
    index pair (qi, pi), each a linear form in (a, h) as its coefficient
    tuple (a_1, .., a_r, h); zero is the all-zero tuple, the value of a
    cell where none is stored.  The matrix keeps its basis and label, not
    its slice or the chamber it was built for.
    """

    __slots__ = ("basis", "entries", "label", "zero")

    def __init__(self, spec: SliceSpec, entries: Dict[Tuple[int, int], tuple],
                 label: Optional[str] = None):
        self.basis = enumerate_fixed_points(spec)
        self.entries = {key: e for key, e in entries.items() if any(e)}
        self.label = label
        self.zero = (0,) * (spec.cartan.rank + 1)

    def validate(self) -> None:
        """Entries are linear forms; off-diagonal ones rational multiples of h."""
        width = len(self.zero)
        for qi, pi in sorted(self.entries):
            e = self.entries[qi, pi]
            if len(e) != width:
                raise AssertionError(
                    f"entry ({self.basis[qi].label()}, {self.basis[pi].label()}) "
                    "is not a linear form"
                )
            if qi != pi and any(e[:-1]):
                raise AssertionError(
                    f"off-diagonal entry ({self.basis[qi].label()}, {self.basis[pi].label()}) "
                    "is not a rational multiple of h"
                )


def h_operator(spec: SliceSpec, i: int) -> OperatorMatrix:
    """Diagonal operator with eigenvalue sharp(delta_i) + (h/2) (delta_i, mu) at p."""
    if type(i) is not int or not 1 <= i <= spec.length:
        raise ValueError(f"slot index {i!r} out of range")
    cartan = spec.cartan
    den = cartan.gram.den
    entries = {}
    for pi, p in enumerate(enumerate_fixed_points(spec)):
        d = p[i - 1]
        entries[pi, pi] = (tuple([_over(x, den) for x in cartan.sharp(d)])
                           + (Fraction(cartan.inner(d, spec.mu), 2 * den),))
    return OperatorMatrix(spec, entries, label=f"H{i}")


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
    return OperatorMatrix(spec, entries)


def _pair_table(spec: SliceSpec, ch: Chamber, polarization_signs=None) -> list:
    """All lowering moves: tuples (p, q, witness, sigma) of point indices,
    one per adjacent pair."""
    signs = normalize_polarization(enumerate_fixed_points(spec), polarization_signs)
    return [(p, q, w, sigma_sign(spec, p, q, w.column, ch, signs))
            for (p, q), w in adjacent_pairs(spec, ch).items()]


def _over(n: int, d: int):
    """n / d, an int where it is one."""
    return n // d if n % d == 0 else Fraction(n, d)


@memoized
def _step_sharp(spec: SliceSpec, d: Tuple[int, ...]) -> Tuple[int, ...]:
    """sharp(d) of a slot step d, once per spec and step."""
    return spec.cartan.sharp(d)


def _mult(spec: SliceSpec, lo: int, hi: int, pair_table: list, label: str) -> OperatorMatrix:
    """Matrix of multiplication by c_1(L_hi / L_lo): the sum of the slot
    operators lo < i <= hi, less h times the chamber operators across the
    cut at hi, plus h times those across the cut at lo."""
    a_zero = (0,) * spec.cartan.rank
    scale = spec.cartan.gram.den
    entries = {}
    for pi, p in enumerate(enumerate_fixed_points(spec)):
        # the weight of L_hi less L_lo, times scale: sharp(sigma_hi - sigma_lo),
        # the sum of the steps' sharps, plus (h/2) of the difference of the
        # squares, (sigma_hi + sigma_lo, sigma_hi - sigma_lo)
        low = a_part = a_zero
        for d in p[:lo]:
            low = tuple(map(add, low, d))
        high = low
        for d in p[lo:hi]:
            high = tuple(map(add, high, d))
            a_part = tuple(map(add, a_part, _step_sharp(spec, d)))
        twice_h = sum(map(mul, map(add, high, low), a_part))
        entries[pi, pi] = tuple([_over(x, scale) for x in a_part]) + (_over(twice_h, 2 * scale),)
    for pi, qi, w, sign in pair_table:
        # the pair's correction in L_hi less that in L_lo: for E_i, h Omega_ji
        # where w.i = i and -h Omega_ij where w.j = i
        c = (w.i <= hi < w.j) - (w.i <= lo < w.j)
        if c:
            entries[qi, pi] = a_zero + (-c * sign * spec.cartan.half_lengths[w.column],)
    return OperatorMatrix(spec, entries, label=label)


def mult_matrix(
    spec: SliceSpec,
    bundle: BundleTag,
    ch: Chamber,
    polarization_signs=None,
) -> OperatorMatrix:
    """Matrix of multiplication by c_1 of the bundle in the stable basis for
    ch, built by one kernel as the quotient L_hi / L_lo it names."""
    kind, idx = parse_bundle(spec, bundle)
    lo, hi = _quotient(kind, idx)
    mat = _mult(spec, lo, hi, _pair_table(spec, ch, polarization_signs), f"{kind}{idx}")
    mat.validate()
    return mat


def line_bundle_matrices(
    spec: SliceSpec, ch: Chamber, polarization_signs=None
) -> List[OperatorMatrix]:
    """The matrices of c_1(L_0), ..., c_1(L_l), each the quotient L_k / L_0,
    built by mult_matrix's kernel on one table of lowering moves."""
    table = _pair_table(spec, ch, polarization_signs)
    matrices = [_mult(spec, 0, k, table, f"L{k}") for k in range(spec.length + 1)]
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
    b, lcm, sums = _pairing_sums(spec, plus, minus, weight)
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
        except AssertionError as exc:
            raise AssertionError(
                f"localization entry ({points[q].label()}, {points[p].label()}) is not polynomial"
            ) from exc
        entries[q, p] = tuple([_over(c, den) for c in form])
    return OperatorMatrix(spec, entries, label=f"{kind}{idx}")


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
    at_p, at_q = spec._points[p], spec._points[q]
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
        raise AssertionError(
            f"the polarization at {at_q.label()} does not divide the "
            f"reconstruction of ({at_p.label()}, {at_q.label()})"
        )
    if any(quotient.exponents):
        raise AssertionError("reconstructed coefficient is not a constant")
    return Fraction(quotient.scalar)
