"""Divisor-class multiplication operators in the stable basis.

The slice carries tautological line bundles L_0, ..., L_l (L_0 trivial) and
successive quotients E_i = L_i / L_{i-1}.  Multiplying the stable basis by
the first Chern class of any of these acts through an upper-triangular
matrix: a diagonal family of linear equivariant weights plus strictly
triangular corrections supported on adjacent fixed-point pairs.  The module
builds these matrices from the combinatorial formula and, in rank one,
recomputes them by equivariant localization against the exact restriction
matrices, so the two routes can be compared entry by entry.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import add, mul
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .cartan import AWeightForm, Chamber, Coweight
from .slices import (
    EulerClass,
    FixedPoint,
    SliceSpec,
    _canonical,
    _point,
    adjacent_pairs,
    enumerate_fixed_points,
    localization_denominator,
    point_index,
    repelling_euler,
)
from .stab_a1 import (
    ExactDivisionFailure,
    _form_div,
    _linear,
    _pairing_sums,
    _polynomial,
    normalize_polarization,
    stab_matrix,
)
from .stab_general import sigma_sign
from .symalg import NonDivisible, Polynomial, RationalFunction


class NonPolynomialEntry(RuntimeError):
    """A localization sum failed to reduce to a degree-one polynomial."""


class EquivariantLinearForm:
    """Restriction of a line-bundle class: a linear form plus a multiple of h."""

    __slots__ = ("a_part", "h_coeff")

    def __init__(self, a_part: AWeightForm, h_coeff):
        self.a_part = a_part
        self.h_coeff = Fraction(h_coeff)

    def to_polynomial(self) -> Polynomial:
        return Polynomial.linear_form(self.a_part.coords, self.h_coeff)

    def __add__(self, other: "EquivariantLinearForm") -> "EquivariantLinearForm":
        return EquivariantLinearForm(self.a_part + other.a_part, self.h_coeff + other.h_coeff)

    def __sub__(self, other: "EquivariantLinearForm") -> "EquivariantLinearForm":
        return EquivariantLinearForm(self.a_part - other.a_part, self.h_coeff - other.h_coeff)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EquivariantLinearForm)
            and self.a_part == other.a_part
            and self.h_coeff == other.h_coeff
        )

    def __hash__(self):
        return hash((self.a_part, self.h_coeff))

    def __repr__(self):
        return f"EquivariantLinearForm({self.a_part!r}, {self.h_coeff})"


BundleTag = Union[str, Tuple[str, int]]


def parse_bundle(spec: SliceSpec, bundle: BundleTag) -> Tuple[str, int]:
    """Normalize a bundle tag to ("L", k) with 0 <= k <= l or ("E", i) with 1 <= i <= l."""
    if isinstance(bundle, str):
        kind, digits = bundle[:1], bundle[1:]
        if not digits.isdigit():
            raise ValueError(f"malformed bundle tag {bundle!r}")
        idx = int(digits)
    else:
        kind, idx = bundle
    kind = kind.upper()
    l = spec.length
    if kind == "L" and 0 <= idx <= l:
        return kind, idx
    if kind == "E" and 1 <= idx <= l:
        return kind, idx
    raise ValueError(f"bundle {kind}{idx} out of range for a length-{l} slice")


def line_bundle_weight(spec: SliceSpec, p: FixedPoint, i: int) -> EquivariantLinearForm:
    """Torus weight of L_i at the fixed point p, for 0 <= i <= l.

    The weights of L_0..L_l are computed once per spec and point; callers
    share them.
    """
    if not 0 <= i <= spec.length:
        raise ValueError(f"line bundle index {i} out of range")
    weights = spec._line_weights.get(p)
    if weights is None:
        cartan = spec.cartan
        weights = spec._line_weights[p] = tuple(
            EquivariantLinearForm(cartan.sharp(sigma), Fraction(cartan.inner(sigma, sigma), 2))
            for sigma in p.sigma()
        )
    return weights[i]


def e_bundle_weight(spec: SliceSpec, p: FixedPoint, i: int) -> EquivariantLinearForm:
    """Torus weight of E_i = L_i / L_{i-1} at p, for 1 <= i <= l."""
    if not 1 <= i <= spec.length:
        raise ValueError(f"quotient bundle index {i} out of range")
    return line_bundle_weight(spec, p, i) - line_bundle_weight(spec, p, i - 1)


def bundle_weight(spec: SliceSpec, p: FixedPoint, bundle: BundleTag) -> EquivariantLinearForm:
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
    index pair (qi, pi); entry reads an absent pair as one shared zero.
    """

    __slots__ = ("spec", "chamber", "basis", "entries", "label", "zero")

    def __init__(
        self,
        spec: SliceSpec,
        chamber: Optional[Chamber],
        entries: Dict[Tuple[int, int], Polynomial],
        label: Optional[str] = None,
    ):
        self.spec = spec
        self.chamber = chamber
        self.basis = enumerate_fixed_points(spec)
        self.entries = {key: e for key, e in entries.items() if not e.is_zero()}
        self.label = label
        self.zero = Polynomial.zero(spec.cartan.rank + 1)

    def entry(self, q: FixedPoint, p: FixedPoint) -> Polynomial:
        index = point_index(self.spec)
        return self.entries.get((index[q], index[p]), self.zero)

    def validate(self) -> None:
        """Diagonal entries are degree-one; off-diagonal ones rational multiples of h."""
        for qi, pi in sorted(self.entries):
            e = self.entries[qi, pi]
            if qi == pi:
                if e.deg_a() > 1 or e.h_degree() > 1 or e.total_degree() > 1:
                    raise AssertionError(f"diagonal entry at {self.basis[pi]} not linear")
            elif e.h_degree() != 1 or not (e.div_h().total_degree() == 0):
                raise AssertionError(
                    f"off-diagonal entry ({self.basis[qi]}, {self.basis[pi]}) "
                    "is not a rational multiple of h"
                )

    def _common_chamber(self, other: "OperatorMatrix") -> Optional[Chamber]:
        """The chamber a combination of the two keeps; they must share a slice."""
        if self.spec != other.spec:
            raise ValueError("operator matrices live on different slices")
        return self.chamber if self.chamber == other.chamber else None

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        chamber = self._common_chamber(other)
        entries = dict(self.entries)
        for key, b in other.entries.items():
            entries[key] = entries[key] - b if key in entries else -b
        return OperatorMatrix(self.spec, chamber, entries)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        chamber = self._common_chamber(other)
        rows: Dict[int, list] = {}
        for (ri, pi), b in other.entries.items():
            rows.setdefault(ri, []).append((pi, b))
        sums: Dict[Tuple[int, int], Polynomial] = {}
        for (qi, ri), a in self.entries.items():
            for pi, b in rows.get(ri, ()):
                key = qi, pi
                sums[key] = sums[key] + a * b if key in sums else a * b
        return OperatorMatrix(self.spec, chamber, sums)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OperatorMatrix)
            and self.spec == other.spec
            and self.entries == other.entries
        )

    def to_json(self) -> dict:
        shared: dict = {}
        get, zero = self.entries.get, self.zero
        n = range(len(self.basis))
        return {
            "basis": [p.to_json(shared) for p in self.basis],
            "bundle": self.label,
            "entries": [[get((qi, pi), zero).to_json() for pi in n] for qi in n],
        }


def h_operator(spec: SliceSpec, i: int) -> OperatorMatrix:
    """Diagonal operator with eigenvalue sharp(delta_i) + (h/2) (delta_i, mu) at p."""
    if not 1 <= i <= spec.length:
        raise ValueError(f"slot index {i} out of range")
    points = enumerate_fixed_points(spec)
    entries = {}
    for pi, p in enumerate(points):
        d = p.delta[i - 1]
        form = EquivariantLinearForm(
            spec.cartan.sharp(d), Fraction(spec.cartan.inner(d, spec.mu), 2)
        )
        entries[pi, pi] = form.to_polynomial()
    return OperatorMatrix(spec, None, entries, label=f"H{i}")


def omega_operators(
    spec: SliceSpec,
    i: int,
    j: int,
    ch: Chamber,
    polarization_signs=None,
) -> OperatorMatrix:
    """Chamber operator between slots: half the pairing part plus all positive-root parts."""
    if not 1 <= i < j <= spec.length:
        raise ValueError("slots must satisfy 1 <= i < j <= l")
    points = enumerate_fixed_points(spec)
    nv = spec.cartan.rank + 1
    entries = {}
    half = Fraction(1, 2)
    for pi, p in enumerate(points):
        val = spec.cartan.inner(p.delta[i - 1], p.delta[j - 1])
        entries[pi, pi] = Polynomial.constant(nv, half * Fraction(val))
    for pi, qi, w, sign in _pair_table(spec, ch, polarization_signs):
        if (w.i, w.j) != (i, j):
            continue
        half_len = spec.cartan.coroot_half_length[w.alpha_form]
        entries[qi, pi] = Polynomial.constant(nv, sign * half_len)
    return OperatorMatrix(spec, ch, entries)


def _pair_table(spec: SliceSpec, ch: Chamber, polarization_signs=None) -> list:
    """All lowering moves: tuples (p, q, witness, sigma) of point indices,
    one per adjacent pair."""
    signs = normalize_polarization(enumerate_fixed_points(spec), polarization_signs)
    return [(p, q, w, sigma_sign(spec, p, q, w.alpha_form, ch, signs))
            for (p, q), w in adjacent_pairs(spec, ch).items()]


def _slot_step(spec: SliceSpec, d: Coweight) -> tuple:
    """For a slot step d: the coordinates of sharp(d), <d, mu> and a map
    d' -> <d, d'> keyed by the coordinates of d', which _mult_l fills as it
    needs it (each as <d', sharp(d)>); once per spec and step."""
    found = spec._slot_inners.get(d.coords)
    if found is None:
        sharp = spec.cartan.sharp(d).coords
        found = spec._slot_inners[d.coords] = (sharp, sum(map(mul, spec.mu.coords, sharp)), {})
    return found


def _mult_l(spec: SliceSpec, k: int, ch: Chamber, pair_table: list) -> OperatorMatrix:
    """Matrix of multiplication by c_1(L_k): sum of the slot operators up to k
    minus h times the chamber operators across the cut at k."""
    points = enumerate_fixed_points(spec)
    nv = spec.cartan.rank + 1
    entries = {}
    for pi, p in enumerate(points):
        # sum over slots i <= k of sharp(delta_i) + (h/2) (delta_i, mu),
        # less (h/2) (delta_i, delta_j) for every slot j > k
        a_part = (0,) * (nv - 1)
        twice_h = 0
        for d in p.delta[:k]:
            sharp, with_mu, inner = _slot_step(spec, d)
            a_part = tuple(map(add, a_part, sharp))
            twice_h += with_mu
            for c in (e.coords for e in p.delta[k:]):
                value = inner.get(c)
                if value is None:
                    value = inner[c] = sum(map(mul, c, sharp))
                twice_h -= value
        entries[pi, pi] = Polynomial.linear_form(a_part, Fraction(twice_h, 2))
    for pi, qi, w, sign in pair_table:
        if not w.i <= k < w.j:
            continue
        half_len = spec.cartan.coroot_half_length[w.alpha_form]
        entries[qi, pi] = Polynomial.linear_form([0] * (nv - 1), -sign * half_len)
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


def _as_vector(
    points: Sequence[FixedPoint], v: Union[Mapping, Sequence]
) -> Dict[FixedPoint, Polynomial]:
    if isinstance(v, Mapping):
        return {p: v[p] for p in points if p in v and not v[p].is_zero()}
    if len(v) != len(points):
        raise ValueError("vector length does not match the fixed-point count")
    return {p: e for p, e in zip(points, v) if not e.is_zero()}


def localization_pair(spec: SliceSpec, v1, v2) -> RationalFunction:
    """Sum over fixed points of v1(x) v2(x) / e_T(T_x), as the sum of
    v1(x) v2(x) cofactor(x) over the LCM of the tangent Euler classes."""
    points = enumerate_fixed_points(spec)
    a = _as_vector(points, v1)
    b = _as_vector(points, v2)
    lcm, cofactor = localization_denominator(spec)
    total = Polynomial.zero(lcm.nvars)
    for xi, x in enumerate(points):
        if x in a and x in b:
            total = total + a[x] * b[x] * cofactor[xi].polynomial()
    return RationalFunction(total, lcm.polynomial())


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
    weight = []
    for x in points:
        w = bundle_weight(spec, x, (kind, idx))
        weight.append((w.a_part.coords[0], w.h_coeff))
    lcm, sums = _pairing_sums(plus, minus, weight)
    # the lcm has scalar 1, and every factor is a canonical tangent form a + s h
    shifts = []
    for f, k in lcm.factors.items():
        u, s = _linear(f)
        assert u == 1
        shifts += [s] * k
    entries = {}
    # each sum has degree deg(lcm) + 1, so its quotient is a linear form
    for (p, q), total in sums.items():
        try:
            for s in shifts:
                total = _form_div(total, s)
        except NonDivisible as exc:
            raise NonPolynomialEntry(
                f"localization entry ({points[q]}, {points[p]}) is not polynomial"
            ) from exc
        entries[q, p] = _polynomial(total)
    return OperatorMatrix(spec, ch, entries, label=f"{kind}{idx}")


def reconstruct_coefficient(
    spec: SliceSpec,
    ch: Chamber,
    entries: Mapping[Tuple[int, int], EulerClass],
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
    products of linear forms, so the quotient is a multiset difference, and
    its being a constant pins the coefficient of h in the matrix entry.
    """
    entry = entries.get((p, q))
    if entry is None:
        return Fraction(0)
    at_p, at_q = _point(spec, p), _point(spec, q)
    diff = bundle_weight(spec, at_q, bundle).a_part - bundle_weight(spec, at_p, bundle).a_part
    if diff.is_zero():
        return Fraction(0)
    # diff is the sharp of the coroot that moves p to q, up to sign: an
    # integer multiple of a root, so its coefficients are integers
    diff_form, diff_scalar = _canonical(spec._forms, diff.coords + (0,))
    h = _canonical(spec._forms, (0,) * spec.cartan.rank + (1,))[0]
    eps_q = repelling_euler(spec, q, ch, False)
    quotient = entry.times_ratio(Counter([diff_form]), eps_q.factors + Counter([h]),
                                 Fraction(diff_scalar) / (signs[q] * eps_q.scalar))
    if quotient is None:
        raise ExactDivisionFailure(
            f"the polarization at {at_q.label()} does not divide the "
            f"reconstruction of ({at_p.label()}, {at_q.label()})"
        )
    if quotient.factors:
        raise AssertionError("reconstructed coefficient is not a constant")
    return Fraction(quotient.scalar)
