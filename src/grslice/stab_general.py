"""Mod-h^2 stable-envelope restrictions for arbitrary simple type.

Only the adjacency classification survives mod h^2: an off-diagonal
restriction Stab[p]|_q is nonzero exactly when q is p with one increment
lowered by a chamber-positive coroot alpha at a slot i and raised back at a
later slot j.  The coefficient is omega_{p,q} * (h / alpha) * eps|_p, where
alpha is the root of the coroot and omega is the ratio of A-equivariant
repelling Euler classes taken for either closed-form chamber next to the
wall ker(alpha) (wall_adjacent_chambers); the two must agree.
Every part of it is a product of positive roots and h, so an entry is a
RootMonomial, an exponent vector over those forms built by tuple
arithmetic, and expanded only where a document prints it.
omega is read from the root counts of p and q (the multiplicity of each root
among the A-parts of the tangent weights, slices._root_counts) and a
chamber's sign vector; it belongs to the wall, so it is memoized once per
spec, unordered pair and wall.
Points are their indices in enumerate_fixed_points, and a polarization is
the tuple of signs by index that normalize_polarization returns.  A root
is its column in the datum's root_list: the wall routes take it so and
read its coroot, slot and sign from the datum's tables, and a wall is the
slot of its two roots.
Diagonals are excluded: their mod-h^2 constant is not pinned down by the
closed form, and the exact value is available from Euler classes.
"""

from __future__ import annotations

from operator import add, sub
from typing import Dict, Iterator, List, Tuple

from .cartan import CartanDatum, Chamber
from .slices import (
    RootMonomial,
    SliceSpec,
    _integer_multiple,
    _repelling_exponents,
    _root_counts,
    adjacent_pairs,
    enumerate_fixed_points,
    flip_sign,
    memoized,
    repelling_euler,
)
from .stab_a1 import normalize_polarization


def wall_adjacent_chambers(cartan: CartanDatum, column: int) -> Tuple[Chamber, Chamber]:
    """The two chambers on either side of the wall of the root of the given
    root_list column that touch no other wall, the positive root of the
    +-pair positive on the first.

    Their witnesses come in closed form from the root closure of the datum
    (CartanDatum).
    """
    slot = cartan._slots[column][0]
    base = cartan._wall_bases[slot]
    coroot = cartan.coroots[cartan._root_pairs[slot][0]]
    return tuple(Chamber(cartan, tuple(map(op, base, coroot))) for op in (add, sub))


@memoized
def _wall_chambers(spec: SliceSpec, slot: int) -> Tuple[Chamber, Chamber]:
    """wall_adjacent_chambers for the wall of the roots of the given slot,
    built once per spec and wall, when a job first asks for that wall."""
    return wall_adjacent_chambers(spec.cartan, spec.cartan._root_pairs[slot][0])


def omega_ratio(spec: SliceSpec, p: int, q: int, column: int) -> Tuple[Tuple[int, ...], int]:
    """e_A of the repelling half at q over the one at p, for the points of
    indices p and q and a chamber adjacent to the wall of the root of the
    given root_list column; the two chambers of wall_adjacent_chambers must
    agree.

    Both Euler classes are RootMonomials, so the ratio is the difference of
    their exponent vectors, already in lowest terms: a signed exponent
    vector over the datum's slot forms (positive for a factor above,
    negative for one below, 0 for h), and the scalar +-1.  The ratio
    belongs to the wall, not to a chamber, so it is computed and checked
    once per spec, unordered pair and wall: the ratio for p > q is the
    reciprocal of the one for (q, p), its exponents negated.
    """
    slot = spec.cartan._slots[column][0]
    if p <= q:
        return _wall_ratio(spec, p, q, slot)
    exponents, scalar = _wall_ratio(spec, q, p, slot)
    return tuple([-m for m in exponents]), scalar


@memoized
def _wall_ratio(spec: SliceSpec, p: int, q: int, slot: int) -> Tuple[Tuple[int, ...], int]:
    """omega_ratio for the wall of the roots of the given slot."""
    cartan = spec.cartan
    column = cartan._root_pairs[slot][0]
    # p and q lie in one component of the fixed locus of the wall when they
    # differ and every sigma difference is a multiple of its coroot (of no
    # other)
    coroot, run = cartan.coroots[column], (0,) * cartan.rank
    for dp, dq in zip(spec._points[p], spec._points[q]):
        run = tuple(map(add, run, map(sub, dp, dq)))
        if p == q or not _integer_multiple(run, coroot):
            raise ValueError("p and q do not share a wall component for this root")
    counts = _root_counts(spec)
    counts = tuple(map(sub, counts[q], counts[p]))
    near, far = (_repelling_exponents(cartan, counts, ch.sign_vector)
                 for ch in _wall_chambers(spec, slot))
    if near != far:
        raise AssertionError("the two wall sides disagree on the omega ratio")
    return near


def sigma_sign(
    spec: SliceSpec,
    p: int,
    q: int,
    column: int,
    pol_chamber: Chamber,
    signs: Tuple[int, ...],
) -> int:
    """Polarization sign pair against a wall-adjacent chamber.

    flip_sign(p, pol_chamber, C) * flip_sign(q, pol_chamber, C) * signs[p] *
    signs[q] for the points of indices p and q, with signs resolved by
    normalize_polarization; both chambers C of wall_adjacent_chambers of
    the root of the given root_list column must give the same value.  The
    caller guarantees that (p, q) is an adjacent pair on a common wall
    component of the root.
    """
    near, far = _wall_chambers(spec, spec.cartan._slots[column][0])
    sign = flip_sign(spec, p, pol_chamber, near) * flip_sign(spec, q, pol_chamber, near)
    if sign != flip_sign(spec, p, pol_chamber, far) * flip_sign(spec, q, pol_chamber, far):
        raise AssertionError("sigma sign depends on the adjacent chamber")
    return sign * signs[p] * signs[q]


def stab_mod_h2(
    spec: SliceSpec, ch: Chamber, polarization_signs=None
) -> Dict[Tuple[int, int], RootMonomial]:
    """Off-diagonal restrictions mod h^2 for every adjacency-witnessed pair,
    keyed by the point indices (p, q).

    Each entry sign_p * eps_p * omega * h / alpha is returned factored, as
    a RootMonomial; expand_entries expands entries for a document.
    """
    points = enumerate_fixed_points(spec)
    signs = normalize_polarization(points, polarization_signs)
    slots = spec.cartan._slots
    out: Dict[Tuple[int, int], RootMonomial] = {}
    for (p, q), witness in adjacent_pairs(spec, ch).items():
        eps = repelling_euler(spec, p, ch)
        omega, scalar = omega_ratio(spec, p, q, witness.column)
        # times h over alpha, whose sign +-1 is its own inverse
        slot, alpha_sign = slots[witness.column]
        ratio = list(omega)
        ratio[slot] -= 1
        ratio[-1] += 1
        entry = eps.times_ratio(ratio, signs[p] * scalar * alpha_sign)
        if entry is None:
            raise AssertionError(
                f"entry ({points[p].label()}, {points[q].label()}) did not clear its denominator"
            )
        out[(p, q)] = entry
    return out


def expand_entries(entries: List[RootMonomial]) -> Iterator[Dict[tuple, int]]:
    """Each entry in turn, so that a caller holds one at a time, expanded
    into its coefficient map {exponent vector: nonzero coefficient} in
    increasing exponent order; the entries share their forms, as a spec's do.

    A monomial is packed into the int sum of e_i * base ** (n - 1 - i) over
    its exponents (e_1, .., e_n) = (a_1, .., a_r, h), base one more than the
    largest degree, so that no exponent carries and the packed ints order
    like the exponent tuples.  A product is expanded one linear factor at a
    time on a dict of packed monomials with int coefficients, and scaled
    once.  Each packed monomial is unpacked once, into a tuple entries share.
    """
    if not entries:
        return
    forms = entries[0].forms
    n = len(forms[-1])
    base = max(sum(e.exponents) for e in entries) + 1
    # each form as the packed shift of each of its variables and the coefficient
    steps = [[(base ** (n - 1 - i), c) for i, c in enumerate(f) if c] for f in forms]
    vectors: Dict[int, tuple] = {}
    for entry in entries:
        terms = {0: 1}
        for step, power in zip(steps, entry.exponents):
            for _ in range(power):
                product: Dict[int, int] = {}
                get = product.get
                for m, d in terms.items():
                    for shift, c in step:
                        product[m + shift] = get(m + shift, 0) + d * c
                terms = product
        value = {}
        for m in sorted(terms):
            if terms[m]:
                exp = vectors.get(m)
                if exp is None:
                    digits, rest = [], m
                    for _ in range(n):
                        rest, e = divmod(rest, base)
                        digits.append(e)
                    exp = vectors[m] = tuple(reversed(digits))
                value[exp] = terms[m] * entry.scalar
        yield value
