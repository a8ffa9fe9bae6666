"""Mod-h^2 stable-envelope restrictions for arbitrary simple type.

Only the adjacency classification survives mod h^2: an off-diagonal
restriction Stab[p]|_q is nonzero exactly when q is p with one increment
lowered by a chamber-positive coroot alpha at a slot i and raised back at a
later slot j.  The coefficient is omega_{p,q} * (h / alpha_form) * eps|_p,
where omega is the ratio of A-equivariant repelling Euler classes taken for
either closed-form chamber next to the wall ker(alpha_form)
(wall_adjacent_chambers); the two must agree.
Every part of it is a product of linear forms, so an entry is an EulerClass
built by multiset arithmetic and expanded only where a document prints it.
omega is read from the root counts of p and q (the multiplicity of each root
among the A-parts of the tangent weights, slices._root_counts) and a
chamber's sign vector; it belongs to the wall, so it lives in the spec's
_omega slot, once per unordered pair and root.
Points are their indices in enumerate_fixed_points, and a polarization is
the tuple of signs by index that normalize_polarization returns.
Diagonals are excluded: their mod-h^2 constant is not pinned down by the
closed form, and the exact value is available from Euler classes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import add, sub
from typing import Dict, Tuple

from .cartan import AWeightForm, CartanDatum, Chamber, Coweight
from .slices import (
    EulerClass,
    SliceSpec,
    _canonical,
    _flip_signs,
    _point,
    _repelling_ratio,
    _root_counts,
    adjacent_pairs,
    enumerate_fixed_points,
    repelling_euler,
    same_wall_component,
)
from .stab_a1 import ExactDivisionFailure, normalize_polarization


def _canonical_root(cartan: CartanDatum, root: AWeightForm) -> AWeightForm:
    canon = cartan._positive_of.get(root)
    if canon is None:
        raise ValueError(f"{root} is not a root")
    return canon


def wall_adjacent_chambers(cartan: CartanDatum, root: AWeightForm) -> Tuple[Chamber, Chamber]:
    """The two chambers on either side of ker(root) that touch no other
    wall, the positive root of {root, -root} positive on the first.

    Their witnesses come in closed form from the root closure of the datum
    (CartanDatum); the chambers are built once per datum and root, when a
    job first asks for that wall.
    """
    root = _canonical_root(cartan, root)
    found = cartan.wall_chambers.get(root)
    if found is None:
        base, coroot = cartan._wall_bases[root.coords], cartan.coroot_of_root[root].coords
        found = cartan.wall_chambers[root] = tuple(
            Chamber(cartan, Coweight._of(tuple(map(op, base, coroot)))) for op in (add, sub))
    return found


def omega_ratio(
    spec: SliceSpec, p: int, q: int, root: AWeightForm
) -> Tuple[Counter, Counter, Fraction]:
    """e_A of the repelling half at q over the one at p, for the points of
    indices p and q and a chamber adjacent to the wall of the root; the two
    chambers of wall_adjacent_chambers must agree.

    Both Euler classes are multisets of canonical factors, so the ratio is
    their multiset difference, already in lowest terms: the factors of the
    numerator, those of the denominator, and the scalar.  The ratio belongs
    to the wall, not to a chamber, so it is computed and checked once per
    spec, unordered pair and root (the ratio for (q, p) is the reciprocal),
    and callers share it.
    """
    canon = _canonical_root(spec.cartan, root)
    key = (p, q, canon)
    found = spec._omega.get(key)
    if found is None:
        reverse = spec._omega.get((q, p, canon))
        if reverse is not None:
            up, down, scalar = reverse
            found = (down, up, 1 / scalar)
        else:
            if same_wall_component(spec, _point(spec, p), _point(spec, q)) != canon:
                raise ValueError("p and q do not share a wall component for this root")
            near, far = (_repelling_ratio(spec, _root_counts(spec, q), _root_counts(spec, p),
                                          ch.sign_vector)
                         for ch in wall_adjacent_chambers(spec.cartan, canon))
            if near != far:
                raise AssertionError("the two wall sides disagree on the omega ratio")
            found = near
        spec._omega[key] = found
    return found


def sigma_sign(
    spec: SliceSpec,
    p: int,
    q: int,
    root: AWeightForm,
    pol_chamber: Chamber,
    signs: Tuple[int, ...],
) -> int:
    """Polarization sign pair against a wall-adjacent chamber.

    flip_sign(p, pol_chamber, C) * flip_sign(q, pol_chamber, C) * signs[p] *
    signs[q] for the points of indices p and q, with signs resolved by
    normalize_polarization; both chambers C of wall_adjacent_chambers must
    give the same value.  The caller guarantees that (p, q) is an adjacent
    pair on a common wall component of the root.  Each side reads its two
    flip signs from the spec's table of them.
    """
    near, far = wall_adjacent_chambers(spec.cartan, root)
    at_near, at_far = _flip_signs(spec, pol_chamber, near), _flip_signs(spec, pol_chamber, far)
    sign = at_near[p] * at_near[q]
    if sign != at_far[p] * at_far[q]:
        raise AssertionError("sigma sign depends on the adjacent chamber")
    return sign * signs[p] * signs[q]


def stab_mod_h2(
    spec: SliceSpec, ch: Chamber, polarization_signs=None
) -> Dict[Tuple[int, int], EulerClass]:
    """Off-diagonal restrictions mod h^2 for every adjacency-witnessed pair,
    keyed by the point indices (p, q).

    Each entry sign_p * eps_p * omega * h / alpha is returned factored, as
    an EulerClass; its polynomial() method expands it.
    """
    points = enumerate_fixed_points(spec)
    signs = normalize_polarization(points, polarization_signs)
    h = Counter([(0,) * spec.cartan.rank + (1,)])
    out: Dict[Tuple[int, int], EulerClass] = {}
    for (p, q), witness in adjacent_pairs(spec, ch).items():
        eps = repelling_euler(spec, p, ch, False)
        up, down, scalar = omega_ratio(spec, p, q, witness.alpha_form)
        alpha, alpha_scalar = _canonical(spec._forms, witness.alpha_form.coords + (0,))
        entry = eps.times_ratio(up + h, down + Counter([alpha]),
                                signs[p] * scalar / alpha_scalar)
        if entry is None:
            raise ExactDivisionFailure(
                f"entry ({points[p].label()}, {points[q].label()}) did not clear its denominator"
            )
        out[(p, q)] = entry
    return out


def mod_h2_json(spec: SliceSpec, ch: Chamber, entries) -> dict:
    """Sparse triplet serialization sorted by (p, q)."""
    pairs = adjacent_pairs(spec, ch)
    rows = [{"p": p, "q": q, "alpha": list(pairs[p, q].alpha_form.coords),
             "value": entries[p, q].polynomial().to_json()} for p, q in sorted(entries)]
    return {"entries": rows}
