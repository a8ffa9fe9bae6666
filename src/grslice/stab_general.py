"""Mod-h^2 stable-envelope restrictions for arbitrary simple type.

Only the adjacency classification survives mod h^2: an off-diagonal
restriction Stab[p]|_q is nonzero exactly when q is p with one increment
lowered by a chamber-positive coroot alpha at a slot i and raised back at a
later slot j.  The coefficient is omega_{p,q} * (h / alpha_form) * eps|_p,
where omega is the ratio of A-equivariant repelling Euler classes taken for
a chamber adjacent to the wall ker(alpha_form); both wall sides must agree.
Every part of it is a product of linear forms, so an entry is an EulerClass
built by multiset arithmetic and expanded only where a document prints it.
omega is read from the root counts of p and q (the multiplicity of each root
among the A-parts of the tangent weights, slices._root_counts) and a
chamber's sign vector; it belongs to the wall, so it lives in the spec's
_omega slot, once per unordered pair and root.
Diagonals are excluded: their mod-h^2 constant is not pinned down by the
closed form, and the exact value is available from Euler classes.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from operator import mul
from typing import Dict, List, Mapping, Tuple

from .cartan import AWeightForm, CartanDatum, Chamber, Coweight
from .slices import (
    AdjacencyWitness,  # noqa: F401  callers import it from this module too
    EulerClass,
    FixedPoint,
    SliceSpec,
    _canonical,
    _repelling_ratio,
    _root_counts,
    adjacent_pairs,
    enumerate_fixed_points,
    flip_sign,
    point_index,
    repelling_euler,
    same_wall_component,
)
from .stab_a1 import ExactDivisionFailure, normalize_polarization


def _canonical_root(cartan: CartanDatum, root: AWeightForm) -> AWeightForm:
    canon = cartan._positive_of.get(root)
    if canon is None:
        raise ValueError(f"{root} is not a root")
    return canon


def wall_adjacent_chambers(
    cartan: CartanDatum, root: AWeightForm, count: int = 1
) -> List[Chamber]:
    """2*count chambers adjacent to ker(root), one pair per generic wall point.

    Wall points are sampled deterministically (the generator is seeded from
    the datum and the root), projected onto the wall, and checked against
    every other root hyperplane; the perturbation off the wall is small
    enough to preserve all other signs.  Each root keeps one list, grown on
    demand, so a smaller count gives a prefix of a larger one.  A chamber
    depends only on the signs of its witness, so each witness is scaled by a
    positive integer that clears its denominators, and the sampling runs on
    integers.
    """
    root = _canonical_root(cartan, root)
    if root not in cartan.wall_chambers:
        rng = random.Random(f"{cartan.type_letter}{cartan.rank}:{root.coords}")
        cartan.wall_chambers[root] = (rng, [])
    rng, out = cartan.wall_chambers[root]
    if len(out) < 2 * count:
        coroot = cartan.coroot_of_root[root].coords
        others = [f.coords for f in cartan.root_list if cartan._positive_of[f] is not root]
        slopes = [abs(sum(map(mul, coroot, f))) + 1 for f in others]
        while len(out) < 2 * count:
            u = [rng.randint(-9, 9) for _ in range(cartan.rank)]
            # twice the projection w = u - coroot <u, root> / 2 onto the wall
            k = sum(map(mul, u, root.coords))
            w2 = [2 * x - k * c for x, c in zip(u, coroot)]
            vals = [abs(sum(map(mul, w2, f))) for f in others]
            if 0 in vals:
                continue
            # the witnesses are w +- t coroot with t = min |<w, f>| / slope(f),
            # or 1 when no other root exists; 2t = a / b, and they are taken
            # times 2b
            a, b = (vals[0], slopes[0]) if others else (2, 1)
            for v, s in zip(vals, slopes):
                if v * b < a * s:
                    a, b = v, s
            out.append(Chamber(cartan, Coweight([x * b + a * c for x, c in zip(w2, coroot)])))
            out.append(Chamber(cartan, Coweight([x * b - a * c for x, c in zip(w2, coroot)])))
    return out[:2 * count]


def omega_ratio(
    spec: SliceSpec, p: FixedPoint, q: FixedPoint, root: AWeightForm
) -> Tuple[Counter, Counter, Fraction]:
    """e_A of the repelling half at q over the one at p, for a chamber
    adjacent to the wall of the root; the two wall sides must agree.

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
            if same_wall_component(spec, p, q) != canon:
                raise ValueError("p and q do not share a wall component for this root")
            near, far = (_repelling_ratio(spec, _root_counts(spec, q), _root_counts(spec, p),
                                          ch.sign_vector)
                         for ch in wall_adjacent_chambers(spec.cartan, canon, 1))
            if near != far:
                raise AssertionError("the two wall sides disagree on the omega ratio")
            found = near
        spec._omega[key] = found
    return found


def sigma_sign(
    spec: SliceSpec,
    p: FixedPoint,
    q: FixedPoint,
    root: AWeightForm,
    pol_chamber: Chamber,
    polarization_signs=None,
    samples: int = 3,
) -> int:
    """Polarization sign pair against a wall-adjacent chamber.

    flip_sign(p, pol_chamber, C) * flip_sign(q, pol_chamber, C) * sign_p *
    sign_q for C adjacent to the wall of the root; every sampled adjacent
    chamber must give the same value.  The caller guarantees that (p, q) is
    an adjacent pair on a common wall component of the root.
    """
    canon = _canonical_root(spec.cartan, root)
    # a mapping is read at p and q alone, so a table that resolved the signs
    # once does not resolve them again per move
    points = (p, q) if isinstance(polarization_signs, Mapping) else enumerate_fixed_points(spec)
    signs = normalize_polarization(points, polarization_signs)
    values = set()
    for ch in wall_adjacent_chambers(spec.cartan, canon, samples):
        values.add(
            flip_sign(spec, p, pol_chamber, ch)
            * flip_sign(spec, q, pol_chamber, ch)
            * signs[p]
            * signs[q]
        )
    if len(values) != 1:
        raise AssertionError("sigma sign depends on the adjacent chamber")
    return values.pop()


def stab_mod_h2(
    spec: SliceSpec, ch: Chamber, polarization_signs=None
) -> Dict[Tuple[FixedPoint, FixedPoint], EulerClass]:
    """Off-diagonal restrictions mod h^2 for every adjacency-witnessed pair.

    Each entry sign_p * eps_p * omega * h / alpha is returned factored, as
    an EulerClass; its polynomial() method expands it.
    """
    points = enumerate_fixed_points(spec)
    signs = normalize_polarization(points, polarization_signs)
    rank = spec.cartan.rank
    h = Counter([_canonical(spec._forms, (0,) * rank + (1,))[0]])
    out: Dict[Tuple[FixedPoint, FixedPoint], EulerClass] = {}
    for (p, q), witness in adjacent_pairs(spec, ch).items():
        eps = repelling_euler(spec, p, ch, False)
        up, down, scalar = omega_ratio(spec, p, q, witness.alpha_form)
        alpha, alpha_scalar = _canonical(spec._forms, witness.alpha_form.coords + (0,))
        entry = eps.times_ratio(up + h, down + Counter([alpha]),
                                signs[p] * scalar / alpha_scalar)
        if entry is None:
            raise ExactDivisionFailure(
                f"entry ({p.label()}, {q.label()}) did not clear its denominator"
            )
        out[(p, q)] = entry
    return out


def mod_h2_json(spec: SliceSpec, ch: Chamber, entries) -> dict:
    """Sparse triplet serialization sorted by (p, q) enumeration indices."""
    index = point_index(spec)
    pairs = adjacent_pairs(spec, ch)
    rows = []
    for p, q in sorted(entries, key=lambda pq: (index[pq[0]], index[pq[1]])):
        rows.append(
            {
                "p": index[p],
                "q": index[q],
                "alpha": list(pairs[(p, q)].alpha_form.coords),
                "value": entries[(p, q)].polynomial().to_json(),
            }
        )
    return {"entries": rows}
