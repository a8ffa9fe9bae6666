"""Mod-h^2 stable-envelope restrictions for arbitrary simple type.

Only the adjacency classification survives mod h^2: an off-diagonal
restriction Stab[p]|_q is nonzero exactly when q is p with one increment
lowered by a chamber-positive coroot alpha at a slot i and raised back at a
later slot j.  The coefficient is omega_{p,q} * (h / alpha_form) * eps|_p,
where omega is the ratio of A-equivariant repelling Euler classes taken for
a chamber adjacent to the wall ker(alpha_form); both wall sides must agree.
Diagonals are excluded: their mod-h^2 constant is not pinned down by the
closed form, and the exact value is available from Euler classes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .cartan import AWeightForm, CartanDatum, Chamber, Coweight, pairing
from .slices import (
    EulerClass,
    FixedPoint,
    SliceSpec,
    enumerate_fixed_points,
    flip_sign,
    point_index,
    repelling_euler,
    same_wall_component,
)
from .stab_a1 import ExactDivisionFailure, normalize_polarization
from .symalg import NonDivisible, Polynomial, RationalFunction, _factor_key


class AdjacencyWitness(NamedTuple):
    """Slots (1-based, i < j) and the chamber-positive coroot relating p to q."""

    i: int
    j: int
    alpha: Coweight
    alpha_form: AWeightForm


def _canonical_root(cartan: CartanDatum, root: AWeightForm) -> AWeightForm:
    if root not in cartan.coroot_of_root:
        raise ValueError(f"{root} is not a root")
    return root if sum(root.coords) > 0 else -root


def find_adjacency(
    spec: SliceSpec, p: FixedPoint, q: FixedPoint, ch: Chamber
) -> Optional[AdjacencyWitness]:
    """The unique adjacency witness for the ordered pair (p, q), if any.

    Requires delta_q = delta_p except at two slots i < j, lowered by a
    chamber-positive coroot at i and raised by it at j.
    """
    if p == q:
        raise ValueError("find_adjacency expects distinct points")
    diff = [m for m in range(spec.length) if p.delta[m] != q.delta[m]]
    if len(diff) != 2:
        return None
    i, j = diff
    alpha = p.delta[i] - q.delta[i]
    if q.delta[j] - p.delta[j] != alpha:
        return None
    root = spec.cartan.root_of_coroot.get(alpha)
    if root is None or not ch.is_positive(root):
        return None
    return AdjacencyWitness(i + 1, j + 1, alpha, root)


def wall_adjacent_chambers(
    cartan: CartanDatum, root: AWeightForm, count: int = 1
) -> List[Chamber]:
    """2*count chambers adjacent to ker(root), one pair per generic wall point.

    Wall points are sampled deterministically (the generator is seeded from
    the datum and the root), projected onto the wall, and checked against
    every other root hyperplane; the perturbation off the wall is small
    enough to preserve all other signs.
    """
    root = _canonical_root(cartan, root)
    key = (root, count)
    if key not in cartan.wall_chambers:
        rng = random.Random(f"{cartan.type_letter}{cartan.rank}:{root.coords}")
        coroot = cartan.coroot_of_root[root]
        others = [f for f in cartan.root_list if f != root and f != -root]
        out: List[Chamber] = []
        while len(out) < 2 * count:
            u = Coweight([rng.randint(-9, 9) for _ in range(cartan.rank)])
            w = u - coroot * Fraction(pairing(u, root), 2)
            vals = [pairing(w, f) for f in others]
            if any(v == 0 for v in vals):
                continue
            if others:
                t = min(
                    abs(Fraction(v)) / (abs(pairing(coroot, f)) + 1)
                    for v, f in zip(vals, others)
                )
            else:
                t = Fraction(1)
            out.append(Chamber(cartan, w + coroot * t))
            out.append(Chamber(cartan, w - coroot * t))
        cartan.wall_chambers[key] = out
    return cartan.wall_chambers[key]


def omega_ratio(
    spec: SliceSpec, p: FixedPoint, q: FixedPoint, root: AWeightForm
) -> RationalFunction:
    """e_A of the repelling half at q over the one at p, for a chamber
    adjacent to the wall of the root; the two wall sides must agree.

    Both Euler classes are multisets of canonical factors, so the ratio is
    their multiset difference, already in lowest terms.
    """
    canon = _canonical_root(spec.cartan, root)
    if same_wall_component(spec, p, q) != canon:
        raise ValueError("p and q do not share a wall component for this root")
    results = []
    for ch in wall_adjacent_chambers(spec.cartan, canon, 1):
        e_q, e_p = repelling_euler(spec, q, ch, False), repelling_euler(spec, p, ch, False)
        results.append((e_q.factors - e_p.factors, e_p.factors - e_q.factors,
                        e_q.scalar / e_p.scalar))
    if results[0] != results[1]:
        raise AssertionError("the two wall sides disagree on the omega ratio")
    up, down, scalar = results[0]
    num = EulerClass(spec.cartan.rank + 1, up, scalar).polynomial()
    return RationalFunction._trusted(num, tuple(sorted(down.elements(), key=_factor_key)))


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
) -> Dict[Tuple[FixedPoint, FixedPoint], Polynomial]:
    """Off-diagonal restrictions mod h^2 for every adjacency-witnessed pair."""
    points = enumerate_fixed_points(spec)
    signs = normalize_polarization(points, polarization_signs)
    nv = spec.cartan.rank + 1
    h = Polynomial.gen(nv, nv - 1)
    eps_default = {x: repelling_euler(spec, x, ch, False).polynomial() for x in points}
    out: Dict[Tuple[FixedPoint, FixedPoint], Polynomial] = {}
    for p in points:
        for q in points:
            if p == q:
                continue
            witness = find_adjacency(spec, p, q, ch)
            if witness is None:
                continue
            omega = omega_ratio(spec, p, q, witness.alpha_form)
            alpha_poly = Polynomial.linear_form(witness.alpha_form.coords, 0)
            value = (
                omega
                * RationalFunction.reciprocal(nv, [alpha_poly])
                * (signs[p] * eps_default[p] * h)
            )
            try:
                out[(p, q)] = value.to_polynomial()
            except NonDivisible as exc:
                raise ExactDivisionFailure(
                    f"entry ({p.label()}, {q.label()}) did not clear its denominator"
                ) from exc
    return out


def mod_h2_json(spec: SliceSpec, ch: Chamber, entries) -> dict:
    """Sparse triplet serialization sorted by (p, q) enumeration indices."""
    index = point_index(spec)
    rows = []
    for p, q in sorted(entries, key=lambda pq: (index[pq[0]], index[pq[1]])):
        witness = find_adjacency(spec, p, q, ch)
        rows.append(
            {
                "p": index[p],
                "q": index[q],
                "alpha": list(witness.alpha_form.coords),
                "value": entries[(p, q)].to_json(),
            }
        )
    return {"entries": rows}
