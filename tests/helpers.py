"""Shared test utilities: independent tangent-weight oracles, random
minuscule slice sampling, and an independent sampler of wall-adjacent
chambers."""

import random
from fractions import Fraction

from grslice.cartan import CartanDatum, Chamber, Coweight, pairing
from grslice.slices import SliceSpec, flip_sign


def oracle_up_crossings(spec, p):
    """Independent multiplicity counter: up-crossings with a -1 correction
    on levels strictly between 0 and the final height."""
    sigma = p.sigma()
    entries = {}
    for root in spec.cartan.root_list:
        heights = [pairing(s, root) for s in sigma]
        mu_h = pairing(spec.mu, root)
        for n in range(min(heights), max(heights)):
            c2 = 2 * n + 1
            ups = sum(1 for a, b in zip(heights, heights[1:]) if 2 * a < c2 < 2 * b)
            mult = ups - 1 if 0 < c2 < 2 * mu_h else ups
            assert mult >= 0
            if mult:
                entries[(root, n)] = mult
    return entries


def oracle_down_crossings(spec, p):
    """Independent multiplicity counter: down-crossings with a -1 correction
    on levels strictly between the final height and 0."""
    sigma = p.sigma()
    entries = {}
    for root in spec.cartan.root_list:
        heights = [pairing(s, root) for s in sigma]
        mu_h = pairing(spec.mu, root)
        for n in range(min(heights), max(heights)):
            c2 = 2 * n + 1
            downs = sum(1 for a, b in zip(heights, heights[1:]) if 2 * b < c2 < 2 * a)
            mult = downs - 1 if 2 * mu_h < c2 < 0 else downs
            assert mult >= 0
            if mult:
                entries[(root, n)] = mult
    return entries


def expanded(entries, pair, zero):
    """A factored mod-h^2 entry as a polynomial; zero where none is stored."""
    return entries[pair].polynomial() if pair in entries else zero


_POOL = [
    CartanDatum("A", 1),
    CartanDatum("A", 2),
    CartanDatum("A", 3),
    CartanDatum("B", 2),
    CartanDatum("C", 2),
    CartanDatum("D", 4),
]


def random_minuscule_specs(count, seed, max_dim=12, max_len=4):
    """Deterministic stream of valid minuscule slice specs with dim <= max_dim."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        datum = rng.choice(_POOL)
        l = rng.randint(1, max_len)
        lam = [rng.choice(sorted(datum.minuscule_indices)) for _ in range(l)]
        total = datum.zero_coweight()
        for i in lam:
            total = total + datum.fundamental_coweight(i)
        # sample mu among achievable weights (suffix-sum closure of the orbits)
        sums = {datum.zero_coweight()}
        for i in lam:
            orbit = datum.weyl_orbit(datum.fundamental_coweight(i))
            sums = {d + s for d in orbit for s in sums}
        candidates = [
            mu for mu in sorted(sums)
            if pairing(total - mu, datum.two_rho_check) <= max_dim
        ]
        if not candidates:
            continue
        mu = rng.choice(candidates)
        out.append(SliceSpec(datum, lam, mu))
    return out


def reference_wall_chambers(cartan, root, count):
    """2 * count chambers next to the wall of the positive root, one pair per
    random wall point, the root positive on the first of each pair: an
    independent sampler on Fraction witnesses, seeded from the datum and the
    root."""
    rng = random.Random(f"{cartan.type_letter}{cartan.rank}:{root.coords}")
    coroot = cartan.coroot_of_root[root]
    others = [f for f in cartan.root_list if f != root and f != -root]
    out = []
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
    return out


def sampled_sigma_signs(spec, p, q, root, pol_chamber, signs, count):
    """The set of flip_sign(p) * flip_sign(q) * s_p * s_q, for the points of
    indices p and q, against each of the 2 * count chambers that
    reference_wall_chambers draws next to the wall of the root."""
    canon = root if sum(root.coords) > 0 else -root
    return {
        flip_sign(spec, p, pol_chamber, ch) * flip_sign(spec, q, pol_chamber, ch)
        * signs[p] * signs[q]
        for ch in reference_wall_chambers(spec.cartan, canon, count)
    }
