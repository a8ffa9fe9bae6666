"""Shared test utilities: the pairing and arithmetic of coweight and root
tuples, the fundamental and zero coweights, independent tangent-weight
oracles, random
minuscule slice sampling, the classical dimension formula, an independent
sampler of wall-adjacent chambers,
polynomial queries and builders the program itself does not need
(generators, linear forms, the zero test, one coefficient), the reference
reader and writer of JSON polynomial cells, the chamber-minimal point of a
rank-one slice,
the reference expansions of Euler classes, forms
and matrix entries into Polynomials and the reference printer of a
Polynomial, reference polynomial routes (substitution, truncation mod h^2,
the localization pairing on polynomials and on coefficient tuples, the
product of operator matrices), the Counter reference of Euler classes
(canonical splittings, the h-shifted e_T and the localization denominator)
and of the mod-h^2 entries, and reference builders of the stab-exact,
stab-mod-h2 and mult documents."""

import json
import os
import random
import sys
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from grslice import cli
from grslice.cartan import CartanDatum, Chamber
from grslice.chern import OperatorMatrix
from grslice.slices import (
    FixedPoint,
    SliceSpec,
    _integer_multiple,
    adjacent_pairs,
    enumerate_fixed_points,
    flip_sign,
    normalize_polarization,
    point_index,
    tangent_weights,
)
from grslice.stab_a1 import RestrictionMatrix, _chamber_sign, _form_mul
from grslice.symalg import Polynomial, RationalFunction, _norm_scalar, monomial_key


def pairing(c, f):
    """<c, f>: the dot product of a coweight and a root, as coordinate
    tuples of one rank."""
    if len(c) != len(f):
        raise ValueError("rank mismatch")
    return sum(a * b for a, b in zip(c, f))


def exact_inner(datum, c1, c2):
    """The invariant form (c1, c2): datum.inner over the gram denominator."""
    return Fraction(datum.inner(c1, c2), datum.gram.den)


def exact_sharp(datum, c):
    """sharp(c) as the Fractions it stands for: datum.sharp over the gram
    denominator."""
    return tuple(Fraction(x, datum.gram.den) for x in datum.sharp(c))


def fundamental_coweight(datum, i):
    """omega_i (1-based) as the datum's coweight tuple."""
    return tuple(int(j == i - 1) for j in range(datum.rank))


def zero_coweight(datum):
    return (0,) * datum.rank


def vsum(*vecs):
    """The sum of coordinate tuples of one rank."""
    return tuple(map(sum, zip(*vecs)))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vneg(v):
    return tuple(-x for x in v)


def vscale(v, k):
    return tuple(x * k for x in v)


def two_rho_check(datum):
    """The sum of the datum's positive roots."""
    return vsum(zero_coweight(datum), *[f for f in datum.root_list if min(f) >= 0])


def dominant_representative(datum, c):
    """The dominant coweight in the Weyl orbit of c: reflect in the first
    negative coordinate j, c - c_j * alpha_j-check, until none is left."""
    v = tuple(c)
    while True:
        j = next((i for i, x in enumerate(v) if x < 0), None)
        if j is None:
            return v
        v = tuple(x - v[j] * row[j] for x, row in zip(v, datum.cartan_matrix))


def reference_dimension(spec):
    """The classical dimension formula <lambda - mu_+, 2 rho-check>, mu_+
    the dominant representative of mu."""
    mu_plus = dominant_representative(spec.cartan, spec.mu)
    return pairing(vsub(spec.lambda_total(), mu_plus), two_rho_check(spec.cartan))


def gen(nvars, index):
    """The variable of the given index as a polynomial in nvars variables."""
    exp = [0] * nvars
    exp[index] = 1
    return Polynomial(nvars, {tuple(exp): 1})


def is_zero(poly):
    return not poly.terms


def coefficient(poly, exp):
    """The coefficient of the monomial with exponent vector exp."""
    return poly.terms.get(tuple(exp), 0)


def term_reader(nvars):
    """A parser of JSON cells {monomial name: coefficient text} in nvars
    variables into coefficient maps {exponent vector: nonzero coefficient};
    a name's factors may come in any order, and repeated monomials add up.
    Each distinct name and coefficient text is parsed once per reader, so
    the cells of one document share one."""
    exponents = {}
    scalars = {}

    def exponent(key):
        exp = [0] * nvars
        for factor in key.split("*") if key != "1" else ():
            name, _, power = factor.partition("^")
            exp[nvars - 1 if name == "h" else int(name[1:]) - 1] += int(power or 1)
        return tuple(exp)

    def read(obj):
        terms = {}
        for key, val in obj.items():
            exp = exponents.get(key) or exponents.setdefault(key, exponent(key))
            c = scalars.get(val) or scalars.setdefault(val, _norm_scalar(Fraction(val)))
            terms[exp] = terms.get(exp, 0) + c
        return {e: c for e, c in terms.items() if c}

    return read


def polynomial_from_json(obj, nvars):
    """The Polynomial a JSON cell {monomial name: coefficient text} prints."""
    return Polynomial(nvars, term_reader(nvars)(obj))


def polynomial_to_json(poly):
    """The JSON cell {monomial name: coefficient text} of a Polynomial, in
    increasing exponent order."""
    return {monomial_key(e): str(Fraction(c)) for e, c in sorted(poly.terms.items())}


def linear_form(a_coords, h_coeff):
    """The Polynomial c_1 a_1 + .. + c_r a_r + (h_coeff) h."""
    r = len(a_coords)
    terms = {}
    for i, c in enumerate(a_coords):
        if c != 0:
            exp = [0] * (r + 1)
            exp[i] = 1
            terms[tuple(exp)] = c
    if h_coeff != 0:
        terms[(0,) * r + (1,)] = h_coeff
    return Polynomial(r + 1, terms)


def point(*steps):
    """The fixed point with the given steps, each an int (a rank-one step)
    or a coordinate sequence."""
    return FixedPoint((s,) if isinstance(s, int) else tuple(s) for s in steps)


def same_wall_component(spec, p, q):
    """The positive root whose wall keeps the points p and q connected, if
    any, found by walking every positive root: p and q lie in one component
    of the fixed locus of the wall subtorus ker(root) exactly when every
    sigma difference is an integer multiple of the coroot, and the root
    class is then unique."""
    if p == q:
        raise ValueError("same_wall_component expects distinct points")
    diffs = {tuple(a - b for a, b in zip(sp, sq))
             for sp, sq in zip(p.sigma(), q.sigma())} - {(0,) * spec.cartan.rank}
    for root, coroot in zip(spec.cartan.root_list, spec.cartan.coroots):
        if sum(root) > 0:
            if all(_integer_multiple(d, coroot) for d in diffs):
                return root
    return None


def reference_tangent_weights(spec, p):
    """The tangent weights at p by the crossing rule, weighed point by point
    from the spec's pairing table: each root of a pair walks its height path
    alone, and the opposite root gets its levels mirrored.  Keyed and
    ordered as tangent_weights keys and orders them."""
    heights = list(zip(*[spec._pairings[d] for d in p]))
    by_column = [()] * len(heights)
    for col, opposite in spec.cartan._root_pairs:
        counts = {}
        h = 0
        for s in heights[col]:
            if h * s < 0:
                n = h if s > 0 else h - 1
                counts[n] = counts.get(n, 0) + 1
            h += s
        if counts:
            ns = sorted(counts)
            by_column[col] = [(n, counts[n]) for n in ns]
            by_column[opposite] = [(-n - 1, counts[n]) for n in reversed(ns)]
    return {(col, n): m for col, column in enumerate(by_column) for n, m in column}


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


def reference_str(poly):
    """The text of a Polynomial, term by term in descending exponent order:
    the reference for symalg.polynomial_text."""
    if not poly.terms:
        return "0"
    chunks = []
    for exp in sorted(poly.terms, reverse=True):
        coeff = poly.terms[exp]
        key = monomial_key(exp)
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


def expand_product(nvars, factors, scalar):
    """scalar times the product of the forms f ** k for (f, k) in factors."""
    out = Polynomial.constant(nvars, scalar)
    for f, k in factors:
        if k:
            out = out * linear_form(f[:-1], f[-1]) ** k
    return out


# -- the Counter reference of Euler classes ----------------------------------------


def canonical(coords):
    """The nonzero linear form with integer coefficients coords = (a_1..a_r,
    h), split as scalar * canonical: the canonical form is the tuple of its
    coprime integer coefficients, the first nonzero one (in the order
    a_1..a_r, h) positive."""
    g = gcd(*coords)
    if next(c for c in coords if c) < 0:
        g = -g
    return tuple([c // g for c in coords]), g


class EulerClass(NamedTuple):
    """A product of linear forms: a scalar times a Counter of canonical
    forms, each a coefficient tuple (a_1..a_r, h) that canonical returns.

    Distinct canonical forms are non-associate primes, so two classes are
    equal as polynomials exactly when their multisets and scalars are equal.
    """

    nvars: int
    factors: Counter
    scalar: Fraction  # an int where it is one


def euler_factors(spec, weights):
    """Euler class of weights, keyed as tangent_weights keys them: the forms
    root + n*h, each split into its canonical factor."""
    roots = spec.cartan.root_list
    factors = Counter()
    scalar = 1
    for (col, n), m in weights.items():
        canon, s = canonical(roots[col] + (n,))
        factors[canon] += m
        scalar *= s**m
    return EulerClass(spec.cartan.rank + 1, factors, scalar)


def tangent_euler(spec, p):
    """e_T of the whole tangent space at the point of index p."""
    return euler_factors(spec, tangent_weights(spec, enumerate_fixed_points(spec)[p]))


def repelling_tangent_euler(spec, p, ch):
    """e_T of the ch-repelling half of the tangent space at the point of
    index p: the weights whose root column has sign -1 in ch's sign vector."""
    weights = tangent_weights(spec, enumerate_fixed_points(spec)[p])
    return euler_factors(spec, {k: m for k, m in weights.items() if ch.sign_vector[k[0]] < 0})


def localization_denominator(spec):
    """The LCM of the tangent Euler classes over the fixed points (scalar 1),
    and the cofactor of each point by point index, both factored:
    sum_x f(x) / e_T(T_x) equals (sum_x f(x) * cofactor[x]) / lcm for every f."""
    nv = spec.cartan.rank + 1
    euler = [tangent_euler(spec, x) for x in range(len(enumerate_fixed_points(spec)))]
    lcm = Counter()
    for e in euler:
        lcm |= e.factors
    cofactor = [EulerClass(nv, lcm - e.factors, Fraction(1, e.scalar)) for e in euler]
    return EulerClass(nv, lcm, Fraction(1)), cofactor


def euler_form(e):
    """A rank-one Euler class with an integral scalar as a binary form
    (c_0, .., c_D), factor by factor: a canonical factor (u, s) is the form
    u a + s h."""
    assert e.scalar == int(e.scalar)
    f = (int(e.scalar),)
    for factor, k in e.factors.items():
        for _ in range(k):
            f = _form_mul(f, factor)
    return f


def shifts_form(shifts, sign=1):
    """sign times the product of the forms a + s h, s counted in the Counter
    shifts, as a binary form: a class of stab_a1's localization denominator."""
    f = (sign,)
    for s in shifts.elements():
        f = _form_mul(f, (1, s))
    return f


def euler_polynomial(e):
    """An EulerClass or a RootMonomial expanded into a Polynomial, factor
    by factor."""
    if isinstance(e, EulerClass):
        return expand_product(e.nvars, e.factors.items(), e.scalar)
    return expand_product(len(e.forms[-1]), zip(e.forms, e.exponents), e.scalar)


def expanded(entries, pair, zero):
    """A factored mod-h^2 entry as a polynomial; zero where none is stored."""
    return euler_polynomial(entries[pair]) if pair in entries else zero


def form_polynomial(form):
    """The linear form with coefficient tuple (a_1..a_r, h) as a polynomial."""
    return linear_form(form[:-1], form[-1])


def binary_polynomial(f):
    """The binary form with coefficients (c_0, .., c_D), c_k that of
    a^(D-k) h^k, as a polynomial in (a, h)."""
    d = len(f) - 1
    return Polynomial(2, {(d - k, k): c for k, c in enumerate(f)})


def entry_at(spec, matrix, x, y):
    """The stored cell of a matrix on the slice spec at two points, by
    point_index: a restriction matrix's Stab[x]|_y, a binary form, or an
    operator matrix's row x and column y, a linear form; the zero form
    where none is stored."""
    index = point_index(spec)
    value = matrix.entries.get((index[x], index[y]))
    if value is not None:
        return value
    if isinstance(matrix, RestrictionMatrix):
        return (0,) * (spec.dimension // 2 + 1)
    return matrix.zero


def entry_polynomial(spec, matrix, x, y):
    """entry_at(spec, matrix, x, y) as a polynomial: a restriction matrix's
    binary form, an operator matrix's linear form."""
    value = entry_at(spec, matrix, x, y)
    if isinstance(matrix, RestrictionMatrix):
        return binary_polynomial(value)
    return form_polynomial(value)


def operator_difference(spec, left, right):
    """left - right for two operator matrices on the slice spec: the stored
    tuples subtracted, and any that cancel dropped.  The reference the
    one-kernel E_i = L_i / L_(i-1) matrices are checked against."""
    if not left.basis == right.basis == enumerate_fixed_points(spec):
        raise ValueError("operator matrices live on different slices")
    entries = dict(left.entries)
    for key, b in right.entries.items():
        entries[key] = vsub(entries.get(key, left.zero), b)
    return OperatorMatrix(spec, entries)


def operator_product(left, right):
    """The sparse product of two operator matrices on one slice, as a dict
    {(qi, pi): Polynomial} of its nonzero entries: the entries of a product
    of linear forms are quadratic, so they are no OperatorMatrix."""
    if left.basis != right.basis:
        raise ValueError("operator matrices live on different slices")
    rows = {}
    for (ri, pi), b in right.entries.items():
        rows.setdefault(ri, []).append((pi, form_polynomial(b)))
    sums = {}
    for (qi, ri), a in left.entries.items():
        a = form_polynomial(a)
        for pi, b in rows.get(ri, ()):
            key = qi, pi
            sums[key] = sums[key] + a * b if key in sums else a * b
    return {key: e for key, e in sums.items() if not is_zero(e)}


def truncate_mod_h2(poly):
    """poly with every term of h-degree 2 or more dropped."""
    return Polynomial(poly.nvars, {e: c for e, c in poly.terms.items() if e[-1] < 2})


def substitute(poly, images):
    """The ring map sending a_i, h to images[i], applied to poly; the images
    share one variable count."""
    if len(images) != poly.nvars:
        raise ValueError("need one image per variable")
    nv = images[0].nvars
    result = Polynomial.zero(nv)
    for exp, coeff in poly.terms.items():
        term = Polynomial.constant(nv, coeff)
        for img, e in zip(images, exp):
            if e:
                term = term * img**e
        result = result + term
    return result


def _as_vector(points, v):
    """A vector over the fixed points, given as a mapping or a sequence in
    point order, as a dict of its nonzero entries."""
    if isinstance(v, Mapping):
        return {p: v[p] for p in points if p in v and not is_zero(v[p])}
    if len(v) != len(points):
        raise ValueError("vector length does not match the fixed-point count")
    return {p: e for p, e in zip(points, v) if not is_zero(e)}


def localization_pair(spec, v1, v2):
    """Sum over fixed points of v1(x) v2(x) / e_T(T_x), as the sum of
    v1(x) v2(x) cofactor(x) over the LCM of the tangent Euler classes."""
    points = enumerate_fixed_points(spec)
    a = _as_vector(points, v1)
    b = _as_vector(points, v2)
    lcm, cofactor = localization_denominator(spec)
    total = Polynomial.zero(lcm.nvars)
    for xi, x in enumerate(points):
        if x in a and x in b:
            total = total + a[x] * b[x] * euler_polynomial(cofactor[xi])
    return RationalFunction(total, euler_polynomial(lcm))


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
        total = vsum(zero_coweight(datum), *[fundamental_coweight(datum, i) for i in lam])
        # sample mu among achievable weights (suffix-sum closure of the orbits)
        sums = {zero_coweight(datum)}
        for i in lam:
            orbit = datum.weyl_orbit(fundamental_coweight(datum, i))
            sums = {vsum(d, s) for d in orbit for s in sums}
        candidates = [
            mu for mu in sorted(sums)
            if pairing(vsub(total, mu), two_rho_check(datum)) <= max_dim
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
    rng = random.Random(f"{cartan.type_letter}{cartan.rank}:{root}")
    coroot = cartan.coroots[cartan._column[root]]
    others = [f for f in cartan.root_list if f != root and f != vneg(root)]
    out = []
    while len(out) < 2 * count:
        u = [rng.randint(-9, 9) for _ in range(cartan.rank)]
        w = vsub(u, vscale(coroot, Fraction(pairing(u, root), 2)))
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
        out.append(Chamber(cartan, vsum(w, vscale(coroot, t))))
        out.append(Chamber(cartan, vsub(w, vscale(coroot, t))))
    return out


def sampled_sigma_signs(spec, p, q, column, pol_chamber, signs, count):
    """The set of flip_sign(p) * flip_sign(q) * s_p * s_q, for the points of
    indices p and q, against each of the 2 * count chambers that
    reference_wall_chambers draws next to the wall of the root of the
    root_list column."""
    root = spec.cartan.root_list[column]
    canon = root if sum(root) > 0 else vneg(root)
    return {
        flip_sign(spec, p, pol_chamber, ch) * flip_sign(spec, q, pol_chamber, ch)
        * signs[p] * signs[q]
        for ch in reference_wall_chambers(spec.cartan, canon, count)
    }


def pairing_sums_reference(spec, plus, minus, weight=None):
    """The localization pairing sums of two opposite-chamber restriction
    matrices on the slice spec as coefficient tuples, by convolution:
    {(p, q): form} of
    sum_x Stab_+[p]|_x * Stab_-[q]|_x * w(x) * cofactor(x) for every pair
    with a point x where both are stored, w(x) the form weight[x] (int or
    Fraction coefficients) or 1."""
    lcm, cofactor = localization_denominator(spec)
    factor = [euler_form(c) for c in cofactor]
    if weight is not None:
        factor = [_form_mul(f, w) for f, w in zip(factor, weight)]
    sums = {}
    for (p, x), up in plus.entries.items():
        for (q, y), down in minus.entries.items():
            if x == y:
                term = _form_mul(up, _form_mul(down, factor[x]))
                old = sums.get((p, q))
                sums[p, q] = term if old is None else tuple(map(sum, zip(old, term)))
    return sums


def weight_stat(spec, p, ch):
    """Half the sum of the heights <sigma_k, alpha> of the point p of a
    rank-one slice, alpha the root positive on the chamber ch."""
    alpha = next(f for f, s in zip(ch.datum.root_list, ch.sign_vector) if s > 0)
    return Fraction(sum(pairing(s, alpha) for s in p.sigma()), 2)


def minimal_point(spec, ch):
    """The chamber-minimal fixed point of a rank-one slice, all -omega_ch
    increments first: the reference for the point of least stat, where the
    raising recursion starts."""
    sign = _chamber_sign(ch)
    free = [i for i in range(spec.length) if spec.lambda_seq[i] != 0]
    n_plus, rem = divmod(len(free) + sign * spec.mu[0], 2)
    assert rem == 0 and 0 <= n_plus <= len(free)
    delta = [(0,)] * spec.length
    for pos, slot in enumerate(free):
        delta[slot] = (sign,) if pos >= len(free) - n_plus else (-sign,)
    return FixedPoint(delta)


def stored_rows(matrix):
    """Each point's nonzero restrictions in a restriction matrix, keyed by
    the restricting point, as polynomials."""
    points = matrix.points
    rows = {p: {} for p in points}
    for (p, q), val in matrix.entries.items():
        rows[points[p]][points[q]] = binary_polynomial(val)
    return rows


def reference_document(command, spec, ch, matrix):
    """The stab-exact, mult or stab-mod-h2 document of a matrix as a plain
    dict, each cell expanded into a Polynomial and printed by
    polynomial_to_json: a stab-exact or mult cell read through the matrix's
    entry reader, a stab-mod-h2 one (matrix the entries of stab_mod_h2)
    through euler_polynomial."""
    points = enumerate_fixed_points(spec)
    doc = {"command": command, "chamber": list(ch.sign_vector),
           "labels": [p.label() for p in points]}
    deltas = [[list(c) for c in p] for p in points]
    if command == "stab-exact":
        doc["points"] = deltas
        doc["entries"] = {f"{pi},{qi}": polynomial_to_json(entry_polynomial(spec, matrix, p, q))
                          for pi, p in enumerate(points) for qi, q in enumerate(points)
                          if not is_zero(entry_polynomial(spec, matrix, p, q))}
    elif command == "mult":
        doc["basis"] = deltas
        doc["bundle"] = matrix.label
        doc["entries"] = [[polynomial_to_json(entry_polynomial(spec, matrix, q, p))
                           for p in points] for q in points]
    else:
        pairs = adjacent_pairs(spec, ch)
        roots = spec.cartan.root_list
        doc["entries"] = [{"p": p, "q": q, "alpha": list(roots[pairs[p, q].column]),
                           "value": polynomial_to_json(euler_polynomial(matrix[p, q]))}
                          for p, q in sorted(matrix)]
    return doc


_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench")
if _PERFBENCH not in sys.path:
    sys.path.append(_PERFBENCH)
import catalog  # noqa: E402

WORKLOADS = catalog.WORKLOADS


def catalog_jobs(workload):
    """Each distinct (slice, chamber, polarization) of a benchmark workload's
    jobs, as the JobSpec of its fixed-points job, in catalog order."""
    jobs = {}
    for job in catalog.catalog(workload):
        args = vars(cli._parser().parse_args(job.argv))
        jobs.setdefault(cli.JobSpec(**args)._replace(command="fixed-points", bundle=None,
                                                     which=None))
    return list(jobs)


def catalog_slices(workload):
    """Each distinct (slice, chamber, polarization) of a benchmark workload's
    jobs, built as the command line builds it."""
    return [job.build() for job in catalog_jobs(workload)]


def printed(value):
    """A document value as encode_json prints it, read back."""
    return json.loads(cli.encode_json(value))


def document(command, spec, ch, signs=None, bundle=None):
    """The document the command prints for the slice and chamber, read back:
    cli's builder run on the given spec, printed by encode_json."""
    job = cli.JobSpec(command, spec.cartan.type_letter, spec.cartan.rank, spec.lambda_seq,
                      spec.mu, bundle=bundle)
    return printed(cli.compute_payload(job, spec, ch, signs).payload)


# -- the Counter reference of the mod-h^2 entries ----------------------------------


def as_euler_class(monomial):
    """A RootMonomial as the EulerClass of the same factors: a Counter of
    the forms with a nonzero exponent."""
    return EulerClass(len(monomial.forms[-1]),
                      Counter({f: k for f, k in zip(monomial.forms, monomial.exponents) if k}),
                      monomial.scalar)


def as_counter_ratio(forms, exponents, scalar):
    """A signed exponent vector over forms, with its scalar, as the Counters
    of the factors above and below and the scalar."""
    up = Counter({f: k for f, k in zip(forms, exponents) if k > 0})
    down = Counter({f: -k for f, k in zip(forms, exponents) if k < 0})
    return up, down, scalar


def _weights(spec, p):
    """(root, n, mult) for each tangent weight at the point of index p."""
    roots = spec.cartan.root_list
    return [(roots[col], n, m)
            for (col, n), m in tangent_weights(spec, enumerate_fixed_points(spec)[p]).items()]


def counter_repelling_factors(spec, p, ch):
    """e_A of the ch-repelling weights, factored weight by weight: each root
    to the form of the root of its pair whose first nonzero coefficient is
    positive (every root is primitive), and the sign of the product."""
    factors, sign = Counter(), 1
    for root, _, m in _weights(spec, p):
        if not ch.is_positive(root):
            lead = next(c for c in root if c)
            factors[(root if lead > 0 else vneg(root)) + (0,)] += m
            sign *= (1 if lead > 0 else -1) ** m
    return factors, sign


def counter_omega_ratio(spec, p, q, column):
    """omega_ratio weight by weight, in every call: the multiset differences
    of the two hand-factored repelling Euler classes, on both sides of the
    wall of the root of the root_list column, for chambers of the
    independent sampler."""
    root = spec.cartan.root_list[column]
    canon = root if sum(root) > 0 else vneg(root)
    points = enumerate_fixed_points(spec)
    assert same_wall_component(spec, points[p], points[q]) == canon
    results = []
    for ch in reference_wall_chambers(spec.cartan, canon, 1):
        f_q, s_q = counter_repelling_factors(spec, q, ch)
        f_p, s_p = counter_repelling_factors(spec, p, ch)
        results.append((f_q - f_p, f_p - f_q, Fraction(s_q, s_p)))
    assert results[0] == results[1]
    return results[0]


def counter_stab_mod_h2(spec, ch, signs=None):
    """stab_mod_h2 on Counters: each entry sign_p * eps_p * omega * h /
    alpha as an EulerClass, from counter_repelling_factors and
    counter_omega_ratio; None where a factor's count goes negative."""
    signs = normalize_polarization(enumerate_fixed_points(spec), signs)
    nv = spec.cartan.rank + 1
    h = (0,) * spec.cartan.rank + (1,)
    out = {}
    for (p, q), witness in adjacent_pairs(spec, ch).items():
        eps, eps_sign = counter_repelling_factors(spec, p, ch)
        up, down, scalar = counter_omega_ratio(spec, p, q, witness.column)
        alpha = spec.cartan.root_list[witness.column]
        alpha_sign = 1 if next(c for c in alpha if c) > 0 else -1
        factors = eps + up + Counter([h])
        factors.subtract(down + Counter([tuple(alpha_sign * c for c in alpha) + (0,)]))
        if min(factors.values()) < 0:
            out[p, q] = None
        else:
            out[p, q] = EulerClass(nv, +factors, signs[p] * eps_sign * scalar * alpha_sign)
    return out
