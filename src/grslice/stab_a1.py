"""Exact stable-envelope restriction matrices for rank-1 slices.

Entries Stab[p]|_q are built by a raising recursion on the restrictions
themselves, starting from the chamber-minimal fixed point: the recursion
coefficients are linear forms a + n*h read off the sigma path, each step
divides exactly by one such form, and the polarizations of the two rows
differ by a sign, since every repelling half has dim/2 weights +-a + n*h.
Diagonals always come from tangent Euler classes, every row reachable along
two transposition paths is cross-checked, and the localization pairing with
the opposite chamber provides an independent verification of the result.

The h-shifted tangent Euler classes live here, the only place that needs
them: the e_T of a repelling half is expanded as a form straight from the
tangent weights (_repelling_form), and the denominator of the localization
pairing, the lcm of the e_T of the whole tangent spaces and each point's
cofactor, is a Counter of shifts s of the forms a + s h (_lcm_cofactors).
The e_A of a repelling half, whose scalar is the sign of eps, is
slices.repelling_euler's RootMonomial, as in every rank.

Every restriction is a homogeneous form of degree D = dim/2 in (a, h), so
the recursion, its checks and the pairing keep it as the tuple of its
coefficients (c_0, .., c_D), c_k the coefficient of a^(D-k) h^k: a product
is a convolution and a division by a linear form a synthetic division whose
zero remainder is the divisibility test.  Points are their indices in
enumerate_fixed_points order throughout, as in chern.OperatorMatrix: the
matrix keys its forms by index pairs, holds its signs and epsilons in
tuples by index, and keeps its chamber and points but not its slice.  A
point itself is read only for its tangent weights and its label;
grslice.cli prints the stab-exact document from the forms themselves.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import add, neg, sub
from typing import Dict, List, Tuple

from .cartan import Chamber
from .slices import (
    FixedPoint,
    RootMonomial,
    SliceSpec,
    _steps,
    _weight_sets,
    adjacent_pairs,
    enumerate_fixed_points,
    memoized,
    normalize_polarization,
    point_index,
    repelling_euler,
    tangent_weights,
)


# -- binary forms in (a, h) ------------------------------------------------------


def _form_mul(f: tuple, g: tuple) -> tuple:
    """The product of two forms: the convolution of their coefficients."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for k, y in enumerate(g, i):
                out[k] += x * y
    return tuple(out)


def _form_div(f: tuple, s) -> tuple:
    """The form f / (a + s h), of degree len(f) - 2, by synthetic division;
    AssertionError when the remainder is not zero."""
    out = []
    r = 0
    for c in f[:-1]:
        r = c - s * r
        out.append(r)
    if f[-1] != s * r:
        raise AssertionError(f"form {f} is not divisible by a + {s}*h")
    return tuple(out)


def _repelling_form(spec: SliceSpec, p: FixedPoint, ch: Chamber, sign: int) -> tuple:
    """sign times e_T of the ch-repelling half of the tangent space at p:
    the product of the weights u a + n h (u = +-1, the root's coordinate)
    whose root column has sign -1 in the chamber's sign vector."""
    roots, signs = spec.cartan.root_list, ch.sign_vector
    f = (sign,)
    for (col, n), m in tangent_weights(spec, p).items():
        if signs[col] < 0:
            for _ in range(m):
                f = _form_mul(f, (roots[col][0], n))
    return f


def _lcm_cofactors(spec: SliceSpec) -> Tuple[Counter, List[Tuple[Counter, int]]]:
    """The localization denominator: the least common multiple of the
    tangent Euler classes over the fixed points, and each point's cofactor,
    by point index.

    A tangent weight u a + n h (u = +-1) is u (a + u n h), so every class is
    a sign times a product of forms a + s h, held as a Counter of the shifts
    s.  The lcm is such a Counter with sign 1, and a cofactor a Counter with
    the sign of its point's class, so that sum_x f(x) / e_T(T_x) equals
    (sum_x f(x) * sign_x * cofactor_x) / lcm for every f.  Built once per weight set."""
    roots = spec.cartan.root_list
    sets, of = _weight_sets(spec)
    classes = []
    for ws in sets:
        shifts, sign = Counter(), 1
        for (col, n), m in ws.items():
            u = roots[col][0]
            shifts[u * n] += m
            sign *= u**m
        classes.append((shifts, sign))
    lcm: Counter = Counter()
    for shifts, _ in classes:
        lcm |= shifts
    cofactors = [(lcm - shifts, sign) for shifts, sign in classes]
    return lcm, [cofactors[k] for k in of]


def _require_a1(spec: SliceSpec) -> None:
    if spec.cartan.type_letter != "A" or spec.cartan.rank != 1:
        raise ValueError(
            f"requires a rank-1 slice, got type "
            f"{spec.cartan.type_letter}{spec.cartan.rank}"
        )


def _chamber_sign(ch: Chamber) -> int:
    """The sign of a rank-1 chamber at the positive root a, the torus
    character written as the variable a: +1 where a is ch-positive.
    Chambers only choose the recursion direction and the polarization side."""
    if ch.datum.rank != 1:
        raise ValueError("chamber does not belong to a rank-1 datum")
    return ch.sign_vector[ch.datum._root_pairs[0][0]]


@memoized
def _point_heights(spec: SliceSpec) -> Tuple[Tuple[int, ...], ...]:
    """Each fixed point's heights <sigma_k, a>, k = 0..l, against the
    positive root a, by point index; summed from the spec's pairing table
    once per spec."""
    col = spec.cartan._root_pairs[0][0]
    return tuple(tuple(accumulate((row[col] for row in _steps(spec, p)), initial=0))
                 for p in enumerate_fixed_points(spec))


@memoized
def _move_partners(spec: SliceSpec) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """The raising moves, once per spec: (i, partner) for each pair of
    1-based slots i < j that are adjacent in the nonfrozen subword, where
    partner[x] is the index of point x with slots i and j swapped, looked
    up by the swapped steps."""
    index = point_index(spec)
    free = [i for i in range(spec.length) if spec.lambda_seq[i] != 0]
    moves = []
    for i, j in zip(free, free[1:]):
        partner = []
        # the index holds the points in index order
        for p in index:
            t = list(p)
            t[i], t[j] = t[j], t[i]
            partner.append(index[tuple(t)])
        moves.append((i + 1, tuple(partner)))
    return tuple(moves)


def _stat_keys(spec: SliceSpec, ch: Chamber) -> List[int]:
    """Twice each point's weight statistic, by point index: the sum of its
    sigma heights against the chamber-positive root."""
    sign = _chamber_sign(ch)
    return [sign * sum(h) for h in _point_heights(spec)]


def _raise_row(points, p, row, ratio, i, partner, heights):
    """Nonzero restrictions of Stab[p] from those of Stab[prev] (row), as
    forms keyed by point index.

    p = r_i(prev) != prev, a point index like every point here; partner maps
    every point to its swap of slots i and j > i (slots strictly between them are frozen, so
    the swap is an adjacent transposition of the nonfrozen subword), heights
    is _point_heights(spec) and ratio = eps_p / eps_prev = +-1.  With s, s'
    the heights of q at i-1 and i,

        Stab[p]|_q = ratio * ((s - s') h Stab[prev]|_q
                              + (a + s' h) Stab[prev]|_{r q}) / (a + s h)
                   = ratio * (Stab[prev]|_{r q} + (s - s') h
                              (Stab[prev]|_q - Stab[prev]|_{r q}) / (a + s h))

    where r q != q, and ratio * Stab[prev]|_q where r q = q; so only the
    points of row and their partners can have nonzero restrictions, and an
    entry is polynomial exactly when a + s h divides the difference.  r q has
    the same s and the opposite s - s' = +-1 and difference, so one synthetic
    division (its remainder decides) gives the multiple of h both add.
    """
    zero = (0,) * len(next(iter(row.values())))
    out, seen = {}, set()
    for q, high in row.items():
        rq = partner[q]
        if rq in seen:
            continue
        seen.add(q)
        if rq == q:
            vals = ((q, high),)
        else:
            s, step = heights[q][i - 1], heights[q][i - 1] - heights[q][i]
            low = row.get(rq, zero)
            r, shift = 0, [0]
            for x, y in zip(high, low):
                r = x - y - s * r
                shift.append(step * r)
            if shift.pop():
                raise AssertionError(
                    f"entry ({points[p].label()}, {points[q].label()}) is not polynomial")
            vals = ((q, tuple(map(add, low, shift))), (rq, tuple(map(add, high, shift))))
        for x, val in vals:
            if any(val):
                out[x] = val if ratio == 1 else tuple(map(neg, val))
    return out


def _epsilon_ratio(c1: int, c2: int) -> int:
    """eps_1 / eps_2 from their a^D coefficients; always +-1 in rank one."""
    if c1 not in (c2, -c2):
        raise AssertionError(f"epsilon coefficients {c1} and {c2} differ by more than a sign")
    return 1 if c1 == c2 else -1


class RestrictionMatrix:
    """Sparse matrix of restrictions Stab[p]|_q over the fixed points.

    points is enumerate_fixed_points(spec), so a point's index is its
    point_index.  entries[(p, q)] = Stab_{ch,eps}[p]|_q for point indices p
    and q, with eps|_p = polarization_signs[p] * e_A of the repelling half,
    as a form of degree dim/2 in (a, h); zero entries are not stored, and
    the constructor refuses a form of another length.  epsilons[p] is the
    integer c with eps|_p = c * a^(dim/2).  The spec memoizes the matrix,
    which therefore keeps no reference to it: validate is given the spec.
    """

    __slots__ = ("chamber", "polarization_signs", "points", "entries", "epsilons")

    def __init__(self, spec, chamber, polarization_signs, entries, epsilons):
        self.chamber = chamber
        self.polarization_signs = tuple(polarization_signs)
        self.points = enumerate_fixed_points(spec)
        self.epsilons = tuple(epsilons)
        degree = spec.dimension // 2
        self.entries = {}
        for (p, q), val in entries.items():
            if len(val) != degree + 1:
                raise AssertionError(
                    f"({self.points[p].label()}, {self.points[q].label()}) "
                    f"is not homogeneous of degree {degree}"
                )
            if any(val):
                self.entries[(p, q)] = val

    def validate(self, spec: SliceSpec) -> None:
        """Euler diagonals, triangularity, h-divisibility, on the slice spec
        the matrix was built for.

        For a form of degree D, divisibility by h and the a-degree bound
        deg_a < D both say that the a^D coefficient vanishes."""
        ch, points = self.chamber, self.points
        for x, sign in enumerate(self.polarization_signs):
            if self.entries.get((x, x)) != _repelling_form(spec, points[x], ch, sign):
                raise AssertionError(
                    f"diagonal at {points[x].label()} is not the repelling Euler class"
                )
        stats = _stat_keys(spec, ch)
        downsets = _downsets(_move_partners(spec), stats)
        for (x, y), val in self.entries.items():
            if x == y:
                continue
            if not (stats[y] < stats[x] and downsets[x] >> y & 1):
                raise AssertionError(
                    f"triangularity violated at ({points[x].label()}, {points[y].label()})"
                )
            if val[0]:
                raise AssertionError(
                    f"({points[x].label()}, {points[y].label()}) is not divisible by h"
                )


def _downsets(moves, stats: List[int]) -> List[int]:
    """Each point's downset under the raising moves, as a bit mask over point
    indices: the point and the downsets of its partners of lower stat, built
    in increasing stat order."""
    downsets = [0] * len(stats)
    for x in sorted(range(len(stats)), key=stats.__getitem__):
        mask = 1 << x
        for _, partner in moves:
            y = partner[x]
            if stats[y] < stats[x]:
                mask |= downsets[y]
        downsets[x] = mask
    return downsets


def stab_matrix(spec: SliceSpec, ch: Chamber,
                polarization_signs=None) -> RestrictionMatrix:
    """All restrictions Stab[p]|_q by the raising recursion from the minimum,
    built and validated once per spec, chamber and polarization; callers
    share the matrix and must not mutate it."""
    _require_a1(spec)
    if ch.datum != spec.cartan:
        raise ValueError("chamber does not belong to the slice's Cartan datum")
    signs = normalize_polarization(enumerate_fixed_points(spec), polarization_signs)
    return _stab_matrix(spec, ch, signs)


@memoized
def _stab_matrix(spec: SliceSpec, ch: Chamber, signs: Tuple[int, ...]) -> RestrictionMatrix:
    """stab_matrix for the signs by point index that normalize_polarization
    returns."""
    points = spec._points  # read without a traced call of enumerate_fixed_points
    stats = _stat_keys(spec, ch)
    heights = _point_heights(spec)
    moves = _move_partners(spec)

    # eps_p is the a^D coefficient of the diagonal sign_p * e_T(repelling
    # half), the product of its weights +-a + n h: sign_p times the scalar
    # of e_A, the product of the roots +-a
    eps = [s * repelling_euler(spec, p, ch).scalar for p, s in enumerate(signs)]
    # points come in lexicographic key order, so the index breaks stat ties;
    # the chamber-minimal point (all -omega_ch increments first) is the one
    # point of least stat, where the recursion starts
    p0, *order = sorted(range(len(points)), key=lambda x: (stats[x], x))
    rows = {p0: {p0: _repelling_form(spec, points[p0], ch, signs[p0])}}

    for p in order:
        candidates = []
        for i, partner in moves:
            prev = partner[p]
            if prev != p and stats[prev] < stats[p]:
                ratio = _epsilon_ratio(eps[p], eps[prev])
                candidates.append(_raise_row(points, p, rows[prev], ratio, i, partner, heights))
        if not candidates:
            raise AssertionError(
                f"{points[p].label()} is unreachable by raising transpositions"
            )
        first = candidates[0]
        if any(other != first for other in candidates[1:]):
            raise AssertionError(f"transposition paths to {points[p].label()} disagree")
        rows[p] = first

    entries = {(p, q): val for p, row in rows.items() for q, val in row.items()}
    matrix = RestrictionMatrix(spec, ch, signs, entries, eps)
    matrix.validate(spec)
    return matrix


def stab_offdiag_mod_h2(
    spec: SliceSpec, ch: Chamber, polarization_signs=None
) -> Dict[Tuple[int, int], RootMonomial]:
    """Closed-form off-diagonal restrictions mod h^2, factored and keyed by
    point indices as in stab_general.stab_mod_h2.

    The entry h * eps|_p / a_ch appears exactly when q is p with one +omega_ch
    increment (slot i) traded against a later -omega_ch increment (slot j),
    that is on the pairs of slices.adjacent_pairs; every other off-diagonal
    restriction vanishes mod h^2.
    """
    _require_a1(spec)
    points = enumerate_fixed_points(spec)
    signs = normalize_polarization(points, polarization_signs)
    # the slots are a and h: times h over a_ch = +-a, whose sign is its own inverse
    alpha_sign = _chamber_sign(ch)
    out: Dict[Tuple[int, int], RootMonomial] = {}
    for p, q in adjacent_pairs(spec, ch):
        e_a = repelling_euler(spec, p, ch)
        entry = e_a.times_ratio((-1, 1), signs[p] * alpha_sign)
        if entry is None:
            raise AssertionError(
                f"entry at {points[p].label()} did not clear its denominator")
        out[(p, q)] = entry
    return out


def theta_action(
    spec: SliceSpec, i: int, matrix: RestrictionMatrix
) -> Dict[Tuple[int, int], tuple]:
    """Action of the i-th transposition correspondence on the rows of matrix,
    as nonzero forms keyed by point-index pairs (p, q).

    Computed two independent ways: on rows, -Stab[p] + (eps_p/eps_{r_i p})
    Stab[r_i p]; on columns, the prefactor (a + <alpha, sigma_q^i> h) /
    (a + <alpha, sigma_q^{i-1}> h) applied to -entry(p, q) + entry(p, r_i q).
    A mismatch raises AssertionError; an index outside 1 <= i < l, or a
    transposition across a frozen slot, raises ValueError.
    """
    _require_a1(spec)
    if not 1 <= i < spec.length:
        raise ValueError(f"correspondence index {i} out of range")
    if spec.lambda_seq[i - 1] != spec.lambda_seq[i]:
        raise ValueError("transposition crosses a frozen slot")
    if spec.lambda_seq[i - 1] == 0:
        return {}  # r_i fixes every point: -Stab[p] + Stab[p] = 0
    # two adjacent nonfrozen slots are a raising move
    partner = dict(_move_partners(spec))[i]
    heights = _point_heights(spec)
    points, eps = matrix.points, matrix.epsilons
    rows: List[Dict[int, tuple]] = [{} for _ in points]
    for (p, q), val in matrix.entries.items():
        rows[p][q] = val
    zero = (0,) * (spec.dimension // 2 + 1)
    left: Dict[Tuple[int, int], tuple] = {}
    for p, row in enumerate(rows):
        rp = partner[p]
        if rp == p:
            continue  # -Stab[p] + Stab[p] = 0
        ratio = _epsilon_ratio(eps[p], eps[rp])
        other = rows[rp]
        for q in row.keys() | other.keys():
            val = tuple(ratio * y - x for x, y in zip(row.get(q, zero), other.get(q, zero)))
            if any(val):
                left[(p, q)] = val
    # (p, q) holds when (a + s_cur h) * diff == (a + s_prev h) * expected,
    # the cross-multiplication a rational-function equality would do; it
    # holds trivially where diff and expected both vanish
    columns = [(q, partner[q], (1, h[i]), (1, h[i - 1])) for q, h in enumerate(heights)]
    for p, row in enumerate(rows):
        for q, rq, num, den in columns:
            expected = left.get((p, q))
            if expected is None:
                if q not in row and rq not in row:
                    continue
                expected = zero
            diff = tuple(map(sub, row.get(rq, zero), row.get(q, zero)))
            if _form_mul(num, diff) != _form_mul(den, expected):
                raise AssertionError(
                    f"theta action mismatch at ({points[p].label()}, {points[q].label()})"
                )
    return left


def _pack(f: tuple, b: int) -> int:
    """The integer form f evaluated at a = 2^b, h = 1."""
    v = 0
    for c in f:
        v = (v << b) + c
    return v


def _unpack(v: int, b: int, degree: int) -> tuple:
    """The form of the given degree, coefficients below 2^(b-1) in absolute
    value, whose value at a = 2^b, h = 1 is v: v's balanced base-2^b digits."""
    half, digits = 1 << (b - 1), []
    for _ in range(degree + 1):
        digits.append((v + half) % (2 * half) - half)
        v = (v - digits[-1]) >> b
    return tuple(reversed(digits))


def _shifts_value(shifts: Counter, b: int, sign: int = 1) -> int:
    """sign times the product of the forms a + s h, s counted in shifts, at
    a = 2^b, h = 1."""
    v = sign
    for s, k in shifts.items():
        v *= ((1 << b) + s) ** k
    return v


def _pairing_sums(spec: SliceSpec, plus: RestrictionMatrix, minus: RestrictionMatrix,
                  weight=None):
    """The localization pairing of the rows of two opposite-chamber matrices
    on the slice spec, with the denominator cleared, by Kronecker substitution.

    Returns (b, lcm, sums): lcm is the shift Counter of _lcm_cofactors'
    least common multiple, and sums[(p, q)], for point indices p and q, is
    the value at a = 2^b, h = 1 of the form

        S_pq = sum_x Stab_+[p]|_x * Stab_-[q]|_x * w(x) * sign_x * cofactor(x)

    with w(x) the integer linear form weight[x], by point index, or 1.
    Evaluation is a ring map, so each entry of Stab_- is packed once, with
    its weight and cofactor, and the sums are of ints.  |coefficient of f g|
    <= max|f| * sum|g| <= max|f| * prod(1 + |s|) for g a product of forms
    a + s h, and a cofactor is +-1 times factors of the lcm, so b keeps
    every coefficient of S_pq and of S_pq - lcm below 2^(b-1) in absolute
    value.  A nonzero form F with coefficients below 2^b in absolute value
    has F(2^b, 1) != 0: it is 2^(b k) (c + 2^b m), c != 0 the coefficient of
    its lowest power a^k.  So S_pq = lcm, or 0, exactly when the packed
    values agree, and _unpack reads S_pq back.
    """
    lcm, cofactor = _lcm_cofactors(spec)
    weight = weight or [(1,)] * len(cofactor)
    bound = len(cofactor) * (spec.dimension // 2 + 1) * max(sum(map(abs, w)) for w in weight)
    for forms in (plus.entries.values(), minus.entries.values()):
        bound *= max(max(map(max, forms), default=0), -min(map(min, forms), default=0))
    bound += 1  # S_pq - lcm has the lcm once more
    for s, k in lcm.items():
        bound *= (1 + abs(s)) ** k
    b = bound.bit_length() + 2
    factor = [_shifts_value(c, b, sign) * _pack(w, b) for (c, sign), w in zip(cofactor, weight)]
    columns: List[List[Tuple[int, int]]] = [[] for _ in factor]
    for (q, x), val in minus.entries.items():
        columns[x].append((q, _pack(val, b) * factor[x]))
    sums: Dict[Tuple[int, int], int] = {}
    for (p, x), up in plus.entries.items():
        u = _pack(up, b)
        for q, down in columns[x]:
            sums[p, q] = sums.get((p, q), 0) + u * down
    return b, lcm, sums


def verify_duality(spec: SliceSpec, ch: Chamber,
                   polarization_signs=None) -> dict:
    """Localization pairing of opposite-chamber envelopes against this one.

    Expect the identity matrix.  The dual polarization (-1)^(dim/2) eps comes
    for free by passing the same sign map with the opposite chamber: the two
    repelling halves differ by one sign per weight line, dim/2 in total.
    Denominators are cleared by the least common multiple of the tangent
    Euler classes, so the check is exact arithmetic on packed forms.
    """
    plus = stab_matrix(spec, ch, polarization_signs)
    minus = stab_matrix(spec, -ch, polarization_signs)
    points = plus.points
    b, lcm, sums = _pairing_sums(spec, plus, minus)
    one = _shifts_value(lcm, b)
    failures = [
        {"p": p.label(), "q": q.label()}
        for qi, q in enumerate(points) for pi, p in enumerate(points)
        if sums.get((pi, qi), 0) != (one if pi == qi else 0)
    ]
    return {"ok": not failures, "pairs": len(points) ** 2, "failures": failures}
