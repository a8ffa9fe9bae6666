"""Fixed points, tangent weights, Euler classes, and adjacent pairs of
resolved slices.

A slice is specified by a Cartan datum, a sequence of minuscule fundamental
coweight indices lambda_1..lambda_l, and a target coweight mu.  A torus-fixed
point is the increment sequence delta (each delta_i in the Weyl orbit of
lambda_i, summing to mu); sigma denotes the partial-sum path.

Index 0 is allowed in lambda_seq and denotes a frozen zero slot (orbit {0});
these arise when a slice is projected onto a wall and keep slot positions
aligned with the ambient slice.

Slot steps are paired with roots once per spec, in integers: the spec holds
<d, beta> for every orbit element d and every root beta.  Every slot is
minuscule or a zero slot, so each such pairing is -1, 0 or +1 (the table
build checks it).  Enumeration descends on integer coordinate tuples, and
tangent weights sum table rows into heights, so neither builds a vector.
A tangent weight beta + n*h is the integer pair (column of beta in
root_list, n), so a chamber's side of it is the column's entry in the
chamber's sign vector, and Euler classes read the root's coordinates by
column.  A linear form is the tuple of its coefficients (a_1..a_r, h), and
an Euler class is a multiset of canonical ones.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd
from operator import add, mul, sub
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .cartan import AWeightForm, CartanDatum, Chamber, Coweight, pairing


class NonMinusculeUnsupported(ValueError):
    """lambda_seq contains a fundamental coweight outside the minuscule set."""


class InvalidSlice(ValueError):
    """Slice parameters violate mu <= lambda or admit no fixed point."""


class SliceSpec:
    """Resolved slice data: cartan datum, minuscule lambda indices, target mu.

    Data derived from the slice (its dimension, fixed points, their index,
    tangent weights keyed by (root column, n), the root counts of each
    point, canonical linear forms, the exponent slots of the positive
    roots, Euler classes and A-part classes, the adjacent pairs of each
    chamber, the omega ratios of the wall routes, the flip signs of chamber
    pairs, line-bundle weights, the inner products of slot steps and, in
    rank one, the heights and raising moves of the fixed points) is filled
    in lazily, the dimension by its property and the rest by the functions
    of this module, of stab_general, of chern and of stab_a1, and lives
    exactly as long as the spec.
    """

    __slots__ = ("cartan", "lambda_seq", "mu", "_dimension", "_orbits", "_pairings",
                 "_suffix_sums", "_points", "_index", "_tangents", "_forms",
                 "_root_slots", "_root_counts", "_euler", "_adjacent", "_omega",
                 "_line_weights", "_slot_inners", "_heights", "_moves", "_flips")

    def __init__(self, cartan: CartanDatum, lambda_seq: Iterable[int], mu: Coweight):
        lambda_seq = tuple(int(i) for i in lambda_seq)
        if not lambda_seq:
            raise InvalidSlice("lambda sequence must be nonempty")
        for i in lambda_seq:
            if i == 0:
                continue
            if i < 1 or i > cartan.rank:
                raise InvalidSlice(f"fundamental coweight index {i} out of range")
            if i not in cartan.minuscule_indices:
                raise NonMinusculeUnsupported(
                    f"omega_{i} is not minuscule in type {cartan.type_letter}{cartan.rank}"
                )
        if len(mu) != cartan.rank or not mu.is_integral():
            raise InvalidSlice("mu must be an integral coweight of matching rank")
        self.cartan = cartan
        self.lambda_seq = lambda_seq
        self.mu = mu

        # mu <= lambda: lambda - mu must be a nonnegative integer combination
        # of simple coroots, i.e. A^-1 (lambda - mu) has nonnegative integer
        # entries (lambda - mu is in the omega-basis)
        coeffs = cartan.coroot_coordinates(self.lambda_total() - mu)
        if coeffs is None or any(c < 0 for c in coeffs):
            raise InvalidSlice("mu is not below lambda in the coroot order")

        orbits = {}
        for i in lambda_seq:
            if i not in orbits:
                # omega_i, or the zero coweight for a frozen slot
                start = tuple(int(j == i - 1) for j in range(cartan.rank))
                orbits[i] = tuple(Coweight._of(v) for v in sorted(cartan._orbit_coords(start)))
        self._orbits = tuple(orbits[i] for i in lambda_seq)
        # pairings[d.coords] = (<d, beta> for beta in root_list)
        roots = [f.coords for f in cartan.root_list]
        self._pairings = {}
        for orbit in orbits.values():
            for d in orbit:
                row = tuple(sum(map(mul, d.coords, f)) for f in roots)
                if any(v not in (-1, 0, 1) for v in row):
                    raise AssertionError(f"slot step {d} is not minuscule")
                self._pairings[d.coords] = row
        # suffix_sums[i] = coordinates of the possible values of
        # delta_i + .. + delta_l
        sums = [{(0,) * cartan.rank}]
        for orbit in reversed(self._orbits):
            prev = sums[-1]
            sums.append({tuple(map(add, d.coords, s)) for d in orbit for s in prev})
        self._suffix_sums = tuple(reversed(sums))
        if mu.coords not in self._suffix_sums[0]:
            raise InvalidSlice("no fixed point: mu is not a weight of the lambda sequence")
        self._dimension = None
        self._points = None
        self._index = None
        self._tangents = {}
        # _canonical splittings keyed by coefficient tuples (a_1..a_r, h)
        self._forms = {}
        # _root_slots: the forms of the RootMonomial exponent slots and the
        # slot of each root_list column; and _root_counts, by point index:
        # the multiplicity of each column among the A-parts of the tangent
        # weights.  The wall routes read both.
        self._root_slots = None
        self._root_counts = None
        # Euler classes (RootMonomials when keep_h is false) keyed by (point
        # index, chamber, keep_h); chamber None stands for the whole tangent
        # space, a chamber for its repelling half
        self._euler = {}
        # adjacent_pairs, keyed by chamber
        self._adjacent = {}
        # stab_general.omega_ratio, keyed by the ordered index pair and the
        # positive root of the wall; (q, p) is derived from (p, q)
        self._omega = {}
        # chern.line_bundle_weight: the weights of L_0..L_l at each point
        self._line_weights = {}
        # chern._slot_step: sharp(d), <d, mu> and <d, d'> for the slot steps
        self._slot_inners = {}
        # stab_a1._point_heights and _move_partners, by point index
        self._heights = None
        self._moves = None
        # _flip_signs, keyed by the sign vectors of the two chambers
        self._flips = {}

    def _slot_coweight(self, slot0: int) -> Coweight:
        idx = self.lambda_seq[slot0]
        return self.cartan.zero_coweight() if idx == 0 else self.cartan.fundamental_coweight(idx)

    @property
    def length(self) -> int:
        return len(self.lambda_seq)

    @property
    def dimension(self) -> int:
        """<lambda - mu, sum of positive roots>, with mu taken to its
        dominant Weyl representative; even and nonnegative.  Computed on
        first read.

        The dominant representative matters: the path model accepts any
        target mu below lambda, and the tangent multiplicity total at every
        fixed point is invariant under replacing mu by a Weyl conjugate.
        """
        if self._dimension is None:
            mu_plus = dominant_representative(self.cartan, self.mu)
            d = pairing(self.lambda_total() - mu_plus, self.cartan.two_rho_check)
            assert d >= 0 and d % 2 == 0
            self._dimension = int(d)
        return self._dimension

    def lambda_total(self) -> Coweight:
        total = self.cartan.zero_coweight()
        for i in range(len(self.lambda_seq)):
            total = total + self._slot_coweight(i)
        return total

    def __eq__(self, other):
        return (
            isinstance(other, SliceSpec)
            and other.cartan == self.cartan
            and other.lambda_seq == self.lambda_seq
            and other.mu == self.mu
        )

    def __hash__(self):
        return hash((self.cartan, self.lambda_seq, self.mu))

    def __repr__(self):
        return (
            f"SliceSpec({self.cartan.type_letter}{self.cartan.rank}, "
            f"lambda={list(self.lambda_seq)}, mu={list(self.mu.coords)})"
        )


_RANK_ONE_LABELS = {1: "w", -1: "-w", 0: "0"}


def _step_label(coords: tuple) -> str:
    """A slot step as a point label prints it: w, -w, 0 or kw in rank 1, and
    its coordinates in brackets otherwise."""
    if len(coords) == 1:
        return _RANK_ONE_LABELS.get(coords[0]) or f"{coords[0]}w"
    return "[" + ",".join(map(str, coords)) + "]"


class FixedPoint:
    """Torus-fixed point of a resolved slice: the increment sequence delta."""

    __slots__ = ("delta", "_hash")

    def __init__(self, delta: Iterable[Coweight]):
        self.delta = tuple(delta)
        self._hash = None

    def sigma(self) -> Tuple[Coweight, ...]:
        """Partial sums sigma_0 = 0, sigma_i = delta_1 + .. + delta_i."""
        out = [Coweight([0] * len(self.delta[0]))]
        for d in self.delta:
            out.append(out[-1] + d)
        return tuple(out)

    def key(self):
        return tuple(d.coords for d in self.delta)

    def __eq__(self, other):
        return isinstance(other, FixedPoint) and other.delta == self.delta

    def __hash__(self):
        # points key point_index and the spec's tangent and line-bundle
        # weights, so the same point is hashed far more often than built
        if self._hash is None:
            self._hash = hash(self.delta)
        return self._hash

    def __lt__(self, other):
        return self.key() < other.key()

    def to_json(self) -> list:
        """The slot steps as coordinate lists."""
        return [list(d.coords) for d in self.delta]

    def label(self) -> str:
        """Human-readable delta string, e.g. '(-w,w,w)' in rank 1."""
        return "(" + ",".join([_step_label(d.coords) for d in self.delta]) + ")"

    def __repr__(self):
        return f"FixedPoint{self.label()}"


def enumerate_fixed_points(spec: SliceSpec) -> Tuple[FixedPoint, ...]:
    """All increment sequences, in lexicographic order of coordinate vectors;
    enumerated once per spec.  A point's position here is its point index."""
    if spec._points is None:
        spec._points = _enumerate(spec)
    return spec._points


def _point(spec: SliceSpec, p: int) -> FixedPoint:
    """The point of index p.  An index comes from the enumeration, so the
    spec almost always holds its points already."""
    return (spec._points or enumerate_fixed_points(spec))[p]


def point_index(spec: SliceSpec) -> Dict[FixedPoint, int]:
    """Position of each fixed point in enumerate_fixed_points; do not mutate."""
    if spec._index is None:
        spec._index = {p: i for i, p in enumerate(enumerate_fixed_points(spec))}
    return spec._index


def _enumerate(spec: SliceSpec) -> Tuple[FixedPoint, ...]:
    """Depth-first over the slots on coordinate tuples.  Each orbit is sorted,
    so the points come out in lexicographic order."""
    result: List[FixedPoint] = []
    prefix: List[Coweight] = []

    def descend(slot: int, rest: tuple):
        # rest = coordinates of mu minus the steps taken so far
        if slot == spec.length:
            result.append(FixedPoint(prefix))
            return
        reachable = spec._suffix_sums[slot + 1]
        for d in spec._orbits[slot]:
            left = tuple(map(sub, rest, d.coords))
            if left in reachable:
                prefix.append(d)
                descend(slot + 1, left)
                prefix.pop()

    descend(0, spec.mu.coords)
    return tuple(result)


def dominant_representative(cartan: CartanDatum, c: Coweight) -> Coweight:
    """The dominant coweight in the Weyl orbit of c."""
    v = c
    while True:
        j = next((i for i, x in enumerate(v.coords) if x < 0), None)
        if j is None:
            return v
        v = cartan.reflect_coweight(j + 1, v)


def _steps(spec: SliceSpec, p: FixedPoint) -> List[Tuple[int, ...]]:
    """The spec's pairing-table rows of the slot steps of p, one per slot."""
    return [spec._pairings[d.coords] for d in p.delta]


def tangent_weights(spec: SliceSpec, p: FixedPoint) -> Dict[Tuple[int, int], int]:
    """Tangent weights at p by the half-integer crossing rule: each weight
    beta + n*h, beta the root of root_list column col, as (col, n) to its
    positive multiplicity.

    For each root beta and each segment of the height path h_i = <sigma_i,
    beta>, a level c = n + 1/2 strictly between the segment endpoints counts
    toward beta + n*h iff the segment moves toward the origin half-space:
    c > 0 with h decreasing, or c < 0 with h increasing.  Every step is -1, 0
    or +1, so a segment crosses the one level min(a, b) + 1/2, and it counts
    iff it leaves a nonzero height toward 0.  The heights of -beta are those
    of beta negated, so a segment that counts toward beta + n*h counts toward
    -beta + (-n-1)*h: only one root of each pair is walked.

    The entries are inserted in document order (root coordinates, then n;
    root_list is sorted by coordinates).  Computed once per spec and point;
    callers share the result and must not mutate it.
    """
    found = spec._tangents.get(p)
    if found is not None:
        return found
    heights = list(zip(*_steps(spec, p)))
    by_column: list = [()] * len(heights)
    for col, opposite in spec.cartan._root_pairs:
        counts: Dict[int, int] = {}
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
    found = spec._tangents[p] = {(col, n): m for col, column in enumerate(by_column)
                                 for n, m in column}
    return found


def _canonical(forms: dict, coords: tuple) -> Tuple[tuple, int]:
    """The nonzero linear form with integer coefficients coords = (a_1..a_r,
    h), split as scalar * canonical: the canonical form is the tuple of its
    coprime integer coefficients, the first nonzero one (in the order
    a_1..a_r, h) positive.

    Results are memoized in forms (a spec's _forms).
    """
    found = forms.get(coords)
    if found is None:
        g = gcd(*coords)
        if next(c for c in coords if c) < 0:
            g = -g
        found = forms[coords] = (tuple([c // g for c in coords]), g)
    return found


class EulerClass(NamedTuple):
    """A product of linear forms: a scalar times a multiset of canonical
    forms, each the coefficient tuple (a_1..a_r, h) that _canonical returns.

    Distinct canonical forms are non-associate primes, so two classes are
    equal as polynomials exactly when their multisets and scalars are equal.
    """

    nvars: int
    factors: Counter
    scalar: Fraction  # an int where it is one


class RootMonomial(NamedTuple):
    """An A-part class: scalar * prod(forms[k] ** exponents[k]), with forms
    the spec's slot forms (_root_slots), the canonical coefficient tuples of
    the positive roots in root_list order and then h.

    Positive roots are primitive in simple-root coordinates and their own
    canonical forms, so the scalar of a product of roots is +-1 and an int.
    Canonical forms are non-associate primes, so two classes over the same
    forms are equal as polynomials exactly when they are equal as tuples.
    """

    forms: Tuple[tuple, ...]
    exponents: Tuple[int, ...]
    scalar: int

    def times_ratio(self, ratio: Sequence[int], scalar: int) -> Optional["RootMonomial"]:
        """self * scalar * prod(forms[k] ** ratio[k]), ratio a signed
        exponent vector, or None when that is not a polynomial: when some
        exponent goes negative."""
        exponents = tuple(map(add, self.exponents, ratio))
        if min(exponents) < 0:
            return None
        return RootMonomial(self.forms, exponents, self.scalar * scalar)


def euler_factors(spec: SliceSpec, weights: Dict[Tuple[int, int], int]) -> EulerClass:
    """Euler class of weights, keyed as tangent_weights keys them: the forms
    root + n*h, split into canonical factors whose splittings are memoized
    in the spec."""
    roots = spec.cartan.root_list
    factors: Counter = Counter()
    scalar = 1
    for (col, n), m in weights.items():
        canon, s = _canonical(spec._forms, roots[col].coords + (n,))
        factors[canon] += m
        scalar *= s**m
    return EulerClass(spec.cartan.rank + 1, factors, scalar)


def tangent_euler(spec: SliceSpec, p: int) -> EulerClass:
    """e_T of the whole tangent space at the point of index p."""
    key = (p, None, True)
    if key not in spec._euler:
        spec._euler[key] = euler_factors(spec, tangent_weights(spec, _point(spec, p)))
    return spec._euler[key]


def repelling_euler(spec: SliceSpec, p: int, ch: Chamber,
                    keep_h: bool) -> Union[EulerClass, RootMonomial]:
    """e_T of the ch-repelling half of the tangent space at the point of
    index p, as an EulerClass, or its e_A (h set to 0) as a RootMonomial
    when keep_h is false: the weights whose root column has sign -1 in the
    chamber's sign vector."""
    key = (p, ch, keep_h)
    found = spec._euler.get(key)
    if found is None:
        signs = ch.sign_vector
        if keep_h:
            repel = {k: m for k, m in tangent_weights(spec, _point(spec, p)).items()
                     if signs[k[0]] < 0}
            found = euler_factors(spec, repel)
        else:
            found = RootMonomial(_root_slots(spec)[0],
                                 *_repelling_exponents(spec, _root_counts(spec, p), signs))
        spec._euler[key] = found
    return found


def _root_counts(spec: SliceSpec, p: int) -> Tuple[int, ...]:
    """The multiplicity of each root_list column among the A-parts of the
    tangent weights at the point of index p; built for every point at once,
    once per spec."""
    if spec._root_counts is None:
        table = []
        for x in enumerate_fixed_points(spec):
            counts = [0] * len(spec.cartan.root_list)
            for (col, _), m in tangent_weights(spec, x).items():
                counts[col] += m
            table.append(tuple(counts))
        spec._root_counts = tuple(table)
    return spec._root_counts[p]


def _root_slots(spec: SliceSpec) -> Tuple[Tuple[tuple, ...], Tuple[Tuple[int, int], ...]]:
    """The forms of the RootMonomial exponent slots, the positive roots in
    root_list order as (a_1..a_r, 0) and then h, and each root_list
    column's slot and sign +-1: the root is sign times its slot's form; once
    per spec."""
    if spec._root_slots is None:
        roots = spec.cartan.root_list
        rank = spec.cartan.rank
        columns: list = [None] * len(roots)
        forms = []
        for col, opposite in spec.cartan._root_pairs:
            columns[col], columns[opposite] = (len(forms), 1), (len(forms), -1)
            forms.append(roots[col].coords + (0,))
        forms.append((0,) * rank + (1,))
        spec._root_slots = (tuple(forms), tuple(columns))
    return spec._root_slots


def _repelling_exponents(spec: SliceSpec, values: Iterable[int],
                         signs: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
    """The exponent vector that gives each column with sign -1 its value in
    values (a count by root_list column) on its slot, h 0, and the sign of
    that product of repelling roots.  A positive root has exactly one
    repelling column per chamber, so each slot is set once."""
    forms, columns = _root_slots(spec)
    exponents = [0] * len(forms)
    flips = 0
    for (slot, unit), sign, m in zip(columns, signs, values):
        if sign < 0 and m:
            exponents[slot] = m
            if unit < 0:
                flips += m
    return tuple(exponents), -1 if flips % 2 else 1


def localization_denominator(spec: SliceSpec) -> Tuple[EulerClass, List[EulerClass]]:
    """The LCM of the tangent Euler classes over the fixed points (scalar 1),
    and the cofactor of each point by point index, both factored:
    sum_x f(x) / e_T(T_x) equals (sum_x f(x) * cofactor[x]) / lcm for every f."""
    nv = spec.cartan.rank + 1
    euler = [tangent_euler(spec, x) for x in range(len(enumerate_fixed_points(spec)))]
    lcm: Counter = Counter()
    for e in euler:
        lcm |= e.factors
    cofactor = [EulerClass(nv, lcm - e.factors, Fraction(1, e.scalar)) for e in euler]
    return EulerClass(nv, lcm, Fraction(1)), cofactor


def _flip_signs(spec: SliceSpec, ch1: Chamber, ch2: Chamber) -> Tuple[int, ...]:
    """flip_sign of every point, by point index; read off the root counts
    once per spec and pair of sign vectors."""
    key = (ch1.sign_vector, ch2.sign_vector)
    found = spec._flips.get(key)
    if found is None:
        _root_counts(spec, 0)
        cols = [c for c, (s1, s2) in enumerate(zip(*key)) if s1 < s2]
        found = spec._flips[key] = tuple(-1 if sum([counts[c] for c in cols]) % 2 else 1
                                         for counts in spec._root_counts)
    return found


def flip_sign(spec: SliceSpec, p: int, ch1: Chamber, ch2: Chamber) -> int:
    """Parity of tangent weights at the point of index p that are
    ch1-repelling but ch2-attracting.

    This equals the sign of e_A(repelling part, ch2) / e_A(repelling part,
    ch1): each line of weights that changes side contributes one sign flip
    per weight on it.
    """
    return _flip_signs(spec, ch1, ch2)[p]


class AdjacencyWitness(NamedTuple):
    """Slots (1-based, i < j) and the chamber-positive coroot relating p to q."""

    i: int
    j: int
    alpha: Coweight
    alpha_form: AWeightForm


def adjacent_pairs(
    spec: SliceSpec, ch: Chamber
) -> Dict[Tuple[int, int], AdjacencyWitness]:
    """Every adjacent pair (p, q) of point indices with its witness: q is p
    with slot i lowered, and a later slot j raised, by the coroot of a
    ch-positive root.

    A minuscule step d lowered by the coroot of a root beta stays in its
    orbit exactly when <d, beta> = 1 (it is then the reflection of d), and
    raised exactly when <d, beta> = -1, so the pairs are read off the
    spec's pairing table: a +1 at slot i and a -1 at slot j > i.  Built once
    per spec and chamber, in order of (p, q); callers share the table and
    must not mutate it.
    """
    found = spec._adjacent.get(ch)
    if found is None:
        cartan = spec.cartan
        points = enumerate_fixed_points(spec)
        by_key = {p.key(): x for x, p in enumerate(points)}
        roots = [(col, f, cartan.coroot_of_root[f])
                 for col, (f, sign) in enumerate(zip(cartan.root_list, ch.sign_vector))
                 if sign > 0]
        found = spec._adjacent[ch] = {}
        for x, p in enumerate(points):
            key, steps = p.key(), _steps(spec, p)
            moves = []
            for col, root, coroot in roots:
                ups = [m for m, row in enumerate(steps) if row[col] == 1]
                downs = [m for m, row in enumerate(steps) if row[col] == -1]
                for i in ups:
                    for j in (j for j in downs if j > i):
                        moved = list(key)
                        moved[i] = tuple(map(sub, key[i], coroot.coords))
                        moved[j] = tuple(map(add, key[j], coroot.coords))
                        moves.append((by_key[tuple(moved)],
                                      AdjacencyWitness(i + 1, j + 1, coroot, root)))
            # q determines the move, so the sort compares indices only
            for q, witness in sorted(moves):
                found[(x, q)] = witness
    return found


def _integer_multiple(d: tuple, coroot: tuple) -> bool:
    lead = next(i for i, c in enumerate(coroot) if c != 0)
    m, r = divmod(d[lead], coroot[lead])
    return not r and all(x == m * c for x, c in zip(d, coroot))


def project_to_wall_slice(
    spec: SliceSpec, p: FixedPoint, root: AWeightForm
) -> Tuple[SliceSpec, FixedPoint]:
    """Project p onto the wall ker(root): a rank-1 slice with 0-slots retained.

    Slot i carries k_i = |<delta_i, root>| in {0, 1}; the image point is
    delta'_i = <delta_i, root> omega; the new target is <mu, root> omega.
    """
    if root not in spec.cartan.coroot_of_root:
        raise ValueError(f"{root} is not a root")
    a1 = CartanDatum("A", 1)
    lam, delta = [], []
    for d in p.delta:
        v = pairing(d, root)
        if v not in (-1, 0, 1):
            raise AssertionError("non-minuscule pairing in wall projection")
        lam.append(abs(int(v)))
        delta.append(Coweight([v]))
    mu1 = Coweight([pairing(spec.mu, root)])
    wall_spec = SliceSpec(a1, lam, mu1)
    return wall_spec, FixedPoint(delta)

