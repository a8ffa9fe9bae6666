"""Fixed points, tangent weights, Euler classes, and adjacent pairs of
resolved slices.

A slice is specified by a Cartan datum, a sequence of minuscule fundamental
coweight indices lambda_1..lambda_l, and a target coweight mu.  A torus-fixed
point is the increment sequence delta (each delta_i in the Weyl orbit of
lambda_i, summing to mu); sigma denotes the partial-sum path.  A point is a
FixedPoint, the tuple of its steps, and a step is the int tuple of its
coordinates in the fundamental-coweight basis, so points compare, hash and
sort as tuples.

Index 0 is allowed in lambda_seq and denotes a frozen zero slot (orbit {0});
these arise when a slice is projected onto a wall and keep slot positions
aligned with the ambient slice.

Slot steps are paired with roots once per spec, in integers: the spec holds
<d, beta> for every orbit element d and every root beta, each row summed
from the root columns of d's nonzero coordinates.  Every slot is minuscule
or a zero slot, so each such pairing is -1, 0 or +1 (the table build checks
it).  The spec enumerates its fixed points when it is built, one level of
prefixes per slot on the steps' coordinate tuples, so the slot count is not
bounded by the recursion limit; one walk over the points sums table rows
into heights, weighs each distinct edge once and yields the slice's
distinct tangent weight sets, with each point's position among them; the
adjacent pairs move steps by coroot coordinates.  mu, the orbits, the
roots and the coroots are int tuples too, as the CartanDatum holds them.
A root is its column in root_list throughout: a tangent weight beta + n*h
is the integer pair (column of beta, n), so a chamber's side of it is the
column's entry in the chamber's sign vector, and an adjacency witness names
its root by column.  A linear form is the tuple of its coefficients
(a_1..a_r, h).  The one Euler class held here is the e_A of a repelling
half, a RootMonomial: an exponent vector over the positive roots and h.
The h-shifted e_T classes are needed in rank one only, where stab_a1
expands them as binary forms in (a, h).
"""

from __future__ import annotations

from collections import Counter
from functools import wraps
from itertools import accumulate, chain, compress, count
from operator import add, mul, ne, sub
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .cartan import CartanDatum, Chamber


_MISSING = object()


def memoized(f):
    """f(obj, *args), computed once for as long as obj lives.

    The value is kept in obj's _memo dict under f and args, so a call with
    equal args returns the identical object, and the memo goes with obj.
    args must be hashable; callers share the value and must not mutate it.
    Every datum derived from a slice is memoized this way, by the function
    that computes it.
    """
    @wraps(f)
    def memo(obj, *args):
        key = (f, args)
        found = obj._memo.get(key, _MISSING)
        if found is _MISSING:
            found = obj._memo[key] = f(obj, *args)
        return found

    return memo


class SliceSpec:
    """Resolved slice data: cartan datum, minuscule lambda indices, target mu.

    The pairing table of the slot orbits (sorted coordinate tuples) and
    the fixed points are built with the spec; the orbits and the suffix
    sums that prune the levels are locals of the constructor.  Everything
    else derived from the slice (its dimension, point index, tangent
    weights, Euler classes, adjacent pairs, wall chambers, omega ratios,
    bundle weights and rank-one restriction matrices) is computed on demand
    by a function marked memoized, and is kept in the spec's one _memo
    dict, so it lives exactly as long as the spec.  Root data that depends
    on the datum alone (coroots, slots, slot forms) is the CartanDatum's, by
    root column.
    """

    __slots__ = ("cartan", "lambda_seq", "mu", "_points", "_pairings", "_memo")

    def __init__(self, cartan: CartanDatum, lambda_seq: Iterable[int], mu: Sequence[int]):
        lambda_seq = tuple(int(i) for i in lambda_seq)
        if not lambda_seq:
            raise ValueError("lambda sequence must be nonempty")
        for i in lambda_seq:
            if i == 0:
                continue
            if i < 1 or i > cartan.rank:
                raise ValueError(f"fundamental coweight index {i} out of range")
            if i not in cartan.minuscule_indices:
                raise ValueError(
                    f"omega_{i} is not minuscule in type {cartan.type_letter}{cartan.rank}"
                )
        # an integral Fraction counts as the integer it equals
        if len(mu) != cartan.rank or any(getattr(c, "denominator", 0) != 1 for c in mu):
            raise ValueError("mu must be an integral coweight of matching rank")
        self.cartan = cartan
        self.lambda_seq = lambda_seq
        self.mu = mu = tuple(map(int, mu))

        # mu <= lambda: lambda - mu must be a nonnegative integer combination
        # of simple coroots, i.e. A^-1 (lambda - mu) has nonnegative integer
        # entries (lambda - mu is in the omega-basis)
        coeffs = cartan.coroot_coordinates(tuple(map(sub, self.lambda_total(), mu)))
        if coeffs is None or any(c < 0 for c in coeffs):
            raise ValueError("mu is not below lambda in the coroot order")

        orbits = {}
        for i in lambda_seq:
            if i not in orbits:
                # omega_i, or the zero coweight for a frozen slot
                start = tuple(int(j == i - 1) for j in range(cartan.rank))
                orbits[i] = tuple(sorted(cartan.weyl_orbit(start)))
        # pairings[d] = (<d, beta> for beta in root_list), summed over the
        # nonzero coordinates c_j of d as c_j times root column j
        columns = list(zip(*cartan.root_list))
        self._pairings = {}
        for orbit in orbits.values():
            for d in orbit:
                row = (0,) * len(cartan.root_list)
                for c, col in zip(d, columns):
                    if c:
                        row = tuple([x + c * v for x, v in zip(row, col)])
                if any(v not in (-1, 0, 1) for v in row):
                    raise AssertionError(f"slot step {d} is not minuscule")
                self._pairings[d] = row
        slot_orbits = [orbits[i] for i in lambda_seq]
        # reach[i] = the possible values of delta_(i+1) + .. + delta_l, the
        # sums of the steps after slot i (0-based)
        reach = [{(0,) * cartan.rank}]
        for orbit in reversed(slot_orbits[1:]):
            reach.append({tuple(map(add, d, s)) for d in orbit for s in reach[-1]})
        reach.reverse()
        # one level of (steps so far, mu minus their sum) per slot; the moves
        # out of each distinct rest are found once, and each prefix's children
        # follow it in (sorted) orbit order, so the points come out in
        # lexicographic order
        level = [((), mu)]
        for orbit, reachable in zip(slot_orbits, reach):
            moves = {}
            for _, rest in level:
                if rest not in moves:
                    moves[rest] = [(d, left) for d in orbit
                                   for left in (tuple(map(sub, rest, d)),) if left in reachable]
            level = [(prefix + (d,), left) for prefix, rest in level for d, left in moves[rest]]
        if not level:
            raise ValueError("no fixed point: mu is not a weight of the lambda sequence")
        self._points = tuple([FixedPoint(prefix) for prefix, _ in level])
        self._memo = {}

    @property
    def length(self) -> int:
        return len(self.lambda_seq)

    @property
    @memoized
    def dimension(self) -> int:
        """<lambda - mu, sum of positive roots>, with mu taken to its
        dominant Weyl representative; even and nonnegative.  Computed on
        first read.

        The dominant representative matters: the path model accepts any
        target mu below lambda, and the tangent multiplicity total at every
        fixed point is invariant under replacing mu by a Weyl conjugate.
        """
        mu_plus = dominant_representative(self.cartan, self.mu)
        d = sum(map(mul, map(sub, self.lambda_total(), mu_plus), self.cartan.two_rho_check))
        if d < 0 or d % 2:
            raise AssertionError(f"{self!r} has dimension {d}, not even and nonnegative")
        return d

    def lambda_total(self) -> Tuple[int, ...]:
        """The sum of the slots' fundamental coweights, zero slots adding 0."""
        return tuple(map(self.lambda_seq.count, range(1, self.cartan.rank + 1)))

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
            f"lambda={list(self.lambda_seq)}, mu={list(self.mu)})"
        )


_RANK_ONE_LABELS = {1: "w", -1: "-w", 0: "0"}


def _step_label(coords: tuple) -> str:
    """A slot step as a point label prints it: w, -w, 0 or kw in rank 1, and
    its coordinates in brackets otherwise."""
    if len(coords) == 1:
        return _RANK_ONE_LABELS.get(coords[0]) or f"{coords[0]}w"
    return "[" + ",".join(map(str, coords)) + "]"


class FixedPoint(tuple):
    """Torus-fixed point of a resolved slice: the increment sequence delta,
    as the tuple of its steps, each the int coordinate tuple of a coweight.
    Points compare, hash and sort as tuples."""

    __slots__ = ()

    def sigma(self) -> Tuple[Tuple[int, ...], ...]:
        """Partial sums sigma_0 = 0, sigma_i = delta_1 + .. + delta_i."""
        return tuple(accumulate(self, lambda s, d: tuple(map(add, s, d)),
                                initial=(0,) * len(self[0])))

    def label(self) -> str:
        """Human-readable delta string, e.g. '(-w,w,w)' in rank 1."""
        return "(" + ",".join(map(_step_label, self)) + ")"

    def __repr__(self):
        return f"FixedPoint{self.label()}"


def enumerate_fixed_points(spec: SliceSpec) -> Tuple[FixedPoint, ...]:
    """All increment sequences, in lexicographic order of coordinate vectors,
    as the spec found them when it was built.  A point's position here is its
    point index."""
    return spec._points


@memoized
def point_index(spec: SliceSpec) -> Dict[FixedPoint, int]:
    """Position of each fixed point in the spec's points, as
    enumerate_fixed_points returns them; the plain tuple of a point's steps
    looks it up too.  Built on first use; do not mutate."""
    return {p: i for i, p in enumerate(spec._points)}


def dominant_representative(cartan: CartanDatum, c: Sequence[int]) -> Tuple[int, ...]:
    """The dominant coweight in the Weyl orbit of c."""
    v = tuple(c)
    while True:
        j = next((i for i, x in enumerate(v) if x < 0), None)
        if j is None:
            return v
        v = cartan.reflect_coweight(j + 1, v)


def _steps(spec: SliceSpec, p: FixedPoint) -> List[Tuple[int, ...]]:
    """The spec's pairing-table rows of the slot steps of p, one per slot."""
    return [spec._pairings[d] for d in p]


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
    -beta + (-n-1)*h.

    The entries are inserted in document order (root coordinates, then n;
    root_list is sorted by coordinates).  The dict is p's set of _weight_sets,
    shared with every point of equal weights, so callers must not mutate it.
    A point that is not a fixed point of the slice raises ValueError.
    """
    x = point_index(spec).get(p)
    if x is None:
        raise ValueError("point is not a fixed point of this slice")
    sets, of = _weight_sets(spec)
    return sets[of[x]]


@memoized
def _weight_sets(spec: SliceSpec) -> Tuple[Tuple[dict, ...], Tuple[int, ...]]:
    """The slice's distinct tangent weight dicts, in the order the points
    first meet them, and each point's position among them, by point index.
    One walk over the points finds them: each point reuses the edges it
    shares with the point before it, and each distinct edge, (the heights of
    sigma by root column, the step), is weighed once by the crossing rule.
    Every column is weighed, so each crossing's key comes with its mirror on
    the opposite column.  A point's set is found by its sorted keys."""
    pairings = spec._pairings
    edges: Dict[tuple, tuple] = {}  # (heights, step) -> (next heights, keys)
    found: Dict[tuple, int] = {}  # sorted keys -> position in sets
    sets, of = [], []
    heights, path, last = [(0,) * len(spec.cartan.root_list)], [], ()
    for p in spec._points:
        i = next(compress(count(), map(ne, p, last)), len(last))
        del heights[i + 1:], path[i:]
        for d in p[i:]:
            h = heights[-1]
            edge = edges.get((h, d))
            if edge is None:
                row = pairings[d]
                edge = edges[h, d] = (
                    tuple(map(add, h, row)),
                    tuple([(col, a if s > 0 else a - 1)
                           for col, (a, s) in enumerate(zip(h, row)) if a * s < 0]))
            heights.append(edge[0])
            path.append(edge[1])
        keys = tuple(sorted(chain.from_iterable(path)))
        k = found.setdefault(keys, len(sets))
        if k == len(sets):
            sets.append(dict(Counter(keys)))
        of.append(k)
        last = p
    return tuple(sets), tuple(of)


class RootMonomial(NamedTuple):
    """An A-part class: scalar * prod(forms[k] ** exponents[k]), with forms
    the datum's slot_forms, the coefficient tuples of the positive roots in
    root_list order and then h.

    Every root is +-1 times a positive root, so the scalar of a product of
    roots is +-1 and an int.  No two positive roots are proportional, so
    the forms are non-associate primes, and two classes over the same forms
    are equal as polynomials exactly when they are equal as tuples.
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


@memoized
def repelling_euler(spec: SliceSpec, p: int, ch: Chamber) -> RootMonomial:
    """e_A of the ch-repelling half of the tangent space at the point of
    index p (h set to 0): the product of the roots of the weights whose root
    column has sign -1 in the chamber's sign vector.  Built once per spec,
    point and chamber."""
    exponents, sign = _repelling_exponents(spec.cartan, _root_counts(spec)[p], ch.sign_vector)
    return RootMonomial(spec.cartan.slot_forms, exponents, sign)


@memoized
def _root_counts(spec: SliceSpec) -> Tuple[Tuple[int, ...], ...]:
    """The multiplicity of each root_list column among the A-parts of the
    tangent weights at each point, by point index; counted once per weight
    set, once per spec."""
    sets, of = _weight_sets(spec)
    counts = []
    for ws in sets:
        c = [0] * len(spec.cartan.root_list)
        for (col, _), m in ws.items():
            c[col] += m
        counts.append(tuple(c))
    return tuple([counts[k] for k in of])


def _repelling_exponents(cartan: CartanDatum, values: Iterable[int],
                         signs: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
    """The exponent vector that gives each column with sign -1 its value in
    values (a count by root_list column) on its slot, h 0, and the sign of
    that product of repelling roots.  A positive root has exactly one
    repelling column per chamber, so each slot is set once."""
    exponents = [0] * len(cartan.slot_forms)
    flips = 0
    for (slot, unit), sign, m in zip(cartan._slots, signs, values):
        if sign < 0 and m:
            exponents[slot] = m
            if unit < 0:
                flips += m
    return tuple(exponents), -1 if flips % 2 else 1


def flip_sign(spec: SliceSpec, p: int, ch1: Chamber, ch2: Chamber) -> int:
    """Parity of tangent weights at the point of index p that are
    ch1-repelling but ch2-attracting.

    This equals the sign of e_A(repelling part, ch2) / e_A(repelling part,
    ch1): each line of weights that changes side contributes one sign flip
    per weight on it.  Summed over the point's root counts on each call.
    """
    moved = sum([m for m, s1, s2 in zip(_root_counts(spec)[p], ch1.sign_vector,
                                        ch2.sign_vector) if s1 < s2])
    return -1 if moved % 2 else 1


class AdjacencyWitness(NamedTuple):
    """Slots (1-based, i < j) and the root_list column of the
    chamber-positive root whose coroot relates p to q."""

    i: int
    j: int
    column: int


@memoized
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
    must not mutate it.  A chamber of another datum raises ValueError.
    """
    cartan = spec.cartan
    if ch.datum != cartan:
        raise ValueError("chamber does not belong to the slice's Cartan datum")
    index = point_index(spec)
    roots = [(col, cartan.coroots[col]) for col, sign in enumerate(ch.sign_vector) if sign > 0]
    found = {}
    # the index holds the points in index order
    for p, x in index.items():
        steps = _steps(spec, p)
        moves = []
        for col, coroot in roots:
            ups = [m for m, row in enumerate(steps) if row[col] == 1]
            downs = [m for m, row in enumerate(steps) if row[col] == -1]
            for i in ups:
                for j in (j for j in downs if j > i):
                    moved = list(p)
                    moved[i] = tuple(map(sub, p[i], coroot))
                    moved[j] = tuple(map(add, p[j], coroot))
                    moves.append((index[tuple(moved)], AdjacencyWitness(i + 1, j + 1, col)))
        # q determines the move, so the sort compares indices only
        for q, witness in sorted(moves):
            found[(x, q)] = witness
    return found


def _integer_multiple(d: tuple, coroot: tuple) -> bool:
    lead = next(i for i, c in enumerate(coroot) if c != 0)
    m, r = divmod(d[lead], coroot[lead])
    return not r and all(x == m * c for x, c in zip(d, coroot))


def project_to_wall_slice(
    spec: SliceSpec, p: FixedPoint, root: Tuple[int, ...]
) -> Tuple[SliceSpec, FixedPoint]:
    """Project p onto the wall ker(root): a rank-1 slice with 0-slots retained.

    Slot i carries k_i = |<delta_i, root>| in {0, 1}; the image point is
    delta'_i = <delta_i, root> omega; the new target is <mu, root> omega.
    """
    if root not in spec.cartan._column:
        raise ValueError(f"{root} is not a root")
    a1 = CartanDatum("A", 1)
    lam, delta = [], []
    for d in p:
        v = sum(map(mul, d, root))
        if v not in (-1, 0, 1):
            raise AssertionError("non-minuscule pairing in wall projection")
        lam.append(abs(v))
        delta.append((v,))
    wall_spec = SliceSpec(a1, lam, (sum(map(mul, spec.mu, root)),))
    return wall_spec, FixedPoint(delta)

