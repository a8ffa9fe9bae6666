"""Root-system engine for the simple types A-G.

Coordinate conventions used throughout the package:

  * A ``Coweight`` is a vector in the fundamental-coweight basis
    ``omega_1 .. omega_rank``.  The j-th simple coroot ``alpha_j`` is
    column j of the Cartan matrix in this basis.
  * An ``AWeightForm`` is a linear functional on coweights, written in the
    simple-root basis ``alphacheck_1 .. alphacheck_rank``.  Roots live here.
  * ``pairing(coweight, form)`` is the plain dot product of coordinates,
    so <omega_i, alphacheck_j> = delta_ij.
  * The invariant form on coweights is normalized so that the shortest
    simple coroot has squared length exactly 2.

Cartan matrices follow Bourbaki numbering with
A[i][j] = <alpha_j, alphacheck_i>.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .symalg import _norm_scalar

_INT = {int}


class _Vector:
    """Immutable exact coordinate vector; base for Coweight/AWeightForm."""

    __slots__ = ("coords", "_hash")

    def __init__(self, coords: Iterable):
        coords = tuple(coords)
        # almost every vector is integral, and plain ints need no normalizing
        self.coords = coords if {*map(type, coords)} <= _INT else tuple(map(_norm_scalar, coords))
        self._hash = None

    @classmethod
    def _of(cls, coords: Tuple[int, ...]):
        """The vector on a tuple of ints, taken as it is."""
        v = object.__new__(cls)
        v.coords = coords
        v._hash = None
        return v

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if len(other.coords) != len(self.coords):
            raise ValueError("rank mismatch")

    def __add__(self, other):
        self._check(other)
        return type(self)(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other):
        self._check(other)
        return type(self)(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return type(self)(-a for a in self.coords)

    def __mul__(self, scalar):
        return type(self)(a * _norm_scalar(scalar) for a in self.coords)

    __rmul__ = __mul__

    def __eq__(self, other):
        return type(other) is type(self) and self.coords == other.coords

    def __hash__(self):
        # vectors key the point index (a point hashes its steps) and the
        # datum's root tables, so the same vector is hashed far more often
        # than built
        if self._hash is None:
            self._hash = hash((type(self).__name__, self.coords))
        return self._hash

    def __lt__(self, other):
        self._check(other)
        return self.coords < other.coords

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coords)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(str(c) for c in self.coords)})"


class Coweight(_Vector):
    """Vector in the fundamental-coweight basis."""


class AWeightForm(_Vector):
    """Linear functional on coweights, in the simple-root basis."""


def pairing(c: Coweight, f: AWeightForm):
    """Exact pairing <c, f>; integer whenever both vectors are integral."""
    if len(c) != len(f):
        raise ValueError("rank mismatch")
    return sum(a * b for a, b in zip(c.coords, f.coords))


def _invert_integer(rows):
    """Inverse of a nonsingular integer matrix, as integer rows and a
    denominator per row: row i of the inverse is rows[i] / dens[i].

    Fraction-free Gauss-Jordan: every row operation is an integer
    combination, and each row is divided by the gcd of its entries.
    """
    n = len(rows)
    aug = [list(rows[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        pivot_row = aug[col]
        pivot = pivot_row[col]
        for r in range(n):
            factor = aug[r][col]
            if r != col and factor:
                row = [pivot * x - factor * y for x, y in zip(aug[r], pivot_row)]
                g = gcd(*row)
                aug[r] = [x // g for x in row]
    return tuple(tuple(row[n:]) for row in aug), tuple(aug[i][i] for i in range(n))


def _build_cartan_matrix(letter: str, rank: int):
    n = rank
    if letter == "A":
        ok = n >= 1
        edges = {}
    elif letter == "B":
        ok = n >= 2
        edges = {(n - 1, n): -1, (n, n - 1): -2}
    elif letter == "C":
        ok = n >= 2
        edges = {(n - 1, n): -2, (n, n - 1): -1}
    elif letter == "D":
        ok = n >= 3
        edges = {}
    elif letter == "E":
        ok = n in (6, 7, 8)
        edges = {}
    elif letter == "F":
        ok = n == 4
        edges = {(2, 3): -1, (3, 2): -2}
    elif letter == "G":
        ok = n == 2
        edges = {(1, 2): -3, (2, 1): -1}
    else:
        raise ValueError(f"unknown type letter {letter!r}")
    if not ok:
        raise ValueError(f"rank {rank} is not valid for type {letter}")

    # 1-based adjacency of the Dynkin diagram.
    if letter in ("A", "B", "C", "F", "G"):
        bonds = [(i, i + 1) for i in range(1, n)]
    elif letter == "D":
        bonds = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    else:  # E: chain 1-3-4-5-..-n with node 2 hanging off node 4
        bonds = [(1, 3), (3, 4), (2, 4)] + [(i, i + 1) for i in range(4, n)]

    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for (i, j) in bonds:
        a[i - 1][j - 1] = edges.get((i, j), -1)
        a[j - 1][i - 1] = edges.get((j, i), -1)
    return tuple(tuple(row) for row in a)


_ROOT_COUNT = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


def _minuscule_indices(letter: str, rank: int) -> frozenset:
    if letter == "A":
        return frozenset(range(1, rank + 1))
    if letter == "B":
        return frozenset({rank})
    if letter == "C":
        return frozenset({1})
    if letter == "D":
        return frozenset({1, rank - 1, rank})
    if letter == "E" and rank == 6:
        return frozenset({1, 6})
    if letter == "E" and rank == 7:
        return frozenset({7})
    return frozenset()


class CartanDatum:
    """Immutable root-system database for one simple type.

    Public indices (simple roots, fundamental coweights, minuscule set) are
    1-based, matching the usual numbering of Dynkin diagrams.

    The datum is built on integers: the root closure runs on int tuples, and
    the inverse Cartan matrix comes from fraction-free elimination as integer
    rows over a denominator each, so that only the n^2 entries of the gram
    matrix are Fractions.

    A root is its column, its position in root_list, and the root tables
    are kept by column: coroots, half_lengths (half the squared length of
    each coroot) and _slots, (slot, sign) with the root sign times the
    positive root of its slot, a slot being the place of a +-pair in
    _root_pairs.  slot_forms are the RootMonomial forms of those positive
    roots, by slot, and h.  wall_chambers is the one memo, by slot: the
    closed-form chambers on either side of each wall, built when a job
    first asks for that wall; every other table is fixed at construction.
    """

    def __init__(self, type_letter: str, rank: int):
        self.type_letter = type_letter
        self.rank = rank
        self.cartan_matrix = _build_cartan_matrix(type_letter, rank)
        a = self.cartan_matrix
        n = rank

        for i in range(n):
            assert a[i][i] == 2
            for j in range(n):
                if i != j:
                    assert a[i][j] in (0, -1, -2, -3)

        # symmetrizers: d_i * A[i][j] = d_j * A[j][i], normalized min(2 d_i)=2.
        # Along each bond d_j = d_i * A[i][j] / A[j][i]; every d found so far
        # is first scaled by |A[j][i]|, so that they all stay integers.
        d = [0] * n
        d[0] = 1
        todo = [0]
        while todo:
            i = todo.pop()
            for j in range(n):
                if a[i][j] != 0 and i != j and not d[j]:
                    d = [x * -a[j][i] for x in d]
                    d[j] = d[i] // a[j][i] * a[i][j]
                    todo.append(j)
        scale = min(d)
        self.symmetrizers = tuple(_norm_scalar(Fraction(x, scale)) for x in d)
        for i in range(n):
            for j in range(n):
                assert self.symmetrizers[i] * a[i][j] == self.symmetrizers[j] * a[j][i]

        # gram matrix of the invariant form: inner(c, c') = c^T (D A^-1) c'
        self._inverse_rows, self._inverse_dens = _invert_integer(a)
        self._gram = tuple(
            tuple(Fraction(d_i * x, den) for x in row)
            for d_i, row, den in zip(self.symmetrizers, self._inverse_rows, self._inverse_dens)
        )

        # positive roots (simple-root coordinates) with their coroots
        # (fundamental-coweight coordinates) by simultaneous reflection
        # closure on int tuples: s_k permutes the positive roots other than
        # alpha_k.  A reflection keeps lengths, so each root carries the half
        # squared length of its coroot from the simple coroot it started at:
        # (alpha_j, alpha_j) / 2 = d_j.  s_k moves a root beta by
        # <alpha_k, beta> = <beta-check, alpha_k-check> * d_k / half, read off
        # the coroot: the two pairings differ by the ratio of the lengths.
        # Column j of A is the simple coroot alpha_j as a coweight.
        #
        # Each root also carries w(4v), for the word w that reached it from
        # alpha_j and v = rho-check - omega_j-check (1 in every coordinate
        # but a 0 at j).  v pairs with a positive root beta to ht(beta) -
        # c_j(beta) >= 1 unless beta = alpha_j, and |<alpha_j-check, beta>|
        # <= 3, so 4v +- alpha_j-check lie on the two sides of ker alpha_j
        # and of no other wall; their images under w do the same for
        # ker w(alpha_j).
        #
        # A queue entry holds a root, the coweights of the root it was
        # reflected from and the index k of that reflection; s_k(c) = c - c_k
        # * (column k) moves them when the root is taken, so a root queued
        # twice is moved once.  alpha_j enters as s_j(-alpha_j).
        self._simple_coroots = columns = [tuple(row[j] for row in a) for j in range(n)]
        simple = [tuple(int(k == j) for k in range(n)) for j in range(n)]
        seen: Dict[tuple, tuple] = {}
        bases: Dict[tuple, tuple] = {}
        d = self.symmetrizers
        queue = [(simple[j], tuple([-x for x in columns[j]]),
                  tuple([4 * (k != j) for k in range(n)]), d[j], j) for j in range(n)]
        while queue:
            form, cow, base, half, k = queue.pop()
            if form in seen:
                continue
            column, s, t = columns[k], cow[k], base[k]
            cow = tuple([c - s * x for c, x in zip(cow, column)])
            if t:
                base = tuple([c - t * x for c, x in zip(base, column)])
            seen[form] = (cow, half)
            bases[form] = base
            for k, s in enumerate(cow):
                if s and form != simple[k]:
                    moved = form[:k] + (form[k] - s * d[k] // half,) + form[k + 1:]
                    if moved not in seen:
                        queue.append((moved, cow, base, half, k))
        positive = list(seen)
        if any(min(f) < 0 for f in positive):
            raise AssertionError(f"{type_letter}{rank}: a reflection left the positive roots")
        # the roots are closed under negation by construction
        for f in positive:
            cow, half = seen[f]
            seen[tuple(-x for x in f)] = (tuple(-x for x in cow), half)
        if len(seen) != _ROOT_COUNT[type_letter](rank):
            raise AssertionError(f"{type_letter}{rank}: wrong number of roots")
        coords = sorted(seen)
        self.root_list: Tuple[AWeightForm, ...] = tuple(map(AWeightForm._of, coords))
        # the position of each root in root_list: its column, the one key of
        # the tables indexed by root (chamber sign vectors, slot-step
        # pairings, root counts and the tables below)
        self._column: Dict[AWeightForm, int] = {f: i for i, f in enumerate(self.root_list)}
        self.coroots: Tuple[Coweight, ...] = tuple(Coweight._of(seen[f][0]) for f in coords)
        self.half_lengths: Tuple[int, ...] = tuple(seen[f][1] for f in coords)
        # the column of each positive root and the column of its negative, in
        # column order of the positive roots: a pair's place here is its slot.
        # Tangent weights walk the first of each pair and mirror it onto the
        # second
        column = {f: i for i, f in enumerate(coords)}
        self._root_pairs: Tuple[Tuple[int, int], ...] = tuple(sorted(
            (column[f], column[tuple([-x for x in f])]) for f in positive))
        # (slot, sign) by column: the root is sign times its slot's positive root
        slots: list = [None] * len(coords)
        for slot, (col, opposite) in enumerate(self._root_pairs):
            slots[col], slots[opposite] = (slot, 1), (slot, -1)
        self._slots: Tuple[Tuple[int, int], ...] = tuple(slots)
        # the forms of the RootMonomial exponent slots: the positive roots as
        # (a_1..a_r, 0), by slot, and then h
        self.slot_forms: Tuple[tuple, ...] = tuple(
            coords[col] + (0,) for col, _ in self._root_pairs) + ((0,) * n + (1,),)
        # w(4v) by slot; its wall witnesses are w(4v) +- coroot
        self._wall_bases = tuple(bases[coords[col]] for col, _ in self._root_pairs)
        # filled on demand by stab_general.wall_adjacent_chambers, and the
        # datum's one memo: the two chambers of each slot's witnesses
        self.wall_chambers: Dict[int, Tuple["Chamber", "Chamber"]] = {}

        self.minuscule_indices = _minuscule_indices(type_letter, rank)
        self.two_rho_check = AWeightForm(sum(column) for column in zip(*positive))

    # -- basis elements (1-based indices) --------------------------------

    def fundamental_coweight(self, i: int) -> Coweight:
        return Coweight(int(j == i - 1) for j in range(self.rank))

    def zero_coweight(self) -> Coweight:
        return Coweight([0] * self.rank)

    def coroot_coordinates(self, c: Coweight) -> Optional[List[int]]:
        """Coordinates of c in the simple-coroot basis, or None if not integral."""
        coeffs = []
        for row, den in zip(self._inverse_rows, self._inverse_dens):
            x = sum(map(mul, row, c.coords))
            if x % den:
                return None
            coeffs.append(int(x // den))
        return coeffs

    # -- pairings and the invariant form ---------------------------------

    def pairing(self, c: Coweight, f: AWeightForm):
        if len(c) != self.rank or len(f) != self.rank:
            raise ValueError("rank mismatch")
        return pairing(c, f)

    def inner(self, c1: Sequence, c2: Sequence):
        """Weyl-invariant form on coweights or their coordinate tuples;
        shortest simple coroot has (x,x) = 2."""
        if len(c1) != self.rank or len(c2) != self.rank:
            raise ValueError("rank mismatch")
        c2 = tuple(c2)
        return sum(x * g * y for x, row in zip(c1, self._gram) if x
                   for g, y in zip(row, c2) if y)

    def sharp(self, c: Sequence) -> AWeightForm:
        """The functional (c, -) as a weight form, c a coweight or its
        coordinate tuple: <c', sharp(c)> = inner(c, c')."""
        c = tuple(c)
        return AWeightForm(sum(map(mul, column, c)) for column in zip(*self._gram))

    # -- Weyl group -------------------------------------------------------

    def reflect_coweight(self, j: int, c: Coweight) -> Coweight:
        """Simple reflection s_j on coweights: c - <c, alphacheck_j> alpha_j."""
        t = c.coords[j - 1]
        if t == 0:
            return c
        return Coweight(
            c.coords[i] - t * self.cartan_matrix[i][j - 1] for i in range(self.rank)
        )

    def reflect_form(self, j: int, f: AWeightForm) -> AWeightForm:
        """Simple reflection s_j on weight forms (dual action)."""
        t = sum(f.coords[i] * self.cartan_matrix[i][j - 1] for i in range(self.rank))
        if t == 0:
            return f
        return AWeightForm(
            f.coords[k] - (t if k == j - 1 else 0) for k in range(self.rank)
        )

    def weyl_orbit(self, c: Coweight) -> frozenset:
        if not c.is_integral():
            raise ValueError("weyl_orbit expects an integral coweight")
        return frozenset(Coweight._of(v) for v in self._orbit_coords(c.coords))

    def _orbit_coords(self, coords: tuple) -> FrozenSet[tuple]:
        """The Weyl orbit of an integral coweight, on coordinate tuples."""
        seen = {coords}
        queue = [coords]
        while queue:
            v = queue.pop()
            for t, column in zip(v, self._simple_coroots):
                if t:
                    w = tuple(x - t * y for x, y in zip(v, column))
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        return frozenset(seen)

    def positive_roots(self, ch: "Chamber"):
        """Roots beta-check with <witness, beta-check> > 0; half of root_list."""
        return [f for f, s in zip(self.root_list, ch.sign_vector) if s > 0]

    def __eq__(self, other):
        return (
            isinstance(other, CartanDatum)
            and other.type_letter == self.type_letter
            and other.rank == self.rank
        )

    def __hash__(self):
        return hash((self.type_letter, self.rank))

    def __repr__(self):
        return f"CartanDatum({self.type_letter!r}, {self.rank})"


class Chamber:
    """Connected component of the coweight space minus all root hyperplanes.

    Determined by any witness vector with nonzero pairing against every
    root; equality compares the sign pattern, not the witness.
    """

    def __init__(self, datum: CartanDatum, witness: Coweight):
        if len(witness) != datum.rank:
            raise ValueError("rank mismatch")
        w = witness.coords
        signs = []
        for f in datum.root_list:
            v = sum(map(mul, w, f.coords))
            if v == 0:
                raise ValueError(f"chamber witness lies on the root hyperplane of {f}")
            signs.append(1 if v > 0 else -1)
        self.datum = datum
        self.witness = witness
        self.sign_vector = tuple(signs)

    @classmethod
    def dominant(cls, datum: CartanDatum) -> "Chamber":
        return cls(datum, Coweight([1] * datum.rank))

    @classmethod
    def antidominant(cls, datum: CartanDatum) -> "Chamber":
        return cls(datum, Coweight([-1] * datum.rank))

    def __neg__(self):
        return Chamber(self.datum, -self.witness)

    def is_positive(self, f: AWeightForm) -> bool:
        return pairing(self.witness, f) > 0

    def __eq__(self, other):
        return (
            isinstance(other, Chamber)
            and other.datum == self.datum
            and other.sign_vector == self.sign_vector
        )

    def __hash__(self):
        return hash((self.datum, self.sign_vector))

    def __repr__(self):
        return f"Chamber({self.datum!r}, witness={self.witness!r})"
