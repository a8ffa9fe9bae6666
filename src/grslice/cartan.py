"""Root-system engine for the simple types A-G.

Coordinate conventions used throughout the package:

  * A coweight is the int tuple of its coordinates in the
    fundamental-coweight basis ``omega_1 .. omega_rank``; ``Coweight`` is
    that tuple as a public input type.  The j-th simple coroot ``alpha_j``
    is column j of the Cartan matrix in this basis.
  * A root is the int tuple of a linear functional on coweights, written in
    the simple-root basis ``alphacheck_1 .. alphacheck_rank``.
  * A coweight pairs with a root by the plain dot product of the tuples,
    so <omega_i, alphacheck_j> = delta_ij.
  * The invariant form on coweights is normalized so that the shortest
    simple coroot has squared length exactly 2.

Cartan matrices follow Bourbaki numbering with
A[i][j] = <alpha_j, alphacheck_i>.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple


class Coweight(tuple):
    """A coweight given as input: the tuple of its coordinates in the
    fundamental-coweight basis.  It compares and hashes as that tuple, and
    every coweight the datum returns is a plain int tuple."""

    __slots__ = ()


class Gram(NamedTuple):
    """A gram matrix as integer rows over one common denominator."""

    rows: Tuple[Tuple[int, ...], ...]
    den: int


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


# the ranks each type letter admits
_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def _check_type(letter: str, rank: int) -> None:
    """Refuse an unknown type letter, then a rank its type does not have,
    with a ValueError each; nothing of size rank is built."""
    valid = _RANKS.get(letter) if isinstance(letter, str) else None
    if valid is None:
        raise ValueError(f"unknown type letter {letter!r}")
    if not valid(rank):
        raise ValueError(f"rank {rank} is not valid for type {letter}")


def _build_cartan_matrix(letter: str, rank: int):
    _check_type(letter, rank)
    n = rank
    # the non-simply-laced bonds
    edges = {
        "B": {(n - 1, n): -1, (n, n - 1): -2},
        "C": {(n - 1, n): -2, (n, n - 1): -1},
        "F": {(2, 3): -1, (3, 2): -2},
        "G": {(1, 2): -3, (2, 1): -1},
    }.get(letter, {})

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

    The datum is integral: roots, coroots and coweights are int tuples, the
    inverse Cartan matrix comes from fraction-free elimination as integer
    rows over a denominator each, and the gram matrix of the invariant form
    is integer rows over one common denominator, so that inner and sharp
    return ints and their callers divide once.

    A root is its column, its position in root_list, and the root tables
    are kept by column: coroots, half_lengths (half the squared length of
    each coroot) and _slots, (slot, sign) with the root sign times the
    positive root of its slot, a slot being the place of a +-pair in
    _root_pairs.  slot_forms are the RootMonomial forms of those positive
    roots, by slot, and h.  The gram matrix, the wall bases and
    two_rho_check are built when first read.
    """

    def __init__(self, type_letter: str, rank: int):
        self.type_letter = type_letter
        self.rank = rank
        self.cartan_matrix = _build_cartan_matrix(type_letter, rank)
        a = self.cartan_matrix
        n = rank

        if any(a[i][j] != 2 if i == j else a[i][j] not in (0, -1, -2, -3)
               for i in range(n) for j in range(n)):
            raise AssertionError(f"the {type_letter}{rank} matrix is not a Cartan matrix")

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
        if any(x % scale for x in d) or any(d[i] * a[i][j] != d[j] * a[j][i]
                                            for i in range(n) for j in range(n)):
            raise AssertionError(f"the {type_letter}{rank} symmetrizers do not symmetrize")
        self.symmetrizers = d = tuple(x // scale for x in d)

        self._inverse_rows, self._inverse_dens = _invert_integer(a)

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
        # A queue entry holds a root, the coroot of the root it was reflected
        # from, that root and the index k of that reflection; s_k(c) = c - c_k
        # * (column k) moves the coroot when the root is taken, so a root
        # queued twice is moved once.  alpha_j enters as s_j(-alpha_j),
        # reflected from no root.  _words keeps, in the order the roots are
        # taken, the root and reflection each was reached by, which the wall
        # bases retrace.
        self._simple_coroots = columns = [tuple(row[j] for row in a) for j in range(n)]
        simple = [tuple(int(k == j) for k in range(n)) for j in range(n)]
        seen: Dict[tuple, tuple] = {}
        words: Dict[tuple, tuple] = {}
        queue = [(simple[j], tuple([-x for x in columns[j]]), None, d[j], j) for j in range(n)]
        while queue:
            form, cow, parent, half, k = queue.pop()
            if form in seen:
                continue
            column, s = columns[k], cow[k]
            cow = tuple([c - s * x for c, x in zip(cow, column)])
            seen[form] = (cow, half)
            words[form] = (parent, k)
            for k, s in enumerate(cow):
                if s and form != simple[k]:
                    moved = form[:k] + (form[k] - s * d[k] // half,) + form[k + 1:]
                    if moved not in seen:
                        queue.append((moved, cow, form, half, k))
        self._words = words
        positive = list(seen)
        if any(min(f) < 0 for f in positive):
            raise AssertionError(f"{type_letter}{rank}: a reflection left the positive roots")
        # the roots are closed under negation by construction
        for f in positive:
            cow, half = seen[f]
            seen[tuple(-x for x in f)] = (tuple(-x for x in cow), half)
        if len(seen) != _ROOT_COUNT[type_letter](rank):
            raise AssertionError(f"{type_letter}{rank}: wrong number of roots")
        self.root_list: Tuple[Tuple[int, ...], ...] = tuple(sorted(seen))
        # the position of each root in root_list: its column, the one key of
        # the tables indexed by root (chamber sign vectors, slot-step
        # pairings, root counts and the tables below)
        self._column: Dict[tuple, int] = {f: i for i, f in enumerate(self.root_list)}
        self.coroots: Tuple[Tuple[int, ...], ...] = tuple(seen[f][0] for f in self.root_list)
        self.half_lengths: Tuple[int, ...] = tuple(seen[f][1] for f in self.root_list)
        # the column of each positive root and the column of its negative, in
        # column order of the positive roots: a pair's place here is its slot.
        # Tangent weights walk the first of each pair and mirror it onto the
        # second
        column = self._column
        self._root_pairs: Tuple[Tuple[int, int], ...] = tuple(sorted(
            (column[f], column[tuple([-x for x in f])]) for f in positive))
        # (slot, sign) by column: the root is sign times its slot's positive root
        slots: list = [None] * len(column)
        for slot, (col, opposite) in enumerate(self._root_pairs):
            slots[col], slots[opposite] = (slot, 1), (slot, -1)
        self._slots: Tuple[Tuple[int, int], ...] = tuple(slots)
        # the forms of the RootMonomial exponent slots: the positive roots as
        # (a_1..a_r, 0), by slot, and then h
        self.slot_forms: Tuple[tuple, ...] = tuple(
            self.root_list[col] + (0,) for col, _ in self._root_pairs) + ((0,) * n + (1,),)

        self.minuscule_indices = _minuscule_indices(type_letter, rank)

    @cached_property
    def gram(self) -> Gram:
        """The gram matrix D A^-1 of the invariant form: (c, c') = c^T D A^-1
        c'."""
        den = lcm(*self._inverse_dens)
        rows = [[d_i * x * (den // e) for x in row] for d_i, row, e
                in zip(self.symmetrizers, self._inverse_rows, self._inverse_dens)]
        g = gcd(den, *(x for row in rows for x in row))
        return Gram(tuple(tuple(x // g for x in row) for row in rows), den // g)

    @cached_property
    def two_rho_check(self) -> Tuple[int, ...]:
        """The sum of the positive roots."""
        return tuple(map(sum, zip(*[self.root_list[col] for col, _ in self._root_pairs])))

    @cached_property
    def _wall_bases(self) -> Tuple[Tuple[int, ...], ...]:
        """w(4v) by slot, for the word w that reached the slot's positive root
        from a simple root alpha_j and v = rho-check - omega_j-check (1 in
        every coordinate but a 0 at j); its wall witnesses are w(4v) +-
        coroot.

        v pairs with a positive root beta to ht(beta) - c_j(beta) >= 1 unless
        beta = alpha_j, and |<alpha_j-check, beta>| <= 3, so 4v +- alpha_j-check
        lie on the two sides of ker alpha_j and of no other wall; their images
        under w do the same for ker w(alpha_j).  A root is taken after the
        root it was reflected from, so each base is its parent's moved by
        the one reflection.
        """
        bases: Dict[tuple, tuple] = {}
        for form, (parent, k) in self._words.items():
            if parent is None:
                bases[form] = tuple([4 * (i != k) for i in range(self.rank)])
            else:
                base = bases[parent]
                t = base[k]
                bases[form] = (tuple([c - t * x for c, x in zip(base, self._simple_coroots[k])])
                               if t else base)
        return tuple(bases[self.root_list[col]] for col, _ in self._root_pairs)

    # -- coroot coordinates -----------------------------------------------

    def coroot_coordinates(self, c: Sequence[int]) -> Optional[List[int]]:
        """Coordinates of c in the simple-coroot basis, or None if not integral."""
        coeffs = []
        for row, den in zip(self._inverse_rows, self._inverse_dens):
            x = sum(map(mul, row, c))
            if x % den:
                return None
            coeffs.append(x // den)
        return coeffs

    # -- the invariant form ----------------------------------------------

    def inner(self, c1: Sequence[int], c2: Sequence[int]) -> int:
        """The Weyl-invariant form on coweights times the gram denominator,
        gram.den; the shortest simple coroot has (x,x) = 2."""
        if len(c1) != self.rank or len(c2) != self.rank:
            raise ValueError("rank mismatch")
        return sum(x * g * y for x, row in zip(c1, self.gram.rows) if x
                   for g, y in zip(row, c2) if y)

    def sharp(self, c: Sequence[int]) -> Tuple[int, ...]:
        """The functional (c, -) as a root-basis tuple times the gram
        denominator: <c', sharp(c)> = inner(c, c')."""
        return tuple(sum(map(mul, column, c)) for column in zip(*self.gram.rows))

    # -- Weyl group -------------------------------------------------------

    def reflect_coweight(self, j: int, c: Sequence[int]) -> Tuple[int, ...]:
        """Simple reflection s_j on coweights: c - <c, alphacheck_j> alpha_j."""
        t = c[j - 1]
        if t == 0:
            return tuple(c)
        return tuple(x - t * y for x, y in zip(c, self._simple_coroots[j - 1]))

    def reflect_form(self, j: int, f: Sequence[int]) -> Tuple[int, ...]:
        """Simple reflection s_j on roots (dual action)."""
        f = tuple(f)
        t = sum(map(mul, f, self._simple_coroots[j - 1]))
        return f[:j - 1] + (f[j - 1] - t,) + f[j:]

    def weyl_orbit(self, c: Sequence[int]) -> frozenset:
        """The Weyl orbit of an integral coweight, as int tuples."""
        c = tuple(c)
        if any(type(x) is not int for x in c):
            raise ValueError("weyl_orbit expects an integral coweight")
        seen = {c}
        queue = [c]
        while queue:
            v = queue.pop()
            for t, column in zip(v, self._simple_coroots):
                if t:
                    w = tuple(x - t * y for x, y in zip(v, column))
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        return frozenset(seen)

    def positive_roots(self, ch: "Chamber") -> List[Tuple[int, ...]]:
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
    root, an int tuple wherever the program builds one; equality compares
    the sign pattern, not the witness.
    """

    def __init__(self, datum: CartanDatum, witness: Sequence[int]):
        w = tuple(witness)
        if len(w) != datum.rank:
            raise ValueError("rank mismatch")
        signs = []
        for f in datum.root_list:
            v = sum(map(mul, w, f))
            if v == 0:
                raise ValueError(f"chamber witness lies on the root hyperplane of {f}")
            signs.append(1 if v > 0 else -1)
        self.datum = datum
        self.witness = w
        self.sign_vector = tuple(signs)

    @classmethod
    def dominant(cls, datum: CartanDatum) -> "Chamber":
        return cls(datum, (1,) * datum.rank)

    @classmethod
    def antidominant(cls, datum: CartanDatum) -> "Chamber":
        return cls(datum, (-1,) * datum.rank)

    def __neg__(self):
        return Chamber(self.datum, tuple(-x for x in self.witness))

    def is_positive(self, f: Sequence[int]) -> bool:
        return sum(map(mul, self.witness, f)) > 0

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
