from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from grslice import cartan
from grslice.cartan import CartanDatum, Chamber, Coweight
from grslice.stab_general import wall_adjacent_chambers

from helpers import (exact_inner as inner, fundamental_coweight, pairing, two_rho_check, vneg,
                     vscale, vsum, zero_coweight)


A1 = CartanDatum("A", 1)
A2 = CartanDatum("A", 2)
B2 = CartanDatum("B", 2)
C2 = CartanDatum("C", 2)


def vecs(*coords):
    return {tuple(v) for v in coords}


def simple_coroot(datum, j):
    """alphacheck_j in the omega basis: column j of the Cartan matrix."""
    return tuple(row[j - 1] for row in datum.cartan_matrix)


def simple_root_form(datum, j):
    """alpha_j in the simple-root basis: the j-th coordinate form."""
    return tuple(int(k == j - 1) for k in range(datum.rank))


# ---------------------------------------------------------------- pairing

def test_pairing_dual_bases():
    for datum in (A1, A2, B2, C2, CartanDatum("D", 4)):
        for i in range(1, datum.rank + 1):
            for j in range(1, datum.rank + 1):
                got = pairing(fundamental_coweight(datum, i), simple_root_form(datum, j))
                assert got == (1 if i == j else 0)


def test_pairing_rank1():
    omega = fundamental_coweight(A1, 1)
    alpha_check = simple_root_form(A1, 1)
    assert pairing(omega, alpha_check) == 1
    assert pairing(simple_coroot(A1, 1), alpha_check) == 2


def test_pairing_rank2_offdiagonal():
    # <alpha_1, alphacheck_2> on the rank-2 type A datum
    assert pairing(simple_coroot(A2, 1), simple_root_form(A2, 2)) == -1


def test_pairing_rank_mismatch():
    with pytest.raises(ValueError):
        pairing(Coweight([1]), (1, 0))


# ---------------------------------------------------------------- inner / sharp

def test_inner_rank1():
    alpha = simple_coroot(A1, 1)
    omega = fundamental_coweight(A1, 1)
    assert inner(A1, alpha, alpha) == 2
    assert inner(A1, omega, omega) == Fraction(1, 2)
    assert inner(A1, alpha, zero_coweight(A1)) == 0
    assert A1.gram == (((1,),), 2)


def test_sharp_rank1():
    alpha = simple_coroot(A1, 1)
    omega = fundamental_coweight(A1, 1)
    den = A1.gram.den
    assert A1.sharp(alpha) == vscale(simple_root_form(A1, 1), den)
    assert A1.sharp(omega) == (1,) and den == 2
    assert A1.sharp(zero_coweight(A1)) == (0,)


def test_inner_shortest_coroot_normalization():
    # min over simple coroots of (alpha_j, alpha_j) is exactly 2 in every type
    for datum in (A1, A2, B2, C2, CartanDatum("D", 4), CartanDatum("G", 2), CartanDatum("F", 4)):
        norms = [inner(datum, simple_coroot(datum, j), simple_coroot(datum, j))
                 for j in range(1, datum.rank + 1)]
        assert min(norms) == 2
        assert norms == [2 * d for d in datum.symmetrizers]


# ---------------------------------------------------------------- orbits

def test_orbit_rank1():
    omega = fundamental_coweight(A1, 1)
    assert A1.weyl_orbit(omega) == vecs([1], [-1])
    assert A1.weyl_orbit(zero_coweight(A1)) == vecs([0])


def test_orbit_rank2_typeA():
    orbit = A2.weyl_orbit(fundamental_coweight(A2, 1))
    assert len(orbit) == 3
    assert not any(vsum(zero_coweight(A2), *orbit))


def test_orbit_B2_spin():
    orbit = B2.weyl_orbit(fundamental_coweight(B2, 2))
    assert orbit == vecs((0, 1), (1, -1), (-1, 1), (0, -1))


def test_orbit_C2_vector():
    orbit = C2.weyl_orbit(fundamental_coweight(C2, 1))
    assert orbit == vecs((1, 0), (-1, 1), (1, -1), (-1, 0))


# ---------------------------------------------------------------- matrices, symmetrizers

def test_hardcoded_rank2_matrices():
    assert B2.cartan_matrix == ((2, -1), (-2, 2))
    assert C2.cartan_matrix == ((2, -2), (-1, 2))
    assert CartanDatum("G", 2).cartan_matrix == ((2, -3), (-1, 2))
    f4 = CartanDatum("F", 4).cartan_matrix
    assert f4[1][2] == -1 and f4[2][1] == -2


@pytest.mark.parametrize("matrix, message", [
    (((2, -1), (-1, 3)), "the A2 matrix is not a Cartan matrix"),
    (((2, -4), (-1, 2)), "the A2 matrix is not a Cartan matrix"),
    # a cycle whose bonds no symmetrizer balances
    (((2, -1, -1), (-1, 2, -1), (-2, -1, 2)), "the A3 symmetrizers do not symmetrize"),
])
def test_the_datum_checks_its_matrix_and_symmetrizers(monkeypatch, matrix, message):
    # the checks raise AssertionError themselves, so python -O keeps them
    monkeypatch.setattr(cartan, "_build_cartan_matrix", lambda letter, rank: matrix)
    with pytest.raises(AssertionError, match=f"^{message}$"):
        CartanDatum("A", len(matrix))


def test_symmetrizers():
    assert B2.symmetrizers == (2, 1)
    assert C2.symmetrizers == (1, 2)
    assert CartanDatum("B", 3).symmetrizers == (2, 2, 1)
    assert CartanDatum("C", 3).symmetrizers == (1, 1, 2)
    assert CartanDatum("F", 4).symmetrizers == (2, 2, 1, 1)
    assert CartanDatum("G", 2).symmetrizers == (1, 3)
    assert CartanDatum("D", 4).symmetrizers == (1, 1, 1, 1)


def test_invalid_ranks():
    for letter, rank in (("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)):
        with pytest.raises(ValueError):
            CartanDatum(letter, rank)


# ---------------------------------------------------------------- roots

def test_root_counts():
    table = {
        ("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("A", 4): 20,
        ("B", 2): 8, ("B", 3): 18, ("C", 2): 8, ("C", 3): 18,
        ("D", 3): 12, ("D", 4): 24, ("D", 5): 40,
        ("E", 6): 72, ("E", 7): 126, ("E", 8): 240,
        ("F", 4): 48, ("G", 2): 12,
    }
    for (letter, rank), count in table.items():
        assert len(CartanDatum(letter, rank).root_list) == count


def test_root_list_closed_under_negation_and_reflection():
    for datum in (A2, B2, C2, CartanDatum("D", 4), CartanDatum("G", 2)):
        roots = set(datum.root_list)
        for f in roots:
            assert vneg(f) in roots
            for j in range(1, datum.rank + 1):
                assert datum.reflect_form(j, f) in roots


def test_positive_roots_B2_C2():
    assert set(B2.positive_roots(Chamber.dominant(B2))) == vecs((1, 0), (0, 1), (1, 1), (2, 1))
    assert set(C2.positive_roots(Chamber.dominant(C2))) == vecs((1, 0), (0, 1), (1, 1), (1, 2))


def test_positive_roots_rank2_typeA():
    assert set(A2.positive_roots(Chamber.dominant(A2))) == vecs((1, 0), (0, 1), (1, 1))
    assert set(A1.positive_roots(Chamber.dominant(A1))) == vecs((1,))


def test_coroot_of_root():
    for datum in (A1, A2, B2, C2, CartanDatum("D", 4), CartanDatum("G", 2)):
        for f, c in zip(datum.root_list, datum.coroots):
            assert pairing(c, f) == 2
            # sharp(coroot) is proportional to the root with a positive ratio
            s = datum.sharp(c)
            ratio = {Fraction(a, b) for a, b in zip(s, f) if b != 0}
            assert len(ratio) == 1 and ratio.pop() > 0
        for j in range(1, datum.rank + 1):
            column = datum._column[simple_root_form(datum, j)]
            assert datum.coroots[column] == simple_coroot(datum, j)


def test_two_rho_check_rank1():
    # the reference sum of the positive roots that the dimension tests use
    assert two_rho_check(A1) == (1,)
    assert two_rho_check(A2) == (2, 2)
    assert two_rho_check(B2) == (4, 3)


# ---------------------------------------------------------------- minuscule set

# the minuscule fundamental coweights of each type, as tabulated (Bourbaki
# numbering): every omega_i in type A, the spin node in B, omega_1 in C, the
# vector and both half-spin nodes in D, omega_1 and omega_6 in E6, omega_7 in
# E7, and none in E8, F4 and G2
MINUSCULE = {
    ("A", 1): {1}, ("A", 2): {1, 2}, ("A", 3): {1, 2, 3}, ("A", 4): {1, 2, 3, 4},
    ("A", 5): {1, 2, 3, 4, 5}, ("A", 6): {1, 2, 3, 4, 5, 6},
    ("A", 7): {1, 2, 3, 4, 5, 6, 7}, ("A", 8): {1, 2, 3, 4, 5, 6, 7, 8},
    ("A", 9): {1, 2, 3, 4, 5, 6, 7, 8, 9},
    ("B", 2): {2}, ("B", 3): {3}, ("B", 4): {4}, ("B", 5): {5}, ("B", 6): {6}, ("B", 7): {7},
    ("B", 8): {8}, ("B", 9): {9},
    ("C", 2): {1}, ("C", 3): {1}, ("C", 4): {1}, ("C", 5): {1}, ("C", 6): {1}, ("C", 7): {1},
    ("C", 8): {1}, ("C", 9): {1},
    ("D", 3): {1, 2, 3}, ("D", 4): {1, 3, 4}, ("D", 5): {1, 4, 5}, ("D", 6): {1, 5, 6},
    ("D", 7): {1, 6, 7}, ("D", 8): {1, 7, 8}, ("D", 9): {1, 8, 9},
    ("E", 6): {1, 6}, ("E", 7): {7}, ("E", 8): set(), ("F", 4): set(), ("G", 2): set(),
}


def test_minuscule_indices():
    # the set the datum derives from its positive roots is the table's
    assert len(MINUSCULE) == 37
    for (letter, rank), expected in MINUSCULE.items():
        datum = CartanDatum(letter, rank)
        assert type(datum.minuscule_indices) is frozenset
        assert datum.minuscule_indices == expected, (letter, rank)


def test_minuscule_orbit_pairings():
    # a fundamental coweight is listed as minuscule exactly when all its
    # orbit pairings against roots stay within {0, +-1}
    for datum in (A2, B2, C2, CartanDatum("D", 4), CartanDatum("G", 2)):
        for i in range(1, datum.rank + 1):
            orbit = datum.weyl_orbit(fundamental_coweight(datum, i))
            small = all(
                pairing(v, f) in (-1, 0, 1) for v in orbit for f in datum.root_list
            )
            assert small == (i in datum.minuscule_indices)


# ---------------------------------------------------------------- chambers

def test_chamber_equality_by_sign_vector():
    assert Chamber(A2, Coweight([1, 2])) == Chamber.dominant(A2)
    assert Chamber.dominant(A2) != Chamber.antidominant(A2)
    assert -Chamber.dominant(A2) == Chamber.antidominant(A2)
    assert Chamber.dominant(A2) != Chamber.dominant(A1)


def test_chamber_rejects_wall_witness():
    with pytest.raises(ValueError):
        Chamber(A2, Coweight([0, 1]))
    with pytest.raises(ValueError):
        Chamber(A2, Coweight([1, -1]))  # on the hyperplane of alphacheck_1+alphacheck_2


def test_positive_roots_halving():
    for datum in (A2, B2, C2, CartanDatum("D", 4)):
        for witness in (Coweight([1] * datum.rank), Coweight([7] + [2] * (datum.rank - 1))):
            ch = Chamber(datum, witness)
            pos = datum.positive_roots(ch)
            assert len(pos) == len(datum.root_list) // 2
            neg = datum.positive_roots(-ch)
            assert {vneg(f) for f in pos} == set(neg)


# ---------------------------------------------------------------- property tests

_DATA = [A1, A2, B2, C2, CartanDatum("A", 3), CartanDatum("D", 4)]


@st.composite
def datum_and_coweights(draw, count):
    datum = draw(st.sampled_from(_DATA))
    vecs = [
        Coweight(draw(st.lists(st.integers(-4, 4), min_size=datum.rank, max_size=datum.rank)))
        for _ in range(count)
    ]
    word = draw(st.lists(st.integers(1, datum.rank), max_size=8))
    return datum, vecs, word


@settings(max_examples=100, deadline=None)
@given(datum_and_coweights(count=2))
def test_inner_weyl_invariance(data):
    datum, (c1, c2), word = data
    w1, w2 = c1, c2
    for j in word:
        w1 = datum.reflect_coweight(j, w1)
        w2 = datum.reflect_coweight(j, w2)
    assert datum.inner(w1, w2) == datum.inner(c1, c2)


@settings(max_examples=100, deadline=None)
@given(datum_and_coweights(count=2))
def test_sharp_intertwines_pairing(data):
    datum, (c1, c2), _ = data
    assert pairing(c2, datum.sharp(c1)) == datum.inner(c1, c2)
    assert datum.inner(c1, c2) == datum.inner(c2, c1)


@settings(max_examples=60, deadline=None)
@given(datum_and_coweights(count=1))
def test_reflection_preserves_pairing_with_reflected_form(data):
    datum, (c,), word = data
    for f in datum.root_list[:6]:
        w, g = c, f
        for j in word:
            w = datum.reflect_coweight(j, w)
            g = datum.reflect_form(j, g)
        assert pairing(w, g) == pairing(c, f)


# ------------------------------------------------- integer datum against the Fraction one


def _reference_tables(datum):
    """The datum's tables as the Fraction closure and inverse built them:
    sorted roots, coroot of each root, inverse, gram matrix, symmetrizers
    and two rho-check, all from the Cartan matrix alone."""
    a = datum.cartan_matrix
    n = datum.rank
    d = [None] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if a[i][j] != 0 and i != j and d[j] is None:
                d[j] = d[i] * Fraction(a[i][j], a[j][i])
                todo.append(j)
    symmetrizers = tuple(x / min(d) for x in d)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    inverse = tuple(tuple(row[n:]) for row in aug)
    gram = tuple(tuple(symmetrizers[i] * inverse[i][j] for j in range(n)) for i in range(n))
    seen = {}
    queue = [(tuple(int(k == j) for k in range(n)),
              tuple(a[i][j] for i in range(n))) for j in range(n)]
    while queue:
        form, cow = queue.pop()
        if form in seen:
            continue
        seen[form] = cow
        for k in range(n):
            t = sum(form[i] * a[i][k] for i in range(n))
            moved = tuple(form[m] - (t if m == k else 0) for m in range(n))
            queue.append((moved, tuple(cow[i] - cow[k] * a[i][k] for i in range(n))))
    roots = sorted(seen)
    two_rho = vsum((0,) * n, *[f for f in roots if sum(f) > 0])
    return roots, seen, inverse, gram, symmetrizers, two_rho


ALL_TYPES = ([("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 6)]
             + [("C", r) for r in range(2, 6)] + [("D", r) for r in range(4, 7)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("letter,rank", ALL_TYPES, ids=lambda v: str(v))
def test_integer_datum_matches_the_fraction_closure(letter, rank):
    datum = CartanDatum(letter, rank)
    roots, coroot, inverse, gram, symmetrizers, two_rho = _reference_tables(datum)
    assert list(datum.root_list) == roots
    assert datum.coroots == tuple(coroot[f] for f in roots)
    assert tuple(tuple(Fraction(x, den) for x in row)
                 for row, den in zip(datum._inverse_rows, datum._inverse_dens)) == inverse
    rows, den = datum.gram
    assert tuple(tuple(Fraction(x, den) for x in row) for row in rows) == gram
    assert gcd(den, *(x for row in rows for x in row)) == 1
    assert datum.symmetrizers == symmetrizers
    assert two_rho_check(datum) == two_rho
    # the root tables by column: half squared lengths, and the slot and
    # sign of each root against the positive root of its slot
    for col, c in enumerate(datum.coroots):
        assert datum.half_lengths[col] == sum(
            x * gram[i][j] * y for i, x in enumerate(c)
            for j, y in enumerate(c)) / 2
        slot, sign = datum._slots[col]
        positive, negative = datum._root_pairs[slot]
        assert sum(roots[positive]) > 0 and roots[negative] == vneg(roots[positive])
        assert roots[col] == vscale(roots[positive], sign)
    assert datum.slot_forms == (tuple(f + (0,) for f in roots if sum(f) > 0)
                                + ((0,) * rank + (1,),))
    # a column and its opposite name one wall: a datum that meets the wall
    # first by the negative root builds the same pair of chambers
    fresh = CartanDatum(letter, rank)
    for positive, negative in datum._root_pairs:
        assert wall_adjacent_chambers(datum, positive) == wall_adjacent_chambers(fresh, negative)
    # fundamental coweights have fractional coroot coordinates in most types
    for c in [fundamental_coweight(datum, i) for i in range(1, rank + 1)] + [two_rho]:
        coeffs = [sum(x * y for x, y in zip(row, c)) for row in inverse]
        integral = all(x.denominator == 1 for x in coeffs)
        assert datum.coroot_coordinates(c) == ([int(x) for x in coeffs] if integral else None)
