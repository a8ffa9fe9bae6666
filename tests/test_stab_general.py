import json

import pytest
from hypothesis import given, settings, strategies as st

from grslice import cli, stab_general, verify
from grslice.cartan import CartanDatum, Chamber, Coweight
from grslice.slices import (
    AdjacencyWitness,
    RootMonomial,
    SliceSpec,
    adjacent_pairs,
    enumerate_fixed_points,
    flip_sign,
    normalize_polarization,
    point_index,
    project_to_wall_slice,
    repelling_euler,
    tangent_weights,
)
from grslice.chern import (
    bundle_weight,
    mult_matrix,
    mult_matrix_via_localization,
    reconstruct_coefficient,
)
from grslice.stab_a1 import (
    _repelling_form,
    stab_matrix,
    stab_offdiag_mod_h2,
    verify_duality,
)
from grslice.stab_general import (
    omega_ratio,
    sigma_sign,
    stab_mod_h2,
    wall_adjacent_chambers,
)
from grslice.symalg import Polynomial, monomial_key
from helpers import (
    EulerClass,
    as_counter_ratio,
    as_euler_class,
    counter_omega_ratio,
    counter_repelling_factors,
    binary_polynomial,
    catalog_slices,
    counter_stab_mod_h2,
    document,
    dominant_representative,
    entry_at,
    euler_polynomial,
    fundamental_coweight,
    gen,
    linear_form,
    pairing,
    point,
    polynomial_to_json,
    printed,
    random_minuscule_specs,
    reference_wall_chambers,
    same_wall_component,
    sampled_sigma_signs,
    substitute,
    two_rho_check,
    vneg,
    vsub,
    vsum,
    zero_coweight,
)

A1 = CartanDatum("A", 1)
A2 = CartanDatum("A", 2)
B2 = CartanDatum("B", 2)
CH1_PLUS = Chamber.dominant(A1)
CH1_MINUS = Chamber.antidominant(A1)
CH2_PLUS = Chamber.dominant(A2)

E1 = Coweight([1, 0])
E2 = Coweight([-1, 1])
E3 = Coweight([0, -1])
TSTAR_FL3 = SliceSpec(A2, [1, 1, 1], Coweight([0, 0]))
TSTAR_P1 = SliceSpec(A1, [1] * 2, Coweight([0]))


def col(datum, *coords):
    """The root_list column of the root with the given coordinates."""
    return datum._column[coords]


def a1_spec(l, k):
    return SliceSpec(A1, [1] * l, Coweight([k]))


def ix(spec, *points):
    """The point index of each point, as the wall routes key them."""
    index = point_index(spec)
    return tuple(index[p] for p in points)


def eps_prime(spec, x, ch, wall_root):
    """A-Euler class of the repelling weights transverse to the wall."""
    out = Polynomial.one(spec.cartan.rank + 1)
    for (col, n), m in tangent_weights(spec, x).items():
        root = spec.cartan.root_list[col]
        if not ch.is_positive(root) and root != wall_root and root != vneg(wall_root):
            out = out * linear_form(root, 0) ** m
    return out


# -- adjacency classification -------------------------------------------------


def test_find_adjacency_psl3():
    p, q = ix(TSTAR_FL3, point(E1, E2, E3), point(E2, E1, E3))
    w = adjacent_pairs(TSTAR_FL3, CH2_PLUS).get((p, q))
    assert w == AdjacencyWitness(1, 2, col(A2, 1, 0)) and A2.coroots[w.column] == vsub(E1, E2)
    # reversed pair needs the negative coroot, which is not chamber-positive
    assert adjacent_pairs(TSTAR_FL3, CH2_PLUS).get((q, p)) is None
    w = adjacent_pairs(TSTAR_FL3, -CH2_PLUS).get((q, p))
    assert w == AdjacencyWitness(1, 2, col(A2, -1, 0)) and A2.coroots[w.column] == vsub(E2, E1)


def test_find_adjacency_a1_surface():
    spec = a1_spec(3, 1)
    p3, p1 = ix(spec, point(1, 1, -1), point(-1, 1, 1))
    witness = adjacent_pairs(spec, CH1_PLUS).get((p3, p1))
    assert witness == AdjacencyWitness(1, 3, col(A1, 1))
    assert spec.cartan.coroots[witness.column] == Coweight([2])


def test_find_adjacency_three_slot_difference():
    p, q = ix(TSTAR_FL3, point(E1, E2, E3), point(E3, E1, E2))
    assert adjacent_pairs(TSTAR_FL3, CH2_PLUS).get((p, q)) is None


def test_wall_uniqueness_for_witnessed_pairs():
    entries = stab_mod_h2(TSTAR_FL3, CH2_PLUS)
    points = enumerate_fixed_points(TSTAR_FL3)
    for p, q in entries:
        matching = [
            root
            for root in TSTAR_FL3.cartan.root_list
            if sum(root) > 0
            and same_wall_component(TSTAR_FL3, points[p], points[q]) == root
        ]
        assert len(matching) == 1


# -- wall chambers and omega --------------------------------------------------


def test_wall_adjacent_chambers_touch_only_that_wall():
    for cartan, root in ((A2, (1, 0)), (B2, (1, 1))):
        plus, minus = wall_adjacent_chambers(cartan, cartan._column[root])
        diffs = [
            f
            for f, s1, s2 in zip(
                cartan.root_list, plus.sign_vector, minus.sign_vector
            )
            if s1 != s2
        ]
        assert set(diffs) == {root, vneg(root)}
    # deterministic across calls and data, and the same pair for -root
    assert wall_adjacent_chambers(A2, col(A2, 1, 0)) == wall_adjacent_chambers(
        CartanDatum("A", 2), col(A2, -1, 0)
    )


def test_omega_ratio_rank1_is_one():
    p2, p1 = ix(TSTAR_P1, point(Coweight([1]), Coweight([-1])), point(Coweight([-1]), Coweight([1])))
    assert omega_ratio(TSTAR_P1, p2, p1, col(A1, 1)) == ((0, 0), 1)


def test_omega_ratio_reciprocal():
    # each ratio is in lowest terms, and linear forms are primes, so the
    # product is one exactly when the exponents cancel and the scalars do
    entries = stab_mod_h2(TSTAR_FL3, CH2_PLUS)
    for p, q in entries:
        column = adjacent_pairs(TSTAR_FL3, CH2_PLUS).get((p, q)).column
        exponents, scalar = omega_ratio(TSTAR_FL3, p, q, column)
        exponents2, scalar2 = omega_ratio(TSTAR_FL3, q, p, column)
        assert all(a + b == 0 for a, b in zip(exponents, exponents2))
        assert scalar * scalar2 == 1


def test_omega_ratio_not_rational_witness():
    # two equal minuscule slots plus a dual one: some adjacent pair has an
    # omega that is a genuine ratio of root forms, not a rational number
    spec = SliceSpec(A2, [1, 1, 2], Coweight([1, 0]))
    entries = stab_mod_h2(spec, CH2_PLUS)
    assert entries
    found = False
    for p, q in entries:
        column = adjacent_pairs(spec, CH2_PLUS).get((p, q)).column
        exponents, _ = omega_ratio(spec, p, q, column)
        if any(exponents):
            found = True
    assert found


def test_omega_ratio_requires_common_wall():
    p, q = ix(TSTAR_FL3, point(E1, E2, E3), point(E3, E1, E2))
    with pytest.raises(ValueError):
        omega_ratio(TSTAR_FL3, p, q, col(A2, 1, 0))


def test_omega_ratio_refuses_a_root_off_the_pairs_wall():
    # every adjacent pair shares the wall of its witness root only, and no
    # point shares a wall component with itself
    spec = SliceSpec(A2, [1, 1, 1], Coweight([0, 0]))
    positive = [A2._column[root] for root in A2.root_list if sum(root) > 0]
    pairs = adjacent_pairs(spec, CH2_PLUS)
    assert pairs
    for (p, q), witness in pairs.items():
        root = A2.root_list[witness.column]
        canon = A2._column[root if sum(root) > 0 else vneg(root)]
        for column in positive:
            if column != canon:
                with pytest.raises(ValueError, match="do not share a wall component"):
                    omega_ratio(spec, p, q, column)
        omega_ratio(spec, p, q, canon)
        with pytest.raises(ValueError, match="do not share a wall component"):
            omega_ratio(spec, p, p, canon)


# -- sigma signs ---------------------------------------------------------------


def test_sigma_sign_rank1_repelling_is_plus_one():
    for spec in (a1_spec(3, 1), a1_spec(4, 0)):
        entries = stab_mod_h2(spec, CH1_PLUS)
        signs = normalize_polarization(enumerate_fixed_points(spec), None)
        for p, q in entries:
            assert sigma_sign(spec, p, q, col(A1, 1), CH1_PLUS, signs) == 1


def test_sigma_sign_flips_with_polarization():
    spec = a1_spec(3, 1)
    points = enumerate_fixed_points(spec)
    entries = stab_mod_h2(spec, CH1_PLUS)
    (p, q) = next(iter(entries))
    base = sigma_sign(spec, p, q, col(A1, 1), CH1_PLUS, normalize_polarization(points, None))
    flipped = [-1 if x == p else 1 for x in range(len(points))]
    assert sigma_sign(spec, p, q, col(A1, 1), CH1_PLUS, tuple(flipped)) == -base


def test_sigma_sign_well_defined_on_fl3():
    entries = stab_mod_h2(TSTAR_FL3, CH2_PLUS)
    signs = normalize_polarization(enumerate_fixed_points(TSTAR_FL3), None)
    for p, q in entries:
        column = adjacent_pairs(TSTAR_FL3, CH2_PLUS).get((p, q)).column
        s = sigma_sign(TSTAR_FL3, p, q, column, CH2_PLUS, signs)
        assert s in (1, -1)
        # every one of 4 sampled chamber pairs next to the wall agrees
        assert sampled_sigma_signs(TSTAR_FL3, p, q, column, CH2_PLUS, signs, 4) == {s}


def test_sigma_sign_is_four_flip_signs_on_the_higher_rank_catalog():
    # flip_sign against its definition, the parity of the tangent weights
    # that change side, and sigma_sign against the product of four of them
    checked = 0
    for spec, ch, signs in catalog_slices("higher-rank"):
        signs = normalize_polarization(enumerate_fixed_points(spec), signs)
        points = enumerate_fixed_points(spec)
        for (p, q), w in adjacent_pairs(spec, ch).items():
            for wall in wall_adjacent_chambers(spec.cartan, w.column):
                for x in (p, q):
                    moved = sum(m for (col, _), m in tangent_weights(spec, points[x]).items()
                                if ch.sign_vector[col] < 0 < wall.sign_vector[col])
                    assert flip_sign(spec, x, ch, wall) == (-1) ** moved
                expected = (flip_sign(spec, p, ch, wall) * flip_sign(spec, q, ch, wall)
                            * signs[p] * signs[q])
                assert sigma_sign(spec, p, q, w.column, ch, signs) == expected
                checked += 1
    assert checked > 1000


# -- the mod h^2 matrix ---------------------------------------------------------


def test_stab_mod_h2_specializes_to_rank1_closed_form():
    for l in range(1, 6):
        for k in range(-l, l + 1, 2):
            spec = a1_spec(l, k)
            for ch in (CH1_PLUS, CH1_MINUS):
                assert stab_mod_h2(spec, ch) == stab_offdiag_mod_h2(spec, ch)


@pytest.mark.parametrize("spec, ch", [
    (TSTAR_FL3, Chamber.dominant(B2)),
    (TSTAR_FL3, Chamber.dominant(CartanDatum("G", 2))),
    # the same rank and number of roots: nothing fails on its own
    (SliceSpec(B2, [2, 2], Coweight([0, 0])), Chamber.dominant(CartanDatum("C", 2))),
])
def test_a_chamber_of_another_datum_is_refused_on_every_route(spec, ch):
    routes = [lambda: adjacent_pairs(spec, ch), lambda: stab_mod_h2(spec, ch),
              lambda: mult_matrix(spec, "E1", ch)]
    routes += [lambda which=which: verify.run(spec, ch, None, which)
               for which in ("all", "oracle", "wallcross")]
    for route in routes:
        with pytest.raises(ValueError, match="^chamber does not belong to the slice's Cartan datum$"):
            route()


# each route that takes a point index or a root column, with the argument
# given out of range, and what the index is
INDEX_ROUTES = [
    ("repelling_euler", "point index"), ("flip_sign", "point index"),
    ("omega_ratio p", "point index"), ("omega_ratio q", "point index"),
    ("omega_ratio column", "root column"), ("sigma_sign p", "point index"),
    ("sigma_sign q", "point index"), ("sigma_sign column", "root column"),
    ("reconstruct_coefficient p", "point index"), ("reconstruct_coefficient q", "point index"),
    ("wall_adjacent_chambers", "root column"), ("bundle_weight", "point index"),
]


@pytest.mark.parametrize("end", ["-1", "n"])
@pytest.mark.parametrize("route, what", INDEX_ROUTES, ids=[name for name, _ in INDEX_ROUTES])
def test_an_index_out_of_range_is_refused(route, what, end):
    # on A2 1,1,1 mu 0 an index of -1 wrapped to the last point or column,
    # and a point index of n raised IndexError
    spec, ch = SliceSpec(A2, [1, 1, 1], Coweight([0, 0])), CH2_PLUS
    signs = normalize_polarization(enumerate_fixed_points(spec), None)
    entries = stab_mod_h2(spec, ch, signs)
    (p, q), w = next(iter(adjacent_pairs(spec, ch).items()))
    calls = {
        "repelling_euler": lambda x: repelling_euler(spec, x, ch),
        "flip_sign": lambda x: flip_sign(spec, x, ch, -ch),
        "omega_ratio p": lambda x: omega_ratio(spec, x, q, w.column),
        "omega_ratio q": lambda x: omega_ratio(spec, p, x, w.column),
        "omega_ratio column": lambda c: omega_ratio(spec, p, q, c),
        "sigma_sign p": lambda x: sigma_sign(spec, x, q, w.column, ch, signs),
        "sigma_sign q": lambda x: sigma_sign(spec, p, x, w.column, ch, signs),
        "sigma_sign column": lambda c: sigma_sign(spec, p, q, c, ch, signs),
        "reconstruct_coefficient p": lambda x: reconstruct_coefficient(
            spec, ch, entries, x, q, "L1", signs),
        "reconstruct_coefficient q": lambda x: reconstruct_coefficient(
            spec, ch, entries, p, x, "L1", signs),
        "wall_adjacent_chambers": lambda c: wall_adjacent_chambers(spec.cartan, c),
        "bundle_weight": lambda x: bundle_weight(spec, x, "L1"),
    }
    n = len(spec.cartan.root_list if what == "root column" else enumerate_fixed_points(spec))
    bad = -1 if end == "-1" else n
    with pytest.raises(ValueError, match=f"^{what} {bad} out of range$"):
        calls[route](bad)


def test_stab_mod_h2_fl3_support_and_degrees():
    entries = stab_mod_h2(TSTAR_FL3, CH2_PLUS)
    n = len(enumerate_fixed_points(TSTAR_FL3))
    expected_pairs = {
        (p, q)
        for p in range(n)
        for q in range(n)
        if p != q and adjacent_pairs(TSTAR_FL3, CH2_PLUS).get((p, q)) is not None
    }
    assert set(entries) == expected_pairs
    assert entries
    half = TSTAR_FL3.dimension // 2
    for value in entries.values():
        # every term is h times a monomial of degree half - 1 in a
        exponents = euler_polynomial(value).terms
        assert exponents
        assert {e[-1] for e in exponents} == {1}
        assert {sum(e[:-1]) for e in exponents} == {half - 1} == {2}


def test_stab_mod_h2_factorization_oracle():
    # entry = (wall polarization at q) * (A1 wall-slice entry with the induced
    # polarization); the induced sign at p is the flip count from the ambient
    # chamber to the wall-adjacent one
    cases = [
        (TSTAR_FL3, CH2_PLUS),
        (TSTAR_FL3, Chamber(A2, Coweight([-1, 2]))),
        (SliceSpec(A2, [1, 1, 2], Coweight([1, 0])), CH2_PLUS),
        (SliceSpec(B2, [2, 2], Coweight([0, 0])), Chamber.dominant(B2)),
        (a1_spec(4, 0), CH1_PLUS),
    ]
    for spec, ch in cases:
        nv = spec.cartan.rank + 1
        h = gen(nv, nv - 1)
        entries = stab_mod_h2(spec, ch)
        points = enumerate_fixed_points(spec)
        signs = normalize_polarization(points, None)
        assert entries
        for (p, q), value in entries.items():
            w = adjacent_pairs(spec, ch).get((p, q))
            root = spec.cartan.root_list[w.column]
            wall_spec, p1 = project_to_wall_slice(spec, points[p], root)
            wall_spec_q, q1 = project_to_wall_slice(spec, points[q], root)
            assert wall_spec == wall_spec_q
            a1_entry = stab_offdiag_mod_h2(wall_spec, CH1_PLUS)[ix(wall_spec, p1, q1)]
            images = [linear_form(root, 0), h]
            z_part = substitute(euler_polynomial(a1_entry), images)
            sides = wall_adjacent_chambers(spec.cartan, w.column)
            near_wall = next(c for c in sides if c.is_positive(root))
            induced = flip_sign(spec, p, ch, near_wall)
            oracle = eps_prime(spec, points[q], near_wall, root) * z_part
            if induced < 0:
                oracle = oracle * Polynomial.constant(nv, -1)
            assert euler_polynomial(value) == oracle
            # same identity with both classes read in the ambient chamber
            rearranged = eps_prime(spec, points[q], ch, root) * z_part
            sg = sigma_sign(spec, p, q, w.column, ch, signs)
            if sg < 0:
                rearranged = rearranged * Polynomial.constant(nv, -1)
            assert euler_polynomial(value) == rearranged


def test_stab_mod_h2_wall_crossing_invariance():
    # comparing chambers requires the same polarization on both sides; the
    # sign map converts the repelling default of one chamber into the other's
    wall_root = (1, 0)
    ch_plus = CH2_PLUS
    ch_minus = Chamber(A2, Coweight([-1, 2]))  # across ker alpha_1 only
    points = enumerate_fixed_points(TSTAR_FL3)
    carried = [flip_sign(TSTAR_FL3, p, ch_plus, ch_minus) for p in range(len(points))]
    left = stab_mod_h2(TSTAR_FL3, ch_plus)
    right = stab_mod_h2(TSTAR_FL3, ch_minus, carried)
    compared = 0
    for pair in set(left) | set(right):
        if same_wall_component(TSTAR_FL3, *(points[x] for x in pair)) == wall_root:
            continue
        assert left.get(pair) == right.get(pair), pair
        compared += 1
    assert compared > 0


def test_mod_h2_json_shape():
    entries = stab_mod_h2(TSTAR_FL3, CH2_PLUS)
    obj = document("stab-mod-h2", TSTAR_FL3, CH2_PLUS)
    assert set(obj) == {"chamber", "command", "entries", "labels"}
    rows = obj["entries"]
    assert len(rows) == len(entries)
    keys = [(r["p"], r["q"]) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert set(r) == {"p", "q", "alpha", "value"}
        assert tuple(r["alpha"]) in TSTAR_FL3.cartan._column


# -- factored entries against the rational-function route ----------------------


def _weights(spec, p):
    """(root, n, mult) for each tangent weight at the point of index p."""
    roots = spec.cartan.root_list
    return [(roots[col], n, m)
            for (col, n), m in tangent_weights(spec, enumerate_fixed_points(spec)[p]).items()]


def _reference_repelling_euler(spec, p, ch, keep_h):
    """e_T of the ch-repelling half at the point of index p as a polynomial,
    the product of the ch-repelling weights root + n*h, or its e_A, with h
    set to 0, when keep_h is false."""
    out = Polynomial.one(spec.cartan.rank + 1)
    for root, n, m in _weights(spec, p):
        if not ch.is_positive(root):
            out = out * linear_form(root, n if keep_h else 0) ** m
    return out


def _reference_flip_sign(spec, p, ch1, ch2):
    """flip_sign weight by weight."""
    count = sum(m for root, n, m in _weights(spec, p)
                if not ch1.is_positive(root) and ch2.is_positive(root))
    return -1 if count % 2 else 1


def _reference_omega_ratio(spec, p, q, column):
    """omega_ratio as a numerator and denominator polynomial."""
    up, down, scalar = counter_omega_ratio(spec, p, q, column)
    nv = spec.cartan.rank + 1
    return euler_polynomial(EulerClass(nv, up, scalar)), euler_polynomial(EulerClass(nv, down, 1))


def _reference_stab_mod_h2(spec, ch, polarization_signs=None):
    """stab_mod_h2 as numerator and denominator polynomials of
    omega * sign * e(repelling) * h / alpha."""
    n = len(enumerate_fixed_points(spec))
    signs = normalize_polarization(range(n), polarization_signs)
    nv = spec.cartan.rank + 1
    h = gen(nv, nv - 1)
    eps = [_reference_repelling_euler(spec, x, ch, False) for x in range(n)]
    out = {}
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            witness = adjacent_pairs(spec, ch).get((p, q))
            if witness is None:
                continue
            num, den = _reference_omega_ratio(spec, p, q, witness.column)
            alpha_poly = linear_form(spec.cartan.root_list[witness.column], 0)
            out[(p, q)] = (num * (signs[p] * eps[p] * h), den * alpha_poly)
    return out


SMALL_DATUMS = [CartanDatum(t, r) for t, r in (("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 4))]


@st.composite
def small_slice_jobs(draw):
    """A small slice of A2, A3, B2, C2 or D4 with a chamber and a polarization."""
    datum = draw(st.sampled_from(SMALL_DATUMS))
    lam = draw(st.lists(st.sampled_from(sorted(datum.minuscule_indices)), min_size=2, max_size=3))
    total = vsum(zero_coweight(datum), *[fundamental_coweight(datum, i) for i in lam])
    sums = {zero_coweight(datum)}
    for i in lam:
        orbit = datum.weyl_orbit(fundamental_coweight(datum, i))
        sums = {vsum(d, s) for d in orbit for s in sums}
    mu = draw(st.sampled_from(sorted(
        m for m in sums
        if 0 < pairing(vsub(total, dominant_representative(datum, m)), two_rho_check(datum)) <= 8
    )))
    spec = SliceSpec(datum, lam, mu)
    # root coefficients are at most 2 in size, so no root vanishes on
    # distinct powers of 4
    order = draw(st.permutations(range(datum.rank)))
    flips = draw(st.lists(st.sampled_from((-1, 1)), min_size=datum.rank, max_size=datum.rank))
    ch = Chamber(datum, Coweight([s * 4**k for s, k in zip(flips, order)]))
    n = len(enumerate_fixed_points(spec))
    signs = draw(st.none() | st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    return spec, ch, signs


@settings(max_examples=60, deadline=None)
@given(small_slice_jobs())
def test_factored_entries_expand_to_the_rational_function_route(job):
    spec, ch, signs = job
    entries = stab_mod_h2(spec, ch, signs)
    reference = _reference_stab_mod_h2(spec, ch, signs)
    assert set(entries) == set(reference)
    for pair, value in entries.items():
        num, den = reference[pair]
        assert euler_polynomial(value) * den == num


@st.composite
def specs_with_chambers(draw):
    """A random minuscule slice with two chambers, each dominant,
    antidominant or adjacent to the wall of a drawn root."""
    spec = random_minuscule_specs(1, seed=draw(st.integers(0, 2**32)), max_dim=8)[0]
    datum = spec.cartan
    column = draw(st.sampled_from(range(len(datum.root_list))))
    choices = [Chamber.dominant(datum), Chamber.antidominant(datum)]
    choices += wall_adjacent_chambers(datum, column)
    return spec, draw(st.sampled_from(choices)), draw(st.sampled_from(choices))


@settings(max_examples=40, deadline=None)
@given(specs_with_chambers())
def test_root_count_routes_match_the_multiset_routes(job):
    spec, ch1, ch2 = job
    points = enumerate_fixed_points(spec)
    for p in range(len(points)):
        assert (euler_polynomial(repelling_euler(spec, p, ch1))
                == _reference_repelling_euler(spec, p, ch1, False))
        if spec.cartan.rank == 1:
            # the h-shifted e_T, which only the rank-one route builds
            assert (binary_polynomial(_repelling_form(spec, points[p], ch1, 1))
                    == _reference_repelling_euler(spec, p, ch1, True))
        assert flip_sign(spec, p, ch1, ch2) == _reference_flip_sign(spec, p, ch1, ch2)
    forms = spec.cartan.slot_forms
    for (p, q), witness in adjacent_pairs(spec, ch1).items():
        opposite = spec.cartan._column[vneg(spec.cartan.root_list[witness.column])]
        for a, b in ((p, q), (q, p)):
            expected = counter_omega_ratio(spec, a, b, witness.column)
            for column in (witness.column, opposite):
                assert as_counter_ratio(forms, *omega_ratio(spec, a, b, column)) == expected


REPELLING_SLICES = [
    TSTAR_FL3,
    SliceSpec(B2, [2, 2], Coweight([0, 0])),
    SliceSpec(CartanDatum("C", 2), [1, 1], Coweight([0, 0])),
    SliceSpec(CartanDatum("D", 4), [1, 3, 4], Coweight([0, 1, 0, 0])),
]


@pytest.mark.parametrize("spec", REPELLING_SLICES, ids=["A2", "B2", "C2", "D4"])
def test_repelling_euler_is_the_product_of_the_repelling_weights(spec):
    # e_A against the reference on the dominant, the antidominant and every
    # wall-adjacent chamber
    datum = spec.cartan
    chambers = {Chamber.dominant(datum), Chamber.antidominant(datum)}
    for column in range(len(datum.root_list)):
        chambers.update(wall_adjacent_chambers(datum, column))
    for ch in chambers:
        for p in range(len(enumerate_fixed_points(spec))):
            assert (euler_polynomial(repelling_euler(spec, p, ch))
                    == _reference_repelling_euler(spec, p, ch, False)), (ch, p)


def test_negative_count_raises_exact_division_failure(monkeypatch):
    # an omega with h twice below, where the entry holds it once, cannot
    # clear its denominator
    real = stab_general.omega_ratio

    def tampered(spec, p, q, column):
        exponents, scalar = real(spec, p, q, column)
        return exponents[:-1] + (exponents[-1] - 2,), scalar

    monkeypatch.setattr(stab_general, "omega_ratio", tampered)
    with pytest.raises(AssertionError, match=r"^entry \(.*\) did not clear its denominator$"):
        stab_mod_h2(TSTAR_FL3, CH2_PLUS)


def test_factored_routes_build_no_polynomial(monkeypatch, tmp_path, capsys):
    # Euler factors, bundle weights, rank-one forms and multiplication matrix
    # entries are coefficient tuples, and mod-h^2 entries exponent vectors
    # that their document expands itself: no route builds a Polynomial, not
    # even to print a table cell or to read a matrix entry
    def refuse(*args, **kwargs):
        raise AssertionError("a Polynomial was built")

    def reprinted(*args, **kwargs):
        raise AssertionError("a table miss printed the stored JSON document again")

    monkeypatch.setattr(Polynomial, "__init__", refuse)
    monkeypatch.setattr(Polynomial, "_trusted", refuse)

    d4 = CartanDatum("D", 4)
    spec = SliceSpec(d4, [1, 1], Coweight([0, 1, 0, 0]))
    ch = Chamber.dominant(d4)
    entries = stab_mod_h2(spec, ch)
    assert entries
    signs = normalize_polarization(enumerate_fixed_points(spec), None)
    for (p, q), witness in adjacent_pairs(spec, ch).items():
        omega_ratio(spec, p, q, witness.column)
        for k in range(spec.length + 1):
            reconstruct_coefficient(spec, ch, entries, p, q, ("L", k), signs)
    for p in range(len(enumerate_fixed_points(spec))):
        repelling_euler(spec, p, ch)
    bundles = [f"L{k}" for k in range(spec.length + 1)]
    bundles += [f"E{i}" for i in range(1, spec.length + 1)]
    for bundle in bundles:
        assert document("mult", spec, ch, bundle=bundle)["bundle"] == bundle
    assert verify.oracle(spec, ch)["ok"]
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "cache"))
    d4_args = ["--type", "D", "--rank", "4", "--lambda", "1,1", "--mu", "0,1,0,0"]
    for argv in (["stab-mod-h2", "--format", "json"], ["verify", "wallcross"],
                 ["verify", "oracle"]):
        assert cli.main(argv + d4_args) == 0, argv
        out, err = capsys.readouterr()
        assert json.loads(out) and err == ""

    a1 = SliceSpec(A1, [1] * 5, Coweight([1]))
    for a1_ch in (CH1_PLUS, CH1_MINUS):
        stab_matrix(a1, a1_ch)
        assert verify_duality(a1, a1_ch)["ok"]
        assert stab_offdiag_mod_h2(a1, a1_ch)
        via = mult_matrix_via_localization(a1, "L2", a1_ch)
        entries, _ = cli._mult_entries(via, [p.label() for p in via.basis])
        assert printed(entries)

    # both entry readers return the stored tuples, and the zero tuple elsewhere
    stab = stab_matrix(a1, CH1_PLUS)
    forms = [entry_at(a1, stab, p, q) for p in stab.points for q in stab.points]
    assert any(map(any, forms)) and not all(map(any, forms))
    mat = mult_matrix(spec, "L1", ch)
    forms = [entry_at(spec, mat, q, p) for q in mat.basis for p in mat.basis]
    assert any(map(any, forms)) and not all(map(any, forms))
    # every command's table, computed whether the table or the JSON is asked
    # for first; with the JSON entry stored, the JSON is not printed again
    a1_args = ["--type", "A", "--rank", "1", "--lambda", "1,1,1,1,1", "--mu", "1"]
    jobs = [(["fixed-points"], d4_args), (["tangent"], d4_args), (["stab-exact"], a1_args),
            (["stab-mod-h2"], d4_args), (["mult", "--bundle", "E2"], d4_args),
            (["verify", "oracle"], d4_args)]
    for k, (command, args) in enumerate(jobs):
        for route in ("table-first", "json-first"):
            monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / f"{route}-{k}"))
            if route == "json-first":
                assert cli.main(command + args) == 0
                capsys.readouterr()
            with monkeypatch.context() as m:
                if route == "json-first":
                    m.setattr(cli, "encode_json", reprinted)
                assert cli.main(command + args + ["--format", "table"]) == 0, (command, route)
            out, err = capsys.readouterr()
            assert out.count("\n") > 1 and err == "", (command, route)


def test_times_ratio_refuses_a_negative_count():
    forms = ((1, 0), (0, 1))
    e = RootMonomial(forms, (2, 0), 3)
    assert e.times_ratio((-1, 1), -1) == RootMonomial(forms, (1, 1), -3)
    assert e.times_ratio([0, -1], 1) is None
    assert e.times_ratio((-3, 0), 1) is None


@st.composite
def root_monomial_documents(draw):
    """One to three RootMonomials over shared forms: one to three distinct
    forms in one to three a-variables with small signed coefficients (so
    terms can cancel), h last, exponents up to 3 (h up to 4), and nonzero
    signed scalars."""
    rank = draw(st.integers(1, 3))
    coefficient = st.integers(-2, 2)
    forms = draw(st.lists(st.tuples(*[coefficient] * rank).filter(any).map(lambda f: f + (0,)),
                          min_size=1, max_size=3, unique=True))
    forms = tuple(forms) + ((0,) * rank + (1,),)
    count = draw(st.integers(1, 3))
    return [RootMonomial(forms,
                         tuple(draw(st.lists(st.integers(0, 3), min_size=len(forms) - 1,
                                             max_size=len(forms) - 1))) + (draw(st.integers(0, 4)),),
                         draw(st.integers(-5, 5).filter(bool)))
            for _ in range(count)]


@settings(max_examples=100, deadline=None)
@given(root_monomial_documents())
def test_packed_expansion_prints_the_polynomial_json(entries):
    # the document's expansion against the Counter reference's Polynomial,
    # term by term in increasing exponent order
    values = list(stab_general.expand_entries(entries))
    assert len(values) == len(entries)
    for value, entry in zip(values, entries):
        expected = euler_polynomial(as_euler_class(entry))
        assert value == expected.terms
        assert [(monomial_key(e), str(d)) for e, d in value.items()] == list(
            polynomial_to_json(expected).items())


def test_root_monomials_match_the_counter_reference_on_the_higher_rank_catalog():
    # e_A, omega and the mod-h^2 entries of every higher-rank catalog slice
    # and chamber, against the Counter route that factors weight by weight
    checked = 0
    for spec, ch, signs in catalog_slices("higher-rank"):
        forms = spec.cartan.slot_forms
        for p in range(len(enumerate_fixed_points(spec))):
            factors, sign = counter_repelling_factors(spec, p, ch)
            assert as_euler_class(repelling_euler(spec, p, ch)) == EulerClass(
                len(forms[-1]), factors, sign)
        for (p, q), witness in adjacent_pairs(spec, ch).items():
            assert (as_counter_ratio(forms, *omega_ratio(spec, p, q, witness.column))
                    == counter_omega_ratio(spec, p, q, witness.column))
        entries = stab_mod_h2(spec, ch, signs)
        assert {pair: as_euler_class(e) for pair, e in entries.items()} == counter_stab_mod_h2(
            spec, ch, signs)
        checked += len(entries)
    assert checked >= 700


# -- wall-adjacent chambers ------------------------------------------------------


ALL_TYPES = ([("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 6)]
             + [("C", r) for r in range(2, 6)] + [("D", r) for r in range(4, 7)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_wall_chambers_differ_exactly_in_their_root(letter, rank):
    cartan = CartanDatum(letter, rank)
    for column, root in enumerate(cartan.root_list):
        plus, minus = wall_adjacent_chambers(cartan, column)
        canon = root if sum(root) > 0 else vneg(root)
        assert plus.is_positive(canon) and not minus.is_positive(canon)
        flipped = {f for f, s, t in zip(cartan.root_list, plus.sign_vector, minus.sign_vector)
                   if s != t}
        assert flipped == {root, vneg(root)}
        assert all(type(x) is int for x in plus.witness + minus.witness)


@pytest.mark.parametrize("letter,rank", [("A", 1), ("A", 3), ("B", 3), ("C", 2), ("D", 4), ("G", 2)])
def test_reference_sampler_chambers_differ_exactly_in_their_root(letter, rank):
    # the sampler that the sign and omega checks compare against must itself
    # land next to the wall
    cartan = CartanDatum(letter, rank)
    for root in cartan.root_list:
        if sum(root) < 0:
            continue
        chambers = reference_wall_chambers(cartan, root, 3)
        for plus, minus in zip(chambers[::2], chambers[1::2]):
            assert plus.is_positive(root) and not minus.is_positive(root)
            flipped = {f for f, s, t in zip(cartan.root_list, plus.sign_vector,
                                            minus.sign_vector) if s != t}
            assert flipped == {root, vneg(root)}
