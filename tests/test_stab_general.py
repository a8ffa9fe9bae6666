from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grslice import stab_general
from grslice.cartan import AWeightForm, CartanDatum, Chamber, Coweight, pairing
from grslice.slices import (
    EulerClass,
    FixedPoint,
    SliceSpec,
    adjacent_pairs,
    dimension,
    dominant_representative,
    enumerate_fixed_points,
    euler_factors,
    flip_sign,
    point_index,
    project_to_wall_slice,
    repelling_euler,
    same_wall_component,
    split_attract_repel,
    tangent_weights,
)
from grslice.stab_a1 import ExactDivisionFailure, normalize_polarization, stab_offdiag_mod_h2
from grslice.stab_general import (
    AdjacencyWitness,
    mod_h2_json,
    omega_ratio,
    sigma_sign,
    stab_mod_h2,
    wall_adjacent_chambers,
)
from grslice.symalg import Polynomial
from helpers import random_minuscule_specs, reference_wall_chambers, sampled_sigma_signs

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


def a1_spec(l, k):
    return SliceSpec(A1, [1] * l, Coweight([k]))


def fp(*coweights):
    return FixedPoint(coweights)


def ix(spec, *points):
    """The point index of each point, as the wall routes key them."""
    index = point_index(spec)
    return tuple(index[p] for p in points)


def eps_prime(spec, x, ch, wall_root):
    """A-Euler class of the repelling weights transverse to the wall."""
    _, repel = split_attract_repel(tangent_weights(spec, x), ch)
    transverse = repel.filter(lambda r, n: r != wall_root and r != -wall_root)
    return euler_factors(transverse, False, {}).polynomial()


# -- adjacency classification -------------------------------------------------


def test_find_adjacency_psl3():
    p, q = ix(TSTAR_FL3, fp(E1, E2, E3), fp(E2, E1, E3))
    w = adjacent_pairs(TSTAR_FL3, CH2_PLUS).get((p, q))
    assert w == AdjacencyWitness(1, 2, E1 - E2, AWeightForm([1, 0]))
    # reversed pair needs the negative coroot, which is not chamber-positive
    assert adjacent_pairs(TSTAR_FL3, CH2_PLUS).get((q, p)) is None
    assert adjacent_pairs(TSTAR_FL3, -CH2_PLUS).get((q, p)) == AdjacencyWitness(
        1, 2, E2 - E1, AWeightForm([-1, 0])
    )


def test_find_adjacency_a1_surface():
    spec = a1_spec(3, 1)
    w = Coweight([1])
    p3, p1 = ix(spec, fp(w, w, -w), fp(-w, w, w))
    witness = adjacent_pairs(spec, CH1_PLUS).get((p3, p1))
    assert witness == AdjacencyWitness(1, 3, Coweight([2]), AWeightForm([1]))


def test_find_adjacency_three_slot_difference():
    p, q = ix(TSTAR_FL3, fp(E1, E2, E3), fp(E3, E1, E2))
    assert adjacent_pairs(TSTAR_FL3, CH2_PLUS).get((p, q)) is None


def test_wall_uniqueness_for_witnessed_pairs():
    entries = stab_mod_h2(TSTAR_FL3, CH2_PLUS)
    points = enumerate_fixed_points(TSTAR_FL3)
    for p, q in entries:
        matching = [
            root
            for root in TSTAR_FL3.cartan.root_list
            if sum(root.coords) > 0
            and same_wall_component(TSTAR_FL3, points[p], points[q]) == root
        ]
        assert len(matching) == 1


# -- wall chambers and omega --------------------------------------------------


def test_wall_adjacent_chambers_touch_only_that_wall():
    for cartan, root in ((A2, AWeightForm([1, 0])), (B2, AWeightForm([1, 1]))):
        plus, minus = wall_adjacent_chambers(cartan, root)
        diffs = [
            f
            for f, s1, s2 in zip(
                cartan.root_list, plus.sign_vector, minus.sign_vector
            )
            if s1 != s2
        ]
        assert set(diffs) == {root, -root}
    # deterministic across calls and data, and the same pair for -root
    assert wall_adjacent_chambers(A2, AWeightForm([1, 0])) == wall_adjacent_chambers(
        CartanDatum("A", 2), AWeightForm([-1, 0])
    )


def test_omega_ratio_rank1_is_one():
    p2, p1 = ix(TSTAR_P1, fp(Coweight([1]), Coweight([-1])), fp(Coweight([-1]), Coweight([1])))
    assert omega_ratio(TSTAR_P1, p2, p1, AWeightForm([1])) == (Counter(), Counter(), 1)


def test_omega_ratio_reciprocal():
    # each ratio is in lowest terms, and linear forms are primes, so the
    # product is one exactly when the factors cancel and the scalars do
    entries = stab_mod_h2(TSTAR_FL3, CH2_PLUS)
    for p, q in entries:
        root = adjacent_pairs(TSTAR_FL3, CH2_PLUS).get((p, q)).alpha_form
        up, down, scalar = omega_ratio(TSTAR_FL3, p, q, root)
        up2, down2, scalar2 = omega_ratio(TSTAR_FL3, q, p, root)
        assert up + up2 == down + down2
        assert scalar * scalar2 == 1


def test_omega_ratio_not_rational_witness():
    # two equal minuscule slots plus a dual one: some adjacent pair has an
    # omega that is a genuine ratio of root forms, not a rational number
    spec = SliceSpec(A2, [1, 1, 2], Coweight([1, 0]))
    entries = stab_mod_h2(spec, CH2_PLUS)
    assert entries
    found = False
    for p, q in entries:
        root = adjacent_pairs(spec, CH2_PLUS).get((p, q)).alpha_form
        up, down, _ = omega_ratio(spec, p, q, root)
        if up or down:
            found = True
    assert found


def test_omega_ratio_requires_common_wall():
    p, q = ix(TSTAR_FL3, fp(E1, E2, E3), fp(E3, E1, E2))
    with pytest.raises(ValueError):
        omega_ratio(TSTAR_FL3, p, q, AWeightForm([1, 0]))


# -- sigma signs ---------------------------------------------------------------


def test_sigma_sign_rank1_repelling_is_plus_one():
    for spec in (a1_spec(3, 1), a1_spec(4, 0)):
        entries = stab_mod_h2(spec, CH1_PLUS)
        signs = normalize_polarization(enumerate_fixed_points(spec), None)
        for p, q in entries:
            assert sigma_sign(spec, p, q, AWeightForm([1]), CH1_PLUS, signs) == 1


def test_sigma_sign_flips_with_polarization():
    spec = a1_spec(3, 1)
    points = enumerate_fixed_points(spec)
    entries = stab_mod_h2(spec, CH1_PLUS)
    (p, q) = next(iter(entries))
    base = sigma_sign(spec, p, q, AWeightForm([1]), CH1_PLUS, normalize_polarization(points, None))
    flipped = [-1 if x == p else 1 for x in range(len(points))]
    assert sigma_sign(spec, p, q, AWeightForm([1]), CH1_PLUS, tuple(flipped)) == -base


def test_sigma_sign_well_defined_on_fl3():
    entries = stab_mod_h2(TSTAR_FL3, CH2_PLUS)
    signs = normalize_polarization(enumerate_fixed_points(TSTAR_FL3), None)
    for p, q in entries:
        root = adjacent_pairs(TSTAR_FL3, CH2_PLUS).get((p, q)).alpha_form
        s = sigma_sign(TSTAR_FL3, p, q, root, CH2_PLUS, signs)
        assert s in (1, -1)
        # every one of 4 sampled chamber pairs next to the wall agrees
        assert sampled_sigma_signs(TSTAR_FL3, p, q, root, CH2_PLUS, signs, 4) == {s}


# -- the mod h^2 matrix ---------------------------------------------------------


def test_stab_mod_h2_specializes_to_rank1_closed_form():
    for l in range(1, 6):
        for k in range(-l, l + 1, 2):
            spec = a1_spec(l, k)
            for ch in (CH1_PLUS, CH1_MINUS):
                assert stab_mod_h2(spec, ch) == stab_offdiag_mod_h2(spec, ch)


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
    half = dimension(TSTAR_FL3) // 2
    for value in entries.values():
        value = value.polynomial()
        assert value.h_degree() == 1
        assert value.deg_a() == half - 1 == 2
        assert value.div_h().deg_a() == value.deg_a()


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
        h = Polynomial.gen(nv, nv - 1)
        entries = stab_mod_h2(spec, ch)
        points = enumerate_fixed_points(spec)
        signs = normalize_polarization(points, None)
        assert entries
        for (p, q), value in entries.items():
            w = adjacent_pairs(spec, ch).get((p, q))
            wall_spec, p1 = project_to_wall_slice(spec, points[p], w.alpha_form)
            wall_spec_q, q1 = project_to_wall_slice(spec, points[q], w.alpha_form)
            assert wall_spec == wall_spec_q
            a1_entry = stab_offdiag_mod_h2(wall_spec, CH1_PLUS)[ix(wall_spec, p1, q1)]
            images = [Polynomial.linear_form(w.alpha_form.coords, 0), h]
            z_part = a1_entry.polynomial().substitute(images)
            sides = wall_adjacent_chambers(spec.cartan, w.alpha_form)
            near_wall = next(c for c in sides if c.is_positive(w.alpha_form))
            induced = flip_sign(spec, p, ch, near_wall)
            oracle = eps_prime(spec, points[q], near_wall, w.alpha_form) * z_part
            if induced < 0:
                oracle = oracle * Polynomial.constant(nv, -1)
            assert value.polynomial() == oracle
            # same identity with both classes read in the ambient chamber
            rearranged = eps_prime(spec, points[q], ch, w.alpha_form) * z_part
            sg = sigma_sign(spec, p, q, w.alpha_form, ch, signs)
            if sg < 0:
                rearranged = rearranged * Polynomial.constant(nv, -1)
            assert value.polynomial() == rearranged


def test_stab_mod_h2_wall_crossing_invariance():
    # comparing chambers requires the same polarization on both sides; the
    # sign map converts the repelling default of one chamber into the other's
    wall_root = AWeightForm([1, 0])
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
    obj = mod_h2_json(TSTAR_FL3, CH2_PLUS, entries)
    assert set(obj) == {"entries"}
    rows = obj["entries"]
    assert len(rows) == len(entries)
    keys = [(r["p"], r["q"]) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert set(r) == {"p", "q", "alpha", "value"}
        assert AWeightForm(r["alpha"]) in TSTAR_FL3.cartan.coroot_of_root


# -- factored entries against the rational-function route ----------------------


def _reference_repelling_euler(spec, p, ch):
    """repelling_euler(keep_h=False) as the multiset route computed it: the
    ch-repelling weights split off the tangent multiset, then factored."""
    _, repel = split_attract_repel(tangent_weights(spec, enumerate_fixed_points(spec)[p]), ch)
    return euler_factors(repel, False, {})


def _reference_flip_sign(spec, p, ch1, ch2):
    """flip_sign as the multiset route computed it, weight by weight."""
    weights = tangent_weights(spec, enumerate_fixed_points(spec)[p])
    count = sum(m for (root, n), m in weights.entries.items()
                if not ch1.is_positive(root) and ch2.is_positive(root))
    return -1 if count % 2 else 1


def _reference_omega(spec, p, q, root):
    """omega_ratio as the multiset route computed it, in every call: the
    multiset differences of the two repelling Euler classes, on both sides
    of the wall, for chambers of the independent sampler."""
    canon = root if sum(root.coords) > 0 else -root
    points = enumerate_fixed_points(spec)
    assert same_wall_component(spec, points[p], points[q]) == canon
    results = []
    for ch in reference_wall_chambers(spec.cartan, canon, 1):
        e_q = _reference_repelling_euler(spec, q, ch)
        e_p = _reference_repelling_euler(spec, p, ch)
        results.append((e_q.factors - e_p.factors, e_p.factors - e_q.factors,
                        e_q.scalar / e_p.scalar))
    assert results[0] == results[1]
    return results[0]


def _reference_omega_ratio(spec, p, q, root):
    """omega_ratio as a numerator and denominator polynomial."""
    up, down, scalar = _reference_omega(spec, p, q, root)
    nv = spec.cartan.rank + 1
    return EulerClass(nv, up, scalar).polynomial(), EulerClass(nv, down, 1).polynomial()


def _reference_stab_mod_h2(spec, ch, polarization_signs=None):
    """stab_mod_h2 as numerator and denominator polynomials of
    omega * sign * e(repelling) * h / alpha."""
    n = len(enumerate_fixed_points(spec))
    signs = normalize_polarization(range(n), polarization_signs)
    nv = spec.cartan.rank + 1
    h = Polynomial.gen(nv, nv - 1)
    eps = [_reference_repelling_euler(spec, x, ch).polynomial() for x in range(n)]
    out = {}
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            witness = adjacent_pairs(spec, ch).get((p, q))
            if witness is None:
                continue
            num, den = _reference_omega_ratio(spec, p, q, witness.alpha_form)
            alpha_poly = Polynomial.linear_form(witness.alpha_form.coords, 0)
            out[(p, q)] = (num * (signs[p] * eps[p] * h), den * alpha_poly)
    return out


SMALL_DATUMS = [CartanDatum(t, r) for t, r in (("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 4))]


@st.composite
def small_slice_jobs(draw):
    """A small slice of A2, A3, B2, C2 or D4 with a chamber and a polarization."""
    datum = draw(st.sampled_from(SMALL_DATUMS))
    lam = draw(st.lists(st.sampled_from(sorted(datum.minuscule_indices)), min_size=2, max_size=3))
    total = datum.zero_coweight()
    sums = {datum.zero_coweight()}
    for i in lam:
        total = total + datum.fundamental_coweight(i)
        orbit = datum.weyl_orbit(datum.fundamental_coweight(i))
        sums = {d + s for d in orbit for s in sums}
    mu = draw(st.sampled_from(sorted(
        m for m in sums
        if 0 < pairing(total - dominant_representative(datum, m), datum.two_rho_check) <= 8
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
        assert value.polynomial() * den == num


@st.composite
def specs_with_chambers(draw):
    """A random minuscule slice with two chambers, each dominant,
    antidominant or adjacent to the wall of a drawn root."""
    spec = random_minuscule_specs(1, seed=draw(st.integers(0, 2**32)), max_dim=8)[0]
    datum = spec.cartan
    root = draw(st.sampled_from(datum.root_list))
    choices = [Chamber.dominant(datum), Chamber.antidominant(datum)]
    choices += wall_adjacent_chambers(datum, root)
    return spec, draw(st.sampled_from(choices)), draw(st.sampled_from(choices))


@settings(max_examples=40, deadline=None)
@given(specs_with_chambers())
def test_root_count_routes_match_the_multiset_routes(job):
    spec, ch1, ch2 = job
    for p in range(len(enumerate_fixed_points(spec))):
        assert repelling_euler(spec, p, ch1, False) == _reference_repelling_euler(spec, p, ch1)
        assert flip_sign(spec, p, ch1, ch2) == _reference_flip_sign(spec, p, ch1, ch2)
    for (p, q), witness in adjacent_pairs(spec, ch1).items():
        for a, b in ((p, q), (q, p)):
            expected = _reference_omega(spec, a, b, witness.alpha_form)
            assert omega_ratio(spec, a, b, witness.alpha_form) == expected
            assert omega_ratio(spec, a, b, -witness.alpha_form) == expected


def test_negative_count_raises_exact_division_failure(monkeypatch):
    # an omega with one more factor below than the entry holds cannot clear
    # its denominator
    real = stab_general.omega_ratio
    extra = Polynomial.linear_form([1, 1], 7)

    def tampered(spec, p, q, root):
        up, down, scalar = real(spec, p, q, root)
        return up, down + Counter([extra]), scalar

    monkeypatch.setattr(stab_general, "omega_ratio", tampered)
    with pytest.raises(ExactDivisionFailure, match=r"did not clear its denominator"):
        stab_mod_h2(TSTAR_FL3, CH2_PLUS)


def test_times_ratio_refuses_a_negative_count():
    a, h = Polynomial.gen(2, 0), Polynomial.gen(2, 1)
    e = EulerClass(2, Counter({a: 2}), 3)
    assert e.times_ratio(Counter({h: 1}), Counter({a: 1}), Fraction(1, 3)) == EulerClass(
        2, Counter({a: 1, h: 1}), 1
    )
    assert e.times_ratio(Counter(), Counter({h: 1}), 1) is None
    assert e.times_ratio(Counter(), Counter({a: 3}), 1) is None


# -- wall-adjacent chambers ------------------------------------------------------


ALL_TYPES = ([("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 6)]
             + [("C", r) for r in range(2, 6)] + [("D", r) for r in range(4, 7)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_wall_chambers_differ_exactly_in_their_root(letter, rank):
    cartan = CartanDatum(letter, rank)
    for root in cartan.root_list:
        plus, minus = wall_adjacent_chambers(cartan, root)
        canon = root if sum(root.coords) > 0 else -root
        assert plus.is_positive(canon) and not minus.is_positive(canon)
        flipped = {f for f, s, t in zip(cartan.root_list, plus.sign_vector, minus.sign_vector)
                   if s != t}
        assert flipped == {root, -root}
        assert plus.witness.is_integral() and minus.witness.is_integral()


@pytest.mark.parametrize("letter,rank", [("A", 1), ("A", 3), ("B", 3), ("C", 2), ("D", 4), ("G", 2)])
def test_reference_sampler_chambers_differ_exactly_in_their_root(letter, rank):
    # the sampler that the sign and omega checks compare against must itself
    # land next to the wall
    cartan = CartanDatum(letter, rank)
    for root in cartan.root_list:
        if sum(root.coords) < 0:
            continue
        chambers = reference_wall_chambers(cartan, root, 3)
        for plus, minus in zip(chambers[::2], chambers[1::2]):
            assert plus.is_positive(root) and not minus.is_positive(root)
            flipped = {f for f, s, t in zip(cartan.root_list, plus.sign_vector,
                                            minus.sign_vector) if s != t}
            assert flipped == {root, -root}
