import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from grslice import cli, slices, stab_a1
from grslice.cartan import CartanDatum, Chamber, Coweight
from grslice.chern import bundle_weight
from grslice.cli import CACHE_ENV, JobSpec, compute_payload, main, render
from grslice.slices import (
    AdjacencyWitness,
    SliceSpec,
    adjacent_pairs,
    enumerate_fixed_points,
    flip_sign,
    memoized,
    point_index,
    project_to_wall_slice,
    repelling_euler,
    tangent_weights,
)
from grslice.stab_general import wall_adjacent_chambers
from grslice.symalg import Polynomial

from helpers import (
    WORKLOADS,
    binary_polynomial,
    canonical,
    catalog_jobs,
    catalog_slices,
    euler_factors,
    euler_polynomial,
    fundamental_coweight,
    gen,
    oracle_down_crossings,
    oracle_up_crossings,
    pairing,
    point,
    random_minuscule_specs,
    reference_dimension,
    reference_tangent_weights,
    repelling_tangent_euler,
    same_wall_component,
    tangent_euler,
    vneg,
    vsub,
    vsum,
    zero_coweight,
)

A1 = CartanDatum("A", 1)
A2 = CartanDatum("A", 2)


def a1_spec(l, k):
    return SliceSpec(A1, [1] * l, Coweight([k]))


TSTAR_P1 = a1_spec(2, 0)
DUVAL_A4 = a1_spec(5, 3)
TSTAR_FL3 = SliceSpec(A2, [1, 1, 1], Coweight([0, 0]))

E1 = Coweight([1, 0])
E2 = Coweight([-1, 1])
E3 = Coweight([0, -1])


# ---------------------------------------------------------------- validation

def test_minuscule_gate():
    B2 = CartanDatum("B", 2)
    with pytest.raises(ValueError, match="^omega_1 is not minuscule in type B2$"):
        SliceSpec(B2, [1], Coweight([1, 0]))
    SliceSpec(B2, [2], Coweight([0, 1]))  # omega_2 is minuscule in type B


def test_mu_below_lambda_gate():
    below = "^mu is not below lambda in the coroot order$"
    with pytest.raises(ValueError, match=below):
        a1_spec(1, 0)  # lambda - mu = omega is not in the coroot lattice
    with pytest.raises(ValueError, match=below):
        a1_spec(2, 4)  # mu above lambda
    with pytest.raises(ValueError, match="^no fixed point: mu is not a weight"):
        SliceSpec(A2, [1], Coweight([2, -2]))  # below lambda but not a weight


def test_mu_must_be_integral():
    with pytest.raises(ValueError, match="integral"):
        SliceSpec(A1, [1, 1], Coweight([Fraction(1, 2)]))
    with pytest.raises(ValueError, match="integral"):
        SliceSpec(A1, [1, 1], Coweight([0, 0]))
    # an integral Fraction is the integer it equals
    spec = SliceSpec(A1, [1, 1], Coweight([Fraction(2)]))
    assert spec.mu == (2,) and type(spec.mu[0]) is int


def test_zero_slots_allowed():
    spec = SliceSpec(A1, [1, 0, 1], Coweight([0]))
    pts = enumerate_fixed_points(spec)
    assert pts == (point(-1, 0, 1), point(1, 0, -1))


# ---------------------------------------------------------------- enumeration

def test_enumerate_rank1_basic():
    assert enumerate_fixed_points(TSTAR_P1) == (point(-1, 1), point(1, -1))


def test_enumerate_duval():
    pts = enumerate_fixed_points(DUVAL_A4)
    assert len(pts) == 5
    # lex order puts the single -omega in slot 1, then slot 2, ..
    for i, p in enumerate(pts):
        assert p[i] == (-1,)
        assert sum(1 for d in p if d == (-1,)) == 1


def test_enumerate_full_flag():
    pts = enumerate_fixed_points(TSTAR_FL3)
    assert len(pts) == 6
    for p in pts:
        assert sorted(p) == sorted(point(E1, E2, E3))


def test_enumerate_binomial_counts():
    for l in range(1, 8):
        for k in range(-l, l + 1):
            if (l + k) % 2:
                continue
            assert len(enumerate_fixed_points(a1_spec(l, k))) == comb(l, (l + k) // 2)


# ---------------------------------------------------------------- dimension

def test_dimension():
    assert DUVAL_A4.dimension == 2
    assert TSTAR_FL3.dimension == 6
    assert SliceSpec(A2, [2], fundamental_coweight(A2, 2)).dimension == 0
    assert TSTAR_P1.dimension == 2


def test_dimension_matches_the_classical_formula():
    # the sum over positive roots is <lambda - mu_+, 2 rho-check>, and the
    # tangent multiplicities at every fixed point add up to it
    specs = random_minuscule_specs(300, 7, max_dim=20, max_len=5)
    specs += [spec for workload in WORKLOADS for spec, _, _ in catalog_slices(workload)]
    for spec in specs:
        assert spec.dimension == reference_dimension(spec), spec
        for p in enumerate_fixed_points(spec):
            assert sum(tangent_weights(spec, p).values()) == spec.dimension


@pytest.mark.parametrize("target, dimension", [((-1,), -1), ((1,), 1)])
def test_dimension_check_names_the_slice(monkeypatch, target, dimension):
    # a wrong lambda total gives a negative or an odd dimension: a failed
    # check, which raises AssertionError itself
    spec = a1_spec(2, 0)
    monkeypatch.setattr(SliceSpec, "lambda_total", lambda self: target)
    message = (rf"^SliceSpec\(A1, lambda=\[1, 1\], mu=\[0\]\) has dimension {dimension}, "
               "not even and nonnegative$")
    with pytest.raises(AssertionError, match=message):
        spec.dimension


def test_dimension_nondominant_target():
    # reflecting mu across a wall leaves the tangent totals unchanged,
    # so the dimension must use the dominant representative
    assert a1_spec(4, -2).dimension == a1_spec(4, 2).dimension == 2
    assert a1_spec(3, -3).dimension == 0
    b2 = CartanDatum("B", 2)
    spec = SliceSpec(b2, [2, 2, 2], Coweight((2, -1)))
    assert spec.dimension == 2
    for p in enumerate_fixed_points(spec):
        assert sum(tangent_weights(spec, p).values()) == 2


# ---------------------------------------------------------------- tangent weights

def duval_points(n):
    return enumerate_fixed_points(a1_spec(n + 1, n - 1))


def by_column(datum, entries):
    """Weights keyed by (root, n), rekeyed as tangent_weights keys them:
    (column of the root in root_list, n)."""
    return {(datum._column[root], n): m for (root, n), m in entries.items()}


def test_tangent_weights_duval_golden():
    # surface slices: tangent weights at p_i are alpha+(i-1)h and -(alpha+ih)
    alpha = (1,)
    for n in range(1, 5):
        spec = a1_spec(n + 1, n - 1)
        for i, p in enumerate(duval_points(n)):
            ws = tangent_weights(spec, p)
            assert ws == by_column(A1, {(alpha, i - 1): 1, (vneg(alpha), -i): 1})


def test_tangent_weights_point_slice():
    spec = SliceSpec(A2, [2], fundamental_coweight(A2, 2))
    (p,) = enumerate_fixed_points(spec)
    assert tangent_weights(spec, p) == {}


def test_tangent_weights_full_flag_golden():
    a1f, a2f, a3f = (1, 0), (0, 1), (1, 1)
    m1f, m2f, m3f = (-1, 0), (0, -1), (-1, -1)
    ws = tangent_weights(TSTAR_FL3, point(E1, E2, E3))
    assert ws == by_column(
        A2,
        {
            (a1f, 0): 1, (a2f, 0): 1, (a3f, 0): 1,
            (m1f, -1): 1, (m2f, -1): 1, (m3f, -1): 1,
        },
    )
    ws2 = tangent_weights(TSTAR_FL3, point(E2, E1, E3))
    assert ws2 == by_column(
        A2,
        {
            (a1f, -1): 1, (m1f, 0): 1,
            (a2f, 0): 1, (m2f, -1): 1,
            (a3f, 0): 1, (m3f, -1): 1,
        },
    )


def test_tangent_weights_against_crossing_oracles():
    for spec in random_minuscule_specs(40, seed=20260814):
        for p in enumerate_fixed_points(spec):
            ws = tangent_weights(spec, p)
            assert ws == by_column(spec.cartan, oracle_up_crossings(spec, p))
            assert ws == by_column(spec.cartan, oracle_down_crossings(spec, p))


def test_tangent_weights_sum_and_duality():
    for spec in random_minuscule_specs(40, seed=9):
        dim = spec.dimension
        for p in enumerate_fixed_points(spec):
            ws = tangent_weights(spec, p)
            assert sum(ws.values()) == dim
            roots, column = spec.cartan.root_list, spec.cartan._column
            for (col, n), m in ws.items():
                assert ws.get((column[vneg(roots[col])], -n - 1)) == m


# ---------------------------------------------------------------- integer kernel

_KERNEL_POOL = [
    CartanDatum("A", 1),
    CartanDatum("A", 3),
    CartanDatum("B", 3),
    CartanDatum("C", 3),
    CartanDatum("D", 4),
    CartanDatum("D", 5),
    CartanDatum("E", 6),
]
# largest product of orbit sizes the brute-force filter walks
_MAX_PRODUCT = 3000


def _reference_tangent_entries(spec, p):
    """The crossing rule on the sigma path, paired root by root."""
    sigma = p.sigma()
    entries = {}
    for root in spec.cartan.root_list:
        heights = [pairing(s, root) for s in sigma]
        for a, b in zip(heights, heights[1:]):
            if a == b:
                continue
            lo, hi = (a, b) if a < b else (b, a)
            decreasing = b < a
            for n in range(lo, hi):
                c2 = 2 * n + 1
                if c2 > 0 and decreasing or c2 < 0 and not decreasing:
                    entries[(root, n)] = entries.get((root, n), 0) + 1
    return entries


def _slot_orbit(datum, i):
    if i == 0:
        return [zero_coweight(datum)]
    return sorted(datum.weyl_orbit(fundamental_coweight(datum, i)))


@st.composite
def minuscule_slices(draw):
    """A random minuscule slice, zero slots included, with its slot orbits."""
    datum = draw(st.sampled_from(_KERNEL_POOL))
    choices = sorted(datum.minuscule_indices) + [0]
    lam = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=5))
    orbits = [_slot_orbit(datum, i) for i in lam]
    size = prod(len(o) for o in orbits)
    if size > _MAX_PRODUCT:
        # keep the longest prefix the brute force can afford
        while size > _MAX_PRODUCT:
            size //= len(orbits.pop())
        lam = lam[:len(orbits)]
    sums = sorted({vsum(zero_coweight(datum), *combo) for combo in product(*orbits)})
    mu = draw(st.sampled_from(sums))
    return SliceSpec(datum, lam, mu), orbits


@settings(max_examples=60, deadline=None)
@given(minuscule_slices())
def test_integer_kernel_matches_brute_force_and_sigma_rule(slice_and_orbits):
    spec, orbits = slice_and_orbits
    brute = [
        point(*combo) for combo in product(*orbits)
        if vsum(zero_coweight(spec.cartan), *combo) == spec.mu
    ]
    points = enumerate_fixed_points(spec)
    assert points == tuple(sorted(brute))
    for p in points:
        ws = tangent_weights(spec, p)
        assert ws == by_column(spec.cartan, _reference_tangent_entries(spec, p))
        # in document order: root coordinates, then n
        keys = [(spec.cartan.root_list[col], n) for col, n in ws]
        assert keys == sorted(keys)


# slices too long for the brute force: (datum, most slots, the chance that a
# slot steps off the top of its orbit on the path that picks mu)
_LONG_POOL = [
    (CartanDatum("A", 1), 14, 0.5),
    (CartanDatum("A", 3), 8, 0.4),
    (CartanDatum("B", 3), 8, 0.4),
    (CartanDatum("D", 4), 8, 0.4),
    (CartanDatum("E", 6), 8, 0.3),
]


def _long_slices(per_datum, seed, max_dim=24):
    """Random slices of up to the pool's slot count, zero slots included,
    each with mu the end of a random path that mostly keeps to the top of
    each orbit, redrawn while the dimension exceeds max_dim."""
    rng = random.Random(seed)
    out = []
    for datum, most, off in _LONG_POOL:
        choices = sorted(datum.minuscule_indices)
        while sum(spec.cartan is datum for spec in out) < per_datum:
            lam = [0 if rng.random() < 0.15 else rng.choice(choices)
                   for _ in range(rng.randint(most - 3, most))]
            steps = [rng.choice(_slot_orbit(datum, i)) if rng.random() < off
                     else (fundamental_coweight(datum, i) if i else zero_coweight(datum))
                     for i in lam]
            spec = SliceSpec(datum, lam, vsum(zero_coweight(datum), *steps))
            if spec.dimension <= max_dim:
                out.append(spec)
    return out


def test_one_walk_weighs_long_slices_as_each_point_alone():
    sizes = []
    for spec in _long_slices(3, seed=20261020):
        points = enumerate_fixed_points(spec)
        sizes.append(len(points))
        assert list(points) == sorted(set(points))
        orbits = [set(_slot_orbit(spec.cartan, i)) for i in spec.lambda_seq]
        for p in points:
            assert all(d in orbit for d, orbit in zip(p, orbits)) and len(p) == spec.length
            assert vsum(zero_coweight(spec.cartan), *p) == spec.mu
            # equal as dicts and in key order
            assert list(tangent_weights(spec, p).items()) == \
                list(reference_tangent_weights(spec, p).items())
        if spec.cartan.rank == 1:
            slots = spec.length - spec.lambda_seq.count(0)
            assert len(points) == comb(slots, (slots + spec.mu[0]) // 2)
    # the sample holds a slice with more points than the brute force may
    # walk paths
    assert max(sizes) > _MAX_PRODUCT


def test_points_with_equal_weights_share_one_dict():
    spec = a1_spec(12, 0)
    points = enumerate_fixed_points(spec)
    weights = [tangent_weights(spec, p) for p in points]
    assert len(weights) == 924 and len({id(ws) for ws in weights}) == 144
    for ws in weights[::7]:
        for other in weights:
            assert (other is ws) == (other == ws)
    assert tangent_weights(spec, points[5]) is weights[5]
    # the spec's distinct sets, pairwise unequal and in the order the points
    # first meet them, and each point's position among them
    sets, of = slices._weight_sets(spec)
    assert len(sets) == 144 and len(of) == 924
    assert all(a != b for a, b in combinations(sets, 2))
    assert list(dict.fromkeys(of)) == list(range(144))
    assert all(tangent_weights(spec, p) is sets[of[x]] for x, p in enumerate(points))


def test_per_set_tables_equal_their_per_point_computation():
    # _root_counts and the rank-one _lcm_cofactors work once per weight set
    # and hand each point its set's value: the same as weighing each point
    specs = {spec: None for workload in ("a1-exact", "higher-rank")
             for spec, _, _ in catalog_slices(workload)}
    assert {spec.cartan.rank for spec in specs} > {1}
    for spec in specs:
        roots, points = spec.cartan.root_list, enumerate_fixed_points(spec)
        per_point = [reference_tangent_weights(spec, p) for p in points]
        counts = []
        for ws in per_point:
            c = [0] * len(roots)
            for (col, _), m in ws.items():
                c[col] += m
            counts.append(tuple(c))
        assert slices._root_counts(spec) == tuple(counts)
        if spec.cartan.rank == 1:
            classes = []
            for ws in per_point:
                shifts, sign = Counter(), 1
                for (col, n), m in ws.items():
                    shifts[roots[col][0] * n] += m
                    sign *= roots[col][0] ** m
                classes.append((shifts, sign))
            lcm = Counter()
            for shifts, _ in classes:
                lcm |= shifts
            assert stab_a1._lcm_cofactors(spec) == (lcm, [(lcm - shifts, sign)
                                                          for shifts, sign in classes])


def test_a_point_of_another_slice_is_refused():
    spec, other = a1_spec(4, 0), a1_spec(4, 2)
    for p in enumerate_fixed_points(other):
        with pytest.raises(ValueError, match="point is not a fixed point of this slice"):
            tangent_weights(spec, p)
    with pytest.raises(ValueError, match="point is not a fixed point of this slice"):
        tangent_weights(TSTAR_FL3, point(E1, E2))
    # the bundle weights, which take a point index, refuse it too, and
    # memoize nothing for it
    for p in enumerate_fixed_points(other):
        for bundle in ("E2", "L0"):
            with pytest.raises(ValueError, match=r"^point index .* out of range$"):
                bundle_weight(spec, p, bundle)
    foreign = set(enumerate_fixed_points(other))
    assert not [args for _, args in spec._memo if foreign.intersection(args)]


def test_datum_spec_and_integer_chamber_build_no_fraction(monkeypatch):
    # the datum is integral end to end: building it, a slice on it and an
    # integer chamber, and reading the lazy parts (the gram matrix, two
    # rho-check and the wall bases), constructs no Fraction on any slice of
    # the benchmark catalogs
    jobs = {job: job.build()[1].witness for workload in WORKLOADS
            for job in catalog_jobs(workload)}

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    for job, witness in jobs.items():
        datum = CartanDatum(job.letter, job.rank)
        spec = SliceSpec(datum, job.lambda_seq, Coweight(job.mu))
        ch = Chamber(datum, witness)
        assert all(type(x) is int for x in ch.witness)
        for other in (Chamber.dominant(datum), Chamber.antidominant(datum), -ch):
            assert len(other.sign_vector) == len(datum.root_list)
        assert spec.dimension % 2 == 0
        assert type(datum.inner(spec.mu, spec.mu)) is int
        assert all(type(x) is int for x in datum.sharp(spec.mu))
        for column in range(len(datum.root_list)):
            wall_adjacent_chambers(datum, column)
    monkeypatch.undo()
    # a Fraction witness names the chamber of its integer multiples
    assert Chamber(A2, (Fraction(1, 2), Fraction(-1, 3))) == Chamber(A2, (3, -2))


def test_non_minuscule_step_is_an_internal_error(capsys, tmp_path, monkeypatch):
    # omega_1 of B2 pairs to 2 with a root; claiming it minuscule must stop
    # the pairing table, never reach a document
    b2 = CartanDatum("B", 2)
    monkeypatch.setattr(b2, "minuscule_indices", frozenset({1, 2}))
    with pytest.raises(AssertionError, match="is not minuscule"):
        SliceSpec(b2, [1], Coweight([1, 0]))
    monkeypatch.setattr(cli, "CartanDatum", lambda letter, rank: b2)
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    code = main(["tangent", "--type", "B", "--rank", "2", "--lambda", "1", "--mu", "1,0"])
    out, err = capsys.readouterr()
    assert code == 3 and err == ""
    assert out.startswith("verification failure: ") and out.count("\n") == 1


@pytest.mark.parametrize("letter, rank, lam", [
    ("A", 5, [1, 2, 3, 4, 5, 0]), ("D", 5, [1, 4, 5]), ("E", 6, [1, 6]), ("E", 7, [7, 7]),
])
def test_pairing_table_equals_the_dense_product(letter, rank, lam):
    # the table sums root columns over each step's nonzero coordinates; the
    # dense product pairs the step with every root
    datum = CartanDatum(letter, rank)
    spec = SliceSpec(datum, lam, Coweight([lam.count(i) for i in range(1, rank + 1)]))
    steps = {d for i in lam for d in _slot_orbit(datum, i)}
    assert spec._pairings == {d: tuple(sum(c * v for c, v in zip(d, f)) for f in datum.root_list)
                              for d in steps}


# ---------------------------------------------------------------- euler classes

def test_euler_class_examples():
    a = gen(2, 0)
    h = gen(2, 1)
    alpha, minus = (1,), (-1,)
    weights = by_column(A1, {(alpha, -1): 1, (minus, 0): 1})

    def euler(weights):
        return euler_polynomial(euler_factors(a1_spec(2, 0), weights))

    assert euler(weights) == -(a**2) + a * h
    assert euler({}) == Polynomial.one(2)
    assert euler(by_column(A1, {(minus, -1): 2})) == (a + h) ** 2


def test_repelling_euler_on_both_chambers():
    # the first point of DUVAL_A4 carries alpha - h and -alpha; each of the
    # two chambers repels one of them
    a = gen(2, 0)
    h = gen(2, 1)
    p0 = enumerate_fixed_points(DUVAL_A4)[0]
    assert tangent_weights(DUVAL_A4, p0) == by_column(A1, {((1,), -1): 1, ((-1,), 0): 1})
    dom = Chamber.dominant(A1)

    def euler(ch, keep_h):
        # e_T in rank one is stab_a1's form, e_A the RootMonomial of slices
        if keep_h:
            return binary_polynomial(stab_a1._repelling_form(DUVAL_A4, p0, ch, 1))
        return euler_polynomial(repelling_euler(DUVAL_A4, 0, ch))

    assert euler(dom, True) == euler(dom, False) == -a
    assert euler(-dom, True) == a - h
    assert euler(-dom, False) == a
    for ch in (dom, -dom):
        assert euler(ch, True) == euler_polynomial(repelling_tangent_euler(DUVAL_A4, 0, ch))
    # the two repelling halves make up the whole tangent space
    assert euler(dom, True) * euler(-dom, True) == euler_polynomial(tangent_euler(DUVAL_A4, 0))


# ---------------------------------------------------------------- flip signs

def test_flip_sign_examples():
    spec = DUVAL_A4
    dom = Chamber.dominant(A1)
    assert flip_sign(spec, 0, dom, dom) == 1
    assert flip_sign(spec, 0, dom, -dom) == -1


def test_flip_sign_transitive_and_witness_independent():
    chambers = [
        Chamber(A2, Coweight([1, 1])),
        Chamber(A2, Coweight([1, -2])),
        Chamber(A2, Coweight([-3, 1])),
        Chamber(A2, Coweight([-1, -1])),
    ]
    for p in range(len(enumerate_fixed_points(TSTAR_FL3))):
        for c1 in chambers:
            for c2 in chambers:
                s12 = flip_sign(TSTAR_FL3, p, c1, c2)
                assert s12 == flip_sign(TSTAR_FL3, p, c2, c1)
                for c3 in chambers:
                    assert (
                        s12 * flip_sign(TSTAR_FL3, p, c2, c3)
                        == flip_sign(TSTAR_FL3, p, c1, c3)
                    )
    # same chamber, different witnesses
    w1 = Chamber(A2, Coweight([1, 1]))
    w2 = Chamber(A2, Coweight([5, 3]))
    assert w1 == w2
    for p in range(len(enumerate_fixed_points(TSTAR_FL3))):
        assert flip_sign(TSTAR_FL3, p, w1, -w1) == flip_sign(TSTAR_FL3, p, w2, -w2)


# ---------------------------------------------------------------- walls

def test_same_wall_component_examples():
    p = point(E1, E2, E3)
    q = point(E2, E1, E3)
    assert same_wall_component(TSTAR_FL3, p, q) == (1, 0)
    r = point(E3, E1, E2)
    assert same_wall_component(TSTAR_FL3, p, r) is None
    s1, s2 = enumerate_fixed_points(TSTAR_P1)
    assert same_wall_component(TSTAR_P1, s1, s2) == (1,)
    with pytest.raises(ValueError):
        same_wall_component(TSTAR_P1, s1, s1)


def test_project_to_wall_slice():
    p = point(E1, E2, E3)
    wall_spec, image = project_to_wall_slice(TSTAR_FL3, p, (1, 0))
    assert wall_spec.lambda_seq == (1, 1, 0)
    assert wall_spec.mu == Coweight([0])
    assert image == point(1, -1, 0)
    assert image in point_index(wall_spec)
    # rank-1 projection along its own root is the identity
    s1 = point(-1, 1)
    sp, im = project_to_wall_slice(TSTAR_P1, s1, (1,))
    assert sp == TSTAR_P1 and im == s1
    # target pairing: m = <mu, root>
    spec = SliceSpec(A2, [1, 1, 2], Coweight([1, 0]))
    for q in enumerate_fixed_points(spec):
        wsp, _ = project_to_wall_slice(spec, q, (1, 0))
        assert wsp.mu == Coweight([1])


def test_projected_point_is_fixed_point_of_wall_slice():
    for spec in random_minuscule_specs(25, seed=31):
        pts = enumerate_fixed_points(spec)
        for p in pts[:6]:
            for root in spec.cartan.root_list[:4]:
                wall_spec, image = project_to_wall_slice(spec, p, root)
                assert image in point_index(wall_spec)


# ---------------------------------------------------------------- adjacent pairs

def _reference_adjacency(spec, p, q, ch):
    """The pairwise rule: delta_q = delta_p except at two slots i < j, lowered
    by the coroot of a ch-positive root at i and raised by it at j."""
    diff = [m for m in range(spec.length) if p[m] != q[m]]
    if len(diff) != 2:
        return None
    i, j = diff
    alpha = vsub(p[i], q[i])
    if vsub(q[j], p[j]) != alpha:
        return None
    column = next((col for col, c in enumerate(spec.cartan.coroots) if c == alpha), None)
    if column is None or not ch.is_positive(spec.cartan.root_list[column]):
        return None
    return AdjacencyWitness(i + 1, j + 1, column)


@st.composite
def slices_and_chambers(draw):
    """A random minuscule slice, with zero slots inserted, and a dominant,
    antidominant or random chamber."""
    spec = random_minuscule_specs(1, seed=draw(st.integers(0, 10**6)))[0]
    datum = spec.cartan
    lam = list(spec.lambda_seq)
    for position in draw(st.lists(st.integers(0, len(lam)), max_size=2)):
        lam.insert(position, 0)
    kind = draw(st.sampled_from(["dominant", "antidominant", "random"]))
    if kind == "dominant":
        ch = Chamber.dominant(datum)
    elif kind == "antidominant":
        ch = Chamber.antidominant(datum)
    else:
        witness = Coweight(draw(st.lists(st.integers(-9, 9), min_size=datum.rank,
                                         max_size=datum.rank)))
        assume(all(pairing(witness, f) for f in datum.root_list))
        ch = Chamber(datum, witness)
    return SliceSpec(datum, lam, spec.mu), ch


@settings(max_examples=80, deadline=None)
@given(slices_and_chambers())
def test_adjacent_pairs_match_the_pairwise_rule(spec_and_chamber):
    spec, ch = spec_and_chamber
    points = enumerate_fixed_points(spec)
    expected = {}
    for pi, p in enumerate(points):
        for qi, q in enumerate(points):
            witness = None if p == q else _reference_adjacency(spec, p, q, ch)
            if witness is not None:
                expected[(pi, qi)] = witness
    table = adjacent_pairs(spec, ch)
    assert table == expected
    # in order of point indices, and built once per spec and chamber
    assert list(table) == sorted(table)
    assert adjacent_pairs(spec, ch) is table


def test_memoized_keeps_one_value_per_object_function_and_arguments():
    calls = []

    @memoized
    def derived(spec, *args):
        calls.append(args)
        return [spec.lambda_seq, args]

    @memoized
    def other(spec, *args):
        return ["other", args]

    one, two = a1_spec(4, 0), a1_spec(4, 0)
    assert one == two and one is not two
    first = derived(one, 1, "x")
    # a repeat call returns the identical object, computed once
    assert derived(one, 1, "x") is first
    assert calls == [(1, "x")]
    # an equal spec keeps entries of its own
    assert derived(two, 1, "x") == first and derived(two, 1, "x") is not first
    assert calls == [(1, "x")] * 2
    # other arguments, and another function on the same ones, do not collide
    assert derived(one, 2, "x") == [one.lambda_seq, (2, "x")]
    assert derived(one) == [one.lambda_seq, ()]
    assert other(one, 1, "x") == ["other", (1, "x")]
    assert derived(one, 1, "x") is first
    assert calls == [(1, "x"), (1, "x"), (2, "x"), ()]
    # the name and docstring stay the function's own, which the benchmark
    # tracer reads
    assert derived.__name__ == "derived" and tangent_weights.__name__ == "tangent_weights"
    assert "crossing rule" in tangent_weights.__doc__


# ---------------------------------------------------------------- serialization

def test_fixed_point_json_round_trip():
    p = point(E1, E2, E3)
    deltas = [list(c) for c in p]
    assert deltas == [[1, 0], [-1, 1], [0, -1]]
    assert point(*deltas) == p


def test_weight_multiset_json_round_trip():
    # the weight records of the tangent document read back to the multisets
    job = JobSpec("tangent", "A", 2, [1, 1, 1], [0, 0])
    doc = json.loads(render(compute_payload(job, *job.build()), "json"))
    points = enumerate_fixed_points(TSTAR_FL3)
    assert [pt["delta"] for pt in doc["points"]] == [[list(c) for c in p] for p in points]
    for pt, p in zip(doc["points"], points):
        for entry in pt["weights"]:
            assert set(entry) == {"root", "n", "mult"}
        read = {(tuple(e["root"]), e["n"]): e["mult"] for e in pt["weights"]}
        assert by_column(A2, read) == tangent_weights(TSTAR_FL3, p)


def test_point_labels():
    assert point(-1, 1).label() == "(-w,w)"
    assert point(1, 0, -1).label() == "(w,0,-w)"
    assert point(E1, E2).label() == "([1,0],[-1,1])"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=2, max_size=6).filter(any))
def test_integer_canonical_form_properties(coords):
    # the splitting of the Counter reference of Euler classes
    coords = tuple(coords)
    canon, scalar = canonical(coords)
    assert type(canon) is tuple and len(canon) == len(coords)
    assert all(type(c) is int for c in canon) and gcd(*canon) == 1
    assert next(c for c in canon if c) > 0
    assert type(scalar) is int
    assert tuple(c * scalar for c in canon) == coords
