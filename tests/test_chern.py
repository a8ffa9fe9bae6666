import random
from fractions import Fraction
from operator import add

import pytest

from grslice import cartan, chern, cli
from grslice.cartan import CartanDatum, Chamber, Coweight
from grslice.chern import (
    OperatorMatrix,
    bundle_weight,
    h_operator,
    mult_matrix,
    mult_matrix_via_localization,
    omega_operators,
    parse_bundle,
    reconstruct_coefficient,
)
from grslice.slices import SliceSpec, adjacent_pairs, enumerate_fixed_points, normalize_polarization
from grslice.stab_a1 import stab_matrix
from grslice.stab_general import sigma_sign, stab_mod_h2
from grslice.symalg import Polynomial, RationalFunction
from helpers import (
    catalog_slices,
    document,
    entry_at,
    entry_polynomial,
    exact_inner,
    exact_sharp,
    form_polynomial,
    gen,
    is_zero,
    linear_form,
    localization_pair,
    operator_difference,
    operator_product,
    pairing,
    point,
    polynomial_to_json,
    printed,
    vsub,
    vsum,
)

A1 = CartanDatum("A", 1)
A2 = CartanDatum("A", 2)
B2 = CartanDatum("B", 2)
CH1_PLUS = Chamber.dominant(A1)
CH1_MINUS = Chamber.antidominant(A1)
CH2_PLUS = Chamber.dominant(A2)

TSTAR_FL3 = SliceSpec(A2, [1, 1, 1], Coweight([0, 0]))
TSTAR_P1 = SliceSpec(A1, [1] * 2, Coweight([0]))
A2_MIXED = SliceSpec(A2, [1, 1, 2], Coweight([1, 0]))
B2_SPEC = SliceSpec(B2, [2, 2], Coweight([0, 0]))


def a1_spec(l, k):
    return SliceSpec(A1, [1] * l, Coweight([k]))


def all_bundles(spec):
    l = spec.length
    return [f"L{k}" for k in range(l + 1)] + [f"E{i}" for i in range(1, l + 1)]


def h_poly(spec):
    return gen(spec.cartan.rank + 1, spec.cartan.rank)


# -- bundle weights ------------------------------------------------------------


def test_parse_bundle_accepts_and_rejects():
    assert parse_bundle(TSTAR_FL3, "L0") == ("L", 0)
    assert parse_bundle(TSTAR_FL3, "L3") == ("L", 3)
    assert parse_bundle(TSTAR_FL3, "E1") == ("E", 1)
    assert parse_bundle(TSTAR_FL3, ("e", 3)) == ("E", 3)
    # "L\u00b2" and "L\u0661" hold digits that str.isdigit admits and int() rejects or reads as 1
    for bad in ("L4", "E0", "E4", "Lx", "Q1", "L", "L\u00b2", "L\u0661"):
        with pytest.raises(ValueError):
            parse_bundle(TSTAR_FL3, bad)
    with pytest.raises(ValueError, match=r"mult needs a bundle tag L<k> or E<i>"):
        parse_bundle(TSTAR_FL3, None)
    for bad in ("X1", ("x", 1), "x2"):
        with pytest.raises(ValueError, match="unknown bundle kind 'X'"):
            parse_bundle(TSTAR_FL3, bad)
    # a tag is a str kind and an int index, and a bool is no index
    for bad in (("L", "2"), ("E", None), (1, 2), ("L", 2.0), ("L", True), ("E", False),
                ("L",), ("L", 2, 0), ["L", 2], 2):
        with pytest.raises(ValueError, match=r"^malformed bundle tag "):
            parse_bundle(TSTAR_FL3, bad)
        with pytest.raises(ValueError, match=r"^malformed bundle tag "):
            mult_matrix(TSTAR_FL3, bad, CH2_PLUS)
    for bad in (True, False, 1.0, "2", None):
        with pytest.raises(ValueError, match=r"^point index .* out of range$"):
            bundle_weight(TSTAR_FL3, bad, "L1")
        with pytest.raises(ValueError, match=r"^slot index .* out of range$"):
            h_operator(TSTAR_FL3, bad)


def test_first_line_bundle_is_trivial():
    for spec in (TSTAR_P1, TSTAR_FL3, B2_SPEC, a1_spec(4, 2)):
        zero = (0,) * (spec.cartan.rank + 1)
        for x in range(len(enumerate_fixed_points(spec))):
            assert bundle_weight(spec, x, "L0") == zero


def test_last_line_bundle_is_constant_in_p():
    for spec in (TSTAR_P1, TSTAR_FL3, A2_MIXED, B2_SPEC, a1_spec(5, 1)):
        mu = spec.mu
        expected = (exact_sharp(spec.cartan, mu)
                    + (exact_inner(spec.cartan, mu, mu) / 2,))
        for x in range(len(enumerate_fixed_points(spec))):
            assert bundle_weight(spec, x, ("L", spec.length)) == expected


def test_line_bundle_weight_two_point_slice():
    minus, plus = enumerate_fixed_points(TSTAR_P1)
    assert minus.label() == "(-w,w)"
    assert bundle_weight(TSTAR_P1, 1, "L1") == (Fraction(1, 2), Fraction(1, 4))
    assert bundle_weight(TSTAR_P1, 0, "L1") == (Fraction(-1, 2), Fraction(1, 4))
    # the h coefficient is a Fraction even where it is integral
    for spec in (TSTAR_P1, TSTAR_FL3, B2_SPEC):
        for x in range(len(enumerate_fixed_points(spec))):
            for bundle in all_bundles(spec):
                assert type(bundle_weight(spec, x, bundle)[-1]) is Fraction


def test_e_weights_telescope():
    for spec in (TSTAR_FL3, A2_MIXED, B2_SPEC, a1_spec(4, 0)):
        for x in range(len(enumerate_fixed_points(spec))):
            total = bundle_weight(spec, x, "L0")
            for i in range(1, spec.length + 1):
                total = tuple(map(add, total, bundle_weight(spec, x, ("E", i))))
            assert total == bundle_weight(spec, x, ("L", spec.length))


def test_bundle_weight_dispatch():
    assert bundle_weight(TSTAR_FL3, 0, "L2") == bundle_weight(TSTAR_FL3, 0, ("l", 2))
    assert bundle_weight(TSTAR_FL3, 0, "E2") == vsub(bundle_weight(TSTAR_FL3, 0, "L2"),
                                                     bundle_weight(TSTAR_FL3, 0, "L1"))


def test_bundle_weight_takes_a_point_index():
    # a point is its index, as in the wall routes; the point itself, the
    # plain tuple of its steps and a tuple of no point are refused alike
    spec = a1_spec(4, 0)
    for p in enumerate_fixed_points(spec) + (((1,), (1,), (1,), (1,)), ((1,), (-1,))):
        with pytest.raises(ValueError, match=r"^point index .* out of range$"):
            bundle_weight(spec, p, "E1")


def test_bundle_weight_matches_the_exact_reference_on_every_catalog_slice():
    # L_k has the weight sharp(sigma_k) + (h/2) (sigma_k, sigma_k)
    for workload in ("a1-exact", "higher-rank"):
        for spec, _, _ in catalog_slices(workload):
            datum = spec.cartan
            for x, p in enumerate(enumerate_fixed_points(spec)):
                for k, sigma in enumerate(p.sigma()):
                    expected = (exact_sharp(datum, sigma)
                                + (exact_inner(datum, sigma, sigma) / 2,))
                    assert bundle_weight(spec, x, ("L", k)) == expected, (spec, p, k)


# -- slot operators ------------------------------------------------------------


def test_h_operator_diagonal():
    mat = h_operator(TSTAR_P1, 1)
    minus, plus = mat.basis
    assert entry_at(TSTAR_P1, mat, plus, plus) == (Fraction(1, 2), 0)
    assert entry_at(TSTAR_P1, mat, minus, minus) == (Fraction(-1, 2), 0)
    assert entry_at(TSTAR_P1, mat, minus, plus) == mat.zero == (0, 0)
    assert entry_at(TSTAR_P1, mat, plus, minus) == mat.zero

    spec = a1_spec(3, 1)
    mat = h_operator(spec, 2)
    for p in mat.basis:
        d = p[1]
        expected = linear_form(
            exact_sharp(spec.cartan, d), exact_inner(spec.cartan, d, spec.mu) / 2
        )
        assert entry_polynomial(spec, mat, p, p) == expected


def test_h_operator_range():
    with pytest.raises(ValueError):
        h_operator(TSTAR_P1, 0)
    with pytest.raises(ValueError):
        h_operator(TSTAR_P1, 3)


def test_omega_operator_combines_parts():
    # h times: half the pairing (delta_i, delta_j) on the diagonal, plus one
    # part per positive root pairing to +1 with slot i and -1 with slot j: it
    # sends p to sigma_{p,q} (alpha, alpha)/2 times q, where q lowers slot i
    # and raises slot j by the coroot alpha
    for spec, ch in ((TSTAR_FL3, CH2_PLUS), (B2_SPEC, Chamber.dominant(B2))):
        datum = spec.cartan
        points = enumerate_fixed_points(spec)
        signs = normalize_polarization(points, None)
        a_zero = (0,) * datum.rank
        for i in range(1, spec.length):
            for j in range(i + 1, spec.length + 1):
                expected = {}
                for x, p in enumerate(points):
                    steps = list(p)
                    half = exact_inner(datum, steps[i - 1], steps[j - 1]) / 2
                    if half:
                        expected[x, x] = a_zero + (half,)
                    for root in datum.positive_roots(ch):
                        if (pairing(steps[i - 1], root), pairing(steps[j - 1], root)) != (1, -1):
                            continue
                        column = datum._column[root]
                        coroot = datum.coroots[column]
                        delta = list(steps)
                        delta[i - 1] = vsub(delta[i - 1], coroot)
                        delta[j - 1] = vsum(delta[j - 1], coroot)
                        y = points.index(point(*delta))
                        sign = sigma_sign(spec, x, y, column, ch, signs)
                        half_len = exact_inner(datum, coroot, coroot) / 2
                        expected[y, x] = a_zero + (sign * half_len,)
                assert omega_operators(spec, i, j, ch).entries == expected


# -- multiplication matrices ---------------------------------------------------


def test_two_point_slice_worked_multiplication():
    mat = mult_matrix(TSTAR_P1, "E1", CH1_PLUS)
    minus, plus = mat.basis
    assert entry_at(TSTAR_P1, mat, plus, plus) == (Fraction(1, 2), Fraction(1, 4))
    assert entry_at(TSTAR_P1, mat, minus, plus) == (0, -1)
    assert entry_at(TSTAR_P1, mat, minus, minus) == (Fraction(-1, 2), Fraction(1, 4))
    assert entry_at(TSTAR_P1, mat, plus, minus) == (0, 0)

    stab = stab_matrix(TSTAR_P1, CH1_PLUS)
    weight = linear_form([Fraction(1, 2)], Fraction(1, 4))
    h = h_poly(TSTAR_P1)
    for xi, x in enumerate(stab.points):
        upper, lower = (entry_polynomial(TSTAR_P1, stab, y, x) for y in (plus, minus))
        lhs = form_polynomial(bundle_weight(TSTAR_P1, xi, "E1")) * upper
        rhs = weight * upper - h * lower
        assert lhs == rhs


def test_trivial_and_determinant_bundles():
    for spec, ch in ((TSTAR_FL3, CH2_PLUS), (a1_spec(3, 1), CH1_PLUS)):
        zero_mat = mult_matrix(spec, "L0", ch)
        basis = zero_mat.basis
        assert all(is_zero(entry_polynomial(spec, zero_mat, q, p)) for q in basis for p in basis)
        top = mult_matrix(spec, f"L{spec.length}", ch)
        mu = spec.mu
        scalar = linear_form(
            exact_sharp(spec.cartan, mu), exact_inner(spec.cartan, mu, mu) / 2
        )
        for qi, q in enumerate(top.basis):
            for pi, p in enumerate(top.basis):
                expected = scalar if qi == pi else Polynomial.zero(spec.cartan.rank + 1)
                assert entry_polynomial(spec, top, q, p) == expected


def test_diagonal_matches_bundle_weight():
    cases = [
        (TSTAR_FL3, CH2_PLUS),
        (A2_MIXED, CH2_PLUS),
        (B2_SPEC, Chamber.dominant(B2)),
        (a1_spec(4, 0), CH1_PLUS),
        (a1_spec(4, 0), CH1_MINUS),
    ]
    for spec, ch in cases:
        for bundle in all_bundles(spec):
            mat = mult_matrix(spec, bundle, ch)
            for x, p in enumerate(mat.basis):
                assert (entry_polynomial(spec, mat, p, p)
                        == form_polynomial(bundle_weight(spec, x, bundle)))


def test_entries_are_coefficient_tuples():
    # every stored entry is a linear form (a_1, .., a_r, h); a diagonal is the
    # bundle weight itself, an off-diagonal entry has a zero a-part
    for spec, ch in ((TSTAR_FL3, CH2_PLUS), (B2_SPEC, Chamber.dominant(B2)),
                     (a1_spec(4, 2), CH1_MINUS)):
        width = spec.cartan.rank + 1
        mats = [mult_matrix(spec, b, ch) for b in all_bundles(spec)]
        mats += [h_operator(spec, i) for i in range(1, spec.length + 1)]
        mats += [omega_operators(spec, 1, 2, ch)]
        if spec.cartan.rank == 1:
            mats += [mult_matrix_via_localization(spec, b, ch) for b in all_bundles(spec)]
        for mat in mats:
            assert mat.zero == (0,) * width
            for (qi, pi), e in mat.entries.items():
                assert type(e) is tuple and len(e) == width and any(e)
                if qi != pi:
                    assert not any(e[:-1])
        for bundle, mat in zip(all_bundles(spec), mats):
            for pi in range(len(mat.basis)):
                assert mat.entries.get((pi, pi), mat.zero) == bundle_weight(spec, pi, bundle)


def test_offdiagonal_supported_on_adjacent_pairs():
    cases = [(TSTAR_FL3, CH2_PLUS), (A2_MIXED, CH2_PLUS), (a1_spec(4, 2), CH1_PLUS)]
    for spec, ch in cases:
        for bundle in all_bundles(spec):
            mat = mult_matrix(spec, bundle, ch)
            for qi, q in enumerate(mat.basis):
                for pi, p in enumerate(mat.basis):
                    if q == p:
                        continue
                    if not is_zero(entry_polynomial(spec, mat, q, p)):
                        assert adjacent_pairs(spec, ch).get((pi, qi)) is not None


def test_e_matrix_matches_slot_formula():
    cases = [(TSTAR_FL3, CH2_PLUS), (A2_MIXED, CH2_PLUS), (a1_spec(4, 0), CH1_MINUS)]
    for spec, ch in cases:
        for i in range(1, spec.length + 1):
            # E_i - H_i - h sum_{j<i} Omega_ji = -h sum_{j>i} Omega_ij
            lhs = operator_difference(spec, mult_matrix(spec, f"E{i}", ch), h_operator(spec, i))
            for j in range(1, i):
                lhs = operator_difference(spec, lhs, omega_operators(spec, j, i, ch))
            rhs = OperatorMatrix(spec, {})
            for j in range(i + 1, spec.length + 1):
                rhs = operator_difference(spec, rhs, omega_operators(spec, i, j, ch))
            assert lhs.entries == rhs.entries


def test_e_matrices_are_differences_of_line_matrices():
    # one kernel builds L_k as L_k / L_0 and E_i as L_i / L_(i-1); the
    # subtraction of the two line matrices is the reference
    for workload in ("a1-exact", "higher-rank"):
        for spec, ch, signs in catalog_slices(workload):
            lines = [mult_matrix(spec, f"L{k}", ch, signs) for k in range(spec.length + 1)]
            assert lines[0].entries == {}
            for i in range(1, spec.length + 1):
                mat = mult_matrix(spec, f"E{i}", ch, signs)
                expected = operator_difference(spec, lines[i], lines[i - 1])
                assert mat.entries == expected.entries, (spec, ch, i)
                assert mat.label == f"E{i}" and mat.basis == lines[i].basis
                for x in range(len(mat.basis)):
                    assert bundle_weight(spec, x, f"E{i}") == vsub(
                        bundle_weight(spec, x, f"L{i}"), bundle_weight(spec, x, f"L{i - 1}"))


def test_matrix_conjugates_fixed_point_action():
    cases = []
    for l in range(2, 6):
        for k in range(-l + 1, l):
            if (l + k) % 2 == 0:
                cases.append((a1_spec(l, k), CH1_PLUS, None))
                cases.append((a1_spec(l, k), CH1_MINUS, None))
    rng = random.Random(20240817)
    for l, k in ((3, 1), (4, 0), (4, 2)):
        spec = a1_spec(l, k)
        pts = enumerate_fixed_points(spec)
        for _ in range(3):
            signs = [rng.choice([1, -1]) for p in pts]
            cases.append((spec, CH1_PLUS, signs))
    for spec, ch, signs in cases:
        stab = stab_matrix(spec, ch, signs)
        for bundle in all_bundles(spec):
            mat = mult_matrix(spec, bundle, ch, signs)
            for xi, x in enumerate(stab.points):
                w = form_polynomial(bundle_weight(spec, xi, bundle))
                for p in stab.points:
                    rhs = Polynomial.zero(2)
                    for q in stab.points:
                        m = entry_polynomial(spec, mat, q, p)
                        if not is_zero(m):
                            rhs = rhs + entry_polynomial(spec, stab, q, x) * m
                    assert w * entry_polynomial(spec, stab, p, x) == rhs, (spec, ch, bundle)


def test_line_bundle_matrices_commute():
    cases = [
        (TSTAR_FL3, CH2_PLUS),
        (A2_MIXED, CH2_PLUS),
        (B2_SPEC, Chamber.dominant(B2)),
        (a1_spec(5, 1), CH1_PLUS),
        (a1_spec(6, 0), CH1_MINUS),
    ]
    for spec, ch in cases:
        mats = [mult_matrix(spec, f"L{k}", ch) for k in range(1, spec.length)]
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                left = operator_product(mats[a], mats[b])
                right = operator_product(mats[b], mats[a])
                assert left == right, (spec, ch, a + 1, b + 1)


def test_joint_spectrum_separates_points():
    cases = [TSTAR_P1, TSTAR_FL3, A2_MIXED, B2_SPEC, a1_spec(5, 1), a1_spec(6, 0)]
    rng = random.Random(987)
    for spec in cases:
        points = enumerate_fixed_points(spec)
        spectra = {}
        for x, p in enumerate(points):
            key = tuple(bundle_weight(spec, x, ("L", i)) for i in range(1, spec.length))
            assert key not in spectra, (spec, p)
            spectra[key] = p
        sample = [Fraction(rng.randint(10**4, 10**6), rng.randint(1, 97)) for _ in range(spec.cartan.rank)]
        numeric = set()
        for key in spectra:
            values = tuple(
                sum(c * s for c, s in zip(w[:-1], sample)) + w[-1]
                for w in key
            )
            numeric.add(values)
        assert len(numeric) == len(points)


# -- localization route --------------------------------------------------------


def test_localization_pair_reproduces_duality():
    for spec in (a1_spec(3, 1), a1_spec(4, 0)):
        plus = stab_matrix(spec, CH1_PLUS)
        minus = stab_matrix(spec, CH1_MINUS)
        for p in plus.points:
            for q in plus.points:
                v1 = {x: entry_polynomial(spec, minus, q, x) for x in plus.points}
                v2 = {x: entry_polynomial(spec, plus, p, x) for x in plus.points}
                value = localization_pair(spec, v1, v2)
                assert isinstance(value, RationalFunction)
                assert value == (1 if p == q else 0)


def test_localization_pair_zero_vector():
    points = enumerate_fixed_points(TSTAR_P1)
    zero_vec = [Polynomial.zero(2) for _ in points]
    ones = [Polynomial.one(2) for _ in points]
    assert localization_pair(TSTAR_P1, zero_vec, ones) == 0
    with pytest.raises(ValueError):
        localization_pair(TSTAR_P1, [Polynomial.one(2)], ones)


def test_localization_matrix_matches_formula():
    cases = [
        (TSTAR_P1, CH1_PLUS),
        (TSTAR_P1, CH1_MINUS),
        (a1_spec(3, 1), CH1_PLUS),
        (a1_spec(5, 3), CH1_PLUS),
    ]
    for spec, ch in cases:
        bundles = all_bundles(spec) if spec.length < 5 else [f"L{k}" for k in range(1, 5)]
        for bundle in bundles:
            direct = mult_matrix(spec, bundle, ch)
            via = mult_matrix_via_localization(spec, bundle, ch)
            assert direct.entries == via.entries, (spec, ch, bundle)


def test_localization_matrix_random_signs():
    spec = a1_spec(4, 2)
    rng = random.Random(55)
    pts = enumerate_fixed_points(spec)
    signs = [rng.choice([1, -1]) for p in pts]
    for bundle in ("L1", "L3", "E2"):
        direct = mult_matrix(spec, bundle, CH1_PLUS, signs)
        via = mult_matrix_via_localization(spec, bundle, CH1_PLUS, signs)
        assert direct.entries == via.entries


def test_localization_entry_that_is_not_polynomial_raises(monkeypatch):
    # a cleared sum off by one in a coefficient is no linear form times the
    # lcm: one more or one less h^deg (its lowest coefficient), and one more
    # a^deg, which moves the leading coefficient c_0 that the check reads
    real = chern._pairing_sums
    for delta, top in ((1, False), (-1, False), (1, True)):
        def tampered(spec, plus, minus, weight=None):
            b, lcm, sums = real(spec, plus, minus, weight)
            sums[min(sums)] += delta << (b * (sum(lcm.values()) + 1) if top else 0)
            return b, lcm, sums

        monkeypatch.setattr(chern, "_pairing_sums", tampered)
        # the points print by label, as in every other check message
        with pytest.raises(AssertionError, match=r"^localization entry "
                           r"\(\([-w0,]+\), \([-w0,]+\)\) is not polynomial$"):
            mult_matrix_via_localization(a1_spec(4, 2), "L1", CH1_PLUS)


def test_localization_matrix_requires_rank_one():
    with pytest.raises(ValueError, match="^requires a rank-1 slice, got type A2$"):
        mult_matrix_via_localization(TSTAR_FL3, "L1", CH2_PLUS)


# -- consistency with restriction data ------------------------------------------


def test_reconstruction_matches_matrix_entries():
    cases = [
        (TSTAR_FL3, CH2_PLUS),
        (A2_MIXED, CH2_PLUS),
        (a1_spec(3, 1), CH1_PLUS),
        (a1_spec(4, 0), CH1_MINUS),
    ]
    for spec, ch in cases:
        points = enumerate_fixed_points(spec)
        signs = normalize_polarization(points, None)
        entries = stab_mod_h2(spec, ch)
        for bundle in [f"L{k}" for k in range(spec.length + 1)]:
            mat = mult_matrix(spec, bundle, ch)
            for pi, p in enumerate(points):
                for qi, q in enumerate(points):
                    if p == q:
                        continue
                    expected = entry_polynomial(spec, mat, q, p)
                    coeff = reconstruct_coefficient(spec, ch, entries, pi, qi, bundle, signs)
                    if is_zero(expected):
                        assert coeff == 0
                    else:
                        assert linear_form(
                            [0] * spec.cartan.rank, coeff
                        ) == expected


# -- serialization and validation ------------------------------------------------


def test_operator_json_shape():
    blob = document("mult", TSTAR_FL3, CH2_PLUS, bundle="L2")
    assert set(blob) == {"basis", "bundle", "chamber", "command", "entries", "labels"}
    assert blob["bundle"] == "L2"
    n = len(blob["basis"])
    assert n == 6
    assert len(blob["entries"]) == n and all(len(row) == n for row in blob["entries"])


def test_validate_rejects_bad_diagonal():
    mat = mult_matrix(TSTAR_P1, "L1", CH1_PLUS)
    # a form in three variables on a rank-one slice
    mat.entries[0, 0] = (1, 0, 1)
    with pytest.raises(AssertionError, match=r"^entry \(\(-w,w\), \(-w,w\)\) is not a linear form$"):
        mat.validate()


def test_validate_rejects_bad_offdiagonal():
    mat = mult_matrix(TSTAR_P1, "L1", CH1_PLUS)
    mat.entries[0, 1] = (1, 1)
    with pytest.raises(AssertionError, match=r"^off-diagonal entry \(\(-w,w\), \(w,-w\)\) "
                                              r"is not a rational multiple of h$"):
        mat.validate()


def test_bundle_weights_are_computed_once_per_point(monkeypatch):
    calls = []
    sharp = cartan.CartanDatum.sharp

    def counted(self, c):
        calls.append(c)
        return sharp(self, c)

    monkeypatch.setattr(cartan.CartanDatum, "sharp", counted)
    spec = SliceSpec(A2, [1, 1, 2], Coweight([1, 0]))
    points = enumerate_fixed_points(spec)
    bundles = [("L", k) for k in range(spec.length + 1)]
    bundles += [("E", i) for i in range(1, spec.length + 1)]
    first = [[bundle_weight(spec, x, b) for b in bundles] for x in range(len(points))]
    assert len(calls) == len(points) * (spec.length + 1)
    assert [[bundle_weight(spec, x, b) for b in bundles] for x in range(len(points))] == first
    assert len(calls) == len(points) * (spec.length + 1)


def test_mult_l_diagonals_reuse_the_slot_step_memo(monkeypatch):
    spec = SliceSpec(A2, [1, 1, 2], Coweight([1, 0]))
    bundles = all_bundles(spec)
    before = [mult_matrix(spec, bundle, CH2_PLUS) for bundle in bundles]
    calls = []
    for name in ("inner", "sharp"):
        original = getattr(cartan.CartanDatum, name)

        def counted(self, *args, original=original):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(cartan.CartanDatum, name, counted)
    again = [mult_matrix(spec, bundle, CH2_PLUS) for bundle in bundles]
    assert calls == []
    assert [m.entries for m in again] == [m.entries for m in before]
    # the slot route and bundle_weight agree on every diagonal
    for bundle, mat in zip(bundles, again):
        for x, p in enumerate(mat.basis):
            assert (entry_polynomial(spec, mat, p, p)
                    == form_polynomial(bundle_weight(spec, x, bundle)))


# -- sparse storage ----------------------------------------------------------------


def _dense_product(spec, left, right):
    """Rows of left times right, two matrices on the slice spec, summed over
    every middle point as dense matrices are."""
    basis = left.basis
    rows = []
    for q in basis:
        row = []
        for p in basis:
            total = Polynomial.zero(spec.cartan.rank + 1)
            for r in basis:
                total = total + (entry_polynomial(spec, left, q, r)
                                 * entry_polynomial(spec, right, r, p))
            row.append(total)
        rows.append(row)
    return rows


def test_sparse_product_matches_a_dense_reference():
    cases = [
        (TSTAR_FL3, CH2_PLUS),
        (A2_MIXED, CH2_PLUS),
        (B2_SPEC, Chamber.dominant(B2)),
        (a1_spec(4, 0), CH1_PLUS),
    ]
    for spec, ch in cases:
        mats = [mult_matrix(spec, f"L{k}", ch) for k in range(spec.length + 1)]
        for left in mats:
            for right in mats:
                product = operator_product(left, right)
                n = range(len(left.basis))
                zero = Polynomial.zero(spec.cartan.rank + 1)
                rows = [[product.get((qi, pi), zero) for pi in n] for qi in n]
                assert rows == _dense_product(spec, left, right), (spec, left.label, right.label)
                assert not any(is_zero(e) for e in product.values())


def test_no_stored_entry_is_zero():
    for spec, ch in ((TSTAR_FL3, CH2_PLUS), (A2_MIXED, CH2_PLUS), (a1_spec(4, 0), CH1_MINUS)):
        assert mult_matrix(spec, "L0", ch).entries == {}
        pairs = adjacent_pairs(spec, ch)
        cancelled = 0
        for i in range(1, spec.length + 1):
            upper = mult_matrix(spec, f"L{i}", ch)
            mat = mult_matrix(spec, f"E{i}", ch)
            assert all(any(e) for e in mat.entries.values())
            # a pair whose slots straddle both cuts has one correction in L_i
            # and the same in L_{i-1}: their difference leaves nothing there
            for (p, q), w in pairs.items():
                if w.i < i < w.j:
                    assert (q, p) in upper.entries
                    assert (q, p) not in mat.entries
                    cancelled += 1
        assert cancelled > 0, spec
    for spec, ch in ((a1_spec(4, 0), CH1_PLUS), (a1_spec(5, 1), CH1_MINUS)):
        assert mult_matrix_via_localization(spec, "L0", ch).entries == {}
        for bundle in all_bundles(spec):
            via = mult_matrix_via_localization(spec, bundle, ch)
            assert all(any(e) for e in via.entries.values())


def test_json_prints_every_cell_through_entry():
    for spec, ch in ((TSTAR_FL3, CH2_PLUS), (a1_spec(4, 2), CH1_PLUS)):
        for bundle in all_bundles(spec):
            mat = mult_matrix(spec, bundle, ch)
            basis = mat.basis
            expected = [[polynomial_to_json(entry_polynomial(spec, mat, q, p)) for p in basis]
                        for q in basis]
            entries, _ = cli._mult_entries(mat, [p.label() for p in basis])
            assert printed(entries) == expected
