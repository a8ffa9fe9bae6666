"""End-to-end acceptance checks, one test per numbered criterion.

Everything here is exact arithmetic; the only tolerances are wall-clock
budgets on the larger sweeps.  Shared exact restriction matrices are cached
at module level so the budgeted criteria measure their own work.
"""

import math
import time
from fractions import Fraction

from grslice.cartan import CartanDatum, Chamber, Coweight
from grslice.chern import bundle_weight, mult_matrix
from grslice.slices import (
    SliceSpec,
    adjacent_pairs,
    enumerate_fixed_points,
    flip_sign,
    normalize_polarization,
    point_index,
    project_to_wall_slice,
    tangent_weights,
)
from grslice.stab_a1 import (
    stab_matrix,
    stab_offdiag_mod_h2,
    theta_action,
    verify_duality,
)
from grslice.stab_general import (
    sigma_sign,
    stab_mod_h2,
    wall_adjacent_chambers,
)
from grslice.symalg import Polynomial
from helpers import (
    coefficient,
    dominant_representative,
    entry_at,
    entry_polynomial,
    euler_polynomial,
    expanded,
    form_polynomial,
    linear_form,
    operator_product,
    random_minuscule_specs,
    reference_dimension,
    same_wall_component,
    sampled_sigma_signs,
    stored_rows,
    substitute,
    truncate_mod_h2,
    vneg,
    weight_stat,
)

A1 = CartanDatum("A", 1)
A2 = CartanDatum("A", 2)
A3 = CartanDatum("A", 3)
B2 = CartanDatum("B", 2)
CH_PLUS = Chamber.dominant(A1)
CH_MINUS = Chamber.antidominant(A1)
CH2_PLUS = Chamber.dominant(A2)

TSTAR_FL3 = SliceSpec(A2, [1, 1, 1], Coweight([0, 0]))
A2_MIXED = SliceSpec(A2, [1, 1, 2], Coweight([1, 0]))
B2_SPEC = SliceSpec(B2, [2, 2], Coweight([0, 0]))
PSL4_SPEC = SliceSpec(A3, [1, 1, 2], Coweight([0, 0, 0]))

ZERO2 = Polynomial.zero(2)


def a1_spec(l, k):
    return SliceSpec(A1, [1] * l, Coweight([k]))


def a1_grid(lmax):
    """All (l, k) with 2 <= l <= lmax, |k| < l, and k = l mod 2."""
    return [(l, k) for l in range(2, lmax + 1) for k in range(-l + 2, l - 1, 2)]


_EXACT = {}


def exact(spec, ch):
    key = (spec, ch)
    if key not in _EXACT:
        _EXACT[key] = stab_matrix(spec, ch)
    return _EXACT[key]


def test_criterion_01_surface_tangent_weight_goldens():
    start = time.monotonic()
    for n in range(1, 5):
        spec = SliceSpec(A1, [1] * (n + 1), Coweight([n - 1]))
        points = enumerate_fixed_points(spec)
        assert len(points) == n + 1
        # i-th point of the resolved chain carries {a + (i-1)h, -(a + ih)}
        for i, p in enumerate(points):
            got = {
                (spec.cartan.root_list[col][0], m): mult
                for (col, m), mult in tangent_weights(spec, p).items()
            }
            assert got == {(1, i - 1): 1, (-1, -i): 1}
    assert time.monotonic() - start < 1.0


def test_criterion_02_multiplicity_sum_and_h_duality():
    start = time.monotonic()
    specs = random_minuscule_specs(200, seed=20260814)
    letters = set()
    for spec in specs:
        letters.add((spec.cartan.type_letter, spec.cartan.rank))
        for p in enumerate_fixed_points(spec):
            ws = tangent_weights(spec, p)
            roots, column = spec.cartan.root_list, spec.cartan._column
            for (col, n), m in ws.items():
                assert ws.get((column[vneg(roots[col])], -(n + 1))) == m
        # the degree formula reads off the dominant representative
        dom = SliceSpec(spec.cartan, spec.lambda_seq,
                        dominant_representative(spec.cartan, spec.mu))
        expected = reference_dimension(dom)
        for p in enumerate_fixed_points(dom):
            assert sum(tangent_weights(dom, p).values()) == expected
    assert len(letters) >= 5
    assert time.monotonic() - start < 30.0


def test_criterion_03_fixed_point_counts():
    assert len(enumerate_fixed_points(TSTAR_FL3)) == 6
    for l in range(1, 11):
        for k in range(-l, l + 1):
            if (l + k) % 2:
                continue
            count = len(enumerate_fixed_points(a1_spec(l, k)))
            assert count == math.comb(l, (l + k) // 2)


def test_criterion_04_rank_one_exact_envelope_suite():
    start = time.monotonic()
    for l, k in a1_grid(8):
        spec = a1_spec(l, k)
        for ch in (CH_PLUS, CH_MINUS):
            # construction asserts recursion path-independence internally
            matrix = exact(spec, ch)
            # triangularity, repelling Euler diagonal, h-divisible
            # off-diagonals, and the A-degree bound
            matrix.validate(spec)
            for i in range(1, l):
                # raises on any left/right mismatch
                theta_action(spec, i, matrix)
    assert time.monotonic() - start < 60.0


def test_criterion_05_duality_orthonormality():
    start = time.monotonic()
    for l, k in a1_grid(8):
        spec = a1_spec(l, k)
        for ch in (CH_PLUS, CH_MINUS):
            report = verify_duality(spec, ch)
            assert report["ok"], (l, k, report["failures"])
    assert time.monotonic() - start < 60.0


def test_criterion_06_mod_h2_closed_form_and_diagonal_constant():
    for l, k in a1_grid(8):
        spec = a1_spec(l, k)
        half = spec.dimension // 2
        for ch, s in ((CH_PLUS, 1), (CH_MINUS, -1)):
            matrix = exact(spec, ch)
            closed = stab_offdiag_mod_h2(spec, ch)
            constants = set()
            for pi, p in enumerate(matrix.points):
                for qi, q in enumerate(matrix.points):
                    if p == q:
                        continue
                    truncated = truncate_mod_h2(entry_polynomial(spec, matrix, p, q))
                    assert truncated == expanded(closed, (pi, qi), ZERO2)
                diag = truncate_mod_h2(entry_polynomial(spec, matrix, p, p))
                lead = coefficient(diag, (half, 0))
                slope = Fraction(coefficient(diag, (half - 1, 1))) / lead
                constants.add(s * slope - weight_stat(spec, p, ch))
            assert len(constants) == 1, (l, k, constants)


def eps_prime(spec, x, ch, wall_root):
    """A-Euler class of the repelling weights transverse to the wall."""
    out = Polynomial.one(spec.cartan.rank + 1)
    for (col, n), m in tangent_weights(spec, x).items():
        root = spec.cartan.root_list[col]
        if not ch.is_positive(root) and root != wall_root and root != vneg(wall_root):
            out = out * linear_form(root, 0) ** m
    return out


def test_criterion_07_general_route_consistency():
    start = time.monotonic()
    for l, k in a1_grid(8):
        spec = a1_spec(l, k)
        for ch in (CH_PLUS, CH_MINUS):
            assert stab_mod_h2(spec, ch) == stab_offdiag_mod_h2(spec, ch)
    for ch in (CH2_PLUS, Chamber(A2, Coweight([-1, 2]))):
        entries = stab_mod_h2(TSTAR_FL3, ch)
        points = enumerate_fixed_points(TSTAR_FL3)
        witnessed = 0
        for pi, p in enumerate(points):
            for qi, q in enumerate(points):
                if p == q:
                    continue
                w = adjacent_pairs(TSTAR_FL3, ch).get((pi, qi))
                if w is None:
                    assert (pi, qi) not in entries
                    continue
                witnessed += 1
                root = A2.root_list[w.column]
                wall_spec, wall_p = project_to_wall_slice(TSTAR_FL3, p, root)
                wall_q = project_to_wall_slice(TSTAR_FL3, q, root)[1]
                wall_index = point_index(wall_spec)
                z = stab_offdiag_mod_h2(wall_spec, CH_PLUS)[wall_index[wall_p],
                                                            wall_index[wall_q]]
                z_part = substitute(
                    euler_polynomial(z),
                    [
                        linear_form(root, 0),
                        linear_form([0, 0], 1),
                    ]
                )
                sides = wall_adjacent_chambers(A2, w.column)
                near = next(c for c in sides if c.is_positive(root))
                oracle = eps_prime(TSTAR_FL3, q, near, root) * z_part
                if flip_sign(TSTAR_FL3, pi, ch, near) < 0:
                    oracle = -oracle
                assert euler_polynomial(entries[(pi, qi)]) == oracle, (p.label(), q.label())
        assert witnessed == len(entries) > 0
    assert time.monotonic() - start < 30.0


def test_criterion_08_sigma_sign_well_defined():
    for spec in (TSTAR_FL3, PSL4_SPEC):
        ch = Chamber.dominant(spec.cartan)
        n = len(enumerate_fixed_points(spec))
        signs = normalize_polarization(range(n), None)
        covered = set()
        for p in range(n):
            for q in range(n):
                if p == q:
                    continue
                w = adjacent_pairs(spec, ch).get((p, q))
                if w is None:
                    continue
                covered.add(spec.cartan.root_list[w.column])
                # both closed-form chambers next to the wall must give the
                # same sign or this raises, and so must both chambers of
                # each of 3 pairs that an independent sampler draws there
                s = sigma_sign(spec, p, q, w.column, ch, signs)
                assert s in (-1, 1)
                assert sampled_sigma_signs(spec, p, q, w.column, ch, signs, 3) == {s}
        assert covered == set(spec.cartan.positive_roots(ch))


def test_criterion_09_multiplication_oracle():
    start = time.monotonic()
    two_points = a1_spec(2, 0)
    worked = mult_matrix(two_points, "E1", CH_PLUS)
    low, high = worked.basis
    assert entry_at(two_points, worked, high, high) == (Fraction(1, 2), Fraction(1, 4))
    assert entry_at(two_points, worked, low, high) == (0, -1)
    assert entry_at(two_points, worked, low, low) == (Fraction(-1, 2), Fraction(1, 4))
    assert entry_at(two_points, worked, high, low) == (0, 0)

    for l, k in a1_grid(7):
        spec = a1_spec(l, k)
        bundles = [("L", i) for i in range(l + 1)] + [("E", i) for i in range(1, l + 1)]
        for ch in (CH_PLUS, CH_MINUS):
            stab = exact(spec, ch)
            points = stab.points
            # each point's nonzero restrictions, keyed by the restricting point
            rows = stored_rows(stab)
            for bundle in bundles:
                mat = mult_matrix(spec, bundle, ch)
                assert mat.basis == points
                # column p: the stored coefficients, each with the row of its q
                columns = [[] for _ in points]
                for (qi, pi), coeff in mat.entries.items():
                    columns[pi].append((rows[points[qi]], form_polynomial(coeff)))
                for xi, x in enumerate(points):
                    weight = form_polynomial(bundle_weight(spec, xi, bundle))
                    for pi, p in enumerate(points):
                        rhs = ZERO2
                        for row, coeff in columns[pi]:
                            sv = row.get(x)
                            if sv is not None:
                                rhs = rhs + sv * coeff
                        assert weight * rows[p].get(x, ZERO2) == rhs, (l, k, bundle)
    assert time.monotonic() - start < 60.0


def test_criterion_10_spectrum_and_commutativity():
    tested = [a1_spec(l, k) for l, k in a1_grid(7)]
    tested += [TSTAR_FL3, A2_MIXED, B2_SPEC, PSL4_SPEC]
    tested += [SliceSpec(A1, [1] * (n + 1), Coweight([n - 1])) for n in range(1, 5)]
    for spec in tested:
        points = enumerate_fixed_points(spec)
        spectra = set()
        for x in range(len(points)):
            spectra.add(
                tuple(bundle_weight(spec, x, ("L", i)) for i in range(1, spec.length))
            )
        assert len(spectra) == len(points), spec

    for spec in tested:
        if len(enumerate_fixed_points(spec)) > 20:
            continue
        ch = Chamber.dominant(spec.cartan)
        mats = [mult_matrix(spec, ("L", i), ch) for i in range(1, spec.length)]
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                assert operator_product(mats[a], mats[b]) == operator_product(mats[b], mats[a])


def test_criterion_11_wall_crossing_invariance():
    points = enumerate_fixed_points(TSTAR_FL3)
    for root in A2.positive_roots(CH2_PLUS):
        near, far = wall_adjacent_chambers(A2, A2._column[root])
        left = stab_mod_h2(TSTAR_FL3, near)
        carried = [flip_sign(TSTAR_FL3, p, near, far) for p in range(len(points))]
        right = stab_mod_h2(TSTAR_FL3, far, carried)
        compared = 0
        for pair in set(left) | set(right):
            wall = same_wall_component(TSTAR_FL3, *(points[x] for x in pair))
            if wall == root or wall == vneg(root):
                continue
            compared += 1
            assert expanded(left, pair, ZERO2) == expanded(right, pair, ZERO2), pair
        assert compared > 0
