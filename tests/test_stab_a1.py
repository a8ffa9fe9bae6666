import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from grslice.cartan import CartanDatum, Chamber, Coweight
from grslice.slices import (
    SliceSpec,
    enumerate_fixed_points,
    point_index,
    tangent_weights,
)
from grslice import stab_a1, symalg
from grslice.cli import CACHE_ENV, main
from grslice.stab_a1 import (
    RestrictionMatrix,
    stab_matrix,
    stab_offdiag_mod_h2,
    theta_action,
    verify_duality,
)
from grslice.chern import bundle_weight, mult_matrix_via_localization
from grslice.symalg import Polynomial, RationalFunction
from helpers import (
    binary_polynomial,
    catalog_slices,
    coefficient,
    document,
    entry_polynomial,
    euler_form,
    euler_polynomial,
    expanded,
    gen,
    localization_denominator,
    minimal_point,
    pairing_sums_reference,
    point,
    polynomial_from_json,
    repelling_tangent_euler,
    shifts_form,
    tangent_euler,
    truncate_mod_h2,
    weight_stat,
)

A1 = CartanDatum("A", 1)
CH_PLUS = Chamber.dominant(A1)
CH_MINUS = Chamber.antidominant(A1)
A = gen(2, 0)
H = gen(2, 1)


def a1_spec(l, k):
    return SliceSpec(A1, [1] * l, Coweight([k]))


TSTAR_P1 = a1_spec(2, 0)
P1 = point(-1, 1)
P2 = point(1, -1)


def grid_specs(max_len):
    for l in range(1, max_len + 1):
        for k in range(-l, l + 1, 2):
            yield a1_spec(l, k)


# -- minimal point and weight statistic --------------------------------------


def test_minimal_point_examples():
    assert minimal_point(TSTAR_P1, CH_PLUS) == P1
    assert minimal_point(TSTAR_P1, CH_MINUS) == P2
    assert minimal_point(a1_spec(5, 3), CH_PLUS) == point(-1, 1, 1, 1, 1)


def test_minimal_point_is_stat_minimum():
    zero_slots = [SliceSpec(A1, lam, Coweight([k])) for lam, k in
                  [((1, 0, 1, 1), 1), ((0, 1, 1, 0, 1, 1), 0), ((1, 0, 0, 1, 1, 1, 0), -2)]]
    for spec in [*grid_specs(5), *zero_slots]:
        for ch in (CH_PLUS, CH_MINUS):
            p0 = minimal_point(spec, ch)
            stats = {p: weight_stat(spec, p, ch) for p in enumerate_fixed_points(spec)}
            assert all(stats[p0] <= s for s in stats.values())
            assert sum(1 for s in stats.values() if s == stats[p0]) == 1
            # the recursion starts from the first point in stat order
            keys = stab_a1._stat_keys(spec, ch)
            start = min(range(len(keys)), key=lambda x: (keys[x], x))
            assert enumerate_fixed_points(spec)[start] == p0


def test_weight_stat_examples():
    assert weight_stat(TSTAR_P1, P1, CH_PLUS) == Fraction(-1, 2)
    assert weight_stat(TSTAR_P1, P2, CH_PLUS) == Fraction(1, 2)
    assert weight_stat(TSTAR_P1, P1, CH_MINUS) == Fraction(1, 2)
    # the recursion orders points by twice the statistic
    for spec in grid_specs(5):
        for ch in (CH_PLUS, CH_MINUS):
            assert stab_a1._stat_keys(spec, ch) == [
                2 * weight_stat(spec, p, ch) for p in enumerate_fixed_points(spec)]


def test_weight_stat_step_is_one():
    for spec in grid_specs(5):
        for p in enumerate_fixed_points(spec):
            for i in range(1, spec.length):
                delta = list(p)
                delta[i - 1], delta[i] = delta[i], delta[i - 1]
                q = point(*delta)
                if q != p:
                    diff = weight_stat(spec, q, CH_PLUS) - weight_stat(spec, p, CH_PLUS)
                    assert abs(diff) == 1


def test_move_partners_swap_the_slots_of_each_move():
    spec = SliceSpec(A1, [1, 0, 1, 1, 0, 1], Coweight([0]))
    points = enumerate_fixed_points(spec)
    moves = stab_a1._move_partners(spec)
    # slots 1 and 3 are adjacent in the nonfrozen subword, and so are 4 and 6
    assert [i for i, _ in moves] == [1, 3, 4]
    for i, partner in moves:
        j = next(j for j in range(i + 1, spec.length + 1) if spec.lambda_seq[j - 1])
        for x, p in enumerate(points):
            delta = list(p)
            delta[i - 1], delta[j - 1] = delta[j - 1], delta[i - 1]
            assert points[partner[x]] == point(*delta)
    heights = stab_a1._point_heights(spec)
    for x, p in enumerate(points):
        assert heights[x] == tuple(accumulate((d[0] for d in p), initial=0))
    # both chambers, validate and theta_action read the same tables
    stab_matrix(spec, CH_PLUS)
    stab_matrix(spec, CH_MINUS)
    assert stab_a1._move_partners(spec) is moves
    assert stab_a1._point_heights(spec) is heights


# -- binary forms ------------------------------------------------------------

COEFFICIENTS = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)),
)


@st.composite
def forms(draw, max_degree=5):
    degree = draw(st.integers(0, max_degree))
    return tuple(draw(st.lists(COEFFICIENTS, min_size=degree + 1, max_size=degree + 1)))


@settings(max_examples=150, deadline=None)
@given(forms(), forms())
def test_form_product_matches_polynomial_product(f, g):
    poly = binary_polynomial
    assert poly(stab_a1._form_mul(f, g)) == poly(f) * poly(g)


def test_exact_routes_multiply_and_divide_no_polynomial(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Polynomial product used")

    assert not hasattr(symalg, "exact_div")
    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    monkeypatch.setattr(Polynomial, "__rmul__", refuse)
    spec = a1_spec(5, 1)
    for ch in (CH_PLUS, CH_MINUS):
        stab_matrix(spec, ch, [1, -1, 1, 1, -1, -1, 1, -1, 1, 1])
        assert verify_duality(spec, ch)["ok"]
        mult_matrix_via_localization(spec, "L2", ch)
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    for check in ("recursion", "duality"):
        code = main(["verify", check, "--type", "A", "--rank", "1", "--lambda", "1,1,1,1,1",
                     "--mu", "1", "--chamber", "dominant"])
        out, err = capsys.readouterr()
        assert code == 0 and err == "", out + err
        assert json.loads(out)["checks"][0]["ok"]


def test_euler_forms_expand_like_euler_polynomials():
    # the rank-one route multiplies the weights u a + n h into forms, and
    # the Counter reference expands the canonical factors a + u n h
    for spec in grid_specs(5):
        points = enumerate_fixed_points(spec)
        for p, x in enumerate(points):
            for ch in (CH_PLUS, CH_MINUS):
                form = stab_a1._repelling_form(spec, x, ch, -1)
                assert binary_polynomial(form) == -euler_polynomial(
                    repelling_tangent_euler(spec, p, ch))
        lcm, cofactor = stab_a1._lcm_cofactors(spec)
        for p, (shifts, sign) in enumerate(cofactor):
            # cofactor times e_T is the lcm
            assert (binary_polynomial(shifts_form(shifts, sign))
                    * euler_polynomial(tangent_euler(spec, p))
                    == binary_polynomial(shifts_form(lcm)))


# the zero-slot slices next to the a1-exact catalog, which has none
ZERO_SLOT_SLICES = [SliceSpec(A1, lam, Coweight([k])) for lam, ks in
                    (([0], [0]), ([1, 0, 1], [-2, 0, 2]), ([1, 0, 1, 1, 0, 1], [-4, -2, 0, 2, 4]))
                    for k in ks]


def test_rank_one_euler_classes_match_the_counter_reference():
    # on every a1-exact catalog slice (l = 3..7, every |mu|) and the
    # zero-slot slices, in both chambers: the diagonals and epsilons of
    # stab_matrix and the localization denominator of _lcm_cofactors
    # against the Counter classes, expanded with euler_polynomial
    polarizations = {}
    for spec, _, signs in catalog_slices("a1-exact"):
        polarizations.setdefault(spec, {None}).add(signs and tuple(signs))
    assert {spec.length for spec in polarizations} == {3, 4, 5, 6, 7}
    polarizations.update((spec, {None}) for spec in ZERO_SLOT_SLICES)
    checked = 0
    for spec, polarization in polarizations.items():
        points = enumerate_fixed_points(spec)
        degree = spec.dimension // 2
        for ch in (CH_PLUS, CH_MINUS):
            for signs in polarization:
                matrix = stab_matrix(spec, ch, signs)
                for x, sign in enumerate(matrix.polarization_signs):
                    reference = sign * euler_polynomial(repelling_tangent_euler(spec, x, ch))
                    assert binary_polynomial(matrix.entries[x, x]) == reference
                    assert matrix.epsilons[x] == coefficient(reference, (degree, 0))
                    checked += 1
        lcm, cofactor = stab_a1._lcm_cofactors(spec)
        reference_lcm, reference_cofactor = localization_denominator(spec)
        assert binary_polynomial(shifts_form(lcm)) == euler_polynomial(reference_lcm)
        assert len(cofactor) == len(points)
        for (shifts, sign), expected in zip(cofactor, reference_cofactor):
            assert binary_polynomial(shifts_form(shifts, sign)) == euler_polynomial(expected)
    assert checked > 1400


# -- recursion ---------------------------------------------------------------


def test_stab_matrix_tstar_p1_golden():
    m = stab_matrix(TSTAR_P1, CH_PLUS)
    assert entry_polynomial(TSTAR_P1, m, P1, P1) == -A
    assert entry_polynomial(TSTAR_P1, m, P2, P1) == -H
    assert entry_polynomial(TSTAR_P1, m, P2, P2) == -(A + H)
    index = point_index(TSTAR_P1)
    assert (index[P1], index[P2]) not in m.entries

    w = stab_matrix(TSTAR_P1, CH_MINUS)
    assert entry_polynomial(TSTAR_P1, w, P2, P2) == A
    assert entry_polynomial(TSTAR_P1, w, P1, P1) == A - H
    assert entry_polynomial(TSTAR_P1, w, P1, P2) == -H
    assert (index[P2], index[P1]) not in w.entries


def test_stab_matrix_rejects_bad_input():
    a2 = CartanDatum("A", 2)
    spec = SliceSpec(a2, [1, 2], Coweight([1, 1]))
    with pytest.raises(ValueError, match="^requires a rank-1 slice, got type A2$"):
        stab_matrix(spec, Chamber.dominant(a2))
    with pytest.raises(ValueError, match="^chamber does not belong to the slice's Cartan datum$"):
        stab_matrix(TSTAR_P1, Chamber.dominant(a2))


def test_minimal_row_has_no_off_diagonal():
    for spec in grid_specs(5):
        for ch in (CH_PLUS, CH_MINUS):
            m = stab_matrix(spec, ch)
            p0 = point_index(spec)[minimal_point(spec, ch)]
            assert all(q == p0 for (p, q) in m.entries if p == p0)


def test_invariants_on_grid():
    # stab_matrix validates triangularity, Euler diagonals, h-divisibility,
    # and the a-degree bound internally; this exercises the whole grid and
    # adds the reduced-diagonal-mod-h check
    for spec in grid_specs(5):
        for ch in (CH_PLUS, CH_MINUS):
            m = stab_matrix(spec, ch)
            for p in range(len(m.points)):
                assert m.entries[(p, p)][0] == m.epsilons[p]


def test_diagonal_constant_is_point_independent():
    # Stab[p]|_p / eps_p mod h^2 = 1 + (|p| + C) h/alpha_ch with C the same
    # for all p; the h/a slope of the reduced diagonal is s(|p| + C) where
    # s = +-1 is the a-coefficient of the chamber-positive root
    for spec in grid_specs(5):
        for ch, s in ((CH_PLUS, 1), (CH_MINUS, -1)):
            constants = set()
            for p in enumerate_fixed_points(spec):
                roots = spec.cartan.root_list
                slope = sum(
                    m * n * roots[col][0]
                    for (col, n), m in tangent_weights(spec, p).items()
                    if not ch.is_positive(roots[col])
                )
                constants.add(s * Fraction(slope) - weight_stat(spec, p, ch))
            assert len(constants) == 1


def test_custom_polarization_rescales_rows():
    base = stab_matrix(TSTAR_P1, CH_PLUS)
    flipped = stab_matrix(TSTAR_P1, CH_PLUS, [1, -1])
    assert entry_polynomial(TSTAR_P1, flipped, P1, P1) == entry_polynomial(TSTAR_P1, base, P1, P1)
    assert entry_polynomial(TSTAR_P1, flipped, P2, P1) == -entry_polynomial(TSTAR_P1, base, P2, P1)
    assert entry_polynomial(TSTAR_P1, flipped, P2, P2) == -entry_polynomial(TSTAR_P1, base, P2, P2)


def test_zero_slot_matrix_matches_compressed():
    frozen = SliceSpec(A1, [1, 0, 1], Coweight([0]))
    m = stab_matrix(frozen, CH_PLUS)
    compressed = stab_matrix(TSTAR_P1, CH_PLUS)

    def squeeze(p):
        return point(*[d[0] for d in p if any(d)])

    assert {squeeze(p) for p in m.points} == set(compressed.points)
    for p, q in m.entries:
        p, q = m.points[p], m.points[q]
        assert (entry_polynomial(frozen, m, p, q)
                == entry_polynomial(TSTAR_P1, compressed, squeeze(p), squeeze(q)))
    assert verify_duality(frozen, CH_PLUS)["ok"]


def test_recursion_builds_no_rational_function(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("RationalFunction built")

    monkeypatch.setattr(RationalFunction, "__init__", refuse)
    # verify_duality builds the stab_matrix of both chambers
    for spec in grid_specs(6):
        for ch in (CH_PLUS, CH_MINUS):
            assert verify_duality(spec, ch)["ok"]


L4 = a1_spec(4, 0)
# reached from (w,-w,-w,w) by move 3 and from (-w,w,w,-w) by move 1
TWO_PATHS = point(1, -1, 1, -1)


def _non_dividing_step(monkeypatch):
    # h^D added to one side of a moving pair leaves a remainder 1 when the
    # difference of the pair's restrictions is divided by a + s*h
    original = stab_a1._raise_row

    def step(points, p, row, ratio, i, partner, heights):
        if points[p] == TWO_PATHS:
            q = next(q for q in row if partner[q] != q)
            row = {**row, q: row[q][:-1] + (row[q][-1] + 1,)}
        return original(points, p, row, ratio, i, partner, heights)

    monkeypatch.setattr(stab_a1, "_raise_row", step)


def _disagreeing_step(monkeypatch):
    # doubling keeps every entry polynomial, so only the path check sees it
    original = stab_a1._raise_row

    def step(points, p, row, ratio, i, partner, heights):
        out = original(points, p, row, ratio, i, partner, heights)
        if points[p] == TWO_PATHS and i == 1:
            out = {q: tuple(2 * c for c in val) for q, val in out.items()}
        return out

    monkeypatch.setattr(stab_a1, "_raise_row", step)


def test_step_that_does_not_divide_raises(monkeypatch):
    _non_dividing_step(monkeypatch)
    with pytest.raises(AssertionError, match=r"entry \(\(w,-w,w,-w\), .* is not polynomial"):
        stab_matrix(L4, CH_PLUS)


def test_disagreeing_paths_raise(monkeypatch):
    _disagreeing_step(monkeypatch)
    with pytest.raises(AssertionError, match=r"transposition paths to \(w,-w,w,-w\) disagree"):
        stab_matrix(L4, CH_PLUS)


@pytest.mark.parametrize("tamper", [_non_dividing_step, _disagreeing_step])
def test_recursion_failure_exits_three_with_one_line(capsys, tmp_path, monkeypatch, tamper):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    tamper(monkeypatch)
    code = main(["stab-exact", "--type", "A", "--rank", "1", "--lambda", "1,1,1,1",
                 "--mu", "0", "--chamber", "dominant"])
    out, err = capsys.readouterr()
    assert code == 3 and err == ""
    assert out.startswith("verification failure: ") and out.count("\n") == 1


# -- mod h^2 closed form -----------------------------------------------------


def test_mod_h2_tstar_p1():
    closed = stab_offdiag_mod_h2(TSTAR_P1, CH_PLUS)
    index = point_index(TSTAR_P1)
    assert {pair: euler_polynomial(e) for pair, e in closed.items()} == {(index[P2], index[P1]): -H}


def test_mod_h2_a2_surface():
    spec = a1_spec(3, 1)
    index = point_index(spec)
    p3 = index[point(1, 1, -1)]
    p1 = index[point(-1, 1, 1)]
    closed = stab_offdiag_mod_h2(spec, CH_PLUS)
    assert euler_polynomial(closed[(p3, p1)]) == -H


def test_mod_h2_matches_exact_truncation():
    for spec in grid_specs(5):
        for ch in (CH_PLUS, CH_MINUS):
            m = stab_matrix(spec, ch)
            closed = stab_offdiag_mod_h2(spec, ch)
            for pi, p in enumerate(m.points):
                for qi, q in enumerate(m.points):
                    if p == q:
                        continue
                    got = truncate_mod_h2(entry_polynomial(spec, m, p, q))
                    assert got == expanded(closed, (pi, qi), Polynomial.zero(2))


# -- theta action ------------------------------------------------------------


def test_theta_action_tstar_p1():
    m = stab_matrix(TSTAR_P1, CH_PLUS)
    out = theta_action(TSTAR_P1, 1, m)
    index = point_index(TSTAR_P1)
    # Theta Stab[p] = -Stab[p] + Stab[r p] with both epsilon ratios +1 here
    for p, rp in ((P1, P2), (P2, P1)):
        for q in (P1, P2):
            want = -entry_polynomial(TSTAR_P1, m, p, q) + entry_polynomial(TSTAR_P1, m, rp, q)
            got = out.get((index[p], index[q]))
            assert (Polynomial.zero(2) if got is None else binary_polynomial(got)) == want


def test_theta_action_fixed_point_row_is_zero():
    spec = a1_spec(2, 2)  # single point (w, w), r_1 fixes it
    m = stab_matrix(spec, CH_PLUS)
    assert theta_action(spec, 2 - 1, m) == {}


def test_theta_action_grid_agrees_both_ways():
    # the function itself raises on left/right disagreement
    for spec in grid_specs(4):
        for ch in (CH_PLUS, CH_MINUS):
            m = stab_matrix(spec, ch)
            for i in range(1, spec.length):
                theta_action(spec, i, m)


def _tamper_off_diagonal(m):
    """Add a^(D-2) h^2 (h^2 when D = 2) to the first stored off-diagonal
    form; returns its (p, q) as points."""
    p, q = next(pq for pq in m.entries if pq[0] != pq[1])
    form = list(m.entries[(p, q)])
    form[2] += 1
    m.entries[(p, q)] = tuple(form)
    return m.points[p], m.points[q]


def test_theta_action_detects_a_tampered_entry():
    spec = a1_spec(4, 0)
    for ch in (CH_PLUS, CH_MINUS):
        m = stab_matrix(spec, ch)
        _, q = _tamper_off_diagonal(m)
        # the slots i at which swapping i and i + 1 moves q
        moving = [i for i in range(1, spec.length) if q[i - 1] != q[i]]
        assert moving
        for i in moving:
            with pytest.raises(AssertionError, match="theta action mismatch"):
                theta_action(spec, i, m)


def test_validate_refuses_an_entry_outside_the_downset():
    spec = a1_spec(6, 0)
    m = stab_matrix(spec, CH_PLUS)

    def heights(x):
        return list(accumulate(d[0] for d in x))

    # q has the lower weight_stat, yet no chain of lowering moves leads from
    # p to q: q's path rises above p's somewhere
    p, q = next(
        (p, q) for p in m.points for q in m.points
        if weight_stat(spec, q, CH_PLUS) < weight_stat(spec, p, CH_PLUS)
        and any(a > b for a, b in zip(heights(q), heights(p)))
    )
    index = point_index(spec)
    h_cubed = (0, 0, 0, 1)
    for row, col in ((p, q), (q, p)):
        tampered = RestrictionMatrix(spec, CH_PLUS, m.polarization_signs,
                                     {**m.entries, (index[row], index[col]): h_cubed},
                                     m.epsilons)
        message = rf"triangularity violated at \({re.escape(row.label())}, {re.escape(col.label())}\)"
        with pytest.raises(AssertionError, match=message):
            tampered.validate(spec)


def test_validate_refuses_a_diagonal_that_is_not_the_euler_class():
    spec = a1_spec(4, 0)
    m = stab_matrix(spec, CH_PLUS)
    p = m.points[2]
    m.entries[2, 2] = tuple(2 * c for c in m.entries[2, 2])
    message = rf"diagonal at {re.escape(p.label())} is not the repelling Euler class"
    with pytest.raises(AssertionError, match=message):
        m.validate(spec)


def test_validate_refuses_an_entry_not_divisible_by_h():
    # for a form of degree D, h | f and deg_a f < D both say c_0 = 0
    spec = a1_spec(4, 0)
    m = stab_matrix(spec, CH_MINUS)
    pq = next(pq for pq in m.entries if pq[0] != pq[1])
    m.entries[pq] = (1,) + m.entries[pq][1:]
    p, q = (m.points[x] for x in pq)
    message = rf"\({re.escape(p.label())}, {re.escape(q.label())}\) is not divisible by h"
    with pytest.raises(AssertionError, match=message):
        m.validate(spec)


def test_constructor_takes_homogeneous_polynomials_only():
    spec = a1_spec(6, 0)  # degree 3: forms of four coefficients
    m = stab_matrix(spec, CH_PLUS)
    again = RestrictionMatrix(spec, CH_PLUS, m.polarization_signs, dict(m.entries),
                              m.epsilons)
    assert again.entries == m.entries
    again.validate(spec)
    pq = next(pq for pq in m.entries if pq[0] != pq[1])
    p, q = (m.points[x] for x in pq)
    message = rf"\({re.escape(p.label())}, {re.escape(q.label())}\) is not homogeneous of degree 3"
    for bad in ((0, 1), (1, 0, 0, 1, 0), ()):
        with pytest.raises(AssertionError, match=message):
            RestrictionMatrix(spec, CH_PLUS, m.polarization_signs,
                              {**m.entries, pq: bad}, m.epsilons)


def test_a_check_holds_under_python_o():
    # python -O drops an assert statement, but not an AssertionError raised
    # by the check itself
    code = ("from grslice.stab_a1 import _epsilon_ratio\n"
            "try:\n    _epsilon_ratio(2, 3)\n"
            "except AssertionError as exc:\n    print(exc)\n    raise SystemExit(3)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=False)
    assert (done.returncode, done.stdout) == (
        3, "epsilon coefficients 2 and 3 differ by more than a sign\n")
    assert (stab_a1._epsilon_ratio(3, 3), stab_a1._epsilon_ratio(2, -2)) == (1, -1)
    with pytest.raises(AssertionError,
                       match="^epsilon coefficients 2 and 4 differ by more than a sign$"):
        stab_a1._epsilon_ratio(2, 4)


def test_theta_action_bad_index():
    m = stab_matrix(TSTAR_P1, CH_PLUS)
    with pytest.raises(ValueError, match="correspondence index 2 out of range"):
        theta_action(TSTAR_P1, 2, m)
    with pytest.raises(ValueError, match="correspondence index 0 out of range"):
        theta_action(TSTAR_P1, 0, m)


# -- duality -----------------------------------------------------------------


def test_integral_of_one_tstar_p1():
    # sum_x 1 / e_T(T_x), evaluated at points where no tangent weight vanishes
    for a, h in ((3, 1), (5, -2), (Fraction(7, 3), 2), (11, 4)):
        total = Fraction(0)
        for x in enumerate_fixed_points(TSTAR_P1):
            euler = Fraction(1)
            for (col, n), mult in tangent_weights(TSTAR_P1, x).items():
                euler *= (TSTAR_P1.cartan.root_list[col][0] * a + n * h) ** mult
            total += 1 / euler
        assert total == Fraction(-2) / ((a - h) * (a + h))


def test_verify_duality_grid():
    for spec in grid_specs(5):
        for ch in (CH_PLUS, CH_MINUS):
            report = verify_duality(spec, ch)
            assert report["ok"], report["failures"]


def test_verify_duality_reports_a_tampered_entry(monkeypatch):
    spec = a1_spec(4, 0)
    original = stab_a1.stab_matrix
    tampered = []

    def stab_with_one_wrong_entry(spec_, ch, polarization_signs=None):
        m = original(spec_, ch, polarization_signs)
        if ch == CH_PLUS:
            tampered.append(_tamper_off_diagonal(m))
        return m

    monkeypatch.setattr(stab_a1, "stab_matrix", stab_with_one_wrong_entry)
    report = verify_duality(spec, CH_PLUS)
    assert len(tampered) == 1
    assert not report["ok"]
    p, x = tampered[0]
    # the diagonal of the other chamber pairs Stab_-[x] with the changed Stab_+[p]
    assert {"p": p.label(), "q": x.label()} in report["failures"]


def test_verify_duality_custom_polarization():
    report = verify_duality(a1_spec(4, 0), CH_PLUS, [1, -1, -1, 1, -1, 1])
    assert report["ok"]


# -- the packed localization pairing ------------------------------------------

PAIRING_SPECS = [a1_spec(3, 1), a1_spec(4, 0), a1_spec(4, 2), a1_spec(5, 1)]


def _with_entries(spec, matrix, entries):
    return RestrictionMatrix(spec, matrix.chamber, matrix.polarization_signs, entries,
                             matrix.epsilons)


def _sum_degree(spec, weighted):
    # a sum has the degree of the lcm, one more with a linear weight
    return sum(localization_denominator(spec)[0].factors.values()) + weighted


def _check_packed_sums(spec, plus, minus, weight=None):
    """The packed sums decode to the convolution's, every coefficient of
    those sums lies below the digit width, and a packed sum equals the
    packed lcm, or 0, exactly when the convolution's sum equals the lcm."""
    b, lcm, sums = stab_a1._pairing_sums(spec, plus, minus, weight)
    reference = pairing_sums_reference(spec, plus, minus, weight)
    assert sums.keys() == reference.keys()
    degree = _sum_degree(spec, weight is not None)
    lcm_form = euler_form(localization_denominator(spec)[0])
    assert shifts_form(lcm) == lcm_form
    for pq, total in sums.items():
        assert stab_a1._unpack(total, b, degree) == reference[pq]
        assert total == stab_a1._pack(reference[pq], b)
        assert all(abs(c) < 1 << (b - 1) for c in reference[pq])
        if weight is None:
            assert (total == stab_a1._shifts_value(lcm, b)) == (reference[pq] == lcm_form)
            assert (total == 0) == (not any(reference[pq]))
    return sums, reference


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(PAIRING_SPECS), st.sampled_from([1, 9, 2**31, 2**80]),
       st.booleans())
def test_packed_pairing_matches_the_convolution(data, spec, magnitude, weighted):
    # coefficients of both signs, often zero or at the largest magnitude, so
    # that sums cancel or grow toward the digit width; a drawn all-zero form
    # is not stored
    coefficient = st.one_of(st.integers(-magnitude, magnitude), st.just(0),
                            st.sampled_from([magnitude, -magnitude]))

    def drawn(matrix):
        width = spec.dimension // 2 + 1
        return _with_entries(spec, matrix, {pq: tuple(data.draw(st.lists(
            coefficient, min_size=width, max_size=width))) for pq in matrix.entries})

    plus, minus = drawn(stab_matrix(spec, CH_PLUS)), drawn(stab_matrix(spec, CH_MINUS))
    weight = None
    if weighted:
        weight = [tuple(data.draw(st.lists(coefficient, min_size=2, max_size=2)))
                  for _ in enumerate_fixed_points(spec)]
    _check_packed_sums(spec, plus, minus, weight)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 70), st.data())
def test_unpack_reads_balanced_digits_up_to_the_digit_width(b, data):
    half = 1 << (b - 1)
    digit = st.one_of(st.integers(-half, half - 1), st.sampled_from([-half, half - 1, 0]))
    form = tuple(data.draw(st.lists(digit, min_size=1, max_size=8)))
    assert stab_a1._unpack(stab_a1._pack(form, b), b, len(form) - 1) == form


@pytest.mark.parametrize("k", [1, 2, 5, 13, 31, 64])
def test_packed_duality_sees_a_tamper_that_vanishes_at_a_power_of_two(k):
    # a^D - 2^k a^(D-1) h is 0 at a = 2^k, h = 1: packed with b = k it
    # would cancel; b must come from the tampered coefficients
    spec = a1_spec(4, 0)
    plus, minus = stab_matrix(spec, CH_PLUS), stab_matrix(spec, CH_MINUS)
    pq, val = next((pq, val) for pq, val in plus.entries.items() if pq[0] != pq[1])
    tamper = (1, -(1 << k)) + (0,) * (len(val) - 2)
    tampered = _with_entries(spec, plus, {**plus.entries, pq: tuple(map(sum, zip(val, tamper)))})
    sums, reference = _check_packed_sums(spec, tampered, minus)
    lcm_form = euler_form(localization_denominator(spec)[0])
    assert any(reference[p, q] != (lcm_form if p == q else (0,) * len(lcm_form))
               for p, q in reference)


def test_localization_route_divides_the_convolution_with_fraction_weights():
    # bundle weights have Fraction coefficients, which the packed route
    # scales to integers and divides out again
    fractional = set()
    for spec in (a1_spec(4, 0), a1_spec(5, 1)):
        points = enumerate_fixed_points(spec)
        lcm = binary_polynomial(euler_form(localization_denominator(spec)[0]))
        bundles = [f"L{k}" for k in range(spec.length + 1)]
        bundles += [f"E{i}" for i in range(1, spec.length + 1)]
        for ch in (CH_PLUS, CH_MINUS):
            plus, minus = stab_matrix(spec, ch), stab_matrix(spec, -ch)
            for bundle in bundles:
                weight = [bundle_weight(spec, x, bundle) for x in range(len(points))]
                if any(c.denominator > 1 for w in weight for c in w):
                    fractional.add(bundle)
                reference = pairing_sums_reference(spec, plus, minus, weight)
                via = mult_matrix_via_localization(spec, bundle, ch)
                assert {(p, q) for q, p in via.entries} <= reference.keys()
                for (p, q), total in reference.items():
                    entry = binary_polynomial(via.entries.get((q, p), (0, 0)))
                    assert binary_polynomial(total) == lcm * entry
    assert len(fractional) > 4


# -- serialization -----------------------------------------------------------


def test_restriction_matrix_json():
    m = stab_matrix(TSTAR_P1, CH_PLUS)
    obj = document("stab-exact", TSTAR_P1, CH_PLUS)
    deltas = [[list(c) for c in p] for p in m.points]
    assert obj["points"] == [[[-1]], [[1]]] or obj["points"] == deltas
    assert obj["points"] == deltas
    assert sorted(obj["chamber"]) == [-1, 1]
    assert set(obj["entries"]) == {"0,0", "1,0", "1,1"}
    assert polynomial_from_json(obj["entries"]["1,0"], 2) == -H
    # byte-identical across rebuilds
    again = document("stab-exact", TSTAR_P1, CH_PLUS)
    assert json.dumps(obj, sort_keys=True) == json.dumps(again, sort_keys=True)
