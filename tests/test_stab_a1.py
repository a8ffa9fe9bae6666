import json
import re
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from grslice.cartan import CartanDatum, Chamber, Coweight
from grslice.slices import (
    FixedPoint,
    SliceSpec,
    dimension,
    enumerate_fixed_points,
    point_index,
    split_attract_repel,
    tangent_weights,
)
from grslice import stab_a1, symalg
from grslice.cli import CACHE_ENV, main
from grslice.stab_a1 import (
    ExactDivisionFailure,
    InvariantViolation,
    NotA1,
    PathInconsistency,
    RestrictionMatrix,
    minimal_point,
    stab_matrix,
    stab_offdiag_mod_h2,
    theta_action,
    verify_duality,
    weight_stat,
)
from grslice.chern import mult_matrix_via_localization
from grslice.symalg import NonDivisible, Polynomial, RationalFunction
from helpers import expanded

A1 = CartanDatum("A", 1)
CH_PLUS = Chamber.dominant(A1)
CH_MINUS = Chamber.antidominant(A1)
A = Polynomial.gen(2, 0)
H = Polynomial.gen(2, 1)


def a1_spec(l, k):
    return SliceSpec(A1, [1] * l, Coweight([k]))


def point(*vals):
    return FixedPointOf(vals)


def FixedPointOf(vals):
    from grslice.slices import FixedPoint

    return FixedPoint(Coweight([v]) for v in vals)


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
    for spec in grid_specs(5):
        for ch in (CH_PLUS, CH_MINUS):
            p0 = minimal_point(spec, ch)
            stats = {p: weight_stat(spec, p, ch) for p in enumerate_fixed_points(spec)}
            assert all(stats[p0] <= s for s in stats.values())
            assert sum(1 for s in stats.values() if s == stats[p0]) == 1


def test_weight_stat_examples():
    assert weight_stat(TSTAR_P1, P1, CH_PLUS) == Fraction(-1, 2)
    assert weight_stat(TSTAR_P1, P2, CH_PLUS) == Fraction(1, 2)
    assert weight_stat(TSTAR_P1, P1, CH_MINUS) == Fraction(1, 2)


def test_weight_stat_step_is_one():
    for spec in grid_specs(5):
        for p in enumerate_fixed_points(spec):
            for i in range(1, spec.length):
                delta = list(p.delta)
                delta[i - 1], delta[i] = delta[i], delta[i - 1]
                q = FixedPoint(delta)
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
            delta = list(p.delta)
            delta[i - 1], delta[j - 1] = delta[j - 1], delta[i - 1]
            assert points[partner[x]] == FixedPoint(delta)
    heights = stab_a1._point_heights(spec)
    for x, p in enumerate(points):
        assert heights[x] == tuple(accumulate((d.coords[0] for d in p.delta), initial=0))
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
    poly = stab_a1._polynomial
    assert poly(stab_a1._form_mul(f, g)) == poly(f) * poly(g)


@settings(max_examples=250, deadline=None)
@given(forms(), COEFFICIENTS, st.booleans())
def test_synthetic_division_inverts_multiplication(f, s, times_divisor):
    num = stab_a1._form_mul(f, (1, s)) if times_divisor else f
    poly = stab_a1._polynomial
    try:
        quotient = stab_a1._form_div(num, s)
    except NonDivisible:
        # factor theorem: a + s h divides the form exactly when the form
        # vanishes at (a, h) = (-s, 1)
        assert not times_divisor
        assert sum(c * (-s) ** e[0] for e, c in poly(num).terms.items()) != 0
    else:
        assert len(quotient) == len(num) - 1
        assert poly(quotient) * poly((1, s)) == poly(num)


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


# -- recursion ---------------------------------------------------------------


def test_stab_matrix_tstar_p1_golden():
    m = stab_matrix(TSTAR_P1, CH_PLUS)
    assert m.entry(P1, P1) == -A
    assert m.entry(P2, P1) == -H
    assert m.entry(P2, P2) == -(A + H)
    index = point_index(TSTAR_P1)
    assert (index[P1], index[P2]) not in m.entries

    w = stab_matrix(TSTAR_P1, CH_MINUS)
    assert w.entry(P2, P2) == A
    assert w.entry(P1, P1) == A - H
    assert w.entry(P1, P2) == -H
    assert (index[P2], index[P1]) not in w.entries


def test_stab_matrix_rejects_bad_input():
    a2 = CartanDatum("A", 2)
    spec = SliceSpec(a2, [1, 2], Coweight([1, 1]))
    with pytest.raises(NotA1):
        stab_matrix(spec, Chamber.dominant(a2))
    with pytest.raises(ValueError):
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
                _, repel = split_attract_repel(tangent_weights(spec, p), ch)
                slope = sum(
                    m * n * root.coords[0]
                    for (root, n), m in repel.entries.items()
                )
                constants.add(s * Fraction(slope) - weight_stat(spec, p, ch))
            assert len(constants) == 1


def test_custom_polarization_rescales_rows():
    base = stab_matrix(TSTAR_P1, CH_PLUS)
    flipped = stab_matrix(TSTAR_P1, CH_PLUS, [1, -1])
    assert flipped.entry(P1, P1) == base.entry(P1, P1)
    assert flipped.entry(P2, P1) == -base.entry(P2, P1)
    assert flipped.entry(P2, P2) == -base.entry(P2, P2)


def test_zero_slot_matrix_matches_compressed():
    frozen = SliceSpec(A1, [1, 0, 1], Coweight([0]))
    m = stab_matrix(frozen, CH_PLUS)
    compressed = stab_matrix(TSTAR_P1, CH_PLUS)

    def squeeze(p):
        return FixedPointOf([d.coords[0] for d in p.delta if not d.is_zero()])

    assert {squeeze(p) for p in m.points} == set(compressed.points)
    for p, q in m.entries:
        p, q = m.points[p], m.points[q]
        assert m.entry(p, q) == compressed.entry(squeeze(p), squeeze(q))
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
    with pytest.raises(ExactDivisionFailure, match=r"entry \(\(w,-w,w,-w\), .* is not polynomial"):
        stab_matrix(L4, CH_PLUS)


def test_disagreeing_paths_raise(monkeypatch):
    _disagreeing_step(monkeypatch)
    with pytest.raises(PathInconsistency, match=r"transposition paths to \(w,-w,w,-w\) disagree"):
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
    assert {pair: e.polynomial() for pair, e in closed.items()} == {(index[P2], index[P1]): -H}


def test_mod_h2_a2_surface():
    spec = a1_spec(3, 1)
    index = point_index(spec)
    p3 = index[point(1, 1, -1)]
    p1 = index[point(-1, 1, 1)]
    closed = stab_offdiag_mod_h2(spec, CH_PLUS)
    assert closed[(p3, p1)].polynomial() == -H


def test_mod_h2_matches_exact_truncation():
    for spec in grid_specs(5):
        for ch in (CH_PLUS, CH_MINUS):
            m = stab_matrix(spec, ch)
            closed = stab_offdiag_mod_h2(spec, ch)
            for pi, p in enumerate(m.points):
                for qi, q in enumerate(m.points):
                    if p == q:
                        continue
                    got = m.entry(p, q).truncate_mod_h2()
                    assert got == expanded(closed, (pi, qi), Polynomial.zero(2))


# -- theta action ------------------------------------------------------------


def test_theta_action_tstar_p1():
    m = stab_matrix(TSTAR_P1, CH_PLUS)
    out = theta_action(TSTAR_P1, 1, m)
    index = point_index(TSTAR_P1)
    # Theta Stab[p] = -Stab[p] + Stab[r p] with both epsilon ratios +1 here
    for p, rp in ((P1, P2), (P2, P1)):
        for q in (P1, P2):
            want = -m.entry(p, q) + m.entry(rp, q)
            got = out.get((index[p], index[q]))
            assert (Polynomial.zero(2) if got is None else stab_a1._polynomial(got)) == want


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
        moving = [i for i in range(1, spec.length) if q.delta[i - 1] != q.delta[i]]
        assert moving
        for i in moving:
            with pytest.raises(AssertionError, match="theta action mismatch"):
                theta_action(spec, i, m)


def test_validate_refuses_an_entry_outside_the_downset():
    spec = a1_spec(6, 0)
    m = stab_matrix(spec, CH_PLUS)

    def heights(x):
        return list(accumulate(d.coords[0] for d in x.delta))

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
        with pytest.raises(InvariantViolation, match=message):
            tampered.validate()


def test_validate_refuses_a_diagonal_that_is_not_the_euler_class():
    m = stab_matrix(a1_spec(4, 0), CH_PLUS)
    p = m.points[2]
    m.entries[2, 2] = tuple(2 * c for c in m.entries[2, 2])
    message = rf"diagonal at {re.escape(p.label())} is not the repelling Euler class"
    with pytest.raises(InvariantViolation, match=message):
        m.validate()


def test_validate_refuses_an_entry_not_divisible_by_h():
    # for a form of degree D, h | f and deg_a f < D both say c_0 = 0
    m = stab_matrix(a1_spec(4, 0), CH_MINUS)
    pq = next(pq for pq in m.entries if pq[0] != pq[1])
    m.entries[pq] = (1,) + m.entries[pq][1:]
    p, q = (m.points[x] for x in pq)
    message = rf"\({re.escape(p.label())}, {re.escape(q.label())}\) is not divisible by h"
    with pytest.raises(InvariantViolation, match=message):
        m.validate()


def test_constructor_takes_homogeneous_polynomials_only():
    spec = a1_spec(6, 0)  # degree 3: forms of four coefficients
    m = stab_matrix(spec, CH_PLUS)
    again = RestrictionMatrix(spec, CH_PLUS, m.polarization_signs, dict(m.entries),
                              m.epsilons)
    assert again.entries == m.entries
    again.validate()
    pq = next(pq for pq in m.entries if pq[0] != pq[1])
    p, q = (m.points[x] for x in pq)
    message = rf"\({re.escape(p.label())}, {re.escape(q.label())}\) is not homogeneous of degree 3"
    for bad in ((0, 1), (1, 0, 0, 1, 0), ()):
        with pytest.raises(InvariantViolation, match=message):
            RestrictionMatrix(spec, CH_PLUS, m.polarization_signs,
                              {**m.entries, pq: bad}, m.epsilons)


def test_theta_action_bad_index():
    m = stab_matrix(TSTAR_P1, CH_PLUS)
    with pytest.raises(IndexError):
        theta_action(TSTAR_P1, 2, m)
    with pytest.raises(IndexError):
        theta_action(TSTAR_P1, 0, m)


# -- duality -----------------------------------------------------------------


def test_integral_of_one_tstar_p1():
    # sum_x 1 / e_T(T_x), evaluated at points where no tangent weight vanishes
    for a, h in ((3, 1), (5, -2), (Fraction(7, 3), 2), (11, 4)):
        total = Fraction(0)
        for x in enumerate_fixed_points(TSTAR_P1):
            euler = Fraction(1)
            for (root, n), mult in tangent_weights(TSTAR_P1, x).items():
                euler *= (root.coords[0] * a + n * h) ** mult
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


# -- serialization -----------------------------------------------------------


def test_restriction_matrix_json():
    m = stab_matrix(TSTAR_P1, CH_PLUS)
    obj = m.to_json()
    assert obj["points"] == [[[-1]], [[1]]] or obj["points"] == [p.to_json() for p in m.points]
    assert obj["points"] == [p.to_json() for p in m.points]
    assert sorted(obj["chamber"]) == [-1, 1]
    assert set(obj["entries"]) == {"0,0", "1,0", "1,1"}
    assert Polynomial.from_json(obj["entries"]["1,0"], 2) == -H
    # byte-identical across rebuilds
    again = stab_matrix(TSTAR_P1, CH_PLUS).to_json()
    assert json.dumps(obj, sort_keys=True) == json.dumps(again, sort_keys=True)
