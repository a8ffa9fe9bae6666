"""Exact stable-envelope restriction matrices for rank-1 slices.

Entries Stab[p]|_q are built by a raising recursion on the polynomial
restrictions themselves, starting from the chamber-minimal fixed point: the
recursion coefficients are linear forms a + n*h read off the sigma path, each
step divides exactly by one such form, and the polarizations of the two rows
differ by a sign, since every repelling half has dim/2 weights +-a + n*h.
Diagonals always come from tangent Euler classes, every row reachable along
two transposition paths is cross-checked, and the localization pairing with
the opposite chamber provides an independent verification of the result.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, Mapping, Tuple

from .cartan import AWeightForm, Chamber, pairing
from .slices import (
    EulerClass,
    FixedPoint,
    SliceSpec,
    _canonical,
    _steps,
    dimension,
    enumerate_fixed_points,
    localization_denominator,
    repelling_euler,
    tangent_weights,  # noqa: F401  callers import it from this module too
)
from .symalg import NonDivisible, Polynomial, exact_div


class NotA1(ValueError):
    """Operation requires a rank-1 slice."""


class PathInconsistency(RuntimeError):
    """Two transposition paths produced different rows."""


class ExactDivisionFailure(RuntimeError):
    """A recursion step did not divide exactly; implementation bug."""


class InvariantViolation(RuntimeError):
    """A computed matrix breaks a restriction-matrix invariant."""


_NVARS = 2  # variables a, h
_A = Polynomial.gen(_NVARS, 0)
_H = Polynomial.gen(_NVARS, 1)
_ZERO = Polynomial.zero(_NVARS)
# the fixed positive root, i.e. the torus character written as the variable a;
# chambers only choose the recursion direction and the polarization side
_ALPHA = AWeightForm((1,))


def _require_a1(spec: SliceSpec) -> None:
    if spec.cartan.type_letter != "A" or spec.cartan.rank != 1:
        raise NotA1(
            f"requires a rank-1 slice, got type "
            f"{spec.cartan.type_letter}{spec.cartan.rank}"
        )


def _chamber_root(ch: Chamber) -> AWeightForm:
    """The positive root of a rank-1 chamber."""
    if ch.datum.rank != 1:
        raise NotA1("chamber does not belong to a rank-1 datum")
    return next(f for f in ch.datum.root_list if ch.is_positive(f))


def minimal_point(spec: SliceSpec, ch: Chamber) -> FixedPoint:
    """The chamber-minimal fixed point: all -omega_ch increments first."""
    _require_a1(spec)
    alpha = _chamber_root(ch)
    omega = spec.cartan.fundamental_coweight(1)
    if pairing(omega, alpha) < 0:
        omega = -omega
    k = pairing(spec.mu, alpha)
    free = [i for i in range(spec.length) if spec.lambda_seq[i] != 0]
    n_plus, rem = divmod(len(free) + k, 2)
    # SliceSpec construction guarantees a nonempty fixed locus
    assert rem == 0 and 0 <= n_plus <= len(free)
    delta = [spec.cartan.zero_coweight()] * spec.length
    for pos, slot in enumerate(free):
        delta[slot] = omega if pos >= len(free) - n_plus else -omega
    return FixedPoint(delta)


def _heights(spec: SliceSpec, p: FixedPoint) -> Tuple[int, ...]:
    """Heights <sigma_k, alpha> of the sigma path against the fixed root,
    summed from the spec's pairing table."""
    col = spec.cartan.root_list.index(_ALPHA)
    return tuple(accumulate((row[col] for row in _steps(spec, p)), initial=0))


def weight_stat(spec: SliceSpec, p: FixedPoint, ch: Chamber) -> Fraction:
    """Half-sum of the sigma heights against the chamber-positive root."""
    sign = 1 if _chamber_root(ch) == _ALPHA else -1
    return Fraction(sign * sum(_heights(spec, p)), 2)


def _move_pairs(spec: SliceSpec) -> List[Tuple[int, int]]:
    """1-based slot pairs that adjacent-transpose the nonfrozen subword."""
    free = [i + 1 for i in range(spec.length) if spec.lambda_seq[i] != 0]
    return list(zip(free, free[1:]))


def _swap(p: FixedPoint, i: int, j: int) -> FixedPoint:
    d = list(p.delta)
    d[i - 1], d[j - 1] = d[j - 1], d[i - 1]
    return FixedPoint(d)


def _partners(points, i: int, j: int) -> Dict[FixedPoint, FixedPoint]:
    """Each point's (i, j)-swap, as the equal member of points."""
    same = {p: p for p in points}
    try:
        return {q: same[_swap(q, i, j)] for q in points}
    except KeyError:
        raise ValueError(f"transposition ({i},{j}) leaves the fixed locus") from None


def _raise_row(p, row, ratio, i, partner, heights):
    """Nonzero restrictions of Stab[p] from those of Stab[prev] (row).

    p = r_i(prev) != prev, partner maps every point to its swap of slots i
    and j > i (slots strictly between them are frozen, so the swap is an
    adjacent transposition of the nonfrozen subword), heights maps every
    point to _heights(spec, point) and ratio = eps_p / eps_prev = +-1.  With
    s, s' the heights of q at i-1 and i,

        Stab[p]|_q = ratio * ((s - s') h Stab[prev]|_q
                              + (a + s' h) Stab[prev]|_{r q}) / (a + s h)

    where r q != q, and ratio * Stab[prev]|_q where r q = q; so only the
    points of row and their partners can have nonzero restrictions.
    """
    out: Dict[FixedPoint, Polynomial] = {}
    for q in dict.fromkeys(x for y in row for x in (y, partner[y])):
        rq = partner[q]
        if rq == q:
            val = row[q]
        else:
            s_prev, s_cur = heights[q][i - 1], heights[q][i]
            num = (_A + s_cur * _H) * row[rq] if rq in row else _ZERO
            if q in row:
                num = num + (s_prev - s_cur) * _H * row[q]
            try:
                val = exact_div(num, _A + s_prev * _H)
            except NonDivisible as exc:
                raise ExactDivisionFailure(
                    f"entry ({p.label()}, {q.label()}) is not polynomial"
                ) from exc
        if not val.is_zero():
            out[q] = ratio * val
    return out


def _scalar_axis_power(poly: Polynomial) -> Tuple[Fraction, int]:
    """Write a one-term polynomial as c * a^m."""
    ((exp, coeff),) = poly.terms.items()
    assert exp[-1] == 0
    return Fraction(coeff), exp[0]


def normalize_polarization(points, polarization_signs) -> Dict[FixedPoint, int]:
    """Resolve None (all +1), a mapping, or a sequence aligned with points."""
    if polarization_signs is None:
        signs = {p: 1 for p in points}
    elif isinstance(polarization_signs, Mapping):
        signs = {p: int(polarization_signs[p]) for p in points}
    else:
        seq = list(polarization_signs)
        if len(seq) != len(points):
            raise ValueError("one polarization sign per fixed point required")
        signs = {p: int(s) for p, s in zip(points, seq)}
    if any(s not in (-1, 1) for s in signs.values()):
        raise ValueError("polarization signs must be +1 or -1")
    return signs


class RestrictionMatrix:
    """Sparse matrix of restrictions Stab[p]|_q over the fixed points.

    entries[(p, q)] = Stab_{ch,eps}[p]|_q with eps|_p = sign(p) * e_A of the
    repelling half; zero entries are not stored.
    """

    __slots__ = ("spec", "chamber", "polarization_signs", "points", "entries",
                 "epsilons", "_stats")

    def __init__(self, spec, chamber, polarization_signs, points, entries,
                 epsilons):
        self.spec = spec
        self.chamber = chamber
        self.polarization_signs = dict(polarization_signs)
        self.points = list(points)
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}
        self.epsilons = dict(epsilons)
        self._stats = {p: weight_stat(spec, p, chamber) for p in self.points}

    def entry(self, p: FixedPoint, q: FixedPoint) -> Polynomial:
        return self.entries.get((p, q), _ZERO)

    def row(self, p: FixedPoint) -> Dict[FixedPoint, Polynomial]:
        return {q: self.entry(p, q) for q in self.points}

    def stored_rows(self) -> Dict[FixedPoint, Dict[FixedPoint, Polynomial]]:
        """Each point's nonzero restrictions, keyed by the restricting point."""
        rows: Dict[FixedPoint, Dict[FixedPoint, Polynomial]] = {p: {} for p in self.points}
        for (p, q), val in self.entries.items():
            rows[p][q] = val
        return rows

    def validate(self) -> None:
        """Triangularity, Euler diagonals, h-divisibility, degree bounds."""
        half_dim = dimension(self.spec) // 2
        for p in self.points:
            e_t = repelling_euler(self.spec, p, self.chamber, True).polynomial()
            if self.entry(p, p) != self.polarization_signs[p] * e_t:
                raise InvariantViolation(
                    f"diagonal at {p.label()} is not the repelling Euler class"
                )
        index = {p: i for i, p in enumerate(self.points)}
        downsets = self._downsets(index)
        for (p, q), val in self.entries.items():
            if p == q:
                continue
            if not (self._stats[q] < self._stats[p] and downsets[p] >> index[q] & 1):
                raise InvariantViolation(
                    f"triangularity violated at ({p.label()}, {q.label()})"
                )
            if not val.drop_h().is_zero():
                raise InvariantViolation(
                    f"({p.label()}, {q.label()}) is not divisible by h"
                )
            if not val.deg_a() < half_dim:
                raise InvariantViolation(
                    f"a-degree bound violated at ({p.label()}, {q.label()})"
                )

    def _downsets(self, index: Dict[FixedPoint, int]) -> Dict[FixedPoint, int]:
        """Each point's downset under the raising moves, as a bit mask over
        index: the point and the downsets of its partners of lower weight_stat,
        built in increasing weight_stat order."""
        stats = self._stats
        partners = [_partners(self.points, i, j) for i, j in _move_pairs(self.spec)]
        downsets: Dict[FixedPoint, int] = {}
        for p in sorted(self.points, key=stats.__getitem__):
            mask = 1 << index[p]
            for partner in partners:
                y = partner[p]
                if stats[y] < stats[p]:
                    mask |= downsets[y]
            downsets[p] = mask
        return downsets

    def to_json(self) -> dict:
        index = {p: i for i, p in enumerate(self.points)}
        keys = sorted(
            self.entries, key=lambda pq: (index[pq[0]], index[pq[1]])
        )
        return {
            "points": [p.to_json() for p in self.points],
            "chamber": list(self.chamber.sign_vector),
            "entries": {
                f"{index[p]},{index[q]}": self.entries[(p, q)].to_json()
                for p, q in keys
            },
        }


def stab_matrix(spec: SliceSpec, ch: Chamber,
                polarization_signs=None) -> RestrictionMatrix:
    """All restrictions Stab[p]|_q by the raising recursion from the minimum."""
    _require_a1(spec)
    if ch.datum != spec.cartan:
        raise ValueError("chamber does not belong to the slice's Cartan datum")
    points = enumerate_fixed_points(spec)
    signs = normalize_polarization(points, polarization_signs)
    stats = {p: weight_stat(spec, p, ch) for p in points}
    heights = {p: _heights(spec, p) for p in points}
    moves = [(i, _partners(points, i, j)) for i, j in _move_pairs(spec)]

    epsilons = {
        p: signs[p] * repelling_euler(spec, p, ch, False).polynomial() for p in points
    }
    p0 = minimal_point(spec, ch)
    rows = {p0: {p0: signs[p0] * repelling_euler(spec, p0, ch, True).polynomial()}}

    for p in sorted((q for q in points if q != p0),
                    key=lambda q: (stats[q], q.key())):
        candidates = []
        for i, partner in moves:
            prev = partner[p]
            if prev != p and stats[prev] < stats[p]:
                ratio = _epsilon_ratio(epsilons[p], epsilons[prev])
                candidates.append(_raise_row(p, rows[prev], ratio, i, partner, heights))
        if not candidates:
            raise PathInconsistency(
                f"{p.label()} is unreachable by raising transpositions"
            )
        first = candidates[0]
        if any(other != first for other in candidates[1:]):
            raise PathInconsistency(f"transposition paths to {p.label()} disagree")
        rows[p] = first

    entries = {(p, q): val for p, row in rows.items() for q, val in row.items()}
    matrix = RestrictionMatrix(spec, ch, signs, points, entries, epsilons)
    matrix.validate()
    return matrix


def stab_offdiag_mod_h2(
    spec: SliceSpec, ch: Chamber, polarization_signs=None
) -> Dict[Tuple[FixedPoint, FixedPoint], EulerClass]:
    """Closed-form off-diagonal restrictions mod h^2, factored as in
    stab_general.stab_mod_h2.

    The entry h * eps|_p / a_ch appears exactly when q is p with one +omega_ch
    increment (slot i) traded against a later -omega_ch increment (slot j);
    every other off-diagonal restriction vanishes mod h^2.
    """
    _require_a1(spec)
    points = enumerate_fixed_points(spec)
    signs = normalize_polarization(points, polarization_signs)
    alpha = _chamber_root(ch)
    h = Counter([_canonical(spec._forms, (0, 1))[0]])
    alpha_form, alpha_scalar = _canonical(spec._forms, alpha.coords + (0,))
    down = Counter([alpha_form])
    col = spec.cartan.root_list.index(alpha)
    out: Dict[Tuple[FixedPoint, FixedPoint], EulerClass] = {}
    for p in points:
        steps = [row[col] for row in _steps(spec, p)]
        if 1 not in steps or -1 not in steps:
            continue
        e_a = repelling_euler(spec, p, ch, False)
        entry = e_a.times_ratio(h, down, Fraction(signs[p], alpha_scalar))
        if entry is None:
            raise ExactDivisionFailure(f"entry at {p.label()} did not clear its denominator")
        for i, si in enumerate(steps):
            if si != 1:
                continue
            for j in range(i + 1, len(steps)):
                if steps[j] == -1:
                    out[(p, _swap(p, i + 1, j + 1))] = entry
    return out


def _epsilon_ratio(e1: Polynomial, e2: Polynomial) -> int:
    c1, m1 = _scalar_axis_power(e1)
    c2, m2 = _scalar_axis_power(e2)
    assert m1 == m2
    ratio = c1 / c2
    assert ratio in (1, -1)
    return int(ratio)


def theta_action(
    spec: SliceSpec, i: int, matrix: RestrictionMatrix
) -> Dict[Tuple[FixedPoint, FixedPoint], Polynomial]:
    """Action of the i-th transposition correspondence on the rows of matrix.

    Computed two independent ways: on rows, -Stab[p] + (eps_p/eps_{r_i p})
    Stab[r_i p]; on columns, the prefactor (a + <alpha, sigma_q^i> h) /
    (a + <alpha, sigma_q^{i-1}> h) applied to -entry(p, q) + entry(p, r_i q).
    A mismatch raises AssertionError.
    """
    _require_a1(spec)
    if not 1 <= i < spec.length:
        raise IndexError(f"correspondence index {i} out of range")
    if spec.lambda_seq[i - 1] != spec.lambda_seq[i]:
        raise ValueError("transposition crosses a frozen slot")
    points = matrix.points
    partner = _partners(points, i, i + 1)
    rows = matrix.stored_rows()
    left: Dict[Tuple[FixedPoint, FixedPoint], Polynomial] = {}
    for p in points:
        rp = partner[p]
        if rp == p:
            continue  # -Stab[p] + Stab[p] = 0
        ratio = _epsilon_ratio(matrix.epsilons[p], matrix.epsilons[rp])
        row, other = rows[p], rows[rp]
        for q in points:
            if q not in row and q not in other:
                continue
            val = ratio * other.get(q, _ZERO) - row.get(q, _ZERO)
            if not val.is_zero():
                left[(p, q)] = val
    # (p, q) holds when (a + s_cur h) * diff == (a + s_prev h) * expected,
    # the cross-multiplication RationalFunction equality would do; it holds
    # trivially where diff and expected both vanish
    columns = []
    for q in points:
        heights = _heights(spec, q)
        columns.append((q, partner[q], _A + heights[i] * _H,
                        _A + heights[i - 1] * _H))
    for p in points:
        row = rows[p]
        for q, rq, num, den in columns:
            expected = left.get((p, q))
            if expected is None:
                if q not in row and rq not in row:
                    continue
                expected = _ZERO
            diff = row.get(rq, _ZERO) - row.get(q, _ZERO)
            if num * diff != den * expected:
                raise AssertionError(
                    f"theta action mismatch at ({p.label()}, {q.label()})"
                )
    return left


def verify_duality(spec: SliceSpec, ch: Chamber,
                   polarization_signs=None) -> dict:
    """Localization pairing of opposite-chamber envelopes against this one.

    Expect the identity matrix.  The dual polarization (-1)^(dim/2) eps comes
    for free by passing the same sign map with the opposite chamber: the two
    repelling halves differ by one sign per weight line, dim/2 in total.
    Denominators are cleared by the least common multiple of the tangent
    Euler classes, so the check is exact polynomial arithmetic.
    """
    plus = stab_matrix(spec, ch, polarization_signs)
    minus = stab_matrix(spec, -ch, polarization_signs)
    points = plus.points
    lcm_poly, cofactor = localization_denominator(spec)

    # the pairing of Stab_-[q] with Stab_+[p] sums over the points x where
    # both restrictions are stored (nonzero); the cofactor rides on Stab_-
    plus_rows = plus.stored_rows()
    minus_rows = {
        q: {x: val * cofactor[x] for x, val in row.items()}
        for q, row in minus.stored_rows().items()
    }

    failures = []
    for q in points:
        weighted = minus_rows[q]
        for p in points:
            total = _ZERO
            for x, pv in plus_rows[p].items():
                mv = weighted.get(x)
                if mv is not None:
                    total = total + mv * pv
            expected = lcm_poly if p == q else _ZERO
            if total != expected:
                failures.append({"p": p.label(), "q": q.label()})
    return {"ok": not failures, "pairs": len(points) ** 2, "failures": failures}
