"""Verification suites: the paper's cross-checks as library functions.

Each suite takes a slice, a chamber and a polarization (None for the
repelling one, or one sign per fixed point) and returns its check record, a
dict with the suite's "name", whether it passed ("ok"), and what it found.
`run` assembles the document that ``grslice verify`` prints.
"""

from __future__ import annotations

from typing import Dict, List

from .chern import line_bundle_matrices, line_bundle_weight, reconstruct_coefficient
from .slices import adjacent_pairs, enumerate_fixed_points, flip_sign
from .stab_a1 import normalize_polarization, stab_matrix, stab_offdiag_mod_h2, verify_duality
from .stab_general import _wall_chambers, stab_mod_h2


def recursion(spec, ch, signs=None) -> dict:
    """The exact rank-one envelopes of both opposite chambers build and validate."""
    # stab_matrix validates what it builds; a failed check raises AssertionError
    try:
        stab_matrix(spec, ch, signs)
        stab_matrix(spec, -ch, signs)
    except AssertionError as exc:
        return {"name": "recursion", "ok": False, "detail": str(exc)}
    return {"name": "recursion", "ok": True}


def duality(spec, ch, signs=None) -> dict:
    """The envelopes of opposite chambers are dual under the localization pairing."""
    report = verify_duality(spec, ch, signs)
    return {
        "name": "duality",
        "ok": report["ok"],
        "pairs": report["pairs"],
        "failures": report["failures"],
    }


def oracle(spec, ch, signs=None) -> dict:
    """Cross-module consistency of the mod-h^2 data with the operator matrices.

    Off the diagonal both sides can be nonzero only on an adjacent pair: a
    reconstruction is 0 off the table of adjacent_pairs, so there each matrix
    entry's h coefficient (its only one, validated) is compared with its
    reconstruction, made once per pair and distinct A-part of the bundle
    weight difference (all it reads); elsewhere none may be stored.
    Failures are listed in the order of the point indices of (p, q).
    """
    failures: List[dict] = []
    points = enumerate_fixed_points(spec)
    signs = normalize_polarization(points, signs)
    entries = stab_mod_h2(spec, ch, signs)
    pairs = adjacent_pairs(spec, ch)
    if spec.cartan.rank == 1 and entries != stab_offdiag_mod_h2(spec, ch, signs):
        failures.append({"check": "rank-one closed form"})
    coefficients: Dict[tuple, object] = {}
    for k, matrix in enumerate(line_bundle_matrices(spec, ch, signs)):
        stored, zero = matrix.entries, matrix.zero
        weights = [line_bundle_weight(spec, p, k) for p in points]
        for pi, p in enumerate(points):
            if stored.get((pi, pi), zero) != weights[pi]:
                failures.append({"check": "diagonal", "bundle": f"L{k}", "p": p.label()})
        wrong = []
        for pi, qi in pairs:
            key = (pi, qi, tuple([w - v for w, v in zip(weights[qi][:-1], weights[pi][:-1])]))
            coeff = coefficients.get(key)
            if coeff is None:
                coeff = coefficients[key] = reconstruct_coefficient(
                    spec, ch, entries, pi, qi, ("L", k), signs)
            if stored.get((qi, pi), zero)[-1] != coeff:
                wrong.append((pi, qi))
        for qi, pi in stored:
            if pi != qi and (pi, qi) not in pairs:
                wrong.append((pi, qi))
        for pi, qi in sorted(wrong):
            failures.append(
                {"check": "reconstruction", "bundle": f"L{k}",
                 "p": points[pi].label(), "q": points[qi].label()}
            )
    return {"name": "oracle", "ok": not failures, "failures": failures}


def wallcross(spec, ch, signs=None) -> dict:
    """Restriction data with a fixed polarization agrees across every wall.

    Pairs on the wall being crossed are left out: their entries change
    there.  The wall of a pair is read from the root of its adjacency witness:
    p and q differ by the coroot at two slots, so every sigma difference is a
    multiple of it, and no other root's coroot divides them all.
    """
    cartan = spec.cartan
    # the suite reads ch for its positive roots only, never its adjacent pairs
    if ch.datum != cartan:
        raise ValueError("chamber does not belong to the slice's Cartan datum")
    failures: List[dict] = []
    compared = 0
    points = enumerate_fixed_points(spec)
    base_signs = normalize_polarization(points, signs)
    # two walls can share a chamber with the same signs
    computed: Dict[tuple, dict] = {}

    def entries(chamber, chamber_signs):
        key = (chamber, chamber_signs)
        if key not in computed:
            computed[key] = stab_mod_h2(spec, chamber, chamber_signs)
        return computed[key]

    for root in cartan.positive_roots(ch):
        # two roots lie on one wall when their columns share a slot
        wall = cartan._slots[cartan._column[root]][0]
        near, far = _wall_chambers(spec, wall)
        left = entries(near, base_signs)
        right = entries(far, tuple(s * flip_sign(spec, x, near, far)
                                   for x, s in enumerate(base_signs)))
        near_pairs, far_pairs = adjacent_pairs(spec, near), adjacent_pairs(spec, far)
        for p, q in sorted(left.keys() | right.keys()):
            witness = near_pairs.get((p, q)) or far_pairs[p, q]
            if cartan._slots[witness.column][0] == wall:
                continue
            compared += 1
            if left.get((p, q)) != right.get((p, q)):
                failures.append(
                    {"root": list(root), "p": points[p].label(), "q": points[q].label()}
                )
    return {"name": "wallcross", "ok": not failures, "compared": compared}


_SUITES = {"recursion": recursion, "duality": duality, "oracle": oracle,
           "wallcross": wallcross}
SUITES = tuple(_SUITES)
# the suites that exist for rank-one slices only
RANK_ONE_SUITES = ("recursion", "duality")


def run(spec, ch, signs=None, which: str = "all") -> dict:
    """The verify document of the suite `which`, or with "all" of every
    suite that applies to the slice, in the order of SUITES.

    Raises ValueError when a rank-one suite is named on a higher-rank slice,
    and for a name that is neither a suite nor "all".
    """
    rank_one = spec.cartan.rank == 1
    if which == "all":
        selected = [name for name in SUITES if rank_one or name not in RANK_ONE_SUITES]
    elif which not in _SUITES:
        raise ValueError(f"unknown verify suite {which!r}")
    elif which in RANK_ONE_SUITES and not rank_one:
        raise ValueError(f"verify {which} requires a rank-one slice")
    else:
        selected = [which]
    checks = [_SUITES[name](spec, ch, signs) for name in selected]
    return {
        "command": "verify",
        "which": which,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
