"""Command-line front end.

Parses a slice description from flags, dispatches to the library, and emits
the result as JSON or a plain table.  The text each output format prints is
cached on disk with its exit code, under a content hash of the canonical job
description and the cache format, so a repeated query is a file read.

Exit codes: 0 on success, 2 on validation errors (bad flags, non-minuscule
weights, rank restrictions), 3 when a verification suite or an internal
consistency check fails.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Dict, List, Optional, Sequence, Tuple

from .cartan import CartanDatum, Chamber, Coweight
from .chern import (
    NonPolynomialEntry,
    bundle_weight,
    line_bundle_matrices,
    mult_matrix,
    parse_bundle,
    reconstruct_coefficient,
)
from .slices import (
    InvalidSlice,
    NonMinusculeUnsupported,
    SliceSpec,
    adjacent_pairs,
    enumerate_fixed_points,
    flip_sign,
    tangent_weights,
)
from .stab_a1 import (
    ExactDivisionFailure,
    InvariantViolation,
    NotA1,
    PathInconsistency,
    normalize_polarization,
    stab_matrix,
    stab_offdiag_mod_h2,
    verify_duality,
)
from .stab_general import mod_h2_json, stab_mod_h2, wall_adjacent_chambers
from .symalg import Polynomial

CACHE_ENV = "GRSLICE_CACHE_DIR"
# Part of every cache key: raise it whenever any document's bytes change, so
# that entries written by an older version are recomputed, never served.
CACHE_FORMAT = 3
VERIFY_CHECKS = ("recursion", "duality", "oracle", "wallcross")

_VALIDATION_ERRORS = (
    NonMinusculeUnsupported,
    InvalidSlice,
    NotA1,
    ValueError,
)
_INTERNAL_ERRORS = (
    PathInconsistency,
    ExactDivisionFailure,
    InvariantViolation,
    NonPolynomialEntry,
    AssertionError,
)


# -- job description -----------------------------------------------------------


class JobSpec:
    """Validated, canonicalizable description of one CLI invocation."""

    __slots__ = (
        "command",
        "letter",
        "rank",
        "lambda_seq",
        "mu",
        "chamber",
        "polarization",
        "bundle",
        "which",
        "fmt",
        "out",
    )

    def __init__(
        self,
        command: str,
        letter: str,
        rank: int,
        lambda_seq: Sequence[int],
        mu: Sequence[int],
        chamber: str = "dominant",
        polarization: str = "repelling",
        bundle: Optional[str] = None,
        which: Optional[str] = None,
        fmt: str = "json",
        out: Optional[str] = None,
    ):
        self.command = command
        self.letter = letter
        self.rank = int(rank)
        self.lambda_seq = tuple(int(i) for i in lambda_seq)
        self.mu = tuple(int(c) for c in mu)
        self.chamber = chamber
        self.polarization = polarization
        self.bundle = bundle
        self.which = which
        self.fmt = fmt
        self.out = out

    def canonical(self) -> dict:
        """Semantic fields only; presentation flags do not enter the cache key."""
        return {
            "command": self.command,
            "type": self.letter,
            "rank": self.rank,
            "lambda": list(self.lambda_seq),
            "mu": list(self.mu),
            "chamber": self.chamber,
            "polarization": self.polarization,
            "bundle": self.bundle,
            "which": self.which,
        }

    def cache_key(self) -> str:
        blob = json.dumps([CACHE_FORMAT, self.canonical()], sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def build(self) -> Tuple[SliceSpec, Chamber, Optional[List[int]]]:
        datum = CartanDatum(self.letter, self.rank)
        spec = SliceSpec(datum, self.lambda_seq, Coweight(self.mu))
        if self.chamber == "dominant":
            ch = Chamber.dominant(datum)
        elif self.chamber == "antidominant":
            ch = Chamber.antidominant(datum)
        else:
            try:
                coords = [Fraction(tok) for tok in self.chamber.split(",")]
            except ZeroDivisionError:
                raise ValueError(f"chamber {self.chamber!r} has a zero denominator") from None
            ch = Chamber(datum, Coweight(coords))
        if self.polarization == "repelling":
            signs: Optional[List[int]] = None
        else:
            signs = [int(tok) for tok in self.polarization.split(",")]
        normalize_polarization(enumerate_fixed_points(spec), signs)
        return spec, ch, signs


# -- cache ---------------------------------------------------------------------


def cache_dir() -> str:
    override = os.environ.get(CACHE_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "grslice")


def cache_fetch(key: str) -> Optional[Tuple[int, str]]:
    """The stored exit code and text, or None when the entry is missing or damaged.

    An entry is the sha256 hex digest of the rest of the entry, a space, the
    exit code, a newline, then the text; a truncated or altered entry fails
    the digest check.
    """
    path = os.path.join(cache_dir(), key + ".json")
    try:
        with open(path, "rb") as fh:
            digest, _, rest = fh.read().partition(b" ")
        if hashlib.sha256(rest).hexdigest().encode("ascii") != digest:
            return None
        code, _, text = rest.partition(b"\n")
        return int(code), text.decode("utf-8")
    except (OSError, ValueError):
        return None


def cache_store(key: str, code: int, text: str) -> None:
    """Store the entry; a store that fails, say because the cache location
    is a file or is not writable, is skipped, and the job is unaffected."""
    directory = cache_dir()
    rest = b"%d\n" % code + text.encode("utf-8")
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(hashlib.sha256(rest).hexdigest().encode("ascii") + b" ")
            fh.write(rest)
        os.replace(tmp, os.path.join(directory, key + ".json"))
    except OSError:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


# -- document assembly ----------------------------------------------------------


# A slice has few distinct slot steps and weight records, each repeated at
# many points: the fixed-points and tangent documents build each one once, in
# a dict kept for the document, and encode_json prints a repeated one once.
def _cmd_fixed_points(spec: SliceSpec, ch: Chamber, signs) -> dict:
    points = enumerate_fixed_points(spec)
    shared: dict = {}
    return {
        "command": "fixed-points",
        "count": len(points),
        "points": [{"delta": p.to_json(shared), "label": p.label()} for p in points],
    }


def _cmd_tangent(spec: SliceSpec, ch: Chamber, signs) -> dict:
    points = enumerate_fixed_points(spec)
    shared: dict = {}
    return {
        "command": "tangent",
        "points": [
            {"delta": p.to_json(shared), "label": p.label(),
             "weights": tangent_weights(spec, p).to_json(shared)}
            for p in points
        ],
    }


def _cmd_stab_exact(spec: SliceSpec, ch: Chamber, signs) -> dict:
    matrix = stab_matrix(spec, ch, signs)
    payload = matrix.to_json()
    payload["command"] = "stab-exact"
    payload["labels"] = [p.label() for p in matrix.points]
    return payload


def _cmd_stab_mod_h2(spec: SliceSpec, ch: Chamber, signs) -> dict:
    entries = stab_mod_h2(spec, ch, signs)
    payload = mod_h2_json(spec, ch, entries)
    payload["command"] = "stab-mod-h2"
    payload["chamber"] = list(ch.sign_vector)
    payload["labels"] = [p.label() for p in enumerate_fixed_points(spec)]
    return payload


def _cmd_mult(spec: SliceSpec, ch: Chamber, signs, bundle: str) -> dict:
    kind, idx = parse_bundle(spec, bundle)
    matrix = mult_matrix(spec, (kind, idx), ch, signs)
    payload = matrix.to_json()
    payload["command"] = "mult"
    payload["chamber"] = list(ch.sign_vector)
    payload["labels"] = [p.label() for p in matrix.basis]
    return payload


def _check_recursion(spec, ch, signs) -> dict:
    # stab_matrix validates what it builds
    try:
        stab_matrix(spec, ch, signs)
        stab_matrix(spec, -ch, signs)
    except (PathInconsistency, InvariantViolation, ExactDivisionFailure) as exc:
        return {"name": "recursion", "ok": False, "detail": str(exc)}
    return {"name": "recursion", "ok": True}


def _check_duality(spec, ch, signs) -> dict:
    report = verify_duality(spec, ch, signs)
    return {
        "name": "duality",
        "ok": report["ok"],
        "pairs": report["pairs"],
        "failures": report["failures"],
    }


def _check_oracle(spec, ch, signs) -> dict:
    """Cross-module consistency of the mod-h^2 data with the operator matrices.

    Off the diagonal both sides can be nonzero only on an adjacent pair: a
    reconstruction is 0 off the table of adjacent_pairs, so there each matrix
    entry is compared with its reconstruction, and elsewhere none may be stored.
    Failures are listed in the order of the point indices of (p, q).
    """
    failures: List[dict] = []
    points = enumerate_fixed_points(spec)
    signs = normalize_polarization(points, signs)
    entries = stab_mod_h2(spec, ch, signs)
    pairs = adjacent_pairs(spec, ch)
    if spec.cartan.rank == 1 and entries != stab_offdiag_mod_h2(spec, ch, signs):
        failures.append({"check": "rank-one closed form"})
    for k, matrix in enumerate(line_bundle_matrices(spec, ch, signs)):
        stored, zero = matrix.entries, matrix.zero
        for pi, p in enumerate(points):
            expected = bundle_weight(spec, p, ("L", k)).to_polynomial()
            if stored.get((pi, pi), zero) != expected:
                failures.append({"check": "diagonal", "bundle": f"L{k}", "p": p.label()})
        wrong = []
        for pi, qi in pairs:
            coeff = reconstruct_coefficient(spec, ch, entries, pi, qi, ("L", k), signs)
            rebuilt = Polynomial.linear_form([0] * spec.cartan.rank, coeff)
            if rebuilt != stored.get((qi, pi), zero):
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


def _check_wallcross(spec, ch, signs) -> dict:
    """Restriction data with a fixed polarization agrees across every wall.

    Pairs on the wall being crossed are left out: their entries change
    there.  The wall of a pair is read from the root of its adjacency witness:
    p and q differ by the coroot at two slots, so every sigma difference is a
    multiple of it, and no other root's coroot divides them all.
    """
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

    for root in spec.cartan.positive_roots(ch):
        near, far = wall_adjacent_chambers(spec.cartan, root)
        left = entries(near, base_signs)
        right = entries(far, tuple(s * flip_sign(spec, x, near, far)
                                   for x, s in enumerate(base_signs)))
        near_pairs, far_pairs = adjacent_pairs(spec, near), adjacent_pairs(spec, far)
        on_wall = (root, -root)
        for p, q in sorted(left.keys() | right.keys()):
            witness = near_pairs.get((p, q)) or far_pairs[p, q]
            if witness.alpha_form in on_wall:
                continue
            compared += 1
            if left.get((p, q)) != right.get((p, q)):
                failures.append(
                    {"root": list(root.coords), "p": points[p].label(), "q": points[q].label()}
                )
    return {"name": "wallcross", "ok": not failures, "compared": compared}


def _cmd_verify(spec, ch, signs, which: str) -> dict:
    available = {
        "recursion": (_check_recursion, spec.cartan.rank == 1),
        "duality": (_check_duality, spec.cartan.rank == 1),
        "oracle": (_check_oracle, True),
        "wallcross": (_check_wallcross, True),
    }
    if which == "all":
        selected = [name for name in VERIFY_CHECKS if available[name][1]]
    else:
        if not available[which][1]:
            raise NotA1(f"verify {which} requires a rank-one slice")
        selected = [which]
    checks = [available[name][0](spec, ch, signs) for name in selected]
    return {
        "command": "verify",
        "which": which,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }


def compute_payload(job: JobSpec, spec: SliceSpec, ch: Chamber, signs) -> dict:
    if job.command == "fixed-points":
        return _cmd_fixed_points(spec, ch, signs)
    if job.command == "tangent":
        return _cmd_tangent(spec, ch, signs)
    if job.command == "stab-exact":
        return _cmd_stab_exact(spec, ch, signs)
    if job.command == "stab-mod-h2":
        return _cmd_stab_mod_h2(spec, ch, signs)
    if job.command == "mult":
        return _cmd_mult(spec, ch, signs, job.bundle)
    if job.command == "verify":
        return _cmd_verify(spec, ch, signs, job.which)
    raise ValueError(f"unknown command {job.command!r}")


# -- rendering -------------------------------------------------------------------


def _poly_str(obj: dict, rank: int) -> str:
    return str(Polynomial.from_json(obj, rank + 1))


def _table(rows: List[Sequence[str]], header: Sequence[str]) -> str:
    out = [" | ".join(header)]
    out.extend(" | ".join(map(str, row)) for row in rows)
    return "\n".join(out) + "\n"


def render_table(payload: dict, rank: int) -> str:
    command = payload["command"]
    if command == "fixed-points":
        rows = [(i, pt["label"]) for i, pt in enumerate(payload["points"])]
        return _table(rows, ("index", "label"))
    if command == "tangent":
        # A slice has few distinct weights, each repeated at many points.
        weights = {}
        rows = []
        for pt in payload["points"]:
            for w in pt["weights"]:
                key = (tuple(w["root"]), w["n"])
                text = weights.get(key)
                if text is None:
                    text = weights[key] = str(Polynomial.linear_form(w["root"], w["n"]))
                rows.append((pt["label"], text, w["mult"]))
        return _table(rows, ("point", "weight", "mult"))
    if command == "stab-exact":
        labels = payload["labels"]
        rows = []
        for key in sorted(payload["entries"], key=lambda k: tuple(map(int, k.split(",")))):
            i, j = (int(t) for t in key.split(","))
            rows.append((labels[i], labels[j], _poly_str(payload["entries"][key], rank)))
        return _table(rows, ("p", "q", "value"))
    if command == "stab-mod-h2":
        labels = payload["labels"]
        rows = [
            (
                labels[e["p"]],
                labels[e["q"]],
                ",".join(str(c) for c in e["alpha"]),
                _poly_str(e["value"], rank),
            )
            for e in payload["entries"]
        ]
        return _table(rows, ("p", "q", "alpha", "value"))
    if command == "mult":
        labels = payload["labels"]
        rows = []
        for qi, row in enumerate(payload["entries"]):
            for pi, cell in enumerate(row):
                if cell:
                    rows.append((labels[qi], labels[pi], _poly_str(cell, rank)))
        return _table(rows, ("row", "column", "value"))
    if command == "verify":
        rows = [(c["name"], "ok" if c["ok"] else "FAIL") for c in payload["checks"]]
        return _table(rows, ("check", "status"))
    raise ValueError(f"no table renderer for {command!r}")


def _encode(value, indent: str, memo: dict) -> str:
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return repr(value)
    if kind is list or kind is dict:
        if not value:
            return "[]" if kind is list else "{}"
        # a container that holds a str (a label or a coefficient) stands at
        # one place in a document, so the memo looks only at the others
        key = None
        if str not in map(type, value if kind is list else value.values()):
            key = (id(value), indent)
            seen = memo.get(key)
            if seen:
                return seen
        inner = indent + "  "
        if kind is list:
            items = [_encode(v, inner, memo) for v in value]
            text = "[" + inner + ("," + inner).join(items) + indent + "]"
        else:
            for k in value:
                if type(k) is not str:
                    raise TypeError(f"cannot encode a {type(k).__name__} key")
            items = [_encode_str(k) + ": " + _encode(value[k], inner, memo)
                     for k in sorted(value)]
            text = "{" + inner + ("," + inner).join(items) + indent + "}"
        # the first sighting leaves an empty mark, and only a repeat keeps
        # its text, so the memo holds no text of a container met once
        if key is not None:
            memo[key] = "" if seen is None else text
        return text
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"cannot encode a {kind.__name__}")


def encode_json(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, for documents only.

    Documents hold str, int, bool, None, lists and dicts with str keys; any
    other value raises TypeError.  Each container joins the encodings of its
    own items, so no list of every piece of the document is ever held.

    A document may hold one list or dict object at many places, such as the
    slot steps and weight records that a tangent document shares between its
    points.  A memo that lives for this one call, keyed by a container's
    identity and depth, keeps the text of each container met more than once,
    so a repeat is encoded once per depth.  Only containers that hold no str
    enter it: labels and coefficients stand at one place each.  The ids are
    stable because `value` holds every container for the whole call.  A
    builder that shares a sub-document never mutates it, so every sighting
    prints the same text.
    """
    return _encode(value, "\n", {})


def render(payload: dict, fmt: str, rank: int) -> str:
    """The text that ``--format fmt`` prints for the document `payload`."""
    if fmt == "json":
        return encode_json(payload) + "\n"
    return render_table(payload, rank)


# -- argument parsing --------------------------------------------------------------


def _int_list(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",")]


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads "--mu -2,0" as it reads "--mu=-2,0",
    and reports bad input in one line.

    argparse takes an argument that starts with "-" for an option unless it
    is a plain negative number.  No grslice option starts with "-<digit>" or
    "-.<digit>", so this parser, and the subcommand parsers it makes, take
    every such argument for a value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="grslice",
        description="Exact fixed-point, restriction, and multiplication data "
        "for resolved affine Grassmannian slices.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", required=True, metavar="LETTER",
                        help="Cartan type letter, e.g. A or B")
    common.add_argument("--rank", required=True, type=int)
    common.add_argument("--lambda", required=True, dest="lambda_seq",
                        type=_int_list, metavar="I,J,...",
                        help="fundamental-coweight indices of the weight sequence")
    common.add_argument("--mu", required=True, type=_int_list, metavar="C,...",
                        help="target coweight in fundamental-coweight coordinates")
    common.add_argument("--chamber", default="dominant",
                        help='"dominant", "antidominant", or rational coordinates "1,-1/2"')
    common.add_argument("--polarization", default="repelling",
                        help='"repelling" or one sign per fixed point, "+1,-1,..."')
    common.add_argument("--format", default="json", choices=("json", "table"),
                        dest="fmt")
    common.add_argument("--out", default=None, help="write the document to this path")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fixed-points", parents=[common],
                   help="enumerate the torus fixed points")
    sub.add_parser("tangent", parents=[common],
                   help="tangent weight multisets at every fixed point")
    sub.add_parser("stab-exact", parents=[common],
                   help="exact restriction matrix (rank one only)")
    sub.add_parser("stab-mod-h2", parents=[common],
                   help="restriction matrix modulo h^2")
    mult = sub.add_parser("mult", parents=[common],
                          help="divisor multiplication matrix in the stable basis")
    mult.add_argument("--bundle", required=True, metavar="L<k>|E<i>")
    verify = sub.add_parser("verify", parents=[common],
                            help="run consistency suites; nonzero exit on failure")
    verify.add_argument("which", choices=VERIFY_CHECKS + ("all",))
    return parser


def job_from_args(args: argparse.Namespace) -> JobSpec:
    return JobSpec(
        command=args.command,
        letter=args.type,
        rank=args.rank,
        lambda_seq=args.lambda_seq,
        mu=args.mu,
        chamber=args.chamber,
        polarization=args.polarization,
        bundle=getattr(args, "bundle", None),
        which=getattr(args, "which", None),
        fmt=args.fmt,
        out=args.out,
    )


def run(job: JobSpec) -> Tuple[int, str]:
    """Execute one job; returns (exit code, printed text).

    Each output format's text is its own cache entry, stored with the exit
    code, so a hit in either format is a file read.  A stored key implies
    that the job passed validation when it was stored, so a hit neither
    validates nor builds the slice.  A table miss renders the stored JSON
    document when there is one, and otherwise stores both formats.
    """
    key = job.cache_key()
    entry = cache_fetch(f"{key}-{job.fmt}")
    if entry is not None:
        return entry
    stored = cache_fetch(f"{key}-json") if job.fmt == "table" else None
    if stored is not None:
        code, payload = stored[0], json.loads(stored[1])
    else:
        try:
            payload = compute_payload(job, *job.build())
        except _VALIDATION_ERRORS as exc:
            return 2, f"error: {exc}\n"
        except _INTERNAL_ERRORS as exc:
            return 3, f"verification failure: {exc}\n"
        code = 3 if job.command == "verify" and not payload["ok"] else 0
        if job.fmt == "table":
            cache_store(f"{key}-json", code, render(payload, "json", job.rank))
    text = render(payload, job.fmt, job.rank)
    cache_store(f"{key}-{job.fmt}", code, text)
    return code, text


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    job = job_from_args(args)
    if job.out and not os.path.isdir(os.path.dirname(os.path.abspath(job.out))):
        sys.stderr.write(f"error: no directory to hold --out {job.out}\n")
        return 2
    code, document = run(job)
    if code in (0, 3) and job.out:
        try:
            with open(job.out, "w", encoding="utf-8") as fh:
                fh.write(document)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write --out {job.out}: {exc.strerror}\n")
            return 2
    elif code == 2:
        sys.stderr.write(document)
    else:
        sys.stdout.write(document)
    return code


if __name__ == "__main__":
    sys.exit(main())
