"""Command-line front end.

Parses a slice description from flags and runs the one builder of its
command, which calls the library and returns the document: its JSON
payload and the function that prints its table.  The text each output
format prints is cached on disk with its exit code, under a content hash
of the canonical job description and the cache format, so a repeated
query is a file read.

Exit codes: 0 on success, 2 on validation errors (bad flags, non-minuscule
weights, rank restrictions: the library raises ValueError) and when the
document cannot be written, 3 when a verification suite or an internal
consistency check fails (the library raises AssertionError).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from math import lcm
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import verify
from .cartan import CartanDatum, Chamber, Coweight, _check_type
from .chern import mult_matrix
from .slices import (SliceSpec, _step_label, _weight_sets, adjacent_pairs, enumerate_fixed_points,
                     normalize_polarization)
from .stab_a1 import stab_matrix
from .stab_general import expand_entries, stab_mod_h2
from .symalg import monomial_key, polynomial_text

CACHE_ENV = "GRSLICE_CACHE_DIR"
# Part of every cache key: raise it whenever any document's bytes change, so
# that entries written by an older version are recomputed, never served.
CACHE_FORMAT = 3


# -- job description -----------------------------------------------------------


class JobSpec(NamedTuple):
    """Validated, canonicalizable description of one CLI invocation."""

    command: str
    letter: str
    rank: int
    lambda_seq: Sequence[int]
    mu: Sequence[int]
    chamber: str = "dominant"
    polarization: str = "repelling"
    bundle: Optional[str] = None
    which: Optional[str] = None
    fmt: str = "json"
    out: Optional[str] = None

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
        if len(self.mu) != self.rank:
            # refused before anything of size rank is built; a bad type
            # letter or rank is still reported first
            _check_type(self.letter, self.rank)
            raise ValueError("mu must be an integral coweight of matching rank")
        datum = CartanDatum(self.letter, self.rank)
        spec = SliceSpec(datum, self.lambda_seq, Coweight(self.mu))
        if self.chamber == "dominant":
            ch = Chamber.dominant(datum)
        elif self.chamber == "antidominant":
            ch = Chamber.antidominant(datum)
        else:
            coords = []
            for tok in self.chamber.split(","):
                try:
                    # Fraction reads an exponent too, and builds 10^k for it
                    if "e" in tok.lower():
                        raise ValueError
                    coords.append(Fraction(tok))
                except ValueError:
                    raise ValueError(f"chamber coordinate {tok!r} is not an integer, "
                                     "a decimal or p/q") from None
                except ZeroDivisionError:
                    raise ValueError(f"chamber {self.chamber!r} has a zero denominator") from None
            # a chamber is its sign vector, which scaling the witness to
            # integers keeps
            den = lcm(*[c.denominator for c in coords])
            ch = Chamber(datum, Coweight(c.numerator * (den // c.denominator) for c in coords))
        signs: Optional[List[int]] = None
        if self.polarization != "repelling":
            tokens = self.polarization.split(",")
            signs = list(normalize_polarization(enumerate_fixed_points(spec), tokens))
        return spec, ch, signs


# -- cache ---------------------------------------------------------------------


def cache_dir() -> str:
    override = os.environ.get(CACHE_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "grslice")


def _entry_path(key: str) -> str:
    """The file that holds the cache entry under `key`."""
    return os.path.join(cache_dir(), key + ".json")


def cache_fetch(key: str) -> Optional[Tuple[int, str]]:
    """The stored exit code and text, or None when the entry is missing or damaged.

    An entry is the sha256 hex digest of the rest of the entry, a space, the
    exit code, a newline, then the text; a truncated or altered entry fails
    the digest check.
    """
    try:
        with open(_entry_path(key), "rb") as fh:
            entry = fh.read()
        # the digest and the text are read through a view of the one buffer
        view = memoryview(entry)
        space = entry.find(b" ")
        if space < 0 or hashlib.sha256(view[space + 1:]).hexdigest().encode("ascii") != entry[:space]:
            return None
        newline = entry.find(b"\n", space)
        if newline < 0:
            newline = len(entry)
        return int(entry[space + 1:newline]), str(view[newline + 1:], "utf-8")
    except (OSError, ValueError):
        return None


def cache_store(key: str, code: int, text: str) -> None:
    """Store the entry through a new randomly named file beside it, renamed
    over it once written; the cache directory is made when that file cannot
    be created for want of it.  A store that fails, say because the cache
    location is a file or is not writable, is skipped, its file removed, and
    the job is unaffected."""
    path = _entry_path(key)
    directory = os.path.dirname(path)
    head, body = b"%d\n" % code, text.encode("utf-8")
    digest = hashlib.sha256(head)
    digest.update(body)
    tmp = os.path.join(directory, f"{key}.{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        try:
            fd = os.open(tmp, flags, 0o600)
        except FileNotFoundError:
            os.makedirs(directory, exist_ok=True)
            fd = os.open(tmp, flags, 0o600)
    except OSError:
        return
    try:
        with open(fd, "wb") as fh:
            fh.write(digest.hexdigest().encode("ascii") + b" " + head)
            fh.write(body)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


# -- document assembly ----------------------------------------------------------


def _wrap(items: List[str], indent: str, brackets: str = "[]") -> str:
    """A nonempty list, or dict, of printed items, at `indent`; one f-string
    wraps the joined items, so a large document is copied once per level."""
    inner = indent + "  "
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{indent}{brackets[1]}"


def _step_texts(points, indent: str) -> List[str]:
    """Each point's steps, the coordinate lists of its list of steps at
    `indent`, joined: what goes between "[" + indent + "  " and indent +
    "]".  Each distinct step's text is built once."""
    inner, steps = indent + "  ", {}
    sep = "," + inner
    return [sep.join([steps.get(c) or steps.setdefault(c, _encode(list(c), inner)) for c in p])
            for p in points]


def _table(rows, header: Sequence[str]) -> str:
    out = [" | ".join(header)]
    out.extend(" | ".join(map(str, row)) for row in rows)
    return "\n".join(out) + "\n"


def _labels(points) -> List[str]:
    """Each point's label, as FixedPoint.label prints it; each distinct slot
    step's piece is printed once."""
    pieces: Dict[tuple, str] = {}
    return ["(" + ",".join([pieces.get(c) or pieces.setdefault(c, _step_label(c)) for c in p])
            + ")" for p in points]


def _point_list(points, labels: List[str], weights=None, roots=None) -> Callable[[str], str]:
    """The "points" of a fixed-points or tangent document (with weights, the
    slice's weight sets and each point's position in them, and the datum's
    root_list).  Each distinct slot step, weight record and weight set is
    printed once, in document order."""
    def text(indent):
        # each point's text is one f-string: its steps, its label and its
        # weights, so each is copied once
        point, key = indent + "  ", indent + "    "
        inner = key + "  "
        head = "{" + key + '"delta": [' + inner
        mid, end = key + "]," + key + '"label": ', point + "}"
        deltas = _step_texts(points, key)
        if weights is None:
            return _wrap([f"{head}{delta}{mid}{_encode_str(label)}{end}"
                          for delta, label in zip(deltas, labels)], indent)
        sets, of = weights
        sep, records, lists = "," + inner, {}, []
        for ws in sets:
            found = [records.get((col, n, m)) or records.setdefault((col, n, m), _encode(
                {"root": list(roots[col]), "n": n, "mult": m}, inner))
                for (col, n), m in ws.items()]
            lists.append(f"[{inner}{sep.join(found)}{key}]" if found else "[]")
        return _wrap([f'{head}{delta}{mid}{_encode_str(label)},{key}"weights": {lists[k]}{end}'
                      for delta, label, k in zip(deltas, labels, of)], indent)

    return text


def _tangent_table(labels: List[str], weights, roots) -> str:
    """The table of a tangent document: a line (point, weight, mult) per
    weight of each point, weights the slice's weight sets and each point's
    position in them."""
    # A slice has few distinct (weight, mult) pairs, each repeated at many
    # points: each pair's suffix and each set's block of suffixes is built once.
    names = _linear_names(len(roots[0]) + 1)
    suffixes: Dict[tuple, str] = {}
    sets, of = weights
    blocks = [[suffixes.get((col, n, m)) or suffixes.setdefault(
        (col, n, m), f" | {_form_text(names, roots[col] + (n,))} | {m}")
        for (col, n), m in ws.items()] for ws in sets]
    lines = ["point | weight | mult"]
    for label, k in zip(labels, of):
        lines.extend([label + suffix for suffix in blocks[k]])
    return "\n".join(lines) + "\n"


def _delta_list(points) -> Callable[[str], str]:
    """The "points" of a stab-exact document, the "basis" of a mult one."""
    def text(indent):
        inner = indent + "  "
        opening, closing = "[" + inner + "  ", inner + "]"
        return _wrap([f"{opening}{delta}{closing}" for delta in _step_texts(points, inner)],
                     indent)

    return text


def _linear_names(width: int) -> List[str]:
    """The monomial names of a linear form's coefficients (a_1, .., a_r, h),
    in descending exponent order."""
    return [f"a{i}" for i in range(1, width)] + ["h"]


def _form_text(names: List[str], form) -> str:
    """The form with coefficients by position k of names[k] (in descending
    exponent order) as a table cell prints it."""
    return polynomial_text([(name, c) for name, c in zip(names, form) if c])


def _form_texts(names: List[str], forms, indent: str) -> List[str]:
    """Each nonzero form (coefficients by position k) as the dict {names[k]:
    str(c)} of its nonzero coefficients prints at `indent`, each line's head
    built once; str prints an int and an equal Fraction alike."""
    inner, order = indent + "  ", sorted(range(len(names)), key=names.__getitem__)
    heads = [(k, f'{inner}"{names[k]}": "') for k in order]
    return ["{" + ",".join([head + str(f[k]) + '"' for k, head in heads if f[k]]) + indent + "}"
            for f in forms]


def _stab_entries(matrix, degree: int, labels: List[str]):
    """The "entries" of a stab-exact document, each stored form, of the
    given degree, under its key "p,q", and the document's table, a line
    (p, q, value) per entry in index order."""
    names = [monomial_key((degree - k, k)) for k in range(degree + 1)]
    keys, forms = zip(*sorted((f'"{p},{q}": ', val) for (p, q), val in matrix.entries.items()))

    def text(indent):
        cells = _form_texts(names, forms, indent + "  ")
        return _wrap([key + cell for key, cell in zip(keys, cells)], indent, "{}")

    return text, lambda: _table([(labels[p], labels[q], _form_text(names, val))
                                 for (p, q), val in sorted(matrix.entries.items())],
                                ("p", "q", "value"))


def _mult_entries(matrix, labels: List[str]):
    """The "entries" of a mult document, the dense rows of the operator
    matrix with {} where no entry is stored, and the document's table, a
    line (row, column, value) per stored entry in index order."""
    names, n = _linear_names(len(matrix.zero)), len(matrix.basis)

    def text(indent):
        row, cell = indent + "  ", indent + "    "
        grid = [["{}"] * n for _ in range(n)]
        for (qi, pi), t in zip(matrix.entries, _form_texts(names, matrix.entries.values(), cell)):
            grid[qi][pi] = t
        return _wrap([_wrap(r, row) for r in grid], indent)

    return text, lambda: _table([(labels[qi], labels[pi], _form_text(names, e))
                                 for (qi, pi), e in sorted(matrix.entries.items())],
                                ("row", "column", "value"))


def _mod_h2_entries(spec: SliceSpec, ch: Chamber, entries, labels: List[str]):
    """The "entries" of a stab-mod-h2 document, a record {"alpha", "p", "q",
    "value"} per entry in (p, q) order, value the expanded entry, and the
    document's table, a line (p, q, alpha, value) per entry.  Both print one
    expansion of each entry, held as the names and coefficients of its
    terms, each name built once."""
    pairs, keys, names = adjacent_pairs(spec, ch), sorted(entries), {}
    roots = spec.cartan.root_list
    values = [(tuple([names.get(e) or names.setdefault(e, monomial_key(e)) for e in terms]),
               tuple(terms.values()))
              for terms in expand_entries([entries[key] for key in keys])]

    def cell(terms, coeffs):  # sorted as it prints, one entry at a time
        return lambda indent: _wrap(
            [f'"{name}": "{c}"' for name, c in sorted(zip(terms, coeffs))], indent, "{}")

    def text(indent):
        return _encode([{"alpha": list(roots[pairs[p, q].column]), "p": p, "q": q,
                         "value": cell(*value)} for (p, q), value in zip(keys, values)], indent)

    return text, lambda: _table(
        [(labels[p], labels[q], ",".join(map(str, roots[pairs[p, q].column])),
          polynomial_text(zip(reversed(terms), reversed(coeffs))))
         for (p, q), (terms, coeffs) in zip(keys, values)], ("p", "q", "alpha", "value"))


class _Document(NamedTuple):
    """A command's document: the payload encode_json prints, and its table's printer."""

    payload: dict
    table: Callable[[], str]


def _cmd_fixed_points(job: JobSpec, spec: SliceSpec, ch: Chamber, signs) -> _Document:
    points = enumerate_fixed_points(spec)
    labels = _labels(points)
    return _Document({"command": "fixed-points", "count": len(points),
                      "points": _point_list(points, labels)},
                     lambda: _table(enumerate(labels), ("index", "label")))


def _cmd_tangent(job: JobSpec, spec: SliceSpec, ch: Chamber, signs) -> _Document:
    points, roots = enumerate_fixed_points(spec), spec.cartan.root_list
    labels, weights = _labels(points), _weight_sets(spec)
    return _Document({"command": "tangent", "points": _point_list(points, labels, weights, roots)},
                     lambda: _tangent_table(labels, weights, roots))


def _cmd_stab_exact(job: JobSpec, spec: SliceSpec, ch: Chamber, signs) -> _Document:
    matrix = stab_matrix(spec, ch, signs)
    labels = _labels(matrix.points)
    entries, table = _stab_entries(matrix, spec.dimension // 2, labels)
    return _Document({"command": "stab-exact", "points": _delta_list(matrix.points),
                      "chamber": list(ch.sign_vector), "entries": entries, "labels": labels},
                     table)


def _cmd_stab_mod_h2(job: JobSpec, spec: SliceSpec, ch: Chamber, signs) -> _Document:
    labels = _labels(enumerate_fixed_points(spec))
    entries, table = _mod_h2_entries(spec, ch, stab_mod_h2(spec, ch, signs), labels)
    return _Document({"command": "stab-mod-h2", "chamber": list(ch.sign_vector),
                      "entries": entries, "labels": labels}, table)


def _cmd_mult(job: JobSpec, spec: SliceSpec, ch: Chamber, signs) -> _Document:
    matrix = mult_matrix(spec, job.bundle, ch, signs)
    labels = _labels(matrix.basis)
    entries, table = _mult_entries(matrix, labels)
    return _Document({"command": "mult", "basis": _delta_list(matrix.basis),
                      "bundle": matrix.label, "chamber": list(ch.sign_vector),
                      "entries": entries, "labels": labels}, table)


def _cmd_verify(job: JobSpec, spec: SliceSpec, ch: Chamber, signs) -> _Document:
    payload = verify.run(spec, ch, signs, job.which)
    rows = [(c["name"], "ok" if c["ok"] else "FAIL") for c in payload["checks"]]
    return _Document(payload, lambda: _table(rows, ("check", "status")))


# each command's builder, called with the job and the slice, chamber and
# signs it builds
_BUILDERS = {
    "fixed-points": _cmd_fixed_points,
    "tangent": _cmd_tangent,
    "stab-exact": _cmd_stab_exact,
    "stab-mod-h2": _cmd_stab_mod_h2,
    "mult": _cmd_mult,
    "verify": _cmd_verify,
}


def compute_payload(job: JobSpec, spec: SliceSpec, ch: Chamber, signs) -> _Document:
    build = _BUILDERS.get(job.command)
    if build is None:
        raise ValueError(f"unknown command {job.command!r}")
    return build(job, spec, ch, signs)


# -- rendering -------------------------------------------------------------------


def _encode(value, indent: str) -> str:
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return repr(value)
    if kind is list or kind is dict:
        if not value:
            return "[]" if kind is list else "{}"
        inner = indent + "  "
        sep = "," + inner
        # one f-string wraps the joined items: a large document is copied
        # once per level, not once per concatenation
        if kind is list:
            return f"[{inner}{sep.join([_encode(v, inner) for v in value])}{indent}]"
        for k in value:
            if type(k) is not str:
                raise TypeError(f"cannot encode a {type(k).__name__} key")
        items = [f"{_encode_str(k)}: {_encode(value[k], inner)}" for k in sorted(value)]
        return f"{{{inner}{sep.join(items)}{indent}}}"
    if callable(value):
        return value(indent)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"cannot encode a {kind.__name__}")


def encode_json(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, for documents only.

    Documents hold str, int, bool, None, lists and dicts with str keys, and
    functions of the indent (the point lists and the matrix entries), which
    print themselves as the lists and dicts they stand for; any other value
    raises TypeError.  Each container joins the encodings of its own
    items, so no list of every piece of the document is ever held.
    """
    return _encode(value, "\n")


def render(document: _Document, fmt: str) -> str:
    """The text that ``--format fmt`` prints for the document."""
    if fmt == "json":
        return encode_json(document.payload) + "\n"
    return document.table()


# -- argument parsing --------------------------------------------------------------


def _int_list(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


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
    common.add_argument("--type", required=True, dest="letter", metavar="LETTER",
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
    suites = sub.add_parser("verify", parents=[common],
                            help="run consistency suites; nonzero exit on failure")
    suites.add_argument("which", choices=verify.SUITES + ("all",))
    return parser


def run(job: JobSpec) -> Tuple[int, str]:
    """Execute one job; returns (exit code, printed text).

    Each output format's text is its own cache entry, stored with the exit
    code, so a hit in either format is a file read.  A stored key implies
    that the job passed validation when it was stored, so a hit neither
    validates nor builds the slice.  A miss computes the document; a table
    miss also stores the JSON document when no JSON entry file exists, so a
    JSON request after it is a hit.
    """
    key = job.cache_key()
    entry = cache_fetch(f"{key}-{job.fmt}")
    if entry is not None:
        return entry
    try:
        document = compute_payload(job, *job.build())
    except ValueError as exc:
        return 2, f"error: {exc}\n"
    except AssertionError as exc:
        return 3, f"verification failure: {exc}\n"
    code = 3 if job.command == "verify" and not document.payload["ok"] else 0
    if job.fmt == "table" and not os.path.exists(_entry_path(f"{key}-json")):
        cache_store(f"{key}-json", code, render(document, "json"))
    text = render(document, job.fmt)
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
    job = JobSpec(**vars(args))
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
        try:
            sys.stdout.write(document)
            sys.stdout.flush()
        except OSError as exc:
            sys.stderr.write(f"error: cannot write to stdout: {exc.strerror}\n")
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
