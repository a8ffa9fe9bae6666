import copy
import errno
import gc
import hashlib
import inspect
import json
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from grslice import cartan, cli, slices, stab_general, verify
from grslice.cartan import CartanDatum, Chamber, Coweight
from grslice.cli import CACHE_ENV, JobSpec, build_parser, cache_fetch, cache_store, main
from grslice.chern import mult_matrix
from grslice.slices import adjacent_pairs, enumerate_fixed_points
from grslice.stab_a1 import RestrictionMatrix, stab_matrix
from grslice.stab_general import stab_mod_h2
from helpers import (entry_polynomial, euler_polynomial, fundamental_coweight, is_zero,
                     linear_form, polynomial_from_json, reference_document, reference_str, vsum,
                     zero_coweight)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    return tmp_path


BASE_A1 = ["--type", "A", "--rank", "1", "--lambda", "1,1", "--mu", "0"]
BASE_FL3 = ["--type", "A", "--rank", "2", "--lambda", "1,1,1", "--mu", "0,0"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- documented examples ---------------------------------------------------------


def test_fixed_points_two_point_slice(capsys):
    code, out, err = run_cli(capsys, ["fixed-points"] + BASE_A1)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["count"] == 2
    assert [pt["label"] for pt in payload["points"]] == ["(-w,w)", "(w,-w)"]


def test_stab_exact_five_point_slice(capsys):
    argv = ["stab-exact", "--type", "A", "--rank", "1", "--lambda", "1,1,1,1,1",
            "--mu", "3", "--chamber", "dominant"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert len(payload["points"]) == 5
    for key, value in payload["entries"].items():
        i, j = key.split(",")
        assert 0 <= int(i) < 5 and 0 <= int(j) < 5
        assert not is_zero(polynomial_from_json(value, 2))


def test_verify_all_three_point_flag_slice(capsys):
    code, out, err = run_cli(capsys, ["verify", "all"] + BASE_FL3)
    assert code == 0, out + err
    payload = json.loads(out)
    assert payload["ok"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == ["oracle", "wallcross"]


def test_verify_all_rank_one_runs_every_check(capsys):
    code, out, _ = run_cli(capsys, ["verify", "all"] + BASE_A1)
    assert code == 0
    payload = json.loads(out)
    assert [c["name"] for c in payload["checks"]] == [
        "recursion", "duality", "oracle", "wallcross",
    ]
    assert payload["ok"] is True


@pytest.mark.parametrize("command", [["fixed-points"], ["tangent"], ["stab-exact"],
                                     ["verify", "all"]], ids="-".join)
def test_a_slice_of_1200_slots_runs(capsys, command):
    # the one point (w, .., w): the slots are walked with a stack, so their
    # number is not bounded by the recursion limit
    argv = command + ["--type", "A", "--rank", "1", "--lambda", ",".join(["1"] * 1200),
                      "--mu", "1200"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    if command[0] == "verify":
        assert payload["ok"]
        assert [c["pairs"] for c in payload["checks"] if c["name"] == "duality"] == [1]
    else:
        assert len(payload["points"]) == 1
    if command[0] == "fixed-points":
        assert payload["points"][0]["label"] == "(" + ",".join(["w"] * 1200) + ")"


# -- validation failures -----------------------------------------------------------


def test_non_minuscule_weight_exits_two(capsys):
    argv = ["fixed-points", "--type", "B", "--rank", "2", "--lambda", "1", "--mu", "1,0"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and "error" in err


@pytest.mark.parametrize("flags, flag, value", [
    (["--lambda", "1,,1", "--mu", "0"], "--lambda", "'1,,1'"),
    (["--lambda=", "--mu", "0"], "--lambda", "''"),
    (["--lambda", "1", "--mu", "x"], "--mu", "'x'"),
], ids=["empty-entry", "empty-list", "not-a-number"])
def test_malformed_integer_list_names_the_expected_form(capsys, flags, flag, value):
    code, out, err = run_cli(capsys, ["fixed-points", "--type", "A", "--rank", "1"] + flags)
    assert (code, out) == (2, "")
    assert err == (f"grslice fixed-points: error: argument {flag}: "
                   f"expected comma-separated integers, got {value}\n")


# a mu of the wrong length is refused before the datum, whose cost grows
# like rank^3, or even its rank-by-rank Cartan matrix is built; a bad type
# letter or rank is still reported first
@pytest.mark.parametrize("letter, rank, message", [
    ("A", "300", "mu must be an integral coweight of matching rank"),
    ("A", "1000000000", "mu must be an integral coweight of matching rank"),
    ("Q", "2", "unknown type letter 'Q'"),
    ("E", "5", "rank 5 is not valid for type E"),
], ids=["A300", "A1e9", "bad-letter", "bad-rank"])
def test_mu_of_the_wrong_length_exits_two_before_the_datum_is_built(capsys, monkeypatch,
                                                                    letter, rank, message):
    monkeypatch.setattr(cli, "CartanDatum", _refuse)
    monkeypatch.setattr(cartan, "_build_cartan_matrix", _refuse)
    argv = ["fixed-points", "--type", letter, "--rank", rank, "--lambda", "1", "--mu", "0"]
    assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("error, code, stdout, stderr", [
    (ValueError("x"), 2, "", "error: x\n"),
    (AssertionError("y"), 3, "verification failure: y\n", ""),
], ids=["refused-input", "failed-check"])
def test_each_failure_builtin_has_its_exit_code_and_one_line(capsys, monkeypatch, error, code,
                                                              stdout, stderr):
    # refused input raises ValueError and a failed check AssertionError,
    # wherever in the library either is raised
    def route(job, spec, ch, signs):
        raise error

    monkeypatch.setitem(cli._BUILDERS, "fixed-points", route)
    assert run_cli(capsys, ["fixed-points"] + BASE_A1) == (code, stdout, stderr)


def test_stab_exact_rank_two_exits_two(capsys):
    code, out, err = run_cli(capsys, ["stab-exact"] + BASE_FL3)
    assert code == 2 and "error" in err


def test_verify_duality_rank_two_exits_two(capsys):
    code, _, err = run_cli(capsys, ["verify", "duality"] + BASE_FL3)
    assert code == 2 and "rank-one" in err


def test_chamber_on_wall_exits_two(capsys):
    argv = ["fixed-points"] + BASE_FL3 + ["--chamber", "1,-1"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2 and "hyperplane" in err


def test_chamber_of_the_wrong_length_names_both_counts(capsys):
    code, out, err = run_cli(capsys, ["fixed-points"] + BASE_A1 + ["--chamber", "1,2"])
    assert (code, out, err) == (
        2, "", "error: chamber witness has 2 coordinates, but type A1 needs 1\n")


def test_bad_polarization_length_exits_two(capsys):
    argv = ["fixed-points"] + BASE_A1 + ["--polarization", "1,1,1"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2


def test_missing_bundle_flag_exits_two(capsys):
    code, _, _ = run_cli(capsys, ["mult"] + BASE_A1)
    assert code == 2


def test_bundle_out_of_range_exits_two(capsys):
    code, _, err = run_cli(capsys, ["mult"] + BASE_A1 + ["--bundle", "L7"])
    assert code == 2 and "out of range" in err


# str.isdigit holds for both tags; int() rejects the first and reads the second as 1
@pytest.mark.parametrize("tag", ["L\u00b2", "L\u0661"])
def test_bundle_tag_with_a_non_ascii_digit_exits_two(capsys, tag):
    code, out, err = run_cli(capsys, ["mult"] + BASE_A1 + ["--bundle", tag])
    assert (code, out, err) == (2, "", f"error: malformed bundle tag {tag!r}\n")


# the parser requires --bundle and restricts `which`; a job built in code
# reaches the library with neither check
@pytest.mark.parametrize("job, message", [
    (JobSpec("mult", "A", 1, (1, 1), (0,)), "mult needs a bundle tag L<k> or E<i>"),
    (JobSpec("mult", "A", 1, (1, 1), (0,), bundle="X1"), "unknown bundle kind 'X'"),
    (JobSpec("verify", "A", 1, (1, 1), (0,), which="nonsense"),
     "unknown verify suite 'nonsense'"),
    # a chamber or polarization token that cannot be read is named
    (JobSpec("fixed-points", "A", 1, (1, 1), (0,), polarization="+1,x"),
     "polarization sign 'x' is not an integer"),
    (JobSpec("fixed-points", "A", 2, (1, 1, 1), (0, 0), chamber="nan,1"),
     "chamber coordinate 'nan' is not an integer, a decimal or p/q"),
    (JobSpec("fixed-points", "A", 2, (1, 1, 1), (0, 0), chamber="1,-inf"),
     "chamber coordinate '-inf' is not an integer, a decimal or p/q"),
], ids=["no-bundle", "unknown-bundle-kind", "unknown-suite", "polarization-sign",
        "chamber-nan", "chamber-inf"])
def test_job_built_in_code_with_a_bad_tag_exits_two(job, message):
    assert cli.run(job) == (2, f"error: {message}\n")


def test_chamber_with_zero_denominator_exits_two(capsys):
    code, out, err = run_cli(capsys, ["fixed-points"] + BASE_A1 + ["--chamber", "1/0"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# Fraction reads an exponent as well, and builds 10^k for it: 1e10000000
# alone takes seconds, so a coordinate with an exponent is refused
@pytest.mark.parametrize("chamber", ["1e5,1", "2,1E-3", "1e10000000,1"])
def test_chamber_with_an_exponent_exits_two(capsys, chamber):
    code, out, err = run_cli(capsys, ["fixed-points"] + BASE_FL3 + ["--chamber", chamber])
    assert code == 2 and out == ""
    assert err.startswith("error: chamber coordinate ") and err.count("\n") == 1


def test_chamber_integers_decimals_and_fractions_still_parse(capsys):
    for chamber in ("2,-1", "2.5,-0.5", "5/2,-1/2", " 3 ,-1"):
        code, out, err = run_cli(capsys, ["fixed-points"] + BASE_FL3 + ["--chamber", chamber])
        assert code == 0, (chamber, err)


class _FailingStdout:
    """A stdout on a full disk: `failing` names the method that raises."""

    def __init__(self, failing):
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, "No space left on device")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_failed_stdout_write_exits_two_with_one_line(capsys, monkeypatch, failing):
    monkeypatch.setattr(sys, "stdout", _FailingStdout(failing))
    code = main(["fixed-points"] + BASE_A1)
    assert code == 2
    assert capsys.readouterr().err == "error: cannot write to stdout: No space left on device\n"


def test_out_in_missing_directory_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "doc.json"
    code, out, err = run_cli(capsys, ["fixed-points"] + BASE_A1 + ["--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.parent.exists()


# -- output contracts ----------------------------------------------------------------


def test_byte_identical_reruns(capsys):
    argv = ["stab-mod-h2"] + BASE_FL3
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_cache_hit_matches_recompute(capsys, tmp_path, monkeypatch):
    argv = ["mult"] + BASE_A1 + ["--bundle", "E1"]
    _, fresh, _ = run_cli(capsys, argv)
    _, cached, _ = run_cli(capsys, argv)
    assert cached == fresh
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache-two"))
    _, recomputed, _ = run_cli(capsys, argv)
    assert recomputed == fresh


def test_cache_store_and_fetch_roundtrip():
    document = json.dumps({"command": "fixed-points", "count": 1, "points": []},
                          sort_keys=True, indent=2) + "\n"
    cache_store("deadbeef", 0, document)
    cache_store("deadbeef-table", 3, "check | status\n")
    assert cache_fetch("deadbeef") == (0, document)
    assert cache_fetch("deadbeef-table") == (3, "check | status\n")
    assert cache_fetch("0" * 8) is None


def test_cache_location_that_is_a_file_skips_the_store(capsys, tmp_path, monkeypatch):
    # a store that cannot create the cache directory must not end the job:
    # the document is printed and the job's exit code returned
    expected = {}
    for fmt in ("json", "table"):
        argv = ["fixed-points"] + BASE_A1 + ["--format", fmt]
        expected[fmt] = run_cli(capsys, argv)
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv(CACHE_ENV, str(blocker))
    for fmt in ("json", "table"):
        argv = ["fixed-points"] + BASE_A1 + ["--format", fmt]
        assert run_cli(capsys, argv) == expected[fmt]
        assert expected[fmt][0] == 0
    assert blocker.read_text() == ""


class _FileThatCannotBeWritten:
    """A file open on a full disk: every write fails."""

    def __init__(self, fd):
        self.fd = fd

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.close(self.fd)

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


def _open_on_a_full_disk(file, *args, **kwargs):
    """open, where a file opened by its descriptor cannot be written."""
    if isinstance(file, int):
        return _FileThatCannotBeWritten(file)
    return open(file, *args, **kwargs)


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_failed_store_leaves_no_temporary_file(capsys, tmp_path, monkeypatch, failing):
    # a store whose write or rename fails removes its file and stores
    # nothing; the job prints the same text with the same exit code
    argvs = [["tangent"] + BASE_FL3 + ["--format", fmt] for fmt in ("table", "json")]
    argvs.append(["verify", "all"] + BASE_A1)
    expected = [run_cli(capsys, argv) for argv in argvs]
    cache = tmp_path / "cache-two"
    monkeypatch.setenv(CACHE_ENV, str(cache))
    if failing == "write":
        monkeypatch.setattr(cli, "open", _open_on_a_full_disk, raising=False)
    else:
        def refuse(src, dst):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(cli.os, "replace", refuse)
    for argv, (code, out, err) in zip(argvs, expected):
        assert run_cli(capsys, argv) == (code, out, err)
        assert code == 0 and out and not err
        # nothing is left, so the job computes again
        assert sorted(cache.iterdir()) == []


def test_store_into_a_missing_directory_creates_it(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "not" / "yet" / "made"
    monkeypatch.setenv(CACHE_ENV, str(cache))
    argv = ["fixed-points"] + BASE_A1
    code, out, _ = run_cli(capsys, argv)
    [entry] = cache.glob("*.json")
    assert code == 0 and cache_fetch(entry.stem) == (0, out)
    assert [p.name for p in cache.iterdir()] == [entry.name]
    monkeypatch.setattr(cli, "compute_payload", None)
    assert run_cli(capsys, argv) == (0, out, "")


def _only_entry(tmp_path):
    [entry] = (tmp_path / "cache").glob("*.json")
    return entry


# An entry is one header line (a sha256 digest and the exit code), then the text.
def _text_start(raw: bytes) -> int:
    return raw.index(b"\n") + 1


def _truncate(raw: bytes) -> bytes:
    start = _text_start(raw)
    return raw[: start + (len(raw) - start) // 2]


def _flip_last_digit(raw: bytes) -> bytes:
    # Still valid JSON, with one number changed: only the digest can tell.
    i = max(raw.rfind(bytes([d])) for d in b"0123456789")
    return raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1:]


def _compact_format(raw: bytes) -> bytes:
    # The entry as the first cache format wrote it: bare compact JSON.
    return json.dumps(json.loads(raw[_text_start(raw):]), sort_keys=True).encode("utf-8")


def _digest_line_only(raw: bytes) -> bytes:
    # The entry as the second cache format wrote it: the text's digest line, the text.
    text = raw[_text_start(raw):]
    return hashlib.sha256(text).hexdigest().encode("ascii") + b"\n" + text


def _other_exit_code(raw: bytes) -> bytes:
    # The stored exit code 0 turned into 3, with the digest left as it was.
    digest, _, rest = raw.partition(b" ")
    assert rest.startswith(b"0\n")
    return digest + b" 3" + rest[1:]


def _empty(raw: bytes) -> bytes:
    # A 0-byte file, as a store cut before its first write leaves it.
    return b""


def _header_only(raw: bytes) -> bytes:
    # The entry cut right after its header line: the digest and the exit code.
    return raw[:raw.index(b"\n") + 1]


@pytest.mark.parametrize("damage", [_truncate, _flip_last_digit, _compact_format,
                                    _digest_line_only, _other_exit_code, _empty,
                                    _header_only])
def test_damaged_entry_is_recomputed_and_rewritten(capsys, tmp_path, damage):
    argv = ["tangent"] + BASE_FL3
    _, fresh, _ = run_cli(capsys, argv)
    entry = _only_entry(tmp_path)
    stored = entry.read_bytes()
    entry.write_bytes(damage(stored))
    assert cache_fetch(entry.stem) is None
    code, served, err = run_cli(capsys, argv)
    assert (code, served, err) == (0, fresh, "")
    assert entry.read_bytes() == stored
    assert cache_fetch(entry.stem) == (0, fresh)


def test_cache_key_covers_the_document_format():
    job = JobSpec(command="fixed-points", letter="A", rank=1, lambda_seq=(1, 1), mu=(0,))
    # The previous format's key: a hash of the canonical fields alone.
    bare = json.dumps(job.canonical(), sort_keys=True, separators=(",", ":"))
    assert job.cache_key() != hashlib.sha256(bare.encode("utf-8")).hexdigest()


HIT_PATH_JOBS = [
    ["fixed-points"] + BASE_FL3,
    ["tangent"] + BASE_FL3,
    ["stab-exact", "--type", "A", "--rank", "1", "--lambda", "1,1,1", "--mu", "1"],
    ["stab-mod-h2"] + BASE_FL3,
    ["mult"] + BASE_FL3 + ["--bundle", "E1"],
    ["verify", "all"] + BASE_A1,
]


def _refuse(*args, **kwargs):
    raise AssertionError("a cache hit did work it should have read")


def _forbid_slice_work(monkeypatch):
    monkeypatch.setattr(JobSpec, "build", _refuse)
    monkeypatch.setattr(slices.SliceSpec, "__init__", _refuse)
    for name, fn in vars(slices).copy().items():
        if inspect.isfunction(fn) and fn.__module__ == slices.__name__:
            for module in list(sys.modules.values()):
                if module is not None and module.__name__.startswith("grslice") \
                        and vars(module).get(name) is fn:
                    monkeypatch.setattr(module, name, _refuse)


def _assert_table_miss_keeps_json(capsys, monkeypatch, table_argv, table):
    """A table miss, with the JSON document stored, computes the document
    once, prints the table and stores the table entry alone, never printing
    the JSON again."""
    computed, stored = [], []
    compute, store = cli.compute_payload, cli.cache_store
    with monkeypatch.context() as m:
        m.setattr(cli, "compute_payload", lambda *args: computed.append(1) or compute(*args))
        m.setattr(cli, "cache_store", lambda key, *rest: stored.append(key) or store(key, *rest))
        m.setattr(cli, "encode_json", _refuse)
        assert run_cli(capsys, table_argv) == (0, table, "")
    assert len(computed) == 1 and [key.rsplit("-", 1)[1] for key in stored] == ["table"]


@pytest.mark.parametrize("argv", HIT_PATH_JOBS, ids=lambda argv: argv[0])
def test_hit_does_no_slice_work_and_matches_the_miss(capsys, tmp_path, monkeypatch, argv):
    table = argv + ["--format", "table"]
    json_miss = run_cli(capsys, argv)
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache-table"))
    table_miss = run_cli(capsys, table)
    assert json_miss[0] == table_miss[0] == 0
    # a table miss computes its table, with the JSON document stored or not
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    _assert_table_miss_keeps_json(capsys, monkeypatch, table, table_miss[1])
    _forbid_slice_work(monkeypatch)
    for cache in ("cache", "cache-table"):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / cache))
        assert run_cli(capsys, argv) == json_miss
        assert run_cli(capsys, table) == table_miss
    # Every format now has its own entry, so a repeat neither parses nor renders.
    monkeypatch.setattr(json, "loads", _refuse)
    monkeypatch.setattr(cli, "render", _refuse)
    monkeypatch.setattr(cli, "compute_payload", _refuse)
    for cache in ("cache", "cache-table"):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / cache))
        assert run_cli(capsys, table) == table_miss
        assert run_cli(capsys, argv) == json_miss


def test_stored_failed_verify_exits_three_on_a_hit(capsys, tmp_path):
    argv = ["verify", "all"] + BASE_A1
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    failed = json.loads(out)
    failed["ok"] = False
    failed["checks"][0]["ok"] = False
    document = json.dumps(failed, sort_keys=True, indent=2) + "\n"
    key = _only_entry(tmp_path).stem
    cache_store(key, 3, document)
    assert run_cli(capsys, argv) == (3, document, "")
    # a table miss computes its own table and leaves the stored JSON entry be
    code, table, _ = run_cli(capsys, argv + ["--format", "table"])
    assert code == 0 and "recursion | ok" in table
    assert run_cli(capsys, argv) == (3, document, "")
    failed_table = table.replace("recursion | ok", "recursion | FAIL")
    cache_store(key[:-len("json")] + "table", 3, failed_table)
    assert run_cli(capsys, argv + ["--format", "table"]) == (3, failed_table, "")


def _entries(directory):
    return {path.name: path.read_bytes() for path in directory.glob("*.json")}


@pytest.mark.parametrize("argv", HIT_PATH_JOBS, ids=lambda argv: argv[0])
def test_table_miss_computes_its_table_and_leaves_the_json_entry(capsys, tmp_path,
                                                                  monkeypatch, argv):
    table_argv = argv + ["--format", "table"]
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "table-first"))
    table = run_cli(capsys, table_argv)
    document = run_cli(capsys, argv)
    assert table[0] == document[0] == 0
    # json first: the table miss prints the same table and leaves the JSON
    # entry's bytes and mtime (set to an old one a rewrite would change) be
    json_first = tmp_path / "json-first"
    monkeypatch.setenv(CACHE_ENV, str(json_first))
    assert run_cli(capsys, argv) == document
    [entry] = json_first.glob("*.json")
    stored = entry.read_bytes()
    os.utime(entry, ns=(0, 0))
    assert run_cli(capsys, table_argv) == table
    assert entry.read_bytes() == stored and entry.stat().st_mtime_ns == 0
    assert _entries(json_first) == _entries(tmp_path / "table-first")
    # a damaged JSON entry: the table miss prints the right table and leaves
    # it, and the next JSON request recomputes and rewrites it
    damaged = tmp_path / "damaged"
    monkeypatch.setenv(CACHE_ENV, str(damaged))
    assert run_cli(capsys, argv) == document
    [entry] = damaged.glob("*.json")
    entry.write_bytes(_truncate(stored))
    assert run_cli(capsys, table_argv) == table
    assert entry.read_bytes() == _truncate(stored)
    assert run_cli(capsys, argv) == document
    assert _entries(damaged) == _entries(json_first)


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    calls = []

    def counting_build_parser():
        calls.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        run_cli(capsys, ["fixed-points"] + BASE_A1)
        run_cli(capsys, ["tangent"] + BASE_A1 + ["--format", "table"])
        run_cli(capsys, ["verify", "nonsense"] + BASE_A1)
        assert len(calls) == 1
    finally:
        cli._parser.cache_clear()


BASE_A1_FOUR = ["--type", "A", "--rank", "1", "--lambda", "1,1,1,1", "--mu", "0"]


def _table_from_json(payload):
    """The header and rows that a document's table prints, read off its JSON
    document: each cell printed by reference_str."""
    command = payload["command"]
    if command == "fixed-points":
        return ["index", "label"], [(str(i), pt["label"]) for i, pt in enumerate(payload["points"])]
    if command == "tangent":
        return ["point", "weight", "mult"], [
            (pt["label"], reference_str(linear_form(w["root"], w["n"])), str(w["mult"]))
            for pt in payload["points"] for w in pt["weights"]]
    if command == "verify":
        return ["check", "status"], [(c["name"], "ok" if c["ok"] else "FAIL")
                                     for c in payload["checks"]]
    labels = payload["labels"]
    if command == "stab-exact":
        cells = sorted((tuple(map(int, key.split(","))), cell)
                       for key, cell in payload["entries"].items())
        return ["p", "q", "value"], [(labels[p], labels[q],
                                      reference_str(polynomial_from_json(cell, 2)))
                                     for (p, q), cell in cells]
    if command == "stab-mod-h2":
        return ["p", "q", "alpha", "value"], [
            (labels[e["p"]], labels[e["q"]], ",".join(map(str, e["alpha"])),
             reference_str(polynomial_from_json(e["value"], len(e["alpha"]) + 1)))
            for e in payload["entries"]]
    assert command == "mult"
    nvars = len(payload["basis"][0][0]) + 1  # a step's coordinates, and h
    return ["row", "column", "value"], [
        (labels[qi], labels[pi], reference_str(polynomial_from_json(cell, nvars)))
        for qi, row in enumerate(payload["entries"]) for pi, cell in enumerate(row) if cell]


AGREEMENT_JOBS = [
    ["fixed-points"] + BASE_FL3,
    ["tangent"] + BASE_FL3,
    ["stab-exact"] + BASE_A1_FOUR,
    ["stab-mod-h2"] + BASE_FL3 + ["--chamber", "2,-1/2"],
    ["mult"] + BASE_FL3 + ["--bundle", "L1"],
    ["verify", "all"] + BASE_A1_FOUR,
]


@pytest.mark.parametrize("argv", AGREEMENT_JOBS, ids=[argv[0] for argv in AGREEMENT_JOBS])
def test_table_and_json_agree(capsys, argv):
    # each command's table prints, line by line, what its JSON document holds
    code, as_json, _ = run_cli(capsys, argv)
    assert code == 0
    header, rows = _table_from_json(json.loads(as_json))
    assert rows
    lines = run_cli(capsys, argv + ["--format", "table"])[1].split("\n")
    assert lines[-1] == ""
    assert lines[0].split(" | ") == header
    assert [tuple(line.split(" | ")) for line in lines[1:-1]] == rows


def test_out_flag_writes_document(capsys, tmp_path):
    target = tmp_path / "doc.json"
    argv = ["fixed-points"] + BASE_A1 + ["--out", str(target)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out == ""
    _, stdout_doc, _ = run_cli(capsys, ["fixed-points"] + BASE_A1)
    assert target.read_text() == stdout_doc


def test_rational_chamber_and_sign_list(capsys):
    argv = ["stab-mod-h2"] + BASE_FL3 + ["--chamber", "2,-1/2", "--polarization",
                                         "+1,-1,+1,-1,+1,-1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["entries"]


def _module_containers():
    sizes = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("grslice"):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, (dict, list, set)):
                sizes[(name, attr)] = len(value)
    return sizes


def test_jobs_leave_no_state_in_module_globals(capsys):
    jobs = [
        ["mult", "--type", "A", "--rank", "1", "--lambda", "1,1,1", "--mu", "1",
         "--bundle", "E2", "--chamber", "-3"],
        ["verify", "duality", "--type", "A", "--rank", "1", "--lambda", "1,1,1,1",
         "--mu", "2", "--polarization=-1,+1,-1,+1"],
        ["stab-mod-h2", "--type", "B", "--rank", "2", "--lambda", "2,2", "--mu", "1,0",
         "--chamber", "3,-1"],
        ["verify", "wallcross", "--type", "C", "--rank", "2", "--lambda", "1,1",
         "--mu", "0,1"],
        ["verify", "oracle", "--type", "A", "--rank", "2", "--lambda", "1,2",
         "--mu", "0,0", "--chamber", "2,-1"],
        ["tangent", "--type", "D", "--rank", "4", "--lambda", "1,1", "--mu", "0,1,0,0"],
    ]
    before = _module_containers()
    for argv in jobs:
        code, _, err = run_cli(capsys, argv)
        assert code == 0, (argv, err)
    assert _module_containers() == before


def test_job_spec_cache_key_ignores_presentation():
    base = dict(command="fixed-points", letter="A", rank=1,
                lambda_seq=(1, 1), mu=(0,))
    a = JobSpec(fmt="json", **base)
    b = JobSpec(fmt="table", out="x.txt", **base)
    c = JobSpec(**dict(base, mu=(2,)))
    assert a.cache_key() == b.cache_key()
    assert a.cache_key() != c.cache_key()


def test_cache_keys_are_unchanged():
    # digests taken from an earlier version: a key that moves strands every
    # stored entry, and must come with a new CACHE_FORMAT
    mult = JobSpec(command="mult", letter="A", rank=2, lambda_seq=(1, 1, 1), mu=(0, 0),
                   chamber="2,-1/2", bundle="E2")
    check = JobSpec(command="verify", letter="D", rank=4, lambda_seq=(1, 3, 4),
                    mu=(0, 0, 0, 0), chamber="1,-2,3,3", which="all", fmt="table")
    assert cli.CACHE_FORMAT == 3
    assert mult.cache_key() == "de0201f296141764372c95ca1eef979742a1802ef7cd90058929d04941e46075"
    assert check.cache_key() == "b411e6fa1fb6082036ec7019e5af88a3d0f8600cb9ea95cc63ed3c7ae8f88c9a"


PARSED_JOBS = [
    (["fixed-points"] + BASE_FL3,
     JobSpec("fixed-points", "A", 2, (1, 1, 1), (0, 0))),
    (["tangent"] + BASE_A1 + ["--format", "table"],
     JobSpec("tangent", "A", 1, (1, 1), (0,), fmt="table")),
    (["stab-exact"] + BASE_A1 + ["--chamber", "antidominant", "--polarization", "-1,+1"],
     JobSpec("stab-exact", "A", 1, (1, 1), (0,), chamber="antidominant",
             polarization="-1,+1")),
    (["stab-mod-h2"] + BASE_FL3 + ["--chamber", "2,-1/2"],
     JobSpec("stab-mod-h2", "A", 2, (1, 1, 1), (0, 0), chamber="2,-1/2")),
    (["mult"] + BASE_FL3 + ["--bundle", "E2", "--out", "doc.json"],
     JobSpec("mult", "A", 2, (1, 1, 1), (0, 0), bundle="E2", out="doc.json")),
    (["verify", "oracle"] + BASE_A1,
     JobSpec("verify", "A", 1, (1, 1), (0,), which="oracle")),
]


@pytest.mark.parametrize("argv, expected", PARSED_JOBS, ids=[argv[0] for argv, _ in PARSED_JOBS])
def test_parsed_job_is_the_job_built_by_hand(tmp_path, monkeypatch, argv, expected):
    monkeypatch.chdir(tmp_path)  # main writes the empty document to --out
    jobs = []
    monkeypatch.setattr(cli, "run", lambda job: jobs.append(job) or (0, ""))
    assert main(argv) == 0
    (job,) = jobs
    assert job.canonical() == expected.canonical()
    assert job.cache_key() == expected.cache_key()
    assert (job.fmt, job.out) == (expected.fmt, expected.out)


NEGATIVE_LIST_FLAGS = [
    (["fixed-points", "--type", "A", "--rank", "2", "--lambda", "1,1,1"], "--mu", "-1,2"),
    (["stab-mod-h2"] + BASE_FL3, "--chamber", "-1,2"),
    (["stab-exact"] + BASE_A1, "--polarization", "-1,+1"),
]


@pytest.mark.parametrize("base, flag, value", NEGATIVE_LIST_FLAGS,
                         ids=[flag for _, flag, _ in NEGATIVE_LIST_FLAGS])
def test_separate_negative_list_value_parses_like_an_equals_sign(capsys, base, flag, value):
    separate = base + [flag, value]
    joined = base + [f"{flag}={value}"]
    assert cli._parser().parse_args(separate) == cli._parser().parse_args(joined)
    code, out, err = run_cli(capsys, separate)
    assert (code, err) == (0, "") and out
    assert run_cli(capsys, joined) == (0, out, "")
    code, out, err = run_cli(capsys, base + [flag, value + ",x"])
    assert code == 2 and out == ""
    assert "error: " in err and err.count("\n") == 1


def test_parser_rejects_unknown_verify_choice():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["verify", "nonsense"] + BASE_A1)


# -- the JSON encoder ------------------------------------------------------------------

JSON_TEXT = st.one_of(st.text(), st.text(alphabet='"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'))
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.integers(-2 ** 200, 2 ** 200), JSON_TEXT)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(JSON_TEXT, children, max_size=4)),
    max_leaves=40,
)


@st.composite
def shared_json_trees(draw):
    """A JSON tree in which some list and dict objects, empty ones among
    them, stand at several places and depths, as the shared slot steps and
    weight records of a tangent document do."""
    pool = draw(st.lists(st.one_of(st.lists(JSON_TREES, max_size=3),
                                   st.dictionaries(JSON_TEXT, JSON_TREES, max_size=3)),
                         min_size=1, max_size=3))
    # a shared container may itself hold shared ones
    pool.append(draw(st.lists(st.sampled_from(pool), max_size=3)))
    return draw(st.recursive(
        st.one_of(JSON_LEAVES, st.sampled_from(pool)),
        lambda children: st.one_of(st.lists(children, max_size=4),
                                   st.dictionaries(JSON_TEXT, children, max_size=4)),
        max_leaves=40,
    ))


_STEP = [1, 0, -1]
_RECORD = {"root": _STEP, "n": 0, "mult": 2}
_EMPTY_LIST, _EMPTY_DICT = [], {}


@given(st.lists(st.one_of(JSON_TREES, shared_json_trees()), min_size=1, max_size=2))
# one record and one step at several places and depths
@example([{"a": _RECORD, "b": [_RECORD, _STEP, [_STEP, _RECORD]], "c": _STEP}])
@example([[_EMPTY_LIST, _EMPTY_DICT, [_EMPTY_LIST, {"k": _EMPTY_DICT}]]])
# True == 1 and False == 0 in Python, but they print differently
@example([[{"k": [True, False]}, {"k": [1, 0]}] * 2 + [{"k": True}, {"k": 1}] * 2
          + [{"k": False}, {"k": 0}] * 2])
@example([[_RECORD, [_RECORD], _STEP], [{"root": [2], "n": 1, "mult": 1}, [[0, 3]], [5]]])
def test_encode_json_matches_json_dumps(trees):
    # Each document is a fresh copy, with its sharing kept, that is freed
    # before the next one is built, so the next may reuse its ids.
    for tree in trees:
        document = copy.deepcopy(tree)
        assert cli.encode_json(document) == json.dumps(document, sort_keys=True, indent=2)
        del document


@pytest.mark.parametrize("value", [1.5, [0, {"k": 2.0}], {1: "a"}, {"a": {2: None}},
                                   (1, 2), Fraction(1, 2), {"a": object()}])
def test_encode_json_rejects_what_documents_never_hold(value):
    with pytest.raises(TypeError):
        cli.encode_json(value)


# Slices whose documents repeat few slot steps and weight records at many
# points, a one-point slice with no tangent weights, and one with a zero slot.
POINT_LIST_SLICES = [("A", 3, "1,2,3,1,2,3", "0,0,0"), ("B", 2, "2,2,2,2,2,2", "0,0"),
                     ("A", 1, ",".join(["1"] * 10), "2"), ("A", 1, "1", "1"),
                     ("A", 1, "1,0,1", "0")]


@pytest.mark.parametrize("letter, rank, lam, mu", POINT_LIST_SLICES,
                         ids=[f"{letter}{rank}-{lam}" for letter, rank, lam, _ in POINT_LIST_SLICES])
@pytest.mark.parametrize("command", ["fixed-points", "tangent"])
def test_point_lists_print_as_fresh_records(capsys, tmp_path, monkeypatch,
                                            command, letter, rank, lam, mu):
    job = JobSpec(command, letter, rank, cli._int_list(lam), cli._int_list(mu))
    spec = job.build()[0]
    points = slices.enumerate_fixed_points(spec)
    # the oracles: fresh records at every point, printed by json.dumps, and
    # table rows built from linear_form
    fresh = [{"delta": [list(d) for d in p], "label": p.label()} for p in points]
    if command == "tangent":
        rows = []
        for point, p in zip(fresh, points):
            roots = spec.cartan.root_list
            entries = sorted((roots[col], n, m)
                             for (col, n), m in slices.tangent_weights(spec, p).items())
            point["weights"] = [{"root": list(root), "n": n, "mult": m}
                                for root, n, m in entries]
            rows += [f"{p.label()} | {reference_str(linear_form(root, n))} | {m}"
                     for root, n, m in entries]
        expected = {"command": "tangent", "points": fresh}
        header = "point | weight | mult"
    else:
        expected = {"command": "fixed-points", "count": len(points), "points": fresh}
        rows = [f"{i} | {p.label()}" for i, p in enumerate(points)]
        header = "index | label"
    document = json.dumps(expected, sort_keys=True, indent=2) + "\n"
    table = "\n".join([header] + rows) + "\n"
    argv = [command, "--type", letter, "--rank", str(rank), "--lambda", lam, "--mu", mu]
    table_argv = argv + ["--format", "table"]

    assert run_cli(capsys, argv) == (0, document, "")
    # a table miss with the JSON document stored computes its table
    _assert_table_miss_keeps_json(capsys, monkeypatch, table_argv, table)
    # a table-first miss renders the computed point list, and stores both formats
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "table-first"))
    assert run_cli(capsys, table_argv) == (0, table, "")
    assert cache_fetch(f"{job.cache_key()}-json") == (0, document)


# Matrix documents of types A1, A2, B2 and D4: rank-one restriction
# matrices, one with an alternating polarization and one with a zero slot,
# multiplication matrices for line and quotient bundles in several chambers,
# and mod-h^2 restriction matrices.
MATRIX_JOBS = [
    ("stab-exact", "A", 1, "1,1,1,1", "0", None, "dominant", "repelling"),
    ("stab-exact", "A", 1, "1,1,1,1,1", "1", None, "antidominant", "+1,-1,+1,-1,+1,-1,+1,-1,+1,-1"),
    ("stab-exact", "A", 1, "1,0,1,1", "-1", None, "dominant", "repelling"),
    ("mult", "A", 1, "1,1,1,1,1", "1", "E3", "dominant", "repelling"),
    ("mult", "A", 2, "1,1,1", "0,0", "L1", "antidominant", "repelling"),
    ("mult", "A", 2, "1,2,1,2", "0,0", "E2", "2,-1", "repelling"),
    ("mult", "D", 4, "1,1", "0,1,0,0", "L1", "dominant", "repelling"),
    ("mult", "D", 4, "1,3,4", "0,0,0,0", "E2", "1,-2,3,3", "repelling"),
    ("stab-mod-h2", "A", 2, "1,1,1", "0,0", None, "antidominant", "repelling"),
    ("stab-mod-h2", "B", 2, "2,2", "0,0", None, "dominant", "repelling"),
    ("stab-mod-h2", "D", 4, "1,3,4", "0,0,0,0", None, "1,-2,3,3", "repelling"),
]


@pytest.mark.parametrize("command, letter, rank, lam, mu, bundle, chamber, polarization",
                         MATRIX_JOBS, ids=[f"{job[0]}-{job[1]}{job[2]}-{job[3]}"
                                           for job in MATRIX_JOBS])
def test_matrix_documents_print_what_json_dumps_prints(capsys, tmp_path, monkeypatch, command,
                                                       letter, rank, lam, mu, bundle, chamber,
                                                       polarization):
    job = JobSpec(command, letter, rank, cli._int_list(lam), cli._int_list(mu), chamber,
                  polarization, bundle)
    spec, ch, signs = job.build()
    points = enumerate_fixed_points(spec)
    # the oracles: the document built cell by cell from the reference
    # expansions and printed by json.dumps, and table rows printed by the
    # reference printer from the same cells
    if command == "stab-exact":
        matrix = stab_matrix(spec, ch, signs)
        cells = [(p, q, entry_polynomial(spec, matrix, p, q)) for p in points for q in points]
        header = "p | q | value"
    elif command == "mult":
        matrix = mult_matrix(spec, bundle, ch, signs)
        cells = [(q, p, entry_polynomial(spec, matrix, q, p)) for q in points for p in points]
        header = "row | column | value"
    else:
        matrix = stab_mod_h2(spec, ch, signs)
        alphas = {pair: ",".join(map(str, spec.cartan.root_list[w.column]))
                  for pair, w in adjacent_pairs(spec, ch).items()}
        cells = [(points[p], points[q], alphas[p, q], euler_polynomial(matrix[p, q]))
                 for p, q in sorted(matrix)]
        header = "p | q | alpha | value"
    assert cells
    document = json.dumps(reference_document(command, spec, ch, matrix), sort_keys=True,
                          indent=2) + "\n"
    table = "\n".join([header] + [" | ".join([x.label(), y.label(), *extra, reference_str(value)])
                                  for x, y, *extra, value in cells if not is_zero(value)]) + "\n"
    argv = [command, "--type", letter, "--rank", str(rank), "--lambda", lam, "--mu", mu,
            "--chamber", chamber, "--polarization", polarization]
    argv += ["--bundle", bundle] if bundle else []
    table_argv = argv + ["--format", "table"]

    assert run_cli(capsys, argv) == (0, document, "")
    # a table miss with the JSON document stored computes its table
    _assert_table_miss_keeps_json(capsys, monkeypatch, table_argv, table)
    # a table-first miss renders the computed entries, and stores both formats
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "table-first"))
    assert run_cli(capsys, table_argv) == (0, table, "")
    assert cache_fetch(f"{job.cache_key()}-json") == (0, document)


# Documents with wider coefficients than any catalog job prints, with their
# sha256 from before the rank-one documents were printed from their tuples.
WIDE_JOBS = [
    (["stab-exact", "--type", "A", "--rank", "1", "--lambda", "1,1,1,1,1,1,1,1", "--mu", "0"],
     "55ad7e06514bece2f95ca1ee0caedd8ee7885089849743473d39d6301c286b5c"),
    (["verify", "duality", "--type", "A", "--rank", "1", "--lambda", "1,1,1,1,1,1,1", "--mu", "1"],
     "3fe1fa2950017423b4dc34473bade07085afe9ce766a3fa3f341e8f714ea5182"),
]


@pytest.mark.parametrize("argv, digest", WIDE_JOBS, ids=["stab-exact-l8", "verify-duality-l7"])
def test_wide_rank_one_documents_keep_their_sha256(capsys, argv, digest):
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Rank-one documents with frozen zero slots, which no catalog job has, with
# their sha256 from before the rank-one Euler classes became binary forms.
ZERO_SLOT_JOBS = [
    ("stab-exact --lambda 0 --mu 0",
     "4b0d9e2f7c0556039bcccd820f139b86f5f0c4294bde9435607a681d33c4506d"),
    ("stab-exact --lambda 1,0,1,1,0,1 --mu 2",
     "fb70b552fe597aa8f2fa47c6afc589e8b62cdb31a14d8f533526117c62bf8246"),
    ("verify all --lambda 1,0,1 --mu 0",
     "f392675c78c0a189f335d86230c089723272773466d59b854581e6aa496fd116"),
    ("verify all --lambda 1,0,1,1,0,1 --mu 0",
     "5f2f0713178384751a1193759dcdf072a0f86932104f83e00ab39038c3a2475d"),
    ("mult --bundle E3 --lambda 1,0,1,1 --mu 1",
     "902dc92175214f2a869671986d0034f1715f5504391c760e68ebfeecbeedc761"),
]


@pytest.mark.parametrize("argv, digest", ZERO_SLOT_JOBS, ids=[a for a, _ in ZERO_SLOT_JOBS])
def test_zero_slot_rank_one_documents_keep_their_sha256(capsys, argv, digest):
    code, out, err = run_cli(capsys, argv.split() + ["--type", "A", "--rank", "1"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# -- fuzzing the command line ---------------------------------------------------------

GARBLED = st.sampled_from(["", "x", "1,,2", "1/0", "+", "-", "nan", "1e9", " 1", "0x1"])
# Every type of rank at most 3 with a minuscule coweight, and G2, which has none.
FUZZ_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("G", 2)]


def _csv(values) -> str:
    return ",".join(map(str, values))


@st.composite
def cli_argvs(draw):
    """Two argvs of one job over a small slice, in the drawn output format and
    in the other, with at most one flag value garbled.  Each flag is passed as
    "--flag value" or as "--flag=value".  The third item tells whether both
    argvs name a valid format.

    The slice has rank at most 3 and a lambda of at most four weights (two at
    rank 3, where longer verify jobs take minutes).  Its mu is the sum of one
    Weyl-orbit element per weight, so that ungarbled jobs mostly succeed.
    """
    letter, rank = draw(st.sampled_from(FUZZ_TYPES))
    datum = CartanDatum(letter, rank)
    length = draw(st.integers(1, 4 if rank < 3 else 2))
    indices = sorted(datum.minuscule_indices) or [1]
    lambda_seq = draw(st.lists(st.sampled_from(indices), min_size=length, max_size=length))
    mu = zero_coweight(datum)
    for i in lambda_seq:
        orbit = datum.weyl_orbit(fundamental_coweight(datum, i))
        mu = vsum(mu, draw(st.sampled_from(sorted(orbit))))
    chamber = draw(st.one_of(
        st.sampled_from(["dominant", "antidominant"]),
        st.lists(st.integers(-3, 3), min_size=rank, max_size=rank).map(_csv)))
    polarization = draw(st.one_of(
        st.just("repelling"),
        st.lists(st.sampled_from(["+1", "-1"]), min_size=1, max_size=6).map(_csv)))
    command = draw(st.sampled_from(
        ["fixed-points", "tangent", "stab-exact", "stab-mod-h2", "mult", "verify", "dual"]))
    flags = {
        "--type": letter,
        "--rank": str(rank),
        "--lambda": _csv(lambda_seq),
        "--mu": _csv(mu),
        "--chamber": chamber,
        "--polarization": polarization,
        "--format": draw(st.sampled_from(["json", "table"])),
    }
    if command == "mult":
        flags["--bundle"] = draw(st.sampled_from(["L0", "L1", "L4", "E1", "E3", "F1"]))
    garbled = draw(st.sampled_from([None, None, None] + sorted(flags)))
    if garbled is not None:
        flags[garbled] = draw(GARBLED)
    head = [command]
    if command == "verify":
        head.append(draw(st.sampled_from(verify.SUITES + ("all", "none"))))
    separate = {flag: draw(st.booleans()) for flag in flags}

    def argv(flags):
        words = list(head)
        for flag, value in flags.items():
            words += [flag, value] if separate[flag] else [f"{flag}={value}"]
        return words

    other = "table" if flags["--format"] == "json" else "json"
    return argv(flags), argv(dict(flags, **{"--format": other})), garbled != "--format"


# The autouse cache directory is shared by all examples, which only adds hits.
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_argvs())
def test_cli_exits_cleanly_and_replays_from_cache(capsys, argvs):
    *argvs, formats_valid = argvs
    firsts = []
    for argv in argvs:
        code, out, err = run_cli(capsys, argv)
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith(("error: ", "grslice")) and err.count("\n") == 1, err
        firsts.append((code, out))
    if formats_valid:
        assert firsts[0][0] == firsts[1][0], argvs
    for argv, first in zip(argvs, firsts):
        assert run_cli(capsys, argv)[:2] == first, argv


# -- mod-h^2 entries stay factored --------------------------------------------------


def test_oracle_reconstruction_that_does_not_divide_exits_three(capsys, monkeypatch):
    # drop h from one entry: no reconstruction from it divides by the
    # polarization, which must end the job with one line, not a traceback
    real = verify.stab_mod_h2

    def tampered(spec, ch, signs=None):
        entries = real(spec, ch, signs)
        pair = min(entries)
        entry = entries[pair]
        exponents = entry.exponents
        entries[pair] = entry._replace(exponents=exponents[:-1] + (exponents[-1] - 1,))
        assert entries[pair] != entry
        return entries

    monkeypatch.setattr(verify, "stab_mod_h2", tampered)
    code, out, err = run_cli(capsys, ["verify", "oracle"] + BASE_FL3)
    assert code == 3
    assert out.startswith("verification failure: ") and out.count("\n") == 1
    assert "divide" in out
    assert err == "" and "Traceback" not in out + err


def test_verify_recursion_reports_a_failed_check_in_its_document(capsys, monkeypatch):
    message = "transposition paths to (w,-w) disagree"

    def failing(spec, ch, signs=None):
        raise AssertionError(message)

    monkeypatch.setattr(verify, "stab_matrix", failing)
    code, out, err = run_cli(capsys, ["verify", "recursion"] + BASE_A1)
    assert code == 3 and err == ""
    assert json.loads(out) == {
        "command": "verify", "which": "recursion", "ok": False,
        "checks": [{"name": "recursion", "ok": False, "detail": message}],
    }


def test_mod_h2_routes_need_no_division_or_rational_function(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("polynomial division or RationalFunction used")

    from grslice import symalg
    assert not hasattr(symalg, "exact_div")
    monkeypatch.setattr(symalg.RationalFunction, "__init__", refuse)

    datum = CartanDatum("D", 4)
    spec = slices.SliceSpec(datum, [1, 1], Coweight([0, 1, 0, 0]))
    entries = stab_mod_h2(spec, Chamber.dominant(datum))
    assert entries
    d4 = ["--type", "D", "--rank", "4", "--lambda", "1,1", "--mu", "0,1,0,0"]
    for argv in (["stab-mod-h2"] + d4, ["verify", "wallcross"] + d4,
                 ["verify", "oracle"] + d4):
        code, out, err = run_cli(capsys, argv)
        assert code == 0, (argv, out, err)


D4_SLICE = ["--type", "D", "--rank", "4", "--lambda", "1,1", "--mu", "0,1,0,0"]


@pytest.mark.parametrize("argv,digest", [
    ("stab-mod-h2 --type D --rank 4 --lambda 1,3,4 --mu 0,0,0,0",
     "bb491a7e387a56c0153f300eaa4ce648393f198ffd8e3548cc8ec8ba90d1a48e"),
    ("verify wallcross --type E --rank 6 --lambda 1,6 --mu 0,0,0,0,0,0",
     "8c680c252cadfd64bd9d82646308e42e131776ca1b8ff6a6654774b3ea283ace"),
], ids=["D4-stab-mod-h2", "E6-wallcross"])
def test_wall_route_documents_outside_the_catalog_keep_their_sha256(capsys, argv, digest):
    # two documents of the mod-h^2 route that no golden covers, pinned to
    # the sha256 of the text the Counter-based entries printed
    code, out, err = run_cli(capsys, argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_wallcross_reads_each_wall_from_the_witness_root(capsys, tmp_path, monkeypatch):
    # verify.wallcross takes the wall of a pair from its adjacency witness,
    # and omega_ratio checks only the coroot of the root it is given, so
    # every sigma difference it tests is a multiple of that coroot: no route
    # walks the other roots to find the wall of a pair
    argvs = [["verify", "wallcross"] + base for base in (D4_SLICE, BASE_FL3)]
    expected = [run_cli(capsys, argv) for argv in argvs]
    real = stab_general._integer_multiple
    checked = []

    def guarded(d, coroot):
        if not real(d, coroot):
            raise AssertionError(f"{d} tested against the coroot {coroot} of another wall")
        checked.append(coroot)
        return True

    monkeypatch.setattr(stab_general, "_integer_multiple", guarded)
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache-patched"))
    for argv, first in zip(argvs, expected):
        assert first[0] == 0, (argv, first)
        assert run_cli(capsys, argv) == first, argv
    assert checked
    assert not any(hasattr(module, "same_wall_component")
                   for name, module in sys.modules.items() if name.startswith("grslice"))


def test_no_slice_or_datum_outlives_a_job(capsys):
    # every memo lives in its spec or datum, and no module keeps either
    # from one job to the next
    def alive():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, (slices.SliceSpec, CartanDatum))]

    before = alive()
    jobs = [["verify", "all"] + BASE_A1, ["stab-mod-h2"] + BASE_FL3,
            ["mult", "--bundle", "E2"] + BASE_FL3]
    for argv in jobs:
        assert run_cli(capsys, argv)[0] == 0
    kept = {id(o) for o in before}
    assert [o for o in alive() if id(o) not in kept] == []


def test_a_job_frees_its_slice_without_the_cycle_collector(capsys):
    # no reference cycle holds a spec, its memo (the tangent table
    # included), its datum or a rank-one restriction matrix memoized on the
    # spec, so reference counting alone frees each when its job is done, in
    # rank one as in higher rank
    gc.collect()
    gc.disable()
    try:
        freed = (slices.SliceSpec, CartanDatum, RestrictionMatrix)
        before = [o for o in gc.get_objects() if isinstance(o, freed)]
        a1 = ["--type", "A", "--rank", "1", "--lambda", "1,1,1,1", "--mu", "0"]
        jobs = [["tangent"] + BASE_FL3, ["tangent", "--format", "table"] + BASE_FL3,
                ["stab-mod-h2"] + BASE_FL3,
                ["mult", "--bundle", "L1", "--type", "B", "--rank", "2", "--lambda", "2,2",
                 "--mu", "0,0"],
                ["tangent"] + a1, ["tangent", "--format", "table"] + a1,
                ["stab-exact"] + a1, ["verify", "all"] + a1]
        for argv in jobs:
            assert run_cli(capsys, argv)[0] == 0
        kept = {id(o) for o in before}
        assert [o for o in gc.get_objects() if isinstance(o, freed) and id(o) not in kept] == []
    finally:
        gc.enable()


def test_wallcross_computes_each_chamber_and_signs_once(capsys, tmp_path, monkeypatch):
    # on B2 2,2 two of the four walls share a chamber with the same signs
    real = verify.stab_mod_h2
    keys = []

    def counted(spec, ch, signs=None):
        keys.append((ch, tuple(signs)))
        return real(spec, ch, signs)

    monkeypatch.setattr(verify, "stab_mod_h2", counted)
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    code, out, err = run_cli(capsys, ["verify", "wallcross", "--type", "B", "--rank", "2",
                                      "--lambda", "2,2", "--mu", "0,0"])
    assert code == 0, (out, err)
    assert len(keys) == len(set(keys)) == 7


def test_oracle_fails_on_an_entry_off_the_adjacency_table(capsys, monkeypatch):
    real = verify.mult_matrix
    moved = {}

    def tampered(spec, bundle, ch, signs=None):
        matrix = real(spec, bundle, ch, signs)
        if bundle == ("L", 1):
            points = slices.enumerate_fixed_points(spec)
            pairs = slices.adjacent_pairs(spec, ch)
            n = range(len(points))
            p, q = next((p, q) for p in n for q in n if p != q and (p, q) not in pairs)
            matrix.entries[q, p] = (0,) * spec.cartan.rank + (1,)
            moved.update(p=points[p].label(), q=points[q].label())
        return matrix

    monkeypatch.setattr(verify, "mult_matrix", tampered)
    code, out, err = run_cli(capsys, ["verify", "oracle"] + BASE_FL3)
    assert code == 3, (out, err)
    (check,) = json.loads(out)["checks"]
    assert check["failures"] == [
        {"check": "reconstruction", "bundle": "L1", "p": moved["p"], "q": moved["q"]}
    ]
