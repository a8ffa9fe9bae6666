import json
import sys

import pytest

from grslice.cli import CACHE_ENV, JobSpec, build_parser, cache_fetch, cache_store, main
from grslice.symalg import Polynomial


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
        assert not Polynomial.from_json(value, 2).is_zero()


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


# -- validation failures -----------------------------------------------------------


def test_non_minuscule_weight_exits_two(capsys):
    argv = ["fixed-points", "--type", "B", "--rank", "2", "--lambda", "1", "--mu", "1,0"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and "error" in err


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


def test_chamber_with_zero_denominator_exits_two(capsys):
    code, out, err = run_cli(capsys, ["fixed-points"] + BASE_A1 + ["--chamber", "1/0"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
    payload = {"command": "fixed-points", "count": 1, "points": []}
    cache_store("deadbeef", payload)
    assert cache_fetch("deadbeef") == payload
    assert cache_fetch("0" * 8) is None


def test_table_and_json_mult_agree(capsys):
    argv = ["mult"] + BASE_FL3 + ["--bundle", "L1"]
    _, as_json, _ = run_cli(capsys, argv)
    _, as_table, _ = run_cli(capsys, argv[:-2] + ["--bundle", "L1", "--format", "table"])
    payload = json.loads(as_json)
    labels = payload["labels"]
    from_json = set()
    for qi, row in enumerate(payload["entries"]):
        for pi, cell in enumerate(row):
            if cell:
                poly = str(Polynomial.from_json(cell, 3))
                from_json.add((labels[qi], labels[pi], poly))
    lines = as_table.strip().split("\n")
    assert lines[0] == "row | column | value"
    from_table = {tuple(line.split(" | ")) for line in lines[1:]}
    assert from_table == from_json


def test_table_and_json_tangent_agree(capsys):
    argv = ["tangent"] + BASE_A1
    _, as_json, _ = run_cli(capsys, argv)
    _, as_table, _ = run_cli(capsys, argv + ["--format", "table"])
    payload = json.loads(as_json)
    from_json = set()
    for pt in payload["points"]:
        for w in pt["weights"]:
            poly = str(Polynomial.linear_form(w["root"], w["n"]))
            from_json.add((pt["label"], poly, str(w["mult"])))
    lines = as_table.strip().split("\n")
    assert lines[0] == "point | weight | mult"
    from_table = {tuple(line.split(" | ")) for line in lines[1:]}
    assert from_table == from_json


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


def test_parser_rejects_unknown_verify_choice():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["verify", "nonsense"] + BASE_A1)
