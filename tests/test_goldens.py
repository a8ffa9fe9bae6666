"""Catalog documents are byte-identical to their golden sha256 in
perfbench/goldens.json: every `mult`, `verify oracle`, `stab-mod-h2`,
`verify wallcross`, `tangent` and `fixed-points` job, and every rank-one
`stab-exact`, `verify duality` and `verify recursion` job.

The perfbench files are imported read-only; each job runs through cli.main
with an empty cache directory of its own, as make_goldens records them.
"""

import hashlib
import json
import os
import subprocess
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

import catalog  # noqa: E402
import make_goldens  # noqa: E402


def _command(argv):
    return argv[:2] if argv[0] == "verify" else argv[0]


def _check_documents(commands):
    """Run each distinct catalog job of the given commands and compare its
    document with the golden."""
    with open(make_goldens.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    jobs = {}
    for workload in catalog.WORKLOADS:
        for job in catalog.catalog(workload):
            if _command(job.argv) in commands:
                jobs[job.key] = job
    assert {_command(job.argv) for job in jobs.values()} == commands
    results = make_goldens.digests(jobs.values())
    wrong = [key for key, (code, digest) in results.items()
             if code != 0 or digest != goldens[key]]
    assert wrong == [], f"{len(wrong)} of {len(results)} documents differ, first {wrong[0]}"


def test_mult_and_oracle_documents_match_their_goldens():
    _check_documents({"mult", ("verify", "oracle")})


def test_rank_one_documents_match_their_goldens():
    _check_documents({"stab-exact", ("verify", "duality"), ("verify", "recursion")})


def test_wall_route_and_point_documents_match_their_goldens():
    _check_documents({"stab-mod-h2", ("verify", "wallcross"), "tangent", "fixed-points"})


def test_a_job_prints_its_golden_under_python_o(tmp_path):
    # python -O drops assert statements; every check raises AssertionError
    # itself, so the rank-one stab-exact job of most slots and least |mu|,
    # which runs the recursion's and validate's checks, prints the same document
    job = max((job for job in catalog.catalog("a1-exact") if job.argv[0] == "stab-exact"),
              key=lambda job: (len(job.argv[6]), -abs(int(job.argv[8])), job.key))
    with open(make_goldens.GOLDENS, encoding="utf-8") as fh:
        golden = json.load(fh)[job.key]
    src = os.path.join(os.path.dirname(PERFBENCH), "src")
    env = dict(os.environ, PYTHONPATH=src, GRSLICE_CACHE_DIR=str(tmp_path / "cache"))
    done = subprocess.run([sys.executable, "-O", "-m", "grslice.cli", *job.argv], env=env,
                          capture_output=True, check=False)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == golden
