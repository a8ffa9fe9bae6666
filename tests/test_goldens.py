"""Every `mult` and `verify oracle` document of the benchmark catalog is
byte-identical to its golden sha256 in perfbench/goldens.json.

The perfbench files are imported read-only; each job runs through cli.main
with an empty cache directory of its own, as make_goldens records them.
"""

import json
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

import catalog  # noqa: E402
import make_goldens  # noqa: E402


def test_mult_and_oracle_documents_match_their_goldens():
    with open(make_goldens.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    jobs = {}
    for workload in catalog.WORKLOADS:
        for job in catalog.catalog(workload):
            if job.argv[0] == "mult" or job.argv[:2] == ("verify", "oracle"):
                jobs[job.key] = job
    assert {job.argv[0] for job in jobs.values()} == {"mult", "verify"}
    results = make_goldens.digests(jobs.values())
    wrong = [key for key, (code, digest) in results.items()
             if code != 0 or digest != goldens[key]]
    assert wrong == [], f"{len(wrong)} of {len(results)} documents differ, first {wrong[0]}"
