"""Record the golden sha256 of every catalog job's document.

Run from the root of a checkout, at the commit whose output is the
reference:

    PYTHONPATH=src python3 perfbench/make_goldens.py

Each job runs once through ``grslice.cli.main`` with an empty cache
directory of its own; a job that exits non-zero aborts the recording.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from typing import Dict, Iterable, Tuple

import catalog

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")
SCRATCH = os.path.join(os.path.dirname(HERE), ".perfbench_tmp")


def run_job(job: catalog.Job, cache_dir: str) -> Tuple[int, str]:
    """Exit code and document of one job, computed with an empty cache."""
    from grslice import cli

    os.environ[cli.CACHE_ENV] = cache_dir
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(job.argv))
    return code, out.getvalue() or err.getvalue()


def digests(jobs: Iterable[catalog.Job]) -> Dict[str, Tuple[int, str]]:
    """Exit code and document sha256 per job key."""
    os.makedirs(SCRATCH, exist_ok=True)
    root = tempfile.mkdtemp(dir=SCRATCH)
    saved = os.environ.get("GRSLICE_CACHE_DIR")
    try:
        result = {}
        for n, job in enumerate(jobs):
            code, doc = run_job(job, os.path.join(root, str(n)))
            result[job.key] = (code, hashlib.sha256(doc.encode("utf-8")).hexdigest())
        return result
    finally:
        if saved is None:
            os.environ.pop("GRSLICE_CACHE_DIR", None)
        else:
            os.environ["GRSLICE_CACHE_DIR"] = saved
        shutil.rmtree(root, ignore_errors=True)


def main() -> int:
    goldens = {}
    for workload in catalog.WORKLOADS:
        for key, (code, digest) in digests(catalog.catalog(workload)).items():
            if code != 0:
                print(f"error: {key} exited {code}", file=sys.stderr)
                return 1
            goldens[key] = digest
        print(f"{workload}: recorded", file=sys.stderr)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
