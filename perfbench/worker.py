"""One pass of the benchmark: issue grslice jobs in a closed loop and check them.

run.py starts this file in a fresh interpreter, with ``PYTHONPATH`` at the
checkout's ``src`` and ``GRSLICE_CACHE_DIR`` at an empty directory.  It
imports grslice, builds the Cartan data the workload uses, prints ``ready``
(run.py times set-up up to that line), then calls ``grslice.cli.main(argv)``
for each job of the pass, with the argv a user would type, and prints one
JSON line describing the pass.

Each document is checked against its golden sha256, every ``verify`` job
must report ``"ok": true``, and a repeated request must return exactly the
document of its first occurrence in the pass (later ones come from the cache).

Times are scaled to reference speed.  On a shared virtual machine the
speed of pure-Python code drifts by up to 1.9x within seconds, and stays
off for minutes, as other tenants load the cores (measured on a 2-core
x86-64 VM).  So the worker times `reference`, a fixed pure-Python workload,
three times before the first job and after every job, and multiplies each
job's time by REFERENCE_S over the mean of the median reference times
around it: the job's time on a machine where the reference takes
REFERENCE_S.  It also times the
reference 21 times right after set-up, for run.py to scale the set-up time
by their median.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from typing import Dict, Optional

import catalog

# The reference takes about REFERENCE_S on an unloaded 2-core x86-64 virtual
# machine (Xeon, 2.0 GHz), where grslice's speed was first measured.
REFERENCE_S = 0.001
_REFERENCE_TERMS = 17


def reference() -> float:
    """Seconds taken to multiply two sparse polynomials with Fraction
    coefficients and tuple exponents, held in dicts: the operations that
    dominate grslice's arithmetic.  Of the loops tried, this one tracked the
    drifting speed of a grslice job best (its scaled time spread least).

    The cyclic garbage collector is off meanwhile, so that the time does not
    depend on the heap the jobs have built up: a collection of the program's
    objects must not be charged to the reference.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        p = {(i, i & 3): Fraction(i + 1, 3) for i in range(_REFERENCE_TERMS)}
        q = {(i & 7, i): Fraction(2 * i + 1, 5) for i in range(_REFERENCE_TERMS)}
        product: Dict[tuple, object] = {}
        for (a0, a1), x in p.items():
            for (b0, b1), y in q.items():
                key = (a0 + b0, a1 + b1)
                product[key] = product.get(key, 0) + x * y
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def reference_median(count: int) -> float:
    """Median of `count` reference times: one timing can catch an interrupt."""
    return statistics.median(reference() for _ in range(count))


def _check(job: catalog.Job, code, doc: str, goldens: Dict[str, str],
           first: Dict[str, str]) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    digest = hashlib.sha256(doc.encode("utf-8")).hexdigest()
    if first.setdefault(job.key, digest) != digest:
        return "repeated request returned a different document"
    if goldens.get(job.key) != digest:
        return "document differs from its golden"
    if job.is_verify and json.loads(doc).get("ok") is not True:
        return "verify job did not report ok"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", type=int, default=0, dest="number")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from grslice import cli
    from grslice.cartan import CartanDatum

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    for letter, rank in catalog.datums(args.workload):
        CartanDatum(letter, rank)
    print("ready", flush=True)
    # The first calls after start-up run cold; the median of many is steady.
    setup_reference = reference_median(21)
    if args.setup_only:
        print(json.dumps({"setup_reference_s": setup_reference}))
        return 0

    with open(os.path.join(os.path.dirname(__file__), "goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    first: Dict[str, str] = {}
    raw = []
    references = [reference_median(3)]
    failures = []
    for n, job in enumerate(catalog.pass_jobs(args.workload, args.seed, args.number)):
        if tracer is not None:
            tracer.job = n
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(job.argv))
        except Exception as exc:  # a crashing job is a failure, not the end of the run
            code = f"exception {exc!r}"
        raw.append(time.perf_counter() - start)
        references.append(reference_median(3))
        problem = _check(job, code, out.getvalue(), goldens, first)
        if problem is not None:
            failures.append(f"{job.key}: {problem} {err.getvalue().strip()}".strip())

    latencies = [t * REFERENCE_S / ((references[i] + references[i + 1]) / 2)
                 for i, t in enumerate(raw)]
    result = {
        "jobs": len(latencies),
        "latencies_s": latencies,
        "raw_latencies_s": raw,
        "setup_reference_s": setup_reference,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = len(tracer)
        scale = REFERENCE_S / statistics.median(references)
        result["layers"] = tracing.layer_metrics(tracer, latencies, scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
