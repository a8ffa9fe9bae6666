"""grslice job benchmark.

    python3 perfbench/run.py --workload a1-exact --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; grslice is imported from its ``src``.  A
run is a sequence of passes (see catalog.py).  Each pass runs in a fresh
interpreter (perfbench/worker.py) with a new, empty ``GRSLICE_CACHE_DIR``
under ``.perfbench_tmp`` in the checkout, which is removed afterwards.  One
client issues the jobs of a pass in a closed loop: the next job starts when
the previous one has returned.

--trace 0 runs a number of passes set by --seconds (see PASS_SECONDS), then
prints the end-to-end metrics: set-up time (the median over the passes'
interpreters and SETUP_SAMPLES more that only set up, from process start
until the first job could be issued), per-job latency p50 and p90, jobs per
second at those latencies, and the largest peak RSS of a pass.  Workers run
without the ``site`` hook (``python3 -S``): grslice needs no installed
package, and the host's ``.pth`` files would otherwise import packages it
never uses and dominate the set-up time.  --trace 1 runs pass 0 twice, once
plain and once with every layer traced, and prints the per-layer metrics
plus trace.overhead_ratio, the traced over the plain jobs per second; a
fixed pass makes every count repeat exactly from run to run.

Times are scaled to reference speed (see worker.py); the unscaled figures
are printed too.

The last line of output is one JSON object: correct, attempted, failed and
metrics.  A job fails when it exits non-zero, raises, returns a document
that differs from its golden or from an earlier copy of itself, or is a
verify job not reporting ok.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import catalog  # noqa: E402
from worker import REFERENCE_S  # noqa: E402

# Set-up samples per run: fresh interpreters that only set up, spread over
# the run between its passes.  More do not help: from one run to the next
# the median moves with the machine's state, not with the sample count.
SETUP_SAMPLES = 20
# Seconds of job time that one pass takes at the seed commit, at reference
# speed (see worker.py).  A run does round(--seconds / PASS_SECONDS) passes,
# and at least enough for MIN_JOBS jobs, so that its jobs take about
# --seconds at reference speed, p90 always has fifteen samples beyond it
# (the tail of a1-exact is sparse), and every run of a workload issues the
# same jobs, in an order set by the seed.  A run that is not done within
# DEADLINE_S fails, so that a much slower program still ends in time.
PASS_SECONDS = {"a1-exact": 5.3, "higher-rank": 3.7, "cached-replay": 7.1}
MIN_JOBS = 150
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if suffix == "calls":
        return "count"
    if suffix == "bytes":
        return "bytes"
    if suffix.endswith("_ms"):
        return "ms"
    if suffix.endswith("_s"):
        return "s"
    return "ratio"


class BenchError(RuntimeError):
    pass


def pass_count(workload: str, seconds: float) -> int:
    per_pass = len(catalog.pass_jobs(workload, 0, 0))
    return max(math.ceil(MIN_JOBS / per_pass), round(seconds / PASS_SECONDS[workload]))


def _worker_command(args, *extra):
    return [sys.executable, "-S", os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), *extra]


def _worker_env(cache_dir: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["GRSLICE_CACHE_DIR"] = cache_dir
    # Fixed string hashing, so that traced counts repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, cache_dir: str, *extra):
    """(seconds until the worker was ready, its result) of one worker."""
    start = time.perf_counter()
    proc = subprocess.Popen(_worker_command(args, *extra), stdout=subprocess.PIPE,
                            env=_worker_env(cache_dir), text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        out, _ = proc.communicate(timeout=max(1.0, args.deadline - ready))
    except subprocess.TimeoutExpired:
        raise BenchError(f"the run did not finish within {DEADLINE_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if line.strip() != "ready" or proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return ready - start, json.loads(lines[-1])


def measure_traced(args, tmp: str):
    _, plain = start_worker(args, os.path.join(tmp, "plain"), "--pass", "0")
    _, traced = start_worker(args, os.path.join(tmp, "traced"), "--pass", "0", "--trace", "1")
    metrics = dict(traced["layers"])
    # Both passes run the same jobs, so the ratio of jobs per second is the
    # inverse ratio of their total times.
    metrics["trace.overhead_ratio"] = sum(plain["latencies_s"]) / sum(traced["latencies_s"])
    notes = [f"pass 0 traced: {traced['jobs']} jobs, {traced['spans']} spans"]
    return (plain["jobs"] + traced["jobs"], plain["failures"] + traced["failures"],
            metrics, notes)


def measure(args, tmp: str):
    """(attempted, failures, metrics, notes) of one run."""
    if args.trace:
        return measure_traced(args, tmp)
    setups, raw_setups, latencies, raw_latencies, peak_kb, failures = [], [], [], [], [], []
    passes = pass_count(args.workload, args.seconds)

    def sample_setup(name: str, *extra):
        setup, result = start_worker(args, os.path.join(tmp, name), *extra)
        raw_setups.append(setup)
        setups.append(setup * REFERENCE_S / result["setup_reference_s"])
        return result

    for number in range(passes):
        for n in range(SETUP_SAMPLES * number // passes, SETUP_SAMPLES * (number + 1) // passes):
            sample_setup(f"setup{n}", "--setup-only")
        result = sample_setup(f"pass{number}", "--pass", str(number))
        latencies += result["latencies_s"]
        raw_latencies += result["raw_latencies_s"]
        failures += result["failures"]
        peak_kb.append(result["peak_rss_kb"])

    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000.0,
        "jobs_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": max(peak_kb) / 1024.0,
    }
    notes = [
        f"latency samples: {len(latencies)} jobs in {len(peak_kb)} passes, "
        f"{len(latencies) - int(len(latencies) * 0.9)} beyond p90; "
        f"set-up samples: {len(setups)}",
        f"unscaled: setup_s {statistics.median(raw_setups):.6g}, "
        f"latency_p50_ms {statistics.median(raw_latencies) * 1000:.6g}, "
        f"latency_p90_ms {statistics.quantiles(raw_latencies, n=10)[8] * 1000:.6g}, "
        f"jobs_per_s {len(raw_latencies) / sum(raw_latencies):.6g}",
    ]
    return len(latencies), failures, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="grslice job benchmark")
    parser.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "grslice", "cli.py")):
        print(f"error: no grslice sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        attempted, failures, metrics, notes = measure(args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)

    for line in notes:
        print(line)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"{'failed_ratio':<45} {len(failures) / attempted:.6g} ratio")
    units = END_TO_END_UNITS if not args.trace else {name: layer_unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name:<45} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
