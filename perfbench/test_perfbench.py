"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench

test_every_catalog_job_matches_its_golden runs the whole catalog once
(about three minutes on a 2-core x86-64 virtual machine).
"""

import gc
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import catalog
import make_goldens
import run
import tracing
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_same_seed_same_order_and_other_seed_other_order(workload):
    first = [catalog.pass_jobs(workload, 1, n) for n in range(3)]
    other = [catalog.pass_jobs(workload, 2, n) for n in range(3)]
    assert first == [catalog.pass_jobs(workload, 1, n) for n in range(3)]
    assert first != other
    assert [sorted(jobs) for jobs in first] == [sorted(jobs) for jobs in other]


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_passes_hold_every_stratum_its_copies_times(workload):
    strata = catalog.STRATA[workload]()
    stratum_of = {job.key: s.name for s in strata for job in s.jobs}
    distinct_passes = min(len(s.jobs) // s.copies for s in strata) or 1
    seen = set()
    for n in range(distinct_passes):
        keys = [job.key for job in catalog.pass_jobs(workload, 4, n)]
        assert Counter(stratum_of[key] for key in keys) == {s.name: s.copies for s in strata}
        if workload != "cached-replay":
            assert len(set(keys)) == len(keys) and not seen & set(keys)
            seen |= set(keys)


def test_replay_pass_repeats_requests_with_a_skew():
    counts = Counter(job.key for job in catalog.pass_jobs("cached-replay", 5, 0))
    assert set(counts) == {job.key for job in catalog.catalog("cached-replay")}
    head = catalog.catalog("cached-replay")[0].key
    assert counts[head] == max(counts.values()) >= 5 * min(counts.values())


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
@pytest.mark.parametrize("seconds", [1, 15])
def test_a_run_has_fifteen_latency_samples_beyond_p90(workload, seconds):
    jobs = run.pass_count(workload, seconds) * len(catalog.pass_jobs(workload, 0, 0))
    assert jobs - int(jobs * 0.9) >= 15


def test_reference_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert worker.reference() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        worker.reference()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_every_golden_belongs_to_a_catalog_job():
    keys = {job.key for w in catalog.WORKLOADS for job in catalog.catalog(w)}
    with open(make_goldens.GOLDENS, encoding="utf-8") as fh:
        assert set(json.load(fh)) == keys


def test_every_catalog_job_matches_its_golden():
    with open(make_goldens.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    for workload in catalog.WORKLOADS:
        for key, (code, digest) in make_goldens.digests(catalog.catalog(workload)).items():
            assert code == 0, key
            assert digest == goldens[key], key


def test_self_time_subtracts_the_union_of_child_intervals():
    # 0: root [0, 10]; 1: child [1, 4] with 2: grandchild [2, 3];
    # 3: child [5, 8]; 4: child [7, 12], overlapping 3 and clipped to 10.
    parent = [-1, 0, 1, 0, 0]
    start = [0.0, 1.0, 2.0, 5.0, 7.0]
    end = [10.0, 4.0, 3.0, 8.0, 12.0]
    assert list(tracing.self_times(parent, start, end)) == [2.0, 2.0, 1.0, 3.0, 5.0]


def test_wrapper_records_calls_through_names_imported_elsewhere():
    from grslice import slices, stab_a1
    from grslice.cartan import CartanDatum, Coweight

    original = slices.tangent_weights
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert stab_a1.tangent_weights is slices.tangent_weights is not original
        spec = slices.SliceSpec(CartanDatum("A", 1), [1, 1], Coweight([0]))
        point = slices.enumerate_fixed_points(spec)[0]
        tracer.job = 0
        stab_a1.tangent_weights(spec, point)
    finally:
        uninstall()
    assert slices.tangent_weights is original and stab_a1.tangent_weights is original
    names = [tracer.names[i] for i in tracer.span_name]
    assert names.count("slices.tangent_weights") == 1
    metrics = tracing.layer_metrics(tracer, [0.0])
    assert metrics["slices.tangent_weights.calls"] == 1
    assert metrics["slices.enumerate_fixed_points.calls"] == 1
    assert metrics["cartan.datum.calls"] == 1


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    reported = list(tracing.layer_metrics(tracing.Tracer(), [])) + ["trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in reported
    }


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "a1-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
