"""The benchmark's tracer still fits the program: every method that
perfbench/tracing.py wraps is defined in its class, and installing the
tracer and undoing it leaves the classes as they were.

tracing.py is loaded read-only, by path.
"""

import importlib
import importlib.util
import os

from helpers import gen

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_method_it_names_and_uninstalls():
    tracing = _load_tracing()
    originals = {}
    for layer, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module("grslice." + layer), cls_name)
        assert attr in vars(cls), f"{layer}.{cls_name} defines no {attr}"
        originals[cls, attr] = vars(cls)[attr]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        for (cls, attr), original in originals.items():
            assert vars(cls)[attr] is not original
        gen(2, 0) * gen(2, 1)
        assert "symalg.poly_mul" in tracer.names
    finally:
        uninstall()
    for (cls, attr), original in originals.items():
        assert vars(cls)[attr] is original


# Metrics whose span no longer exists: the work they measured is gone from
# the program, so they read 0.
RETIRED_SPANS = ("symalg.exact_div", "stab_general.find_adjacency")


def test_every_layer_metric_names_a_span_the_tracer_records():
    # a renamed or deleted function would zero its metrics silently
    tracing = _load_tracing()
    suffixes = ("calls", "self_s", "repeat_ratio", "hit_ratio", "fail_ratio", "bytes")
    named = set()
    for key in tracing.layer_metrics(tracing.Tracer(), []):
        span, _, suffix = key.rpartition(".")
        if suffix in suffixes and span.count(".") == 1:
            named.add(span)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    uninstall()
    # wrapping registers each span name; cli.parse is wrapped when a
    # parser is built
    spans = set(tracer.names) | {"cli.parse"}
    assert "slices.tangent_weights" in named and "stab_general.omega_ratio" in named
    assert sorted(named - spans) == sorted(RETIRED_SPANS)
