"""The benchmark's tracer still fits the program: every method that
perfbench/tracing.py wraps is defined in its class, and installing the
tracer and undoing it leaves the classes as they were.

tracing.py is loaded read-only, by path.
"""

import importlib
import importlib.util
import os

from grslice.symalg import Polynomial

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
        Polynomial.gen(2, 0) * Polynomial.gen(2, 1)
        assert "symalg.poly_mul" in tracer.names
    finally:
        uninstall()
    for (cls, attr), original in originals.items():
        assert vars(cls)[attr] is original
