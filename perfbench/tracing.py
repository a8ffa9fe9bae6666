"""Span tracing installed around grslice's public functions from outside.

The benchmark records one span per call into a layer: the wrapped function's
name, its parent span, its start and end times, the job it belongs to and
whether it raised.  Nothing under ``src/`` is edited; instead `install`
replaces each traced function in every ``grslice.*`` namespace that holds it,
because modules import functions by name (``tangent_weights`` lives in the
namespaces of ``slices``, ``stab_a1``, ``stab_general``, ``chern`` and
``cli``).  Spans stay in compact arrays until the run ends; `layer_metrics`
then derives self times and counts from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

LAYERS = ("symalg", "cartan", "slices", "stab_a1", "stab_general", "chern", "cli")

# Public functions whose span name is not "<module>.<function>".  Both
# rendering entry points share one name, and so do the two halves of
# argument parsing (building the parser and running it), so that the
# layer's self time covers the whole step.
RENAMED = {
    ("cli", "build_parser"): "cli.parse",
    ("cli", "compute_payload"): "cli.compute",
    ("cli", "render"): "cli.render",
    ("cli", "render_table"): "cli.render",
}

# Methods traced in addition to module-level functions: the arithmetic
# kernels, the constructors that do real work, and the validation steps.
METHODS = (
    ("symalg", "Polynomial", "__mul__", "symalg.poly_mul"),
    ("symalg", "Polynomial", "__rmul__", "symalg.poly_mul"),
    ("symalg", "RationalFunction", "__init__", "symalg.ratfunc_new"),
    ("symalg", "RationalFunction", "__eq__", "symalg.ratfunc_eq"),
    ("cartan", "CartanDatum", "__init__", "cartan.datum"),
    ("cartan", "CartanDatum", "inner", "cartan.inner"),
    ("cartan", "CartanDatum", "sharp", "cartan.sharp"),
    ("cartan", "CartanDatum", "weyl_orbit", "cartan.weyl_orbit"),
    ("cartan", "CartanDatum", "positive_roots", "cartan.positive_roots"),
    ("cartan", "CartanDatum", "reflect_coweight", "cartan.reflect_coweight"),
    ("cartan", "CartanDatum", "reflect_form", "cartan.reflect_form"),
    ("cartan", "Chamber", "__init__", "cartan.chamber"),
    ("cartan", "Chamber", "is_positive", "cartan.is_positive"),
    ("slices", "SliceSpec", "__init__", "slices.spec"),
    ("stab_a1", "RestrictionMatrix", "validate", "stab_a1.validate"),
    ("cli", "JobSpec", "build", "cli.job_build"),
)


def _freeze(value):
    """Hashable stand-in for a polarization argument (None, list or mapping)."""
    if isinstance(value, dict):
        return frozenset(value.items())
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return value


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


class Tracer:
    """In-memory span store for one single-threaded run."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_raised = array("b")
        self._stack = [-1]
        self.job = -1
        self.distinct: Dict[str, set] = defaultdict(set)
        self.useful: Counter = Counter()
        self.bytes: Counter = Counter()
        self.job_hit: Dict[int, bool] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_job.append(self.job)
        self.span_raised.append(0)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def close(self, index: int, raised: bool = False) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()
        if raised:
            self.span_raised[index] = 1

    def __len__(self):
        return len(self.span_name)


def self_times(parent: Sequence[int], start: Sequence[float], end: Sequence[float]) -> array:
    """Each span's duration minus the part of it that its children cover.

    Spans must be listed in the order they opened, so that a parent precedes
    its children and siblings appear by start time; the union of the child
    intervals, clipped to the parent's interval, is what gets subtracted.
    """
    n = len(parent)
    covered = array("d", bytes(8 * n))
    reach = array("d", start)  # furthest covered instant inside each span so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))


# -- probes: extra facts recorded after a call returns --------------------------


def _probe_distinct(key_of):
    def probe(tracer, name, args, kwargs, result):
        tracer.distinct[name].add(key_of(args, kwargs))
    return probe


def _probe_found(tracer, name, args, kwargs, result):
    if result is not None:
        tracer.useful[name] += 1


def _probe_cache_fetch(tracer, name, args, kwargs, result):
    hit = result is not None
    if hit:
        tracer.useful[name] += 1
    tracer.job_hit[tracer.job] = tracer.job_hit.get(tracer.job, False) or hit


def _probe_cache_store(tracer, name, args, kwargs, result):
    from grslice import cli

    # Read the location from the environment: calling cli.cache_dir here
    # would record a span outside the call being probed.
    path = os.path.join(os.environ[cli.CACHE_ENV], args[0] + ".json")
    try:
        tracer.bytes[name] += os.path.getsize(path)
    except OSError:
        pass


def _probe_render(tracer, name, args, kwargs, result):
    tracer.bytes[name] += len(result.encode("utf-8"))


def _spec_key(args, kwargs):
    return _arg(args, kwargs, 0, "spec")


def _spec_point_key(args, kwargs):
    return (_arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "p"))


def _spec_chamber_signs_key(args, kwargs):
    return (
        _arg(args, kwargs, 0, "spec"),
        _arg(args, kwargs, 1, "ch"),
        _freeze(_arg(args, kwargs, 2, "polarization_signs")),
    )


PROBES: Dict[Tuple[str, str], Callable] = {
    ("slices", "enumerate_fixed_points"): _probe_distinct(_spec_key),
    ("slices", "tangent_weights"): _probe_distinct(_spec_point_key),
    ("stab_a1", "stab_matrix"): _probe_distinct(_spec_chamber_signs_key),
    ("stab_general", "stab_mod_h2"): _probe_distinct(_spec_chamber_signs_key),
    ("stab_general", "find_adjacency"): _probe_found,
    ("cli", "cache_fetch"): _probe_cache_fetch,
    ("cli", "cache_store"): _probe_cache_store,
    ("cli", "render"): _probe_render,
}


# -- installation ------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn: Callable, probe: Optional[Callable]) -> Callable:
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index, raised=True)
            raise
        tracer.close(index)
        if probe is not None:
            probe(tracer, name, args, kwargs, result)
        return result

    return traced


def _wrap_parser(tracer: Tracer, build_parser: Callable) -> Callable:
    """build_parser whose parser also traces parse_args as "cli.parse"."""

    @functools.wraps(build_parser)
    def build():
        parser = build_parser()
        parser.parse_args = _wrap(tracer, "cli.parse", parser.parse_args, None)
        return parser

    return build


def install(tracer: Tracer) -> Callable[[], None]:
    """Trace every layer's public functions; returns a function that undoes it."""
    modules = {layer: importlib.import_module("grslice." + layer) for layer in LAYERS}
    namespaces = [m for key, m in sys.modules.items() if key.startswith("grslice") and m]
    undo: List[Tuple[object, str, object]] = []

    def replace(target, attr, value):
        undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            name = RENAMED.get((layer, attr), f"{layer}.{attr}")
            wrapped = _wrap(tracer, name, fn, PROBES.get((layer, attr)))
            if (layer, attr) == ("cli", "build_parser"):
                wrapped = _wrap_parser(tracer, wrapped)
            for namespace in namespaces:
                if vars(namespace).get(attr) is fn:
                    replace(namespace, attr, wrapped)

    for layer, cls_name, attr, name in METHODS:
        cls = getattr(modules[layer], cls_name)
        replace(cls, attr, _wrap(tracer, name, vars(cls)[attr], None))

    def uninstall():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return uninstall


# -- metrics -------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median_ms(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) * 1000.0 if values else 0.0


def layer_metrics(tracer: Tracer, latencies: Sequence[float],
                  time_scale: float = 1.0) -> Dict[str, float]:
    """Per-layer counts, self times and ratios from the recorded spans.

    ``latencies[j]`` is the time of job j, which splits the job latencies
    into cache hits and misses by what ``cache_fetch`` returned.  Self times
    are multiplied by ``time_scale``.
    """
    selfs = self_times(tracer.span_parent, tracer.span_start, tracer.span_end)
    calls: Counter = Counter()
    raised: Counter = Counter()
    self_s: Counter = Counter()
    for i, name_id in enumerate(tracer.span_name):
        name = tracer.names[name_id]
        calls[name] += 1
        raised[name] += tracer.span_raised[i]
        self_s[name] += selfs[i] * time_scale

    m: Dict[str, float] = {}
    for name in ("symalg.poly_mul", "symalg.exact_div", "symalg.ratfunc_new",
                 "symalg.ratfunc_eq", "cartan.datum", "slices.enumerate_fixed_points",
                 "slices.tangent_weights", "stab_a1.stab_matrix", "stab_a1.validate",
                 "stab_general.stab_mod_h2", "stab_general.omega_ratio",
                 "stab_general.sigma_sign", "chern.mult_matrix",
                 "chern.reconstruct_coefficient"):
        m[name + ".calls"] = calls[name]
        m[name + ".self_s"] = self_s[name]
    m["symalg.exact_div.fail_ratio"] = _ratio(raised["symalg.exact_div"],
                                              calls["symalg.exact_div"])
    m["cartan.self_s"] = sum(t for name, t in self_s.items() if name.startswith("cartan."))
    m["slices.spec.self_s"] = self_s["slices.spec"]
    for name in ("slices.enumerate_fixed_points", "slices.tangent_weights",
                 "stab_a1.stab_matrix", "stab_general.stab_mod_h2"):
        m[name + ".repeat_ratio"] = _ratio(calls[name], len(tracer.distinct[name]))
    m["stab_a1.verify_duality.self_s"] = self_s["stab_a1.verify_duality"]
    m["stab_general.find_adjacency.calls"] = calls["stab_general.find_adjacency"]
    m["stab_general.find_adjacency.hit_ratio"] = _ratio(
        tracer.useful["stab_general.find_adjacency"], calls["stab_general.find_adjacency"]
    )
    m["stab_general.wall_adjacent_chambers.calls"] = calls["stab_general.wall_adjacent_chambers"]
    for name in ("cli.parse", "cli.job_build", "cli.compute"):
        m[name + ".self_s"] = self_s[name]
    for name in ("cli.cache_fetch", "cli.cache_store"):
        m[name + ".calls"] = calls[name]
        m[name + ".self_s"] = self_s[name]
    m["cli.cache_fetch.hit_ratio"] = _ratio(tracer.useful["cli.cache_fetch"],
                                            calls["cli.cache_fetch"])
    m["cli.cache_store.bytes"] = tracer.bytes["cli.cache_store"]
    m["cli.render.self_s"] = self_s["cli.render"]
    m["cli.render.bytes"] = tracer.bytes["cli.render"]
    m["cli.hit_latency_p50_ms"] = _median_ms(
        t for j, t in enumerate(latencies) if tracer.job_hit.get(j)
    )
    m["cli.miss_latency_p50_ms"] = _median_ms(
        t for j, t in enumerate(latencies) if not tracer.job_hit.get(j)
    )
    return m
