"""The README's library example runs as printed, and every name it
backticks is one the library has."""

import importlib
import inspect
import os
import pkgutil
import re

import grslice
from grslice import cli
from grslice.cartan import CartanDatum, Coweight
from grslice.slices import SliceSpec

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

# a backticked span on one line, and the dotted identifier it may start
# with: `chern.h_operator`, `repelling_euler(spec, p, ch)` and
# `stab.polarization_signs` each start with one
SPAN = re.compile(r"`([^`\n]+)`")
LEADING_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

# names of the paper's notation rather than of the library
NOTATION = {"c_1"}

MISSING = object()


def _read():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", _read(), re.S | re.M)
    assert blocks
    for block in blocks:
        namespace = {}
        exec(compile(block, README, "exec"), namespace)
    # the library example ends by expanding and printing one mod-h^2 entry on
    # A1 1^4, mu 0
    assert namespace["value"] == "a1*h"


def _modules():
    """grslice's modules by their short name."""
    return {info.name: importlib.import_module(f"grslice.{info.name}")
            for info in pkgutil.iter_modules(grslice.__path__)}


def _known_names(modules):
    """Every name a backticked span may end in: a module, an attribute of a
    module, of one of its classes or of a datum and a slice, the cache
    directory's environment variable, and the paper's notation."""
    names = set(modules) | NOTATION | {cli.CACHE_ENV}
    for module in modules.values():
        for name, value in vars(module).items():
            names.add(name)
            if inspect.isclass(value) and value.__module__ == module.__name__:
                names.update(dir(value))
    datum = CartanDatum("A", 2)
    names.update(dir(datum))
    names.update(dir(SliceSpec(datum, [1, 1, 1], Coweight([0, 0]))))
    return names


def _unresolved(text, modules, known):
    """The backticked names of text with an underscore that name nothing,
    in order of first appearance.  A name that starts with a module (or
    grslice) must resolve attribute by attribute; any other is checked by
    its last part."""
    missing = []
    for span in SPAN.findall(text):
        match = LEADING_NAME.match(span)
        name = match.group() if match else ""
        if "_" not in name or name in missing:
            continue
        parts = name.split(".")
        if parts[0] == "grslice":
            parts = parts[1:]
        if parts and parts[0] in modules:
            target = modules[parts[0]]
            for part in parts[1:]:
                target = getattr(target, part, MISSING)
            found = target is not MISSING
        else:
            found = parts[-1] in known
        if not found:
            missing.append(name)
    return missing


def test_readme_names_only_what_exists():
    modules = _modules()
    missing = _unresolved(_read(), modules, _known_names(modules))
    assert not missing, f"the README names what grslice lacks: {', '.join(missing)}"


def test_the_check_sees_a_stale_name():
    modules = _modules()
    known = _known_names(modules)
    text = ("`chern.bundle_weight`, `grslice.stab_a1`, `c_1(E_i)`, `(a_1, h)`, "
            "`stab.polarization_signs`, `mult_matrix(spec, bundle, ch)`, `GRSLICE_CACHE_DIR`, "
            "`tests/test_readme.py`, `json.dumps`; `chern.e_bundle_weight`, `e_bundle_weight`, "
            "`mat.no_such_slot`, `grslice.no_such_module`, `slices.point_index.no_such_part`")
    assert _unresolved(text, modules, known) == [
        "chern.e_bundle_weight", "e_bundle_weight", "mat.no_such_slot",
        "grslice.no_such_module", "slices.point_index.no_such_part"]
