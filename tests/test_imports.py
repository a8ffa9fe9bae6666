"""No grslice module holds an assert statement (python -O drops it), each
grslice module imports only the grslice modules below it, every
name a grslice module imports is used in that module, every private
module-level function or class and every public module-level function or
public method (bar a list of exemptions) is named outside its own body,
and every name in a class's __slots__ is read outside __init__.  The
methods that only the benchmark's tracer keeps are listed by name.

Read with the standard library's ast: a name counts as used where the
module loads it, or names it inside a string annotation.  The
``from __future__ import annotations`` line imports nothing to use.  A
definition counts as named where any grslice module loads it, imports it
or reads it as an attribute, outside the definition itself, and a public
method only where one reads it as an attribute, so code that only its own
recursion or the tests reach shows up, and a local variable does not hide
a method of the same name.  A slot counts as read
where any grslice module loads it as an attribute outside the body of an
__init__, so a slot that is only ever set shows up.
"""

import ast
import os
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "grslice")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def _imported(tree):
    """(name bound, line) for every import of the module, at any depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _annotation_names(tree):
    """Each name a string annotation in the tree names, once per mention."""
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from (n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))


def _used(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_annotation_names(tree))


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module)
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os\n"
                     "from typing import List, Optional\n"
                     "def f(x: 'Optional[int]') -> None:\n    return os.sep\n")
    used = _used(tree)
    assert [name for name, _ in _imported(tree) if name not in used] == ["List"]


# the grslice modules each module may import: the two envelope modules
# stand on the slice data alone, and chern, verify and cli sit above them
MAY_IMPORT = {
    "__init__": set(),
    "symalg": set(),
    "cartan": set(),
    "slices": {"cartan"},
    "stab_a1": {"cartan", "slices"},
    "stab_general": {"cartan", "slices"},
    "chern": {"symalg", "cartan", "slices", "stab_a1", "stab_general"},
    "verify": {"symalg", "cartan", "slices", "stab_a1", "stab_general", "chern"},
    "cli": {"symalg", "cartan", "slices", "stab_a1", "stab_general", "chern", "verify"},
}


def _grslice_imports(tree):
    """The short names of the grslice modules the module imports, at any
    depth, relatively or by the package's name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if not node.level:
                if parts[:1] != ["grslice"]:
                    continue
                parts = parts[1:]
            # from . import verify, or from grslice import chern, names modules
            found.update(parts[:1] or [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("grslice."))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_the_modules_below_it(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        imported = _grslice_imports(ast.parse(fh.read(), module))
    name = module[:-3]
    assert name in MAY_IMPORT, f"{module} has no place in MAY_IMPORT"
    above = sorted(imported - MAY_IMPORT[name])
    assert not above, f"{module} imports modules it may not: {', '.join(above)}"


def test_the_check_sees_every_form_of_a_grslice_import():
    tree = ast.parse("import os\nimport grslice.cartan\nfrom . import verify\n"
                     "from .slices import SliceSpec\nfrom grslice import chern\n"
                     "from grslice.stab_a1 import stab_matrix\nfrom json import dumps\n"
                     "def f():\n    from .symalg import Polynomial\n    return Polynomial\n")
    assert _grslice_imports(tree) == {"cartan", "verify", "slices", "chern", "stab_a1",
                                      "symalg"}


def _asserts(tree):
    """The line of every assert statement in the module, at any depth."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_assert_statement(module):
    # python -O drops an assert statement; a check raises AssertionError itself
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        lines = _asserts(ast.parse(fh.read(), module))
    assert not lines, f"{module} has assert statements on lines {lines}"


def test_the_check_sees_an_assert_statement():
    tree = ast.parse("def f(x):\n    if x < 0:\n        raise AssertionError('negative')\n"
                     "    assert x, 'zero'\n    return 'assert x'\n")
    assert _asserts(tree) == [4]


def _occurrences(node, attributes_only=False):
    """How often the node loads, names in a string annotation, imports or
    reads as an attribute each name; with attributes_only, how often it
    reads each name as an attribute."""
    found = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            found[child.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(child, ast.Name):
            found[child.id] += 1
        elif isinstance(child, ast.alias):
            found[child.name] += 1
    if not attributes_only:
        found.update(_annotation_names(node))
    return found


def _named_outside(trees, attributes_only=False):
    """A test of whether any of the modules (a map of module name to tree)
    names a definition outside its own body; with attributes_only, whether
    any reads it as an attribute there."""
    total = Counter()
    for tree in trees.values():
        total.update(_occurrences(tree, attributes_only))
    return lambda node: total[node.name] > _occurrences(node, attributes_only)[node.name]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unreferenced(trees):
    """The private module-level functions and classes of the modules (a map
    of module name to tree) that no module names outside their own body, as
    "module.name" in module and definition order."""
    named = _named_outside(trees)
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, _FUNCTIONS + (ast.ClassDef,)) and node.name.startswith("_")
            and not named(node)]


def _unreferenced_public(trees, exempt=()):
    """The public module-level functions and the public methods of the
    module-level classes of the modules (a map of module name to tree) that
    no module names outside their own body, as "module.name" or
    "module.class.name" in module and definition order, bar those in
    exempt.  A method counts as named only where it is read as an attribute,
    x.name, so a local variable of the same name does not hide it."""
    named, read = _named_outside(trees), _named_outside(trees, attributes_only=True)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, _FUNCTIONS):
                found = [(f"{module}.{node.name}", node, named)]
            elif isinstance(node, ast.ClassDef):
                found = [(f"{module}.{node.name}.{method.name}", method, read)
                         for method in node.body if isinstance(method, _FUNCTIONS)]
            else:
                continue
            out += [name for name, definition, used in found
                    if not definition.name.startswith("_") and name not in exempt
                    and not used(definition)]
    return out


def _traced_methods():
    """"module.class.method" for each method the benchmark's tracer wraps,
    read from perfbench/tracing.py's METHODS without importing it."""
    with open(os.path.join(ROOT, "perfbench", "tracing.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), "tracing.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets):
            return {".".join(entry[:3]) for entry in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracing.py defines no METHODS")


# Public definitions no program route reaches that stay on purpose: the
# paper's routes that the command line is to expose, and an override that
# argparse calls.  The methods the benchmark's tracer wraps are exempt too.
PUBLIC_EXEMPT = {
    "stab_a1.theta_action", "chern.h_operator", "chern.omega_operators",
    "chern.mult_matrix_via_localization", "slices.project_to_wall_slice",
    "cli._Parser.error",
}


def _trees():
    trees = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            trees[module[:-3]] = ast.parse(fh.read(), module)
    return trees


def test_every_private_definition_is_named_outside_its_body():
    unreferenced = _unreferenced(_trees())
    assert not unreferenced, f"private definitions nothing names: {', '.join(unreferenced)}"


def test_the_check_sees_an_unreferenced_private_definition():
    trees = {
        "a": ast.parse("def _imported():\n    return 1\n\n"
                       "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                       "class _Base:\n    pass\n\n"
                       "class Public(_Base):\n    pass\n\n"
                       "def _orphan():\n    return Public\n\n"
                       "def _attribute():\n    return 2\n"),
        "b": ast.parse("import a\nfrom a import _imported\n\n"
                       "def f():\n    return _imported() + a._attribute()\n"),
    }
    assert _unreferenced(trees) == ["a._recursive", "a._orphan"]


def test_every_public_definition_is_named_outside_its_body():
    unreferenced = _unreferenced_public(_trees(), PUBLIC_EXEMPT | _traced_methods())
    assert not unreferenced, f"public definitions nothing names: {', '.join(unreferenced)}"


def test_every_exemption_is_still_needed():
    stale = PUBLIC_EXEMPT - set(_unreferenced_public(_trees()))
    assert not stale, f"exempt definitions that are named or gone: {', '.join(sorted(stale))}"


def test_the_traced_methods_no_module_reads():
    # the benchmark's tracer alone keeps these: no grslice module reads them
    # as an attribute, so the tracer repair may delete them with their
    # METHODS entries.  A dunder method is run by syntax, not read, and is
    # left out of this check
    unread = set(_unreferenced_public(_trees())) & _traced_methods()
    assert sorted(unread) == [
        "cartan.CartanDatum.positive_roots", "cartan.CartanDatum.reflect_coweight",
        "cartan.CartanDatum.reflect_form", "cartan.Chamber.is_positive"]


def test_the_check_sees_an_unreferenced_public_definition():
    trees = {
        "a": ast.parse("def used():\n    return 1\n\n"
                       "def recursive(n):\n    return recursive(n - 1)\n\n"
                       "def exempt():\n    return 3\n\n"
                       "class Box:\n    def grow(self):\n        return self.size()\n\n"
                       "    def size(self):\n        return 0\n\n"
                       "    def shrink(self):\n        return self.shrink()\n\n"
                       "    def shadowed(self):\n        return 5\n\n"
                       "    def _hidden(self):\n        return 4\n"),
        "b": ast.parse("from a import used, Box\n\n"
                       "def main():\n    shadowed = used() + Box().grow()\n"
                       "    return shadowed\n"),
    }
    assert _unreferenced_public(trees, {"a.exempt"}) == [
        "a.recursive", "a.Box.shrink", "a.Box.shadowed", "b.main"]


def _slots(tree):
    """(class name, slot name) for every name in the __slots__ of the
    module's classes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                    names = ast.literal_eval(stmt.value)
                    for name in (names,) if isinstance(names, str) else names:
                        yield node.name, name


def _read_outside_init(node, names):
    """Add to names every attribute the node loads outside an __init__ body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__init__":
        return names
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        names.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _read_outside_init(child, names)
    return names


def _unread_slots(trees):
    """The slots of the modules' classes (a map of module name to tree) that
    no module reads outside __init__, as "module.class.slot" in module and
    definition order."""
    read = set()
    for tree in trees.values():
        _read_outside_init(tree, read)
    return [f"{module}.{cls}.{slot}" for module, tree in trees.items()
            for cls, slot in _slots(tree) if slot not in read]


def test_every_slot_is_read_outside_init():
    unread = _unread_slots(_trees())
    assert not unread, f"slots nothing reads outside __init__: {', '.join(unread)}"


def test_the_check_sees_an_unread_slot():
    trees = {
        "a": ast.parse("class Point:\n    __slots__ = ('x', 'y', '_cache')\n\n"
                       "    def __init__(self, x, y):\n"
                       "        self.x, self.y = x, y\n        self._cache = [self.y]\n\n"
                       "    def norm(self):\n        return self.x * self.x\n\n"
                       "class Box:\n    __slots__ = 'size'\n\n"
                       "    def __init__(self, size):\n        self.size = size\n"),
        "b": ast.parse("def grow(box):\n    box.size += 1\n    return box.size\n"),
    }
    assert _unread_slots(trees) == ["a.Point.y", "a.Point._cache"]
