"""Every name a grslice module imports is used in that module, every
private module-level function or class is named outside its own body, and
every name in a class's __slots__ is read outside __init__.

Read with the standard library's ast: a name counts as used where the
module loads it, or names it inside a string annotation.  The
``from __future__ import annotations`` line imports nothing to use.  A
private definition counts as named where any grslice module loads it,
imports it or reads it as an attribute, outside the definition itself, so
code that only its own recursion or the tests reach shows up.  A slot
counts as read where any grslice module loads it as an attribute outside
the body of an __init__, so a slot that is only ever set shows up.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "grslice")
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


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


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


def _named(node):
    """Every name the node loads, names in a string annotation, imports or
    reads as an attribute."""
    names = _used(node)
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
    return names


def _unreferenced(trees):
    """The private module-level functions and classes of the modules (a map
    of module name to tree) that no module names outside their own body, as
    "module.name" in module and definition order."""
    statements = [(node, _named(node)) for tree in trees.values() for node in tree.body]
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not any(node.name in names for other, names in statements
                                if other is not node)):
                out.append(f"{module}.{node.name}")
    return out


def test_every_private_definition_is_named_outside_its_body():
    trees = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            trees[module[:-3]] = ast.parse(fh.read(), module)
    unreferenced = _unreferenced(trees)
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
    trees = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            trees[module[:-3]] = ast.parse(fh.read(), module)
    unread = _unread_slots(trees)
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
