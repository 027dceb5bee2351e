"""No dead private helpers: every top-level private name of a ``ringkt``
module (a function, a class or an assigned name starting with ``_``) is read
somewhere outside its own definition, in its own module or by another module
that imports it from there (``from .mod import _name`` or ``mod._name``).
The check is per module, so a name read in one module cannot keep a dead
namesake in another alive."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ringkt"
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree):
    """Each top-level private name with the node that defines it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _private(node.name):
                yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _private(name.id):
                        yield name.id, node


def _reads(tree):
    """How often each name is read in ``tree`` as a plain name."""
    return Counter(n.id for n in ast.walk(tree)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def _unread(tree, imported=()):
    """The private names of ``tree`` read nowhere outside their definition."""
    reads = _reads(tree)
    return [name for name, node in _definitions(tree)
            if name not in imported and reads[name] == _reads(node)[name]]


def _imports():
    """The names each module gives to the others, read in one walk of each:
    ``from .module import _x`` or ``module._x``."""
    taken = {module: set() for module in TREES}
    for other, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module in taken:
                taken[node.module].update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in taken and node.value.id != other):
                taken[node.value.id].add(node.attr)
    return taken


def test_every_private_helper_is_read_outside_its_definition():
    taken = _imports()
    dead = [f"{module}.{name}" for module, tree in TREES.items()
            for name in _unread(tree, taken[module])]
    assert dead == []


def test_the_guard_sees_a_dead_helper():
    assert _unread(ast.parse("def _used():\n    return _dead\n\n"
                             "def _dead():\n    return _dead()\n\n"
                             "_TABLE = 1\n\nx = _used() + _TABLE\n")) == []
    assert _unread(ast.parse("def _dead():\n    return _dead()\n\n_GONE = 2\n"),
                   imported={"_TAKEN"}) == ["_dead", "_GONE"]
    assert _unread(ast.parse("_TAKEN = 3\n"), imported={"_TAKEN"}) == []
