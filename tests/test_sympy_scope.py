"""The library imports no sympy; sympy is a test oracle only.

Scans the sources of ``ringkt`` with ``ast`` so that an ``import sympy``
cannot come back unnoticed.
"""

import ast
from pathlib import Path

import ringkt


def _sympy_imports(node, where=None):
    """The enclosing function name (None at module level) of each sympy import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "sympy" for name in names):
            yield where
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _sympy_imports(child, inner)


def test_the_library_imports_no_sympy():
    sources = sorted(Path(ringkt.__file__).parent.rglob("*.py"))
    assert sources
    found = [
        f"{path.stem}.{where}"
        for path in sources
        for where in _sympy_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_scan_catches_sympy_imports():
    code = ("import sympy\n"
            "def f():\n    from sympy.polys import Poly\n"
            "class C:\n    def g(self):\n        import sympy as sp, math\n"
            "def h():\n    import math\n")
    assert list(_sympy_imports(ast.parse(code))) == [None, "f", "g"]
