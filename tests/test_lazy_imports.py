"""The package loads each submodule on first use, and a CLI verb loads only
the modules it reads.

``import ringkt`` binds only ``errors``; every other exported name resolves
through the package's ``__getattr__`` (PEP 562) to the object its submodule
defines.  A fresh ``ringkt`` process compiles only the modules its verb
imports, and an ``ast`` scan of module-level imports keeps a later top-level
import from bringing the others back.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringkt

SRC = Path(ringkt.__file__).resolve().parent


def test_every_exported_name_is_its_submodules_object():
    for name in ringkt.__all__:
        value = getattr(ringkt, name)
        if name != "__version__":
            owner = sys.modules[f"ringkt.{ringkt._OWNER[name]}"]
            assert value is getattr(owner, name), name
    for module in ("abgrp", "ktheory", "numfield"):
        # called directly: by now the import system has bound the attribute
        assert ringkt.__getattr__(module) is sys.modules[f"ringkt.{module}"]


def test_dir_lists_the_exports_and_unknown_names_raise():
    assert set(ringkt.__all__) <= set(dir(ringkt))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ringkt.no_such_name
    assert not hasattr(ringkt, "_MAX_TRUNCATE")  # a submodule's private name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ringkt import *", namespace)
    assert set(ringkt.__all__) <= set(namespace)
    assert namespace["colimit"] is ringkt.abgrp.colimit
    assert namespace["InputError"] is ringkt.errors.InputError


_CHILD = """\
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write(
    "\\nloaded=" + ",".join(sorted(m for m in sys.modules if m.startswith("ringkt.")))))
sys.argv = ["ringkt", *sys.argv[1:]]
runpy.run_module("ringkt.cli", run_name="__main__", alter_sys=True)
"""


def _loaded(*argv):
    """The ``ringkt`` submodules a fresh ``ringkt <argv>`` process loads."""
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent) + (os.pathsep + old if old else ""))
    out = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return set(out.stderr.rsplit("loaded=", 1)[1].split(","))


@pytest.mark.parametrize("argv,modules", [
    (("snf", "--matrix", "[[2,4],[6,8]]"), {"abgrp", "errors"}),
    (("field-info", "--field", "x^2 - 2"), {"abgrp", "errors", "numfield"}),
    (("verify", "--suite", "colim"), {"abgrp", "errors", "ktheory", "numfield"}),
], ids=["snf", "field-info", "verify"])
def test_a_verb_loads_only_the_modules_it_reads(argv, modules):
    assert _loaded(*argv) == {f"ringkt.{m}" for m in modules}


def _top_level_imports(source):
    """The package modules that ``source`` imports at module level."""
    tree = ast.parse(source)
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and not node.level:
            # ``from ringkt import x`` and ``from ringkt.x import y``
            if node.module == "ringkt":
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("ringkt."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.ImportFrom):
            found.update([node.module] if node.module else
                         [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("ringkt."))
    return found


@pytest.mark.parametrize("module,allowed", [
    ("__init__", {"errors"}),
    ("cli", {"errors"}),
    ("ktheory", {"abgrp", "errors"}),
    ("numfield", {"abgrp", "errors"}),
    ("abgrp", {"errors"}),
    ("errors", set()),
])
def test_module_level_imports_stay_within_the_graph(module, allowed):
    assert _top_level_imports((SRC / f"{module}.py").read_text()) <= allowed


def test_the_import_scan_sees_each_form():
    source = ("import json\nimport ringkt.numfield\nfrom . import errors\n"
              "from .abgrp import colimit\nfrom ringkt import ktheory\n"
              "from ringkt.cli import main\n"
              "def verb():\n    from . import inside_a_function\n")
    assert _top_level_imports(source) == {"numfield", "errors", "abgrp", "ktheory", "cli"}
    assert sorted(path.stem for path in SRC.glob("*.py")) == [
        "__init__", "abgrp", "cli", "errors", "ktheory", "numfield"]
