"""The library reads no environment variables: every setting is an argument.

Scans the sources of ``ringkt`` with ``ast`` so that an ``os.environ`` or
``os.getenv`` lookup cannot come back unnoticed.
"""

import ast
from pathlib import Path

import ringkt

_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _env_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES:
            yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in _ENV_NAMES:
                    yield node.lineno, f"from os import {alias.name}"


def test_sources_read_no_environment():
    sources = sorted(Path(ringkt.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line}: {text}"
        for path in sources
        for line, text in _env_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_scan_catches_environment_reads():
    code = "import os\nfrom os import getenv\na = os.environ.get('X')\nb = os.getenv('Y')\n"
    assert sorted(line for line, _ in _env_uses(ast.parse(code))) == [2, 3, 4]
