"""Smoke test of ``tools/src_lines.py``, the line counter that ROADMAP item 7
quotes: every line of a module falls into exactly one kind."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


@pytest.mark.parametrize("path", sorted(src_lines.SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_four_kinds_sum_to_the_line_count(path):
    text = path.read_text()
    counts = src_lines.count_lines(text)
    assert set(counts) == set(src_lines.KINDS)
    assert sum(counts.values()) == len(text.splitlines())
    assert counts["code"] > 0


def test_each_kind_on_a_small_module():
    text = ('"""Module\n'
            'docstring."""\n'
            "\n"
            "# a comment\n"
            "def f(x):  # code with a comment\n"
            '    """One line."""\n'
            "    s = '''a string\n"
            "    that is code'''\n"
            "    return s\n")
    assert src_lines.count_lines(text) == {"code": 4, "docstring": 3, "comment": 1, "blank": 1}
