"""Count the lines of each ``src/ringkt`` module by kind.

A line is *code* when it holds a token that is not a docstring, a comment or
layout (a newline, an indent or a dedent); a *docstring* line holds a
docstring and no code; a *comment* line holds a comment and nothing else;
every other line is *blank*.  A docstring is a string statement that opens a
module, a class or a function body.  The four counts of a module sum to its
line count.

Run from the repository root::

    python tools/src_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ringkt"
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_spans(tree):
    """``((line, col), (end_line, end_col))`` of every docstring statement."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield (first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)


def count_lines(text):
    """``{kind: lines}`` for the Python source ``text``."""
    spans = list(_docstring_spans(ast.parse(text)))
    kind_of = {}  # line -> the highest-ranked kind seen on it, by index in KINDS
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.COMMENT:
            kind = 2
        elif any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
            kind = 1
        else:
            kind = 0
        for line in range(tok.start[0], tok.end[0] + 1):
            kind_of[line] = min(kind_of.get(line, 3), kind)
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, len(text.splitlines()) + 1):
        counts[KINDS[kind_of.get(line, 3)]] += 1
    return counts


def main():
    rows = [(path.name, count_lines(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", {k: sum(c[k] for _, c in rows) for k in KINDS}))
    print(f"{'module':<14}" + "".join(f"{k:>11}" for k in KINDS) + f"{'lines':>8}")
    for name, counts in rows:
        print(f"{name:<14}" + "".join(f"{counts[k]:>11}" for k in KINDS)
              + f"{sum(counts.values()):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
