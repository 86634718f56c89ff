"""Count the lines of each ``src/ofdmce`` module by kind.

Run from a checkout root: ``python tools/lines.py``. To count a checkout
without the tool, run this file by its path from that checkout's root. It
prints, per module and in total, the physical lines (what ``wc -l`` counts)
and their split into four kinds, each line counted once:

* docstring: a line inside the span, first to last line, of a module,
  class or function docstring as ``ast`` reports it, blank lines included;
* blank: any other line that holds only whitespace;
* comment: any other line whose first non-blank character is ``#``;
* code: every other line, including a code line with a trailing comment.

Other splits, such as one that counts a docstring's closing quotes on a
line of their own as code, give other numbers; compare only counts made
with this tool.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that the module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """The physical lines of one module and their split by kind."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(("lines",) + KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["lines"] += 1
    return counts


def main() -> int:
    package = Path.cwd() / "src" / "ofdmce"
    paths = sorted(package.glob("*.py"))
    if not paths:
        print(f"no modules under {package}; run from a checkout root", file=sys.stderr)
        return 1
    columns = ("lines",) + KINDS
    print(f"{'module':<16}" + "".join(f"{c:>11}" for c in columns))
    total = dict.fromkeys(columns, 0)
    for path in paths:
        counts = count(path)
        print(f"{path.name:<16}" + "".join(f"{counts[c]:>11}" for c in columns))
        for c in columns:
            total[c] += counts[c]
    print(f"{'total':<16}" + "".join(f"{total[c]:>11}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
