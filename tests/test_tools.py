"""``tools/lines.py``, the per-kind line counter of ``src/ofdmce``."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("lines", ROOT / "tools" / "lines.py")
lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lines)

PACKAGE = sorted((ROOT / "src" / "ofdmce").glob("*.py"))

# A synthetic module, line by line, with the kind the counter's docstring gives each line.
SYNTHETIC = [
    ('"""A module docstring', "docstring"),
    ('over two lines."""', "docstring"),
    ("", "blank"),
    ("# a comment", "comment"),
    ("import os  # a code line with a trailing comment", "code"),
    ("   ", "blank"),
    ("", "blank"),
    ("class A:", "code"),
    ('    """One line."""', "docstring"),
    ("", "blank"),
    ("    def f(self):", "code"),
    ('        """Spans', "docstring"),
    ("", "docstring"),
    ("        # not a comment but docstring", "docstring"),
    ('        a blank line."""', "docstring"),
    ('        x = """a string, not a docstring', "code"),
    ('"""', "code"),
    ("        return x", "code"),
    ("", "blank"),
    ("", "blank"),
    ("async def g():", "code"),
    ('    """Async too."""', "docstring"),
    ("    # a comment after the docstring", "comment"),
]


def test_synthetic_module_splits_as_documented(tmp_path):
    """Docstring spans, blank lines in them included, come first; then
    blanks, comment lines and code, a trailing comment keeping a line code."""
    path = tmp_path / "synthetic.py"
    path.write_text("".join(f"{text}\n" for text, _ in SYNTHETIC))
    counts = lines.count(path)
    expected = {kind: sum(k == kind for _, k in SYNTHETIC) for kind in lines.KINDS}
    assert {kind: counts[kind] for kind in lines.KINDS} == expected
    assert counts["lines"] == len(SYNTHETIC)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_kinds_sum_to_the_newline_count(path):
    """Each module's four kinds sum to its physical lines, which are its
    newline count, what ``wc -l`` reports."""
    counts = lines.count(path)
    assert sum(counts[kind] for kind in lines.KINDS) == counts["lines"]
    assert counts["lines"] == path.read_bytes().count(b"\n")


def test_total_row_is_the_package_sum(monkeypatch, capsys):
    """Run from the checkout root, the total row sums every module's counts."""
    monkeypatch.chdir(ROOT)
    assert lines.main() == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total[0] == "total"
    assert int(total[1]) == sum(path.read_bytes().count(b"\n") for path in PACKAGE)
