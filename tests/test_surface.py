"""The library's public surface: every public name has a reader that is
not a unit test."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "intentforge").glob("*.py"))
# ROADMAP item 3 (an anchor-conditioned predictor) gives these callers
NO_READER_YET = {"min_ade", "miss_rate"}


def _public_names(path):
    """(name, line) of every top-level public def, class and constant."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((n, node.lineno) for n in names if not n.startswith("_"))


def test_every_public_name_has_a_reader_outside_the_tests():
    outside = "\n".join(p.read_text() for p in [
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "benchmark").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py"])
    unread = set()
    for path in SRC:
        lines = path.read_text().splitlines()
        for name, line in _public_names(path):
            # the module's text without the definition line, then the rest
            texts = ["\n".join(lines[:line - 1] + lines[line:]), outside,
                     *(p.read_text() for p in SRC if p != path)]
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in texts):
                unread.add(name)
    assert unread == NO_READER_YET
