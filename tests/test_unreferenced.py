"""Ratchet against dead code in the package.

A top-level function or class of ``src/depvit`` is unreferenced when its
name appears nowhere in ``src/`` or ``perfbench/`` except where it is
defined.  Code names count wherever they appear; under ``perfbench/`` a
string that is exactly the name counts too, because the benchmark's tracer
wraps functions by attribute name.  Comments and docstrings never count.
A new unreferenced name fails here until it is deleted or allowlisted.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "depvit"

# fiedler_vector: only the acceptance gate for the spectral bipartition
# (criterion 4) calls it.
ALLOWED = {"fiedler_vector"}


def _references(path: Path, count_strings: bool) -> list[str]:
    names = []
    prev = None
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME and prev not in ("def", "class"):
            names.append(tok.string)
        elif tok.type == tokenize.STRING and count_strings:
            try:
                value = ast.literal_eval(tok.string)
            except ValueError:  # f-strings
                continue
            if isinstance(value, str) and value.isidentifier():
                names.append(value)
        if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            prev = tok.string
    return names


def test_unreferenced_definitions_are_allowlisted():
    defined = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    used = set()
    for path in (ROOT / "src").rglob("*.py"):
        used.update(_references(path, count_strings=False))
    for path in (ROOT / "perfbench").rglob("*.py"):
        used.update(_references(path, count_strings=True))
    assert sorted(defined - used) == sorted(ALLOWED)
