"""Ratchet against dead code in the package.

A top-level function or class of ``src/depvit`` is unreferenced when its
name appears nowhere in ``src/`` or ``perfbench/`` except where it is
defined.  Code names count wherever they appear; under ``perfbench/`` a
string that is exactly the name counts too, because the benchmark's tracer
wraps functions by attribute name.  Comments and docstrings never count.
A new unreferenced name fails here until it is deleted or allowlisted.

A name that only such a string keeps alive is tracer-only: the benchmark
wraps it, but nothing calls it.  That set is pinned too, so the list of
kernels the benchmark should stop wrapping (and the package then delete)
stays accurate.
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

# Kernels that perfbench/tracer.py wraps by name but no code calls.
TRACER_ONLY = {"div", "scale", "sum_all", "slice_last", "sum_over_axis", "batched_matmul"}


def _references(path: Path) -> tuple[set[str], set[str]]:
    """Names used as code, and string literals that are exactly a name."""
    names, strings = set(), set()
    prev = None
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME and prev not in ("def", "class"):
            names.add(tok.string)
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except ValueError:  # f-strings
                continue
            if isinstance(value, str) and value.isidentifier():
                strings.add(value)
        if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            prev = tok.string
    return names, strings


def _definitions_and_uses() -> tuple[set[str], set[str], set[str]]:
    defined = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    code, tracer_strings = set(), set()
    for path in (ROOT / "src").rglob("*.py"):
        code |= _references(path)[0]
    for path in (ROOT / "perfbench").rglob("*.py"):
        names, strings = _references(path)
        code |= names
        tracer_strings |= strings
    return defined, code, tracer_strings


def test_unreferenced_definitions_are_allowlisted():
    defined, code, tracer_strings = _definitions_and_uses()
    assert sorted(defined - code - tracer_strings) == sorted(ALLOWED)


def test_tracer_only_names_are_pinned():
    defined, code, tracer_strings = _definitions_and_uses()
    assert sorted((defined & tracer_strings) - code) == sorted(TRACER_ONLY)
