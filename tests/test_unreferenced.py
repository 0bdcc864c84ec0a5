"""Ratchet against dead code in the package.

A top-level function or class of ``src/depvit`` is unreferenced when its
name appears nowhere in ``src/`` or ``perfbench/`` except where it is
defined.  Code names count wherever they appear; under ``perfbench/`` a
string that is exactly the name counts too, because the benchmark's tracer
wraps functions by attribute name.  Comments and docstrings never count.
A new unreferenced name fails here until it is deleted or allowlisted.
The same holds, with no allowlist, for every method and property of a
package class whose name is not a dunder.

A name that only such a string keeps alive is tracer-only: the benchmark
wraps it, but nothing calls it.  That set is pinned too, so the list of
kernels the benchmark should stop wrapping (and the package then delete)
stays accurate.

The settable values are pinned the same way: every dataclass field with a
default (``init=False`` fields excluded) and every parameter with a
default.  A new one fails here until it is listed, so that each value a
caller may leave out is a deliberate choice.

Every dataclass field needs a reader too: ``.name`` must appear in
``src/`` or ``perfbench/``.  Classes whose fields are read all at once,
through ``fields()`` or ``asdict()``, are allowlisted instead.

Every parameter of a package function or method must be read in its
body, so a value a caller passes always reaches the computation.  Dunder
methods are exempt: their parameters are fixed by the protocol.
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

# Dataclasses read field by field through fields() or asdict().
WHOLE_READ = {"BlockWeights", "ModelWeights", "ModelConfig", "LayerCost", "CostReport",
              "MetricReport", "GradCheckReport"}

SETTABLE = {
    "cli.run.argv",
    "errors.FormatError.__init__.offset",
    "evalkit.MetricReport.acc", "evalkit.MetricReport.iou", "evalkit.MetricReport.macc",
    "evalkit.MetricReport.matching", "evalkit.MetricReport.max_f_beta",
    "evalkit.MetricReport.miou", "evalkit.saliency_metrics.beta2",
    "fileio.RunConfig.min_part_size",
    "model.ModelConfig.channels", "model.ModelConfig.heads", "model.ModelConfig.image_size",
    "model.ModelConfig.layers", "model.ModelConfig.num_classes",
    "model.ModelConfig.patch_size", "model.ModelConfig.prune_schedule",
    "model.ModelConfig.seed", "model.init_weights.dtype",
    "tensor.Tensor.__init__.requires_grad",
    "tensor.grad_check.tolerance",
    "tensor.tensor.requires_grad",
    "train.toy_train.batch_size", "train.toy_train.lr", "train.toy_train.seed",
    "train.toy_train.steps",
    "tree.DependencyTree.subtree",
}


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


def _methods() -> set[str]:
    """``module.Class.name`` of every non-dunder method and property."""
    return {
        f"{path.stem}.{node.name}.{item.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
    }


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _init_false(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords)


def _settable(node: ast.AST, prefix: str) -> set[str]:
    """Qualified names of the defaulted fields and parameters under ``node``."""
    out = set()
    for child in ast.iter_child_nodes(node):
        name = f"{prefix}.{getattr(child, 'name', '')}"
        if isinstance(child, ast.ClassDef) and _is_dataclass(child):
            out |= {f"{name}.{st.target.id}" for st in child.body
                    if isinstance(st, ast.AnnAssign) and st.value is not None
                    and not _init_false(st.value)}
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            out |= {f"{name}.{a.arg}" for a in positional[len(positional) - len(args.defaults):]}
            out |= {f"{name}.{a.arg}" for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None}
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            out |= _settable(child, name)
        else:
            out |= _settable(child, prefix)
    return out


def test_unreferenced_definitions_are_allowlisted():
    defined, code, tracer_strings = _definitions_and_uses()
    assert sorted(defined - code - tracer_strings) == sorted(ALLOWED)


def test_methods_and_properties_are_referenced():
    _, code, tracer_strings = _definitions_and_uses()
    used = code | tracer_strings
    assert sorted(m for m in _methods() if m.rsplit(".", 1)[1] not in used) == []


def test_tracer_only_names_are_pinned():
    defined, code, tracer_strings = _definitions_and_uses()
    assert sorted((defined & tracer_strings) - code) == sorted(TRACER_ONLY)


def test_settable_values_are_pinned():
    found = set()
    for path in PACKAGE.glob("*.py"):
        found |= _settable(ast.parse(path.read_text()), path.stem)
    assert sorted(found) == sorted(SETTABLE)


def test_dataclass_fields_have_readers():
    read = {node.attr
            for base in ("src", "perfbench")
            for path in (ROOT / base).rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    unread = {
        f"{path.stem}.{node.name}.{st.target.id}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and _is_dataclass(node) and node.name not in WHOLE_READ
        for st in node.body
        if isinstance(st, ast.AnnAssign) and st.target.id not in read
    }
    assert sorted(unread) == []


def test_parameters_are_read():
    unread = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                    node.name.startswith("__") and node.name.endswith("__")):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            read = {n.id for st in node.body for n in ast.walk(st)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread |= {f"{path.stem}.{node.name}.{p}" for p in params if p not in read}
    assert sorted(unread) == []
