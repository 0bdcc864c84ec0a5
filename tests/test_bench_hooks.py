"""The benchmark's tracer wraps depvit functions by attribute name.

Entering ``perfbench/tracer.py``'s ``Tracer`` or ``MemoryProbe`` looks up
every attribute it wraps, so a renamed or deleted function fails here in
well under a second instead of only in the minutes-long benchmark smoke test.
The tracer file is imported by path and only read.
"""

import importlib.util
from pathlib import Path

from depvit import model, tensor, train, tree

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_and_memory_probe_wrap_and_restore():
    tracer = _load_tracer()
    originals = (tensor.matmul, model.block_forward, train.model_forward, tree.induce_tree)
    with tracer.Tracer():
        assert tensor.matmul is not originals[0]
    with tracer.MemoryProbe():
        assert tree.induce_tree is not originals[3]
    assert (tensor.matmul, model.block_forward,
            train.model_forward, tree.induce_tree) == originals
