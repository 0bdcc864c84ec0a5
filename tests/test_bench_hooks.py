"""The benchmark's hooks into depvit: wrapped attributes and output checks.

Entering ``perfbench/tracer.py``'s ``Tracer`` or ``MemoryProbe`` looks up
every attribute it wraps, and the checks in ``perfbench/workloads.py`` read
back the tree and ledger files a request writes.  So a renamed function or a
file layout those checks cannot read fails here in seconds instead of only in
the minutes-long benchmark smoke test.  The perfbench files are imported by
path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

from depvit import model, tensor, train, tree

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_and_memory_probe_wrap_and_restore():
    tracer = _load("tracer")
    originals = (tensor.matmul, model.block_forward, train.model_forward, tree.induce_tree)
    with tracer.Tracer():
        assert tensor.matmul is not originals[0]
    with tracer.MemoryProbe():
        assert tree.induce_tree is not originals[3]
    assert (tensor.matmul, model.block_forward,
            train.model_forward, tree.induce_tree) == originals


@pytest.mark.parametrize("workload", ["ParseWorkload", "PruneWorkload"])
def test_one_request_passes_the_workload_checks(tmp_path, workload):
    work = getattr(_load("workloads"), workload)(seed=1)
    work.setup(tmp_path / "setup")
    work.check(0, work.request(0))
