"""Smoke test of the benchmark on its real workloads, shortened to one pass.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced with ``--seconds 1``,
which still runs one whole pass over the workload's inputs at the geometry
the benchmark reports, and checks that each metric BENCHMARK.json names is
printed with its unit, that every output check passed, and that the quality
figures of both runs agree.  Also checks that the benchmark refuses to run
without the package, that tracing puts back every attribute it wrapped, and
that it fails when a function it should wrap is missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUALITY = ("tree_score", "parts_miou", "train_loss_final")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload):
    quality = {}
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                    "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stderr
        assert result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), name
        record = json.loads(
            (ROOT / ".bench_out" / f"{workload}-seed5-trace{trace}.json").read_text())
        assert record["metrics"]["failed_frac"] == 0
        assert record["machine"]["nproc"] >= 1
        quality[trace] = {k: record["metrics"][k] for k in QUALITY}
    # the traced run computed exactly what the untraced run computed
    assert record["traced_outputs_equal"] and record["traced_macs_match_cost_model"]
    assert quality["0"] == quality["1"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def bench_modules():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    yield
    del sys.path[:2]


def test_tracing_restores_every_patched_attribute(bench_modules):
    from depvit import model, tensor, train
    from tracer import MemoryProbe, Tracer

    def current():
        return (model.block_forward, model.model_forward, train.model_forward,
                tensor.matmul, tensor.Tape.gradients, train.AdamState.update)

    before = current()
    with Tracer():
        assert model.block_forward is not before[0]
    with MemoryProbe():
        assert model.model_forward is not before[1]
    assert current() == before


def test_tracing_fails_on_a_missing_function(bench_modules, monkeypatch):
    from depvit import model, tensor
    from tracer import Tracer

    before = (model.block_forward, tensor.matmul)
    monkeypatch.delattr(tensor, "gelu")
    with pytest.raises(AttributeError, match="gelu"):
        with Tracer():
            pass
    assert (model.block_forward, tensor.matmul) == before
