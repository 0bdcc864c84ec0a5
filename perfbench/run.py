"""depvit benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload parse-tiny128 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
Load is a closed loop of one client: each request starts when the previous
one and its output checks are done.  With ``--trace 0`` the run is untraced
and prints the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
runs an untraced reference over half of ``--seconds``, replays the same
requests under the span tracer, then one request under tracemalloc, and
prints the per-layer metrics.  The last line of standard output is the result object; a fuller
record, with the machine description, goes to ``.bench_out/``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
SETUP_REPEATS = 5


def cap_blas_threads() -> int:
    """Cap every BLAS thread pool at the CPUs this process may use.

    Must run before numpy is imported; an existing smaller cap is kept.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def machine_info(nproc: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "blas": blas,
        "blas_thread_cap": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


@dataclass
class Phase:
    """Outcome of a sequence of requests."""

    latencies: list[float] = field(default_factory=list)
    outputs: list[dict | None] = field(default_factory=list)
    failed: int = 0
    busy: float = 0.0  # summed request wall time; checks are excluded

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_phase(work, seconds: float | None = None, count: int | None = None,
              tracer=None) -> Phase:
    """Closed loop of requests 0, 1, 2, ...

    Runs ``count`` requests, or, without a count, whole passes over the
    workload's inputs (``work.pass_len`` requests each) until the summed
    request time reaches ``seconds``.  Every input is then timed equally
    often, so a faster program changes the number of passes but not the mix
    of inputs.  Each request is timed alone; its output check and a garbage
    collection run after the clock stops.
    """
    phase = Phase()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif phase.busy >= seconds and i > 0 and i % work.pass_len == 0:
            break
        out = error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = work.request(i)
            else:
                with tracer.request(i):
                    out = work.request(i)
        except Exception as exc:  # a failed request is counted, not fatal
            error = exc
        dt = time.perf_counter() - t0
        phase.busy += dt
        phase.latencies.append(dt)
        fingerprint = None
        if error is None:
            try:
                fingerprint = work.check(i, out)
            except Exception as exc:
                error = exc
        if error is not None:
            phase.failed += 1
            if phase.failed <= 3:
                print(f"request {i} failed:", file=sys.stderr)
                traceback.print_exception(error, file=sys.stderr)
        phase.outputs.append(fingerprint)
        out = None
        gc.collect()
        i += 1
    return phase


def quality_metrics(work, phase: Phase) -> dict:
    """Output-quality figures over the first pass of requests."""
    outs = [o for o in phase.outputs[:work.pass_len] if o is not None]
    q = {"tree_score": 0.0, "parts_miou": 0.0, "train_loss_final": 0.0}
    if outs and "tree_score" in outs[0]:
        q["tree_score"] = sum(o["tree_score"] for o in outs)
        q["parts_miou"] = statistics.fmean(o["miou"] for o in outs)
    if outs and "loss_final" in outs[-1]:
        q["train_loss_final"] = outs[-1]["loss_final"]
    return q


def end_to_end_metrics(work, phase: Phase, setup_s: float) -> dict:
    done = phase.attempted - phase.failed
    metrics = {
        "setup_s": setup_s,
        "items_per_s": done * work.items_per_request / phase.busy,
        "latency_s_p50": statistics.median(phase.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "failed_frac": phase.failed / phase.attempted,
        "requests": phase.attempted,
    }
    if phase.attempted >= 100:
        metrics["latency_s_p90"] = statistics.quantiles(phase.latencies, n=10,
                                                        method="inclusive")[8]
    return metrics


def per_layer_metrics(tracer, memory, cost, timed: Phase, traced: Phase) -> dict:
    """Per-request figures from the traced phase; ``cost`` is the model's
    ``costs.model_cost`` report."""
    from tracer import MATMUL_KERNELS

    n = traced.attempted
    per_req = lambda *names, **kw: tracer.seconds(*names, **kw) / n  # noqa: E731
    m = {}
    m["tree.induce_s"] = per_req("tree.induce")
    m["tree.aggregate_s"] = per_req("tree.aggregate")
    m["tree.partition_s"] = per_req("tree.partition")
    blocks = [f"block.{d:02d}" for d in range(1, 13)]
    for name in blocks:
        calls = tracer.calls.get(name, 0)
        m[f"{name}.s"] = per_req(name)
        m[f"{name}.tokens"] = tracer.counters[f"{name}.tokens"] / calls if calls else 0.0
    all_blocks = tracer.names("block.")
    m["block.self_s"] = per_req(*all_blocks, exclusive=True)
    block_time = tracer.seconds(*all_blocks)
    m["block.gmac_per_s"] = tracer.block_macs / block_time / 1e9 if block_time else 0.0
    forwards = tracer.calls.get("model.forward", 0)
    forward_time = tracer.seconds("model.forward")
    m["model.embed_s"] = per_req("model.embed")
    m["model.forward_s"] = forward_time / n
    m["model.gmac_per_s"] = (forwards * cost.total / forward_time / 1e9
                             if forward_time else 0.0)
    kernels = [k for k in tracer.names("tensor.") if k != "tensor.backward"]
    m["tensor.matmul_s"] = per_req(*MATMUL_KERNELS, exclusive=True)
    m["tensor.other_s"] = per_req(*(k for k in kernels if k not in MATMUL_KERNELS),
                                  exclusive=True)
    m["tensor.calls"] = sum(tracer.calls[k] for k in kernels) / n
    m["pruning.prune_step_s"] = per_req("pruning.prune_step")
    m["pruning.events"] = tracer.counters["pruning.events"] / n
    m["pruning.retrieve_s"] = per_req("pruning.retrieve")
    backwards = tracer.calls.get("tensor.backward", 0)
    m["tensor.backward_s"] = per_req("tensor.backward")
    m["tensor.tape_records"] = (tracer.counters["tensor.tape_records"] / backwards
                                if backwards else 0.0)
    m["train.adam_s"] = per_req("train.adam")
    m["model.state_mb"] = tracer.counters["model.state_bytes"] / forwards / 1e6 if forwards else 0.0
    for layer in ("model", "tree", "pruning"):
        m[f"{layer}.peak_mb"] = memory.peak.get(layer, 0) / 1e6
    m["fileio.read_s"] = per_req("fileio.read")
    m["fileio.write_s"] = per_req("fileio.write")
    m["evalkit.part_metrics_s"] = per_req("evalkit.part_metrics")
    m["trace.overhead_frac"] = (traced.busy / n) / (timed.busy / timed.attempted) - 1.0
    return m


def main(argv=None) -> int:
    nproc = cap_blas_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "depvit" / "__init__.py").is_file():
        print(f"error: no depvit package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import depvit
    from depvit.costs import model_cost

    if Path(depvit.__file__).resolve().parent != (src / "depvit").resolve():
        print(f"error: imported depvit from {depvit.__file__}, not {src}", file=sys.stderr)
        return 2
    from tracer import MemoryProbe, Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T_START
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = []
        for r in range(SETUP_REPEATS):
            work = WORKLOADS[args.workload](args.seed)
            t0 = time.perf_counter()
            work.setup(workdir / f"setup{r}")
            setups.append(time.perf_counter() - t0)
            gc.collect()
        setup_s = import_s + statistics.median(setups)

        # a traced run times its untraced reference over half the run, so that
        # both phases together take about as long as an untraced run
        timed = run_phase(work, seconds=args.seconds / (2 if args.trace else 1))
        correct = timed.failed == 0
        attempted, failed = timed.attempted, timed.failed
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace,
                  "machine": machine_info(nproc), "setup_runs_s": setups,
                  "import_s": import_s, "latencies_s": timed.latencies,
                  "items_per_request": work.items_per_request}
        metrics = end_to_end_metrics(work, timed, setup_s)
        metrics.update(quality_metrics(work, timed))
        wanted = spec["end_to_end"]
        if args.trace:
            with Tracer() as tracer:
                traced = run_phase(work, count=timed.attempted, tracer=tracer)
            with MemoryProbe() as memory:
                probed = run_phase(work, count=1)
            same = (traced.outputs == timed.outputs
                    and probed.outputs == timed.outputs[:1])
            cost = model_cost(work.mc)
            forwards = tracer.calls.get("model.forward", 0)
            macs_ok = tracer.block_macs == forwards * sum(cost.per_layer)
            correct = correct and traced.failed == 0 and probed.failed == 0 and same and macs_ok
            attempted += traced.attempted + probed.attempted
            failed += traced.failed + probed.failed
            metrics.update(per_layer_metrics(tracer, memory, cost, timed, traced))
            metrics.update(quality_metrics(work, traced))
            record.update(traced_outputs_equal=same, traced_macs_match_cost_model=macs_ok,
                          traced_latencies_s=traced.latencies, spans=len(tracer.spans))
            tracer.write(out_dir / f"{tag}-spans.jsonl.gz")
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
