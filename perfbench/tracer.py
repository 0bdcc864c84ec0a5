"""In-memory span recorder that wraps depvit's module attributes.

Spans are recorded from the benchmark's side only: entering a ``Tracer``
replaces the functions that callers look up at call time (for example
``depvit.model.block_forward`` or ``depvit.tensor.matmul``) with timing
wrappers, and leaving it puts the originals back.  Nothing in the package
is edited.  Spans are recorded only while a request span is open, so the
output checks that run between requests never add to a layer's time.

A span is (id, parent id, request id, name, start ns, end ns).  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
import tracemalloc
from collections import defaultdict

# Kernels of depvit.tensor.  Every wrapped name must exist: a renamed or
# removed function makes the traced run fail instead of silently untimed.
TENSOR_KERNELS = (
    "matmul", "batched_matmul", "add", "mul", "div", "scale", "reshape",
    "transpose_last2", "sum_over_axis", "sum_all", "sum_squares",
    "weighted_mean_rows", "slice_last", "concat_last", "split_heads",
    "merge_heads", "gather_rows", "softmax_rows", "gelu", "sigmoid",
    "layer_norm", "cross_entropy",
)
MATMUL_KERNELS = ("tensor.matmul", "tensor.batched_matmul")


def _state_bytes(states) -> int:
    """Bytes held by the arrays of a ForwardResult's block states."""
    total = 0
    for st in states:
        for value in vars(st).values():
            total += getattr(value, "nbytes", 0)
    return total


class _Patcher:
    """Replaces module or class attributes and puts the originals back.

    As a context manager it calls ``_install`` on entry and restores every
    attribute on exit, or at once if ``_install`` fails part way.
    """

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []

    def _install(self) -> None:
        raise NotImplementedError

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    def _replace(self, owner, attr: str, wrap) -> None:
        fn = getattr(owner, attr)
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrap(fn))

    def _restore(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)


class Tracer(_Patcher):
    """Span and counter recorder; use as a context manager to patch depvit."""

    def __init__(self):
        super().__init__()
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.incl: dict[str, int] = defaultdict(int)   # name -> ns, inclusive
        self.self_ns: dict[str, int] = defaultdict(int)  # name -> ns, exclusive
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.block_macs = 0
        self._stack: list[list] = []  # [span id, name, start ns, child ns]
        self._next_id = 0
        self._request = -1
        self._block_depth = 0

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def _close(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else 0
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((span_id, parent, self._request, name, start, end))
        self.incl[name] += dur
        self.self_ns[name] += dur - child
        self.calls[name] += 1

    @contextlib.contextmanager
    def request(self, index: int):
        """The root span of one request; layer spans record only inside it."""
        self._request = index
        self._open("request")
        try:
            yield
        finally:
            self._close()

    def _wrap(self, fn, name: str, on_call=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            span = name if on_call is None else on_call(args, kwargs)
            tracer._open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if on_result is not None:
                on_result(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, name: str, **hooks) -> None:
        self._replace(owner, attr, lambda fn: self._wrap(fn, name, **hooks))

    # -- hooks for the layers that carry counts ----------------------------
    def _forward_call(self, args, kwargs):
        self._block_depth = 0
        return "model.forward"

    def _forward_result(self, args, res):
        self.counters["model.state_bytes"] += _state_bytes(res.states)

    def _block_call(self, args, kwargs):
        from depvit.costs import layer_flops

        self._block_depth += 1
        x, weights = args[0], args[1]
        n = x.shape[0]
        depth = f"block.{self._block_depth:02d}"
        self.counters[depth + ".tokens"] += n
        self.block_macs += layer_flops(n, weights.channels, weights.heads).total
        return depth

    def _prune_result(self, args, out):
        self.counters["pruning.events"] += len(out[1])

    def _gradients_call(self, args, kwargs):
        self.counters["tensor.tape_records"] += len(args[0])
        return "tensor.backward"

    def _install(self) -> None:
        from depvit import evalkit, fileio, model, pruning, tensor, train, tree

        for attr in ("load_config", "load_weights", "read_ppm", "load_grid_values"):
            self._patch(fileio, attr, "fileio.read")
        for attr in ("write_json", "write_container"):
            self._patch(fileio, attr, "fileio.write")
        self._patch(model, "patch_embed", "model.embed")
        self._patch(model, "block_forward", "block", on_call=self._block_call)
        self._patch(model, "prune_step", "pruning.prune_step",
                    on_result=self._prune_result)
        for owner in (model, train):
            self._patch(owner, "model_forward", "model.forward",
                        on_call=self._forward_call, on_result=self._forward_result)
        self._patch(pruning, "retrieve_dense", "pruning.retrieve")
        self._patch(tree, "aggregate_masks", "tree.aggregate")
        self._patch(tree, "induce_tree", "tree.induce")
        self._patch(tree, "partition_subtrees", "tree.partition")
        self._patch(evalkit, "part_metrics", "evalkit.part_metrics")
        self._patch(train, "toy_train", "train.toy_train")
        self._patch(train.AdamState, "update", "train.adam")
        self._patch(tensor.Tape, "gradients", "tensor.backward",
                    on_call=self._gradients_call)
        for kernel in TENSOR_KERNELS:
            self._patch(tensor, kernel, f"tensor.{kernel}")

    # -- output ------------------------------------------------------------
    def seconds(self, *names: str, exclusive: bool = False) -> float:
        table = self.self_ns if exclusive else self.incl
        return sum(table.get(n, 0) for n in names) / 1e9

    def names(self, prefix: str) -> list[str]:
        return [n for n in self.calls if n.startswith(prefix)]

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, one object per span."""
        keys = ("id", "parent", "request", "name", "start_ns", "end_ns")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class MemoryProbe(_Patcher):
    """Peak tracemalloc bytes above the entry level, per named region.

    Regions nest: entering an inner region first folds the peak seen so far
    into every open region, so resetting the peak for the inner one loses
    nothing for the outer ones.
    """

    def __init__(self):
        super().__init__()
        self.peak: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, entry bytes, max bytes seen]

    def _fold(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._stack:
            frame[2] = max(frame[2], peak)
        tracemalloc.reset_peak()
        return current

    @contextlib.contextmanager
    def region(self, name: str):
        current = self._fold()
        self._stack.append([name, current, current])
        try:
            yield
        finally:
            self._fold()
            frame = self._stack.pop()
            self.peak[name] = max(self.peak[name], frame[2] - frame[1])

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.region(name):
                return fn(*args, **kwargs)

        return wrapper

    def _install(self) -> None:
        from depvit import model, pruning, train, tree

        for owner, attr, name in (
            (model, "model_forward", "model"), (train, "model_forward", "model"),
            (model, "prune_step", "pruning"), (pruning, "retrieve_dense", "pruning"),
            (tree, "aggregate_masks", "tree"), (tree, "induce_tree", "tree"),
            (tree, "partition_subtrees", "tree"),
        ):
            self._replace(owner, attr, lambda fn: self._wrap(fn, name))

    def __enter__(self) -> "MemoryProbe":
        super().__enter__()
        tracemalloc.start()
        return self

    def __exit__(self, *exc) -> bool:
        tracemalloc.stop()
        return super().__exit__(*exc)
