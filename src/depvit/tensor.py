"""Dense tensor kernels with a hand-written reverse-mode tape.

Arrays are numpy float32 or float64; the dtype is a per-tensor property and
mixed-precision arithmetic is rejected rather than silently promoted.  Every
kernel validates shapes, computes its result array and a backward closure
that maps the output gradient to input gradients, and hands both to
``_record``.  That one step checks the result for NaN/Inf (layout kernels,
which only move values, skip the check), wraps it in a Tensor and, when a
Tape is active and an input requires a gradient, tapes the closure;
Tape.gradients replays those closures in reverse.
Kernels work in their own fresh buffers, in place where that saves a pass or
an allocation, and never write into an input array.

A tape record keeps the serial numbers of its output and inputs, not the
tensors, and a backward closure captures only the arrays its formula reads
(shapes and indices for the layout kernels, ``add``, ``scale`` and the
sums), so an activation nothing reads is freed with its tensor.  The
dependency block's reversed attention is plain ``mul`` and ``matmul``
over the attention stack, so the one (H, N, N) array its records keep is
the stack that ``softmax_rows``' record already holds.
Tape.gradients drops an intermediate's gradient as soon as the record that
produced it has run.
"""

from __future__ import annotations

import itertools
import math
import operator
from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NumericError, ShapeError, UsageError

_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_erf = None  # scipy.special.erf, bound by gelu's first call
LAYER_NORM_EPS = 1e-6  # added to the variance before its square root

# Tensor identity on a tape: unlike id(), a serial is never reused once an
# intermediate is freed.
_SERIALS = itertools.count()


class Tensor:
    """A float32 or float64 array, a grad-participation flag and a serial number.

    The array is stored as given, not copied or converted; ``tensor()``
    makes one from other data.  The array is owned by the tensor; kernels
    never alias their inputs into outputs, so mutating ``t.data`` between
    forward and backward corrupts gradients only for that tensor
    (optimizers rely on in-place updates happening outside any active tape).
    """

    __slots__ = ("data", "requires_grad", "serial")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.serial = next(_SERIALS)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"


_CURRENT_TAPE: ContextVar["Tape | None"] = ContextVar("depvit_tape", default=None)


class _Record(NamedTuple):
    # Serials, not tensors: the tape pins only what ``backward`` captured.
    out: int
    inputs: list[int]
    backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]


class Tape:
    """Records kernel calls so gradients can be replayed in reverse order.

    Use as a context manager around the forward computation.  The active
    tape is held per context (thread or asyncio task), so kernels run
    elsewhere never record onto it.  Within one context tapes do not nest;
    a second tape there is a usage error.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._token: Token | None = None

    def __enter__(self) -> "Tape":
        if _CURRENT_TAPE.get() is not None:
            raise UsageError("a tape is already active; tapes do not nest")
        self._token = _CURRENT_TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _CURRENT_TAPE.reset(self._token)
        return False

    def __len__(self) -> int:
        return len(self._records)

    def gradients(self, loss: Tensor, wrt: Sequence[Tensor]) -> list[np.ndarray]:
        """Gradient of a scalar ``loss`` with respect to each tensor in ``wrt``.

        Tensors that never influenced the loss get an all-zero gradient of
        their own shape.  The tape may be replayed multiple times.

        Every consumer of a tensor comes after its producer on the tape, so
        once the producer's record has run, that tensor's gradient is
        complete and, unless it is in ``wrt``, dropped.
        """
        if loss.data.size != 1:
            raise UsageError(f"loss must be scalar, got shape {loss.shape}")
        keep = {t.serial for t in wrt}
        acc: dict[int, np.ndarray] = {loss.serial: np.ones_like(loss.data)}
        for out_key, in_keys, backward in reversed(self._records):
            out_grad = acc.get(out_key) if out_key in keep else acc.pop(out_key, None)
            if out_grad is None:
                continue
            for key, g in zip(in_keys, backward(out_grad)):
                if g is None:
                    continue
                prev = acc.get(key)
                if prev is None:
                    acc[key] = g.copy() if g.base is not None else g
                else:
                    acc[key] = prev + g
        out = []
        for t in wrt:
            g = acc.get(t.serial)
            out.append(np.zeros_like(t.data) if g is None else g.astype(t.dtype, copy=False))
        return out


_reduce_sum = np.add.reduce
_reduce_fmax = np.fmax.reduce
_isfinite = math.isfinite
_vdot = np.vdot


def _check_finite(arr: np.ndarray, op: str) -> None:
    # One dot product of the array with itself: any NaN/Inf forces a
    # non-finite sum of squares.  Only on a non-finite sum (which finite
    # values can also cause by overflowing) is the exact elementwise scan
    # run to decide.
    if not _isfinite(_vdot(arr, arr)) and not np.isfinite(arr).all():
        raise NumericError(f"{op} produced non-finite values")


def _record(op: str | None, out_data, inputs: tuple[Tensor, ...], backward) -> Tensor:
    """Every kernel's last step: check the result, wrap it, tape the call.

    ``op`` names the kernel in the non-finite error; layout kernels only
    move input values and pass None to skip the check.  A call is taped
    only if some input requires a gradient, so the backward of a
    single-input kernel never has to ask.
    """
    if op is not None:
        _check_finite(out_data, op)
    out = Tensor(out_data)
    tape = _CURRENT_TAPE.get()
    if tape is not None:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                tape._records.append(_Record(out.serial, [t.serial for t in inputs], backward))
                break
    return out


def _same_dtype(op: str, *tensors: Tensor) -> None:
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise ShapeError(f"{op}: mixed dtypes {dt.name} and {t.dtype.name}")


def _broadcast(op: str, fn, a: Tensor, b: Tensor) -> np.ndarray:
    """``fn(a, b)`` for the broadcasting kernels: one dtype, broadcastable shapes."""
    x, y = a.data, b.data
    if x.dtype is not y.dtype:
        _same_dtype(op, a, b)
    try:
        return fn(x, y)
    except ValueError as exc:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from exc


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = _reduce_sum(grad, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = _reduce_sum(grad, axis=axes, keepdims=True)
    return grad


def _operands(a: Tensor, b: Tensor) -> tuple[np.ndarray | None, np.ndarray | None]:
    """A product's operands for its backward: each side's array is kept
    only if the other side needs a gradient, since only that one reads it."""
    return (a.data if b.requires_grad else None,
            b.data if a.requires_grad else None)


def tensor(data, dtype, requires_grad: bool = False) -> Tensor:
    """A tensor holding a float32 or float64 copy of ``data``, which must be
    finite."""
    dtype = np.dtype(dtype)
    if dtype not in _FLOATS:
        raise UsageError(f"tensor dtype must be float32 or float64, got {dtype}")
    arr = np.array(data, dtype=dtype)
    _check_finite(arr, "tensor")
    return Tensor(arr, requires_grad)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; the leading axes must match.

    Operands have rank 2 or more; a 2-D product is the case with no
    leading axes.
    """
    x, y = a.data, b.data
    sx, sy = x.shape, y.shape
    if len(sx) < 2 or len(sy) < 2:
        raise ShapeError(f"matmul expects ndim >= 2, got {sx} @ {sy}")
    if sx[:-2] != sy[:-2]:
        raise ShapeError(f"matmul leading dims differ: {sx} @ {sy}")
    if sx[-1] != sy[-2]:
        raise ShapeError(f"matmul inner dims differ: {sx} @ {sy}")
    if x.dtype is not y.dtype:
        _same_dtype("matmul", a, b)
    out_data = x @ y
    ad, bd = _operands(a, b)

    def backward(g):
        ga = g @ bd.swapaxes(-1, -2) if bd is not None else None
        gb = ad.swapaxes(-1, -2) @ g if ad is not None else None
        return ga, gb

    return _record("matmul", out_data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    out_data = _broadcast("add", operator.add, a, b)
    sa = a.data.shape if a.requires_grad else None
    sb = b.data.shape if b.requires_grad else None

    def backward(g):
        ga = _unbroadcast(g, sa) if sa is not None else None
        gb = _unbroadcast(g, sb) if sb is not None else None
        return ga, gb

    return _record("add", out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    out_data = _broadcast("mul", operator.mul, a, b)
    ad, bd = _operands(a, b)
    sa, sb = a.data.shape, b.data.shape

    def backward(g):
        ga = _unbroadcast(g * bd, sa) if bd is not None else None
        gb = _unbroadcast(g * ad, sb) if ad is not None else None
        return ga, gb

    return _record("mul", out_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient with numpy broadcasting."""
    out_data = _broadcast("div", operator.truediv, a, b)
    # both sides' formulas read the divisor; only b's reads the dividend
    ad = a.data if b.requires_grad else None
    bd, need_a = b.data, a.requires_grad
    sa, sb = a.data.shape, b.data.shape

    def backward(g):
        ga = _unbroadcast(g / bd, sa) if need_a else None
        gb = _unbroadcast(-g * ad / (bd * bd), sb) if ad is not None else None
        return ga, gb

    return _record("div", out_data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar (scalar is not differentiated)."""
    s = float(s)
    x = a.data
    out_data = x * x.dtype.type(s)

    def backward(g):
        return (g * s,)

    return _record("scale", out_data, (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """View with a new shape (same element count, row-major order)."""
    x = a.data
    try:
        out_data = x.reshape(shape).copy()
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from exc

    in_shape = x.shape

    def backward(g):
        return (g.reshape(in_shape),)

    return _record(None, out_data, (a,), backward)


def transpose_last2(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    x = a.data
    if x.ndim < 2:
        raise ShapeError(f"transpose_last2 needs ndim >= 2, got {a.shape}")
    out_data = x.swapaxes(-1, -2).copy()

    def backward(g):
        return (g.swapaxes(-1, -2),)

    return _record(None, out_data, (a,), backward)


def sum_over_axis(a: Tensor, axis: int) -> Tensor:
    """Sum along one axis (axis removed from the result)."""
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"sum_over_axis: axis {axis} out of range for {a.shape}")
    axis = axis % a.data.ndim
    out_data = a.data.sum(axis=axis)
    in_shape = a.shape

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axis), in_shape).copy(),)

    return _record("sum_over_axis", out_data, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    """Sum of every element, returned as a 0-d tensor."""
    out_data = np.asarray(a.data.sum(), dtype=a.dtype)
    in_shape = a.shape

    def backward(g):
        return (np.broadcast_to(g, in_shape).copy(),)

    return _record("sum_all", out_data, (a,), backward)


def sum_squares(a: Tensor) -> Tensor:
    """Sum of squared elements as a 0-d tensor; gradient is 2x."""
    x = a.data
    out_data = np.asarray((x * x).sum(), dtype=a.dtype)

    def backward(g):
        return (2.0 * g * x,)

    return _record("sum_squares", out_data, (a,), backward)


def weighted_mean_rows(tokens: Tensor, weights: Tensor) -> Tensor:
    """Weighted average of the rows: sum_i w_i x_i / sum_i w_i, shape (C,).

    The weight total must be nonzero; gradients fall out of the quotient
    rule, with d/dw_i = (x_i - out) . g / total.
    """
    if tokens.data.ndim != 2:
        raise ShapeError(f"weighted_mean_rows expects (rows, channels), got {tokens.shape}")
    n = tokens.shape[0]
    if weights.shape != (n,):
        raise ShapeError(f"weighted_mean_rows: weights shape {weights.shape} != ({n},)")
    _same_dtype("weighted_mean_rows", tokens, weights)
    x, w = tokens.data, weights.data
    total = w.sum()
    if total == 0.0:
        raise NumericError("weighted_mean_rows: weights sum to zero")
    out_data = (w @ x) / total

    need_x, need_w = tokens.requires_grad, weights.requires_grad

    def backward(g):
        gx = np.outer(w, g) / total if need_x else None
        gw = ((x - out_data) @ g) / total if need_w else None
        return gx, gw

    return _record("weighted_mean_rows", out_data, (tokens, weights), backward)


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice along the last axis."""
    n = a.shape[-1]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"slice_last: [{start}:{stop}] invalid for last dim {n}")
    out_data = a.data[..., start:stop].copy()
    in_shape = a.shape

    def backward(g):
        full = np.zeros(in_shape, dtype=g.dtype)
        full[..., start:stop] = g
        return (full,)

    return _record(None, out_data, (a,), backward)


def concat_last(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    if not parts:
        raise UsageError("concat_last: empty sequence")
    _same_dtype("concat_last", *parts)
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.shape[:-1] != lead:
            raise ShapeError(f"concat_last: leading dims differ: {parts[0].shape} vs {p.shape}")
    out_data = np.concatenate([p.data for p in parts], axis=-1)
    widths = [(p.shape[-1], p.requires_grad) for p in parts]

    def backward(g):
        grads = []
        ofs = 0
        for w, need in widths:
            grads.append(g[..., ofs:ofs + w].copy() if need else None)
            ofs += w
        return tuple(grads)

    return _record(None, out_data, tuple(parts), backward)


def batched_matmul(a: Tensor, b: Tensor) -> Tensor:
    """``matmul``; kept only because the benchmark's tracer wraps this name."""
    return matmul(a, b)


def split_heads(a: Tensor, heads: int) -> Tensor:
    """(N, C) -> (heads, N, C/heads), head h owning column block h."""
    x = a.data
    if x.ndim != 2:
        raise ShapeError(f"split_heads expects (tokens, channels), got {a.shape}")
    n, c = x.shape
    if heads < 1 or c % heads != 0:
        raise ShapeError(f"split_heads: {c} channels not divisible into {heads} heads")
    out_data = x.reshape(n, heads, c // heads).swapaxes(0, 1).copy()

    def backward(g):
        # written into one fresh (N, C) array, which the tape keeps uncopied
        gx = np.empty((n, c), dtype=g.dtype)
        gx.reshape(n, heads, c // heads)[...] = g.swapaxes(0, 1)
        return (gx,)

    return _record(None, out_data, (a,), backward)


def merge_heads(a: Tensor) -> Tensor:
    """(heads, N, d) -> (N, heads*d), inverse of split_heads."""
    x = a.data
    if x.ndim != 3:
        raise ShapeError(f"merge_heads expects (heads, tokens, width), got {a.shape}")
    h, n, d = x.shape
    # np.array copies even where the swap is already C-contiguous (one head
    # or one token), which np.ascontiguousarray would return as a view
    out_data = np.array(x.swapaxes(0, 1), order="C").reshape(n, h * d)

    def backward(g):
        return (g.reshape(n, h, d).swapaxes(0, 1).copy(),)

    return _record(None, out_data, (a,), backward)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows (axis 0) by integer index; duplicates allowed."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: index must be 1-D, got shape {idx.shape}")
    if a.data.ndim < 1:
        raise ShapeError("gather_rows: operand must have at least one axis")
    n = a.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"gather_rows: index out of range for {n} rows")
    out_data = a.data[idx]  # fancy indexing already copies
    in_shape = a.shape

    def backward(g):
        full = np.zeros(in_shape, dtype=g.dtype)
        np.add.at(full, idx, g)
        return (full,)

    return _record(None, out_data, (a,), backward)


def softmax_rows(a: Tensor, temperature: float) -> Tensor:
    """Row softmax over the last axis: softmax(x / temperature).

    Uses the max-shift form so large logits stay finite.
    """
    if not 0 < temperature < math.inf:  # NaN fails both comparisons
        raise UsageError(f"softmax temperature must be positive and finite, got {temperature}")
    x = a.data
    out_data = x / x.dtype.type(temperature)
    # fmax skips NaN where maximum propagates it.  Without NaN the maximum is
    # the same, except that a tie of +0 and -0 may give the other zero; that
    # changes at most the sign of a zero entry, and exp maps both zeros to 1.
    # A NaN entry stays NaN, so the output check still refuses the row.
    out_data -= _reduce_fmax(out_data, axis=-1, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= _reduce_sum(out_data, axis=-1, keepdims=True)

    def backward(g):
        gx = g * out_data
        np.subtract(g, _reduce_sum(gx, axis=-1, keepdims=True), out=gx)
        gx *= out_data
        return (np.divide(gx, temperature, out=gx),)

    return _record("softmax_rows", out_data, (a,), backward)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian error linear unit: x * Phi(x)."""
    global _erf
    if _erf is None:
        # Imported on the first call, not at module level: scipy.special is
        # most of the package's import time, and commands that run no block
        # never need it.
        from scipy.special import erf as _erf

    x = a.data
    phi = _erf(x * _INV_SQRT2)
    phi += 1.0
    phi *= 0.5
    out_data = x * phi

    def backward(g):
        gx = x * -0.5
        gx *= x
        np.exp(gx, out=gx)
        gx *= _INV_SQRT2PI  # the normal pdf
        gx *= x
        gx += phi
        return (np.multiply(gx, g, out=gx),)

    return _record("gelu", out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function, numerically stable for both signs."""
    x = a.data
    # exp of a non-positive argument never overflows; 1 / (1 + e) for x >= 0
    # and e / (1 + e) below are the same function written for each sign
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    out_data = np.where(x >= 0, 1.0, e)
    out_data /= np.add(e, 1.0, out=e)

    def backward(g):
        return (g * out_data * (1.0 - out_data),)

    return _record("sigmoid", out_data, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then apply per-feature gain and bias."""
    x, gd = a.data, gain.data
    c = x.shape[-1]
    if gd.shape != (c,) or bias.data.shape != (c,):
        raise ShapeError(f"layer_norm: gain/bias must be ({c},), got {gain.shape}/{bias.shape}")
    if not (x.dtype is gd.dtype is bias.data.dtype):
        _same_dtype("layer_norm", a, gain, bias)
    # add.reduce / c is the mean np.mean computes, without its Python wrapper
    xhat = x - _reduce_sum(x, axis=-1, keepdims=True) / c
    var = _reduce_sum(xhat * xhat, axis=-1, keepdims=True) / c
    inv = 1.0 / np.sqrt(var + x.dtype.type(LAYER_NORM_EPS))
    xhat *= inv
    out_data = xhat * gd
    out_data += bias.data
    need_x, need_gain, need_bias = a.requires_grad, gain.requires_grad, bias.requires_grad

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        ggain = _reduce_sum(g * xhat, axis=lead) if need_gain else None
        gbias = _reduce_sum(g, axis=lead) if need_bias else None
        if need_x:
            gx = g * gd
            m1 = _reduce_sum(gx, axis=-1, keepdims=True) / c
            m2 = _reduce_sum(gx * xhat, axis=-1, keepdims=True) / c
            gx -= m1
            gx -= xhat * m2
            gx *= inv
        else:
            gx = None
        return gx, ggain, gbias

    return _record("layer_norm", out_data, (a, gain, bias), backward)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under row softmax."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects (batch, classes), got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    b, k = logits.shape
    if b == 0:
        raise ShapeError("cross_entropy: empty batch")
    if labels.shape != (b,):
        raise ShapeError(f"cross_entropy: {b} rows but {labels.shape[0]} labels")
    if labels.min() < 0 or labels.max() >= k:
        raise UsageError(f"cross_entropy: label out of range [0, {k})")
    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    lse = m.squeeze(-1) + np.log(np.exp(x - m).sum(axis=-1))
    nll = lse - x[np.arange(b), labels]
    out_data = np.asarray(nll.mean(), dtype=logits.dtype)

    def backward(g):
        p = np.exp(x - m)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(b), labels] -= 1.0
        return (p * (g / b),)

    return _record("cross_entropy", out_data, (logits,), backward)


def truncated_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal samples clipped to two sigmas by resampling, then scaled by 0.02."""
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)  # a view: x is fresh and contiguous
    bad = np.flatnonzero(np.abs(flat) > 2.0)
    while bad.size:  # only the positions redrawn last round can still be out
        flat[bad] = rng.standard_normal(bad.size)
        bad = bad[np.abs(flat[bad]) > 2.0]
    return x * 0.02


@dataclass
class GradCheckReport:
    """Result of comparing tape gradients against central differences."""

    max_rel_error: float
    tolerance: float
    step: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = bool(self.max_rel_error <= self.tolerance)


def grad_check(
    fn: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare tape gradients of scalar ``fn(inputs)`` to central differences.

    All inputs must be float64, the finite-difference step is 1e-5 and the
    tolerance must be positive and finite.  Each entry is perturbed in
    place, so an input of any memory layout is checked.  The error for one
    input is ||g - fd||_2 / max(||g||_2 + ||fd||_2, 1e-12) and the report
    carries the maximum over inputs.
    """
    step = 1e-5
    if not 0 < tolerance < math.inf:  # NaN fails both comparisons
        raise UsageError(f"tolerance {tolerance} must be positive and finite")
    for t in inputs:
        if t.dtype != np.float64:
            raise UsageError("grad_check requires float64 inputs")
        t.requires_grad = True

    with Tape() as tape:
        loss = fn(inputs)
    if loss.data.size != 1:
        raise UsageError("grad_check: fn must return a scalar")
    grads = tape.gradients(loss, inputs)

    errors: list[float] = []
    for t, g in zip(inputs, grads):
        fd = np.zeros(t.shape)  # row-major, so the norms below ignore t's layout
        for i in np.ndindex(t.shape):
            orig = t.data[i]
            t.data[i] = orig + step
            hi = fn(inputs).item()
            t.data[i] = orig - step
            lo = fn(inputs).item()
            t.data[i] = orig
            fd[i] = (hi - lo) / (2.0 * step)
        num = float(np.linalg.norm(g - fd))
        den = max(float(np.linalg.norm(g)) + float(np.linalg.norm(fd)), 1e-12)
        errors.append(num / den)
    worst = max(errors) if errors else 0.0
    return GradCheckReport(max_rel_error=worst, tolerance=tolerance, step=step)
