"""The reversed-attention dependency block.

A pre-norm transformer block where information flows child -> parent by
message passing: each token scales its value row by a per-token
head-selection probability and a cumulative message gate, and sends it
along its row-softmax attention row.  The sent mass, summed over heads, is a
soft dependency mask whose column i distributes token i's mass over its
candidate parents; it is read off the attention data, never taped.  No
linear layer in the block carries a bias; only the layer norms have affine
parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as tn
from .errors import ShapeError, UsageError
from .tensor import Tensor

SELECTOR_TEMPERATURE = 0.1  # head-selector softmax temperature


@dataclass
class BlockWeights:
    """One dependency block's tensors, in ``block_parameter_shapes`` order."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    w_head: Tensor      # (C, H) head-selector projection
    gate_w1: Tensor     # (C, C/2) message-controller hidden layer
    gate_w2: Tensor     # (C/2, 1) message-controller output layer
    ffn_w1: Tensor      # (C, 4C)
    ffn_w2: Tensor      # (4C, C)
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor

    @property
    def channels(self) -> int:
        return self.w_q.shape[0]

    @property
    def heads(self) -> int:
        return self.w_head.shape[1]

    def named_tensors(self) -> dict[str, Tensor]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def block_parameter_shapes(c: int, h: int) -> dict[str, tuple[int, ...]]:
    """Shape of every block tensor at width c with h heads, in field order."""
    return {
        "w_q": (c, c), "w_k": (c, c), "w_v": (c, c), "w_o": (c, c),
        "w_head": (c, h), "gate_w1": (c, c // 2), "gate_w2": (c // 2, 1),
        "ffn_w1": (c, 4 * c), "ffn_w2": (4 * c, c),
        "ln1_gain": (c,), "ln1_bias": (c,), "ln2_gain": (c,), "ln2_bias": (c,),
    }


def init_parameters(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator,
                    dtype) -> dict[str, Tensor]:
    """One trainable tensor per shape-table entry, drawn in table order.

    A matrix is truncated-normal; a vector is ones when its name ends in
    ``_gain`` (layer norms start at identity) and zeros otherwise.
    """
    out = {}
    for name, shape in shapes.items():
        if len(shape) == 2:
            data = tn.truncated_normal(rng, shape)
        else:
            data = np.ones(shape) if name.endswith("_gain") else np.zeros(shape)
        out[name] = tn.tensor(data, dtype=dtype, requires_grad=True)
    return out


@dataclass
class AttentionState:
    """Detached per-block record used for tree induction and pruning.

    ``mask[j][i]`` is the soft dependency weight of candidate parent j for
    child i; columns are indexed by sender.  ``token_indices`` maps local
    rows/columns back to positions in the original token grid, strictly
    ascending (identity until pruning shrinks the working set).
    """

    mask: np.ndarray             # (N, N) sent mass, summed over heads
    cumulative_gate: np.ndarray  # (N,) product up through this block
    token_indices: np.ndarray    # (N,) original index of each row/column


def init_block_weights(channels: int, heads: int, rng: np.random.Generator,
                       dtype=np.float32) -> BlockWeights:
    """``init_parameters`` over ``block_parameter_shapes``."""
    if heads < 1 or channels % heads != 0:
        raise ShapeError(f"channels {channels} not divisible by heads {heads}")
    if channels % 2 != 0:
        raise ShapeError(f"channels {channels} must be even for the gate hidden layer")
    shapes = block_parameter_shapes(channels, heads)
    return BlockWeights(**init_parameters(shapes, rng, dtype))


def forward_attention(x_norm: Tensor, weights: BlockWeights) -> tuple[Tensor, Tensor]:
    """Stacked row-softmax attention tables and value projections.

    Returns the (H, N, N) table stack, each row stochastic with scaling
    1/sqrt(C/H) on the logits (applied as the softmax temperature), and the
    (H, N, C/H) value stack; head h owns column block h of each projection.
    """
    h = weights.heads
    ch = weights.channels // h
    q = tn.split_heads(tn.matmul(x_norm, weights.w_q), h)
    k = tn.split_heads(tn.matmul(x_norm, weights.w_k), h)
    v = tn.split_heads(tn.matmul(x_norm, weights.w_v), h)
    logits = tn.matmul(q, tn.transpose_last2(k))
    tables = tn.softmax_rows(logits, temperature=math.sqrt(ch))
    return tables, v


def head_selector(x_norm: Tensor, w_head: Tensor) -> Tensor:
    """Per-token soft routing over heads: softmax(x W / SELECTOR_TEMPERATURE), (N, H)."""
    return tn.softmax_rows(tn.matmul(x_norm, w_head), temperature=SELECTOR_TEMPERATURE)


def message_controller(x_norm: Tensor, gate_w1: Tensor, gate_w2: Tensor,
                       gate_prev: Tensor) -> tuple[Tensor, Tensor]:
    """Per-token send gate in (0, 1) and its running product.

    gate = sigmoid(W2 . gelu(x W1)); the cumulative gate is
    gate_prev * gate, so it can never increase across blocks.
    """
    hidden = tn.gelu(tn.matmul(x_norm, gate_w1))
    raw = tn.matmul(hidden, gate_w2)
    gate = tn.reshape(tn.sigmoid(raw), (x_norm.shape[0],))
    if gate_prev.shape != gate.shape:
        raise ShapeError(f"gate_prev shape {gate_prev.shape} != ({x_norm.shape[0]},)")
    return gate, tn.mul(gate_prev, gate)


def reverse_compose(attn: Tensor, head_probs: Tensor,
                    gate_cum: Tensor) -> tuple[Tensor, np.ndarray]:
    """Per-head send weights and the soft dependency mask.

    send_rows[h][0][i] = head_probs[i][h] * gate_cum[i] is taped; the mask,
    mask[j][i] = sum_h attn[h][i][j] * send_rows[h][0][i], is one contraction
    over heads of the attention data, a plain array, since no loss reads it.
    Column i then carries how token i splits its outgoing mass over
    candidate parents j, and no renormalization is applied afterwards.
    """
    n = gate_cum.shape[0]
    h = attn.shape[0]
    send = tn.mul(head_probs, tn.reshape(gate_cum, (n, 1)))  # (N, H)
    send_rows = tn.reshape(tn.transpose_last2(send), (h, 1, n))
    # Plain einsum adds heads in order (optimize=True does not); the copy makes
    # it C-ordered, so the row sums that pick the tokens to prune keep their order.
    mask = np.ascontiguousarray(np.einsum("hij,ih->ji", attn.data, send.data))
    return send_rows, mask


def send_messages(attn: Tensor, values: Tensor, send_rows: Tensor) -> Tensor:
    """head_out[h] = attn[h]^T (send[h] * values[h]), formed as its transpose."""
    sent = tn.mul(tn.transpose_last2(values), send_rows)  # (H, C/H, N)
    return tn.transpose_last2(tn.matmul(sent, attn))


def block_forward(x: Tensor, weights: BlockWeights,
                  gate_prev: Tensor) -> tuple[Tensor, Tensor, AttentionState]:
    """One pre-norm block pass over (N, C) tokens, child sending to parent.

    Returns the updated tokens, the cumulative gate after this block, and a
    detached state snapshot.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"block input must be (tokens, channels), got {x.shape}")
    if x.shape[1] != weights.channels:
        raise ShapeError(f"input width {x.shape[1]} != block width {weights.channels}")
    n = x.shape[0]

    x_norm = tn.layer_norm(x, weights.ln1_gain, weights.ln1_bias)
    attn, values = forward_attention(x_norm, weights)
    probs = head_selector(x_norm, weights.w_head)
    _, gate_cum = message_controller(x_norm, weights.gate_w1, weights.gate_w2, gate_prev)
    send_rows, mask = reverse_compose(attn, probs, gate_cum)
    head_out = send_messages(attn, values, send_rows)
    state = AttentionState(
        mask=mask,
        cumulative_gate=gate_cum.data.copy(),
        token_indices=np.arange(n, dtype=np.int64),
    )

    mixed = tn.matmul(tn.merge_heads(head_out), weights.w_o)
    x_mid = tn.add(x, mixed)
    x_norm2 = tn.layer_norm(x_mid, weights.ln2_gain, weights.ln2_bias)
    ffn = tn.matmul(tn.gelu(tn.matmul(x_norm2, weights.ffn_w1)), weights.ffn_w2)
    x_out = tn.add(x_mid, ffn)
    return x_out, gate_cum, state


def block_probe_loss(inputs: list[Tensor], weights_template: BlockWeights) -> Tensor:
    """Scalar probe for gradient checking the whole block.

    ``inputs`` is [x, gate_prev, *weight tensors in named_tensors order];
    the loss is the squared norm of the gate-pooled output, which pulls
    gradient through attention, selector, controller, gating and pooling.
    """
    names = list(weights_template.named_tensors().keys())
    if len(inputs) != 2 + len(names):
        raise UsageError(f"expected {2 + len(names)} probe inputs, got {len(inputs)}")
    x, gate_prev = inputs[0], inputs[1]
    wmap = dict(zip(names, inputs[2:]))
    x_out, gate_cum, _ = block_forward(x, BlockWeights(**wmap), gate_prev)
    return tn.sum_squares(tn.weighted_mean_rows(x_out, gate_cum))
