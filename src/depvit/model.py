"""Full model assembly: patch embedder, dependency blocks, gated pooling.

Tokens are non-overlapping patches projected to C channels plus a learned
per-position embedding row.  L dependency blocks thread the cumulative gate;
an optional schedule prunes tokens after selected blocks.  The readout is
the gate-weighted token mean, layer-normalized, then a linear classifier.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as tn
from .block import (
    AttentionState,
    BlockWeights,
    block_forward,
    block_parameter_shapes,
    init_parameters,
    pool_tokens,
)
from .data import patch_vectors
from .errors import ConfigError, ShapeError
from .pruning import PruneLedger, prune_step
from .tensor import Tensor


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; defaults give the tiny 224px variant."""

    image_size: int = 224
    patch_size: int = 16
    channels: int = 192
    heads: int = 12
    layers: int = 12
    prune_schedule: tuple[tuple[int, int], ...] = ()
    num_classes: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.image_size <= 0 or self.patch_size <= 0:
            raise ConfigError("image_size and patch_size must be positive")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.channels < 1 or self.heads < 1:
            raise ConfigError("channels and heads must be positive")
        if self.channels % self.heads != 0:
            raise ConfigError(f"channels {self.channels} not divisible by heads {self.heads}")
        if self.channels % 2 != 0:
            raise ConfigError("channels must be even")
        if self.layers < 0:
            raise ConfigError("layers must be non-negative")
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        n = self.tokens
        prev_kept = n
        prev_layer = 0
        for layer, kept in self.prune_schedule:
            if not 1 <= layer <= self.layers:
                raise ConfigError(f"prune layer {layer} outside 1..{self.layers}")
            if layer <= prev_layer:
                raise ConfigError("prune layers must be strictly increasing")
            # equality is a legal no-op so a schedule that prunes zero
            # tokens behaves exactly like no schedule at all
            if not 1 <= kept <= prev_kept:
                raise ConfigError(
                    f"kept counts must be non-increasing and <= {n}; got {kept} after {prev_kept}"
                )
            prev_layer, prev_kept = layer, kept

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def tokens(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * 3


# lite-tiny: keep 160/128/96/64 tokens after blocks 2/5/8/11
LITE_SCHEDULE = ((2, 160), (5, 128), (8, 96), (11, 64))


@dataclass
class ModelWeights:
    """All learnable tensors; creation is deterministic given the config seed."""

    patch_proj: Tensor       # (patch_dim, C)
    patch_bias: Tensor       # (C,)
    pos_table: Tensor        # (N, C)
    blocks: list[BlockWeights]
    final_gain: Tensor       # (C,)
    final_bias: Tensor       # (C,)
    classifier_w: Tensor     # (C, num_classes)
    classifier_b: Tensor     # (num_classes,)

    def named_tensors(self) -> dict[str, Tensor]:
        """Every tensor in field order, block tensors as ``blockNN.<name>``."""
        out: dict[str, Tensor] = {}
        for f in fields(self):
            if f.name == "blocks":
                for i, blk in enumerate(self.blocks):
                    out.update({f"block{i:02d}.{k}": t for k, t in blk.named_tensors().items()})
            else:
                out[f.name] = getattr(self, f.name)
        return out

    @classmethod
    def from_named_tensors(cls, config, tensors: dict[str, Tensor]) -> "ModelWeights":
        """Inverse of named_tensors for a matching configuration."""
        names = block_parameter_shapes(config.channels, config.heads)
        blocks = [BlockWeights(heads=config.heads,
                               **{name: tensors[f"block{i:02d}.{name}"] for name in names})
                  for i in range(config.layers)]
        top = {f.name: tensors[f.name] for f in fields(cls) if f.name != "blocks"}
        return cls(blocks=blocks, **top)


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every learnable tensor: the one source of weight names, file
    entry order, init draw order and parameter count."""
    c = config.channels
    shapes = {"patch_proj": (config.patch_dim, c), "patch_bias": (c,),
              "pos_table": (config.tokens, c)}
    block = block_parameter_shapes(c, config.heads)
    for i in range(config.layers):
        for name, shp in block.items():
            shapes[f"block{i:02d}.{name}"] = shp
    shapes.update(final_gain=(c,), final_bias=(c,),
                  classifier_w=(c, config.num_classes), classifier_b=(config.num_classes,))
    return shapes


def init_weights(config: ModelConfig, dtype=np.float32) -> ModelWeights:
    """``init_parameters`` over ``parameter_shapes``, seeded by the config."""
    rng = np.random.default_rng(config.seed)
    tensors = init_parameters(parameter_shapes(config), rng, dtype)
    return ModelWeights.from_named_tensors(config, tensors)


def patch_embed(image: np.ndarray, config: ModelConfig, weights: ModelWeights) -> Tensor:
    """Flatten non-overlapping patches row-major and project to C channels.

    Within a patch, values are ordered pixel-row, pixel-column, then color.
    """
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ShapeError(f"image must be (H, W, 3), got {image.shape}")
    hh, ww, _ = image.shape
    p = config.patch_size
    if hh % p != 0 or ww % p != 0:
        raise ConfigError(f"image {hh}x{ww} not divisible by patch size {p}")
    patches = (hh // p) * (ww // p)
    if patches != config.tokens:
        raise ConfigError(
            f"image yields {patches} patches but the config expects {config.tokens}"
        )
    x = tn.tensor(patch_vectors(image, p), dtype=weights.patch_proj.dtype)
    projected = tn.add(tn.matmul(x, weights.patch_proj), weights.patch_bias)
    return tn.add(projected, weights.pos_table)


@dataclass
class ForwardResult:
    """Everything a forward pass produces besides the class decision itself."""

    states: list[AttentionState]
    tokens: Tensor            # surviving final tokens, (S, C)
    pooled: Tensor            # (1, C) gate-weighted mean
    logits: Tensor            # (num_classes,)
    gates: Tensor             # final cumulative gate over survivors, (S,)
    ledger: PruneLedger       # survivors(): original index of each row of tokens

    @property
    def prediction(self) -> int:
        return int(np.argmax(self.logits.data))


def model_forward(inputs, config: ModelConfig, weights: ModelWeights) -> ForwardResult:
    """Run the block stack over an image or a pre-embedded token matrix.

    A 3-D array is treated as an image and embedded; a 2-D array of shape
    (N, C) is used as tokens directly (no positions re-applied).  The prune
    schedule shrinks the working set right after each listed block; states
    keep the original indices they cover.
    """
    arr = np.asarray(inputs)
    if arr.ndim == 3:
        x = patch_embed(arr, config, weights)
    elif arr.ndim == 2:
        x = tn.tensor(arr, dtype=weights.patch_proj.dtype)
    else:
        raise ShapeError(f"inputs must be (H, W, 3) or (N, C), got {arr.shape}")
    if x.shape != (config.tokens, config.channels):
        raise ShapeError(
            f"token matrix {x.shape} does not match config ({config.tokens}, {config.channels})"
        )

    n = config.tokens
    dtype = x.dtype
    gate = tn.tensor(np.ones(n), dtype=dtype)
    survivors = np.arange(n, dtype=np.int64)
    ledger = PruneLedger(n_tokens=n)
    schedule = dict(config.prune_schedule)
    states: list[AttentionState] = []

    for layer in range(1, config.layers + 1):
        x, gate, state = block_forward(x, weights.blocks[layer - 1], gate)
        state.token_indices = survivors.copy()
        states.append(state)
        kept = schedule.get(layer)
        if kept is not None:
            new_survivors, events = prune_step(states, survivors, kept)
            ledger.events.extend(events)
            if new_survivors.size != survivors.size:
                local_keep = np.where(np.isin(survivors, new_survivors))[0]
                x = tn.gather_rows(x, local_keep)
                gate = tn.gather_rows(gate, local_keep)
                survivors = new_survivors

    pooled = pool_tokens(x, gate)
    normed = tn.layer_norm(pooled, weights.final_gain, weights.final_bias)
    logits2d = tn.add(tn.matmul(normed, weights.classifier_w), weights.classifier_b)
    logits = tn.reshape(logits2d, (config.num_classes,))
    return ForwardResult(
        states=states, tokens=x, pooled=pooled, logits=logits,
        gates=gate, ledger=ledger,
    )
