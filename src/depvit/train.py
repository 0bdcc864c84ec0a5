"""Toy gradient-descent trainer over the tape.

Small-scale supervised training on synthetic scenes: enough to show the
dependency machinery organizes itself, nowhere near a pretraining pipeline.
Runs are deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .data import BlobSample
from .errors import NumericError, TrainingError, UsageError
from .model import ModelConfig, ModelWeights, init_weights, model_forward
from .tensor import Tape, Tensor


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, one pair per parameter tensor."""

    lr: float
    step: int = field(default=0, init=False)
    m: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    v: dict[str, np.ndarray] = field(default_factory=dict, init=False)

    def update(self, params: dict[str, Tensor], grads: dict[str, np.ndarray]) -> None:
        self.step += 1
        b1c = 1.0 - ADAM_BETA1 ** self.step
        b2c = 1.0 - ADAM_BETA2 ** self.step
        for name, t in params.items():
            g = grads[name].astype(np.float64)
            m = self.m.setdefault(name, np.zeros(t.shape))
            v = self.v.setdefault(name, np.zeros(t.shape))
            m += (1.0 - ADAM_BETA1) * (g - m)
            v += (1.0 - ADAM_BETA2) * (g * g - v)
            delta = self.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
            t.data -= delta.astype(t.dtype)


@dataclass
class TrainResult:
    weights: ModelWeights
    losses: list[float]
    accuracy: float


def _batch_loss(batch: list[BlobSample], config: ModelConfig,
                weights: ModelWeights) -> Tensor:
    cols = []
    labels = []
    for sample in batch:
        result = model_forward(sample.image, config, weights)
        cols.append(tn.reshape(result.logits, (config.num_classes, 1)))
        labels.append(sample.label)
    logits = tn.transpose_last2(tn.concat_last(cols))
    return tn.cross_entropy(logits, labels)


def evaluate(samples: list[BlobSample], config: ModelConfig,
             weights: ModelWeights) -> float:
    """Fraction of samples whose argmax logit matches the label."""
    if not samples:
        raise UsageError("no samples to evaluate")
    hits = 0
    for sample in samples:
        if model_forward(sample.image, config, weights).prediction == sample.label:
            hits += 1
    return hits / len(samples)


def toy_train(samples: list[BlobSample], config: ModelConfig, steps: int = 200,
              lr: float = 3e-3, seed: int = 0, batch_size: int = 8) -> TrainResult:
    """Adam on cross-entropy over random mini-batches.

    Divergence (non-finite loss or kernel blow-up) raises TrainingError.
    The returned loss list has one entry per step.
    """
    if not samples:
        raise UsageError("empty training set")
    if steps < 0 or batch_size < 1:
        raise UsageError("steps must be >= 0 and batch_size >= 1")
    if not 0.0 <= lr < np.inf:  # NaN fails both comparisons; 0 freezes the weights
        raise UsageError(f"lr {lr} must be finite and >= 0")
    if seed < 0:
        raise UsageError(f"seed {seed} must be >= 0")
    weights = init_weights(config)
    params = weights.named_tensors()
    opt = AdamState(lr=lr)
    rng = np.random.default_rng(seed)
    losses: list[float] = []

    for _ in range(steps):
        idx = rng.integers(0, len(samples), size=min(batch_size, len(samples)))
        batch = [samples[int(i)] for i in idx]
        try:
            with Tape() as tape:
                loss = _batch_loss(batch, config, weights)
            grad_list = tape.gradients(loss, list(params.values()))
        except NumericError as exc:
            raise TrainingError(f"training diverged: {exc}") from exc
        losses.append(loss.item())
        opt.update(params, dict(zip(params.keys(), grad_list)))

    return TrainResult(weights=weights, losses=losses,
                       accuracy=evaluate(samples, config, weights))
