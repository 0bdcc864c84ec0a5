"""Arithmetic-cost and parameter accounting for the dependency model.

Counts follow the matmul structure of one block: two N x N attention
products, four channel projections, the two feedforward layers, the head
selector, and the two-layer message controller.  Softmax, normalization,
and elementwise work are ignored.  The controller's real cost is quadratic
in channels; the linear figure sometimes quoted for it is carried along as
``controller_claim`` but never summed into totals.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .errors import UsageError
from .model import ModelConfig, parameter_shapes


@dataclass(frozen=True)
class LayerCost:
    """Per-block cost split by component, in multiply-accumulate units."""

    attention: int      # 2 N^2 C: score and value products
    projections: int    # 4 N C^2: q, k, v, output
    ffn: int            # 8 N C^2: expand by 4, contract by 4
    selector: int       # N C H
    controller: int     # N C^2 / 2 + N C / 2
    controller_claim: int  # N C: linear figure, reported but never summed

    @property
    def total(self) -> int:
        return sum(getattr(self, k) for k in LAYER_COMPONENTS)


# every LayerCost field but the claim is summed; the model adds two of its own
LAYER_COMPONENTS = tuple(f.name for f in fields(LayerCost) if f.name != "controller_claim")
BREAKDOWN_KEYS = (*LAYER_COMPONENTS, "embedder", "classifier")


def layer_flops(n: int, c: int, h: int) -> LayerCost:
    """Cost of one block over n tokens with c channels and h heads."""
    if n < 1 or c < 1 or h < 1:
        raise UsageError("layer_flops needs positive dimensions")
    return LayerCost(
        attention=2 * n * n * c,
        projections=4 * n * c * c,
        ffn=8 * n * c * c,
        selector=n * c * h,
        controller=(n * c * c) // 2 + (n * c) // 2,
        controller_claim=n * c,
    )


@dataclass
class CostReport:
    """Whole-model cost: per-layer totals plus a component breakdown."""

    per_layer: list[int]
    total: int
    param_count: int
    breakdown: dict[str, int]
    controller_claim: int

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.total != sum(self.breakdown.values()):
            raise UsageError("cost breakdown does not sum to the total")
        if set(self.breakdown) != set(BREAKDOWN_KEYS):
            raise UsageError("cost breakdown keys are fixed")

    def to_json_dict(self) -> dict:
        return asdict(self)

    def table(self) -> str:
        """Human-readable fixed-width summary."""
        rows = [("component", "flops")]
        rows += [(k, f"{v:,}") for k, v in self.breakdown.items()]
        rows.append(("total", f"{self.total:,}"))
        rows.append(("parameters", f"{self.param_count:,}"))
        rows.append(("controller (linear claim)", f"{self.controller_claim:,}"))
        width = max(len(r[0]) for r in rows)
        lines = [f"{name:<{width}}  {val:>16}" for name, val in rows]
        lines.insert(1, "-" * len(lines[0]))
        return "\n".join(lines)


def tokens_per_layer(config: ModelConfig) -> list[int]:
    """Token count each block runs at; pruning bites after its block."""
    counts = []
    n = config.tokens
    schedule = dict(config.prune_schedule)
    for layer in range(1, config.layers + 1):
        counts.append(n)
        if layer in schedule:
            n = schedule[layer]
    return counts


def model_cost(config: ModelConfig) -> CostReport:
    """Aggregate cost of the configured model, schedule included."""
    c, h = config.channels, config.heads
    layers = [layer_flops(n, c, h) for n in tokens_per_layer(config)]
    agg = {k: sum(getattr(lc, k) for lc in layers) for k in LAYER_COMPONENTS}
    agg.update(embedder=config.tokens * config.patch_dim * c,
               classifier=c * config.num_classes)
    return CostReport(
        per_layer=[lc.total for lc in layers],
        total=sum(agg.values()),
        param_count=sum(math.prod(s) for s in parameter_shapes(config).values()),
        breakdown=agg,
        controller_claim=sum(lc.controller_claim for lc in layers),
    )
