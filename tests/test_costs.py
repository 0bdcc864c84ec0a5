"""Tests for the arithmetic-cost accounting."""

import numpy as np
import pytest

from depvit.costs import CostReport, layer_flops, model_cost, tokens_per_layer
from depvit.errors import UsageError
from depvit.model import LITE_SCHEDULE, ModelConfig, parameter_shapes


def stack_f(n, c):
    return 2 * n * n * c + 12 * n * c * c


class TestLayerFlops:
    def test_reference_block(self):
        lc = layer_flops(196, 192, 12)
        assert lc.attention + lc.projections + lc.ffn == 101_455_872
        assert lc.attention == 2 * 196 * 196 * 192
        assert lc.projections == 4 * 196 * 192 * 192
        assert lc.ffn == 8 * 196 * 192 * 192
        assert lc.selector == 196 * 192 * 12
        assert lc.controller == 196 * 192 * 192 // 2 + 196 * 192 // 2
        assert lc.controller_claim == 196 * 192

    def test_unit_dims(self):
        lc = layer_flops(1, 1, 1)
        assert lc.attention == 2

    def test_doubling_tokens_quadruples_attention_only(self):
        a = layer_flops(10, 8, 2)
        b = layer_flops(20, 8, 2)
        assert b.attention == 4 * a.attention
        assert b.projections == 2 * a.projections
        assert b.ffn == 2 * a.ffn

    def test_claim_not_in_total(self):
        lc = layer_flops(10, 8, 2)
        assert lc.total == (lc.attention + lc.projections + lc.ffn
                            + lc.selector + lc.controller)

    def test_positive_dims_required(self):
        with pytest.raises(UsageError):
            layer_flops(0, 8, 2)


class TestTokensPerLayer:
    def test_full_model_constant(self):
        assert tokens_per_layer(ModelConfig()) == [196] * 12

    def test_lite_sequence(self):
        assert tokens_per_layer(ModelConfig(prune_schedule=LITE_SCHEDULE)) == [
            196, 196, 160, 160, 160, 128, 128, 128, 96, 96, 96, 64,
        ]


class TestModelCost:
    def test_full_attention_stack(self):
        rep = model_cost(ModelConfig())
        stack = rep.breakdown["attention"] + rep.breakdown["projections"] + rep.breakdown["ffn"]
        assert stack == 12 * 101_455_872 == 1_217_470_464

    def test_full_total_near_reported(self):
        rep = model_cost(ModelConfig())
        assert abs(rep.total - 1.3e9) / 1.3e9 < 0.10

    def test_lite_attention_stack(self):
        rep = model_cost(ModelConfig(prune_schedule=LITE_SCHEDULE))
        stack = rep.breakdown["attention"] + rep.breakdown["projections"] + rep.breakdown["ffn"]
        expected = (2 * stack_f(196, 192) + 3 * stack_f(160, 192)
                    + 3 * stack_f(128, 192) + 3 * stack_f(96, 192)
                    + stack_f(64, 192))
        assert stack == expected == 801_386_496
        assert abs(stack - 0.801e9) / 0.801e9 < 0.01

    def test_lite_total_near_reported(self):
        rep = model_cost(ModelConfig(prune_schedule=LITE_SCHEDULE))
        assert abs(rep.total - 0.8e9) / 0.8e9 < 0.10

    def test_param_count_near_reported(self):
        rep = model_cost(ModelConfig())
        assert rep.param_count == 5_946_280
        assert abs(rep.param_count - 6.2e6) / 6.2e6 < 0.10

    def test_param_count_is_exact_beyond_int64(self):
        # 2**32 channels give 2**64-entry square weights, which wrap an int64
        cfg = ModelConfig(image_size=32, patch_size=16, channels=2**32, heads=1,
                          layers=1, num_classes=2)
        want = 0
        for shape in parameter_shapes(cfg).values():
            entries = 1
            for dim in shape:
                entries *= dim
            want += entries
        assert want > 2**63
        assert model_cost(cfg).param_count == want

    def test_embedder_and_classifier(self):
        rep = model_cost(ModelConfig())
        assert rep.breakdown["embedder"] == 196 * 768 * 192 == 28_901_376
        assert rep.breakdown["classifier"] == 192 * 1000

    def test_zero_layer_model(self):
        cfg = ModelConfig(image_size=64, patch_size=16, channels=16, heads=4,
                          layers=0, num_classes=3)
        rep = model_cost(cfg)
        assert rep.per_layer == []
        assert rep.total == rep.breakdown["embedder"] + rep.breakdown["classifier"]
        for key in ("attention", "projections", "ffn", "selector", "controller"):
            assert rep.breakdown[key] == 0

    def test_total_is_breakdown_sum(self):
        for cfg in (ModelConfig(), ModelConfig(prune_schedule=LITE_SCHEDULE)):
            rep = model_cost(cfg)
            assert rep.total == sum(rep.breakdown.values())

    def test_lite_with_empty_schedule_equals_full(self):
        full = model_cost(ModelConfig())
        emptied = model_cost(ModelConfig(prune_schedule=()))
        assert emptied.total == full.total
        assert emptied.breakdown == full.breakdown
        assert emptied.per_layer == full.per_layer

    def test_monotone_in_kept_counts(self):
        base = ModelConfig(prune_schedule=LITE_SCHEDULE)
        rep = model_cost(base)
        for i, (layer, kept) in enumerate(base.prune_schedule):
            sched = list(base.prune_schedule)
            floor = sched[i + 1][1] if i + 1 < len(sched) else 1
            smaller = max(floor, kept - 16)
            if smaller == kept:
                continue
            sched[i] = (layer, smaller)
            rep2 = model_cost(ModelConfig(prune_schedule=tuple(sched)))
            assert rep2.total < rep.total

    def test_json_round_trip_and_table(self):
        rep = model_cost(ModelConfig())
        d = rep.to_json_dict()
        again = CostReport(**d)
        again.validate()
        assert again.total == rep.total
        text = rep.table()
        assert "attention" in text and "parameters" in text
        assert f"{rep.total:,}" in text

    def test_per_layer_count_matches_layers(self):
        rep = model_cost(ModelConfig(prune_schedule=LITE_SCHEDULE))
        assert len(rep.per_layer) == 12
        assert rep.per_layer[0] == rep.per_layer[1] > rep.per_layer[2]
        assert rep.per_layer[-1] == min(rep.per_layer)
