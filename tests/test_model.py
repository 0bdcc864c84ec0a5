"""Tests for patch embedding, the full forward pass, blob data, and training."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from depvit.block import block_forward
from depvit.data import BlobSample, blob_dataset, blob_scene, patch_vectors
from depvit.errors import ConfigError, IntegrityError, ShapeError, TrainingError, UsageError
from depvit.model import (
    LITE_SCHEDULE,
    ModelConfig,
    ModelWeights,
    init_weights,
    model_forward,
    parameter_shapes,
    patch_embed,
)
from depvit.pruning import expand_state_mask, retrieve_dense
from depvit.tensor import (
    Tape,
    Tensor,
    add,
    cross_entropy,
    layer_norm,
    matmul,
    reshape,
    weighted_mean_rows,
)
from depvit.train import _batch_loss, evaluate, toy_train
from oracles import explicit_model_init


def small_config(**over):
    base = dict(image_size=64, patch_size=16, channels=16, heads=4,
                layers=3, num_classes=3, seed=0)
    base.update(over)
    return ModelConfig(**base)


class TestConfig:
    def test_indivisible_image_rejected(self):
        with pytest.raises(ConfigError):
            small_config(image_size=60)

    def test_odd_channels_rejected(self):
        with pytest.raises(ConfigError):
            small_config(channels=15, heads=3)

    def test_heads_must_divide_channels(self):
        with pytest.raises(ConfigError):
            small_config(channels=16, heads=3)

    def test_schedule_layer_out_of_range(self):
        with pytest.raises(ConfigError):
            small_config(prune_schedule=((4, 8),))

    def test_schedule_layers_increase(self):
        with pytest.raises(ConfigError):
            small_config(prune_schedule=((2, 12), (2, 8)))

    def test_schedule_kept_cannot_grow(self):
        with pytest.raises(ConfigError):
            small_config(prune_schedule=((1, 8), (2, 12)))

    def test_noop_kept_allowed(self):
        cfg = small_config(prune_schedule=((1, 16), (2, 16)))
        assert cfg.tokens == 16

    def test_kept_above_tokens_rejected(self):
        with pytest.raises(ConfigError):
            small_config(prune_schedule=((1, 17),))

    def test_presets(self):
        t = ModelConfig()
        assert (t.channels, t.heads, t.layers, t.tokens) == (192, 12, 12, 196)
        assert t.prune_schedule == ()
        lt = ModelConfig(prune_schedule=LITE_SCHEDULE)
        assert lt.prune_schedule == LITE_SCHEDULE
        assert lt.channels == 192

    def test_derived_sizes(self):
        cfg = small_config()
        assert cfg.grid == 4
        assert cfg.tokens == 16
        assert cfg.patch_dim == 16 * 16 * 3


class TestPatchEmbed:
    def test_zero_image_gives_bias_plus_positions(self):
        cfg = small_config()
        w = init_weights(cfg)
        img = np.zeros((64, 64, 3), dtype=np.float32)
        out = patch_embed(img, cfg, w)
        expected = w.patch_bias.data + w.pos_table.data
        np.testing.assert_allclose(out.data, expected, atol=1e-7)

    def test_row_major_flattening(self):
        # mark one pixel per patch; its flat index must be (r*p + c)*3 + ch
        cfg = small_config(image_size=32)
        assert cfg.tokens == 4
        img = np.zeros((32, 32, 3), dtype=np.float32)
        img[3, 5, 1] = 7.0     # patch (0, 0): row 3, col 5, channel 1
        img[10, 16 + 2, 2] = 9.0  # patch (0, 1): row 10, col 2, channel 2
        vecs = patch_vectors(img, 16)
        assert vecs.shape == (4, 768)
        assert vecs[0, (3 * 16 + 5) * 3 + 1] == 7.0
        assert vecs[1, (10 * 16 + 2) * 3 + 2] == 9.0
        assert vecs[2].sum() == 0.0 and vecs[3].sum() == 0.0

    def test_patch_order_is_grid_row_major(self):
        cfg = small_config(image_size=32)
        w = init_weights(cfg)
        img = np.zeros((32, 32, 3), dtype=np.float32)
        img[0:16, 16:32, :] = 1.0   # only patch (0, 1) is lit
        out = patch_embed(img, cfg, w).data - w.patch_bias.data - w.pos_table.data
        norms = np.linalg.norm(out, axis=1)
        assert norms[1] > 1e-3
        np.testing.assert_allclose(norms[[0, 2, 3]], 0.0, atol=1e-5)

    def test_wrong_image_shape_rejected(self):
        cfg = small_config()
        w = init_weights(cfg)
        with pytest.raises(ConfigError):
            patch_embed(np.zeros((60, 64, 3), dtype=np.float32), cfg, w)


class TestWeights:
    def test_param_count_tiny(self):
        shapes = parameter_shapes(ModelConfig())
        total = sum(int(np.prod(s)) for s in shapes.values())
        assert total == 5_946_280

    def test_init_deterministic(self):
        cfg = small_config()
        a = init_weights(cfg)
        b = init_weights(cfg)
        for name, t in a.named_tensors().items():
            np.testing.assert_array_equal(t.data, b.named_tensors()[name].data)

    @pytest.mark.parametrize("cfg", [
        ModelConfig(),
        ModelConfig(prune_schedule=LITE_SCHEDULE),
        ModelConfig(image_size=128, channels=32, heads=4, layers=4, num_classes=2, seed=1),
    ], ids=["tiny224", "lite224", "toy"])
    def test_init_is_byte_equal_to_explicit_reference(self, cfg):
        got = init_weights(cfg).named_tensors()
        ref = explicit_model_init(cfg)
        assert sorted(got) == sorted(ref)
        for name, arr in ref.items():
            t = got[name].data
            assert (t.dtype, t.shape) == (arr.dtype, arr.shape), name
            assert t.tobytes() == arr.tobytes(), name

    def test_init_dtype_must_be_float32_or_float64(self):
        with pytest.raises(UsageError, match="float32 or float64"):
            init_weights(small_config(), dtype=np.int32)

    def test_table_order_is_named_tensors_order(self):
        cfg = small_config()
        names = list(parameter_shapes(cfg))
        assert names == list(init_weights(cfg).named_tensors())
        assert names[:3] == ["patch_proj", "patch_bias", "pos_table"]
        assert names[-4:] == ["final_gain", "final_bias", "classifier_w", "classifier_b"]

    def test_init_matches_declared_shapes(self):
        cfg = small_config(prune_schedule=((2, 8),))
        w = init_weights(cfg)
        shapes = parameter_shapes(cfg)
        named = w.named_tensors()
        assert set(named) == set(shapes)
        for name, shape in shapes.items():
            assert named[name].shape == shape

    def test_biases_zero_at_init(self):
        w = init_weights(small_config())
        assert np.all(w.patch_bias.data == 0.0)
        assert np.all(w.classifier_b.data == 0.0)
        blk = w.blocks[0]
        assert np.all(blk.ln1_bias.data == 0.0)
        np.testing.assert_array_equal(blk.ln1_gain.data, np.ones(16, dtype=np.float32))

    def test_truncated_init_within_two_sigma(self):
        w = init_weights(small_config())
        for name, t in w.named_tensors().items():
            if "bias" in name or "gain" in name:
                continue
            assert np.abs(t.data).max() <= 2.0 * 0.02 + 1e-7, name


class TestForward:
    def test_deterministic_forward(self):
        cfg = small_config(prune_schedule=((2, 12),))
        w = init_weights(cfg)
        img = np.random.default_rng(5).random((64, 64, 3)).astype(np.float32)
        r1 = model_forward(img, cfg, w)
        r2 = model_forward(img, cfg, w)
        np.testing.assert_array_equal(r1.logits.data, r2.logits.data)
        np.testing.assert_array_equal(r1.tokens.data, r2.tokens.data)

    @pytest.mark.parametrize("layers", [2, 4])
    def test_block_count_must_match_config(self, layers):
        # fewer blocks than layers, and more, are both refused before any block runs
        weights = init_weights(small_config(layers=layers))
        with pytest.raises(ShapeError, match=f"hold {layers} blocks, config wants 3"):
            model_forward(np.zeros((64, 64, 3), dtype=np.float32), small_config(), weights)

    def test_logit_and_state_shapes(self):
        cfg = small_config()
        w = init_weights(cfg)
        img = np.zeros((64, 64, 3), dtype=np.float32)
        res = model_forward(img, cfg, w)
        assert res.logits.shape == (3,)
        assert len(res.states) == 3
        for st in res.states:
            assert st.mask.shape == (16, 16)
        assert res.ledger.events == ()
        assert list(res.ledger.survivors()) == list(range(16))

    def test_token_matrix_input_used_as_is(self):
        cfg = small_config()
        w = init_weights(cfg)
        x = np.random.default_rng(1).standard_normal((16, 16)).astype(np.float32)
        res = model_forward(x, cfg, w)
        # the matrix enters the first block unchanged: no embedding, no positions
        _, _, first = block_forward(Tensor(x), w.blocks[0], Tensor(np.ones(16, np.float32)))
        np.testing.assert_array_equal(res.states[0].mask, first.mask)

    def test_schedule_prunes_to_kept_counts(self):
        cfg = small_config(prune_schedule=((1, 12), (3, 7)))
        w = init_weights(cfg)
        img = np.random.default_rng(2).random((64, 64, 3)).astype(np.float32)
        res = model_forward(img, cfg, w)
        sizes = [st.mask.shape[0] for st in res.states]
        assert sizes == [16, 12, 12]
        assert res.ledger.survivors().size == 7
        assert res.tokens.shape == (7, 16)
        assert len(res.ledger.events) == 4 + 5
        layers = [e.layer for e in res.ledger.events]
        assert layers == [1] * 4 + [3] * 5

    def test_empty_schedule_equals_noop_schedule(self):
        base = small_config()
        noop = small_config(prune_schedule=((1, 16), (2, 16), (3, 16)))
        w = init_weights(base)
        img = np.random.default_rng(3).random((64, 64, 3)).astype(np.float32)
        r0 = model_forward(img, base, w)
        r1 = model_forward(img, noop, w)
        np.testing.assert_array_equal(r0.logits.data, r1.logits.data)
        assert r1.ledger.events == ()

    def test_pooled_is_convex_combination(self):
        cfg = small_config(prune_schedule=((1, 12), (3, 7)))
        w = init_weights(cfg)
        img = np.random.default_rng(4).random((64, 64, 3)).astype(np.float32)
        res = model_forward(img, cfg, w)
        # the final gate over the survivors: the last block's gate, less the
        # tokens pruned after it
        last = res.states[-1]
        gates = last.cumulative_gate[np.isin(last.token_indices, res.ledger.survivors())]
        assert gates.shape == (res.tokens.shape[0],)
        assert np.all(gates > 0.0) and np.all(gates <= 1.0)
        pooled = weighted_mean_rows(res.tokens, Tensor(gates))
        weights = gates / gates.sum()
        manual = weights[:, None] * res.tokens.data
        np.testing.assert_allclose(pooled.data, manual.sum(axis=0), rtol=1e-5, atol=1e-6)
        # and the classifier reads exactly that mean
        normed = layer_norm(reshape(pooled, (1, cfg.channels)), w.final_gain, w.final_bias)
        logits = add(matmul(normed, w.classifier_w), w.classifier_b)
        assert logits.data.reshape(-1).tobytes() == res.logits.data.tobytes()

    def test_cumulative_gate_monotone_across_blocks(self):
        cfg = small_config(layers=4)
        w = init_weights(cfg)
        img = np.random.default_rng(6).random((64, 64, 3)).astype(np.float32)
        res = model_forward(img, cfg, w)
        prev = np.ones(16)
        for st in res.states:
            cur = st.cumulative_gate
            assert np.all(cur <= prev + 1e-12)
            prev = cur

    def test_prediction_is_argmax(self):
        cfg = small_config()
        w = init_weights(cfg)
        img = np.random.default_rng(7).random((64, 64, 3)).astype(np.float32)
        res = model_forward(img, cfg, w)
        assert res.prediction == int(np.argmax(res.logits.data))

    def test_unpruned_step_tapes_no_gather(self):
        img = np.random.default_rng(7).random((64, 64, 3)).astype(np.float32)
        lengths = []
        for schedule in ((), ((1, 16), (2, 16))):
            cfg = small_config(prune_schedule=schedule)
            with Tape() as tape:
                res = model_forward(img, cfg, init_weights(cfg))
            lengths.append(len(tape))
            assert res.ledger.events == ()
        assert lengths[0] == lengths[1]

    def test_retrieval_round_trip_after_pruning(self):
        cfg = small_config(prune_schedule=((2, 10),))
        w = init_weights(cfg)
        img = np.random.default_rng(8).random((64, 64, 3)).astype(np.float32)
        res = model_forward(img, cfg, w)
        dense = retrieve_dense(res.tokens, res.ledger)
        assert dense.shape == (16, 16)
        np.testing.assert_array_equal(dense[res.ledger.survivors()], res.tokens.data)

    def test_expanded_mask_column_conservation(self):
        cfg = small_config(prune_schedule=((1, 10),))
        w = init_weights(cfg)
        img = np.random.default_rng(9).random((64, 64, 3)).astype(np.float32)
        res = model_forward(img, cfg, w)
        last = res.states[-1]
        full = expand_state_mask(last, res.ledger)
        for e in res.ledger.events:
            assert full[:, e.token].sum() == pytest.approx(e.gate, abs=1e-5)
        # survivor columns keep their own mass (float32 pipeline tolerance)
        sub_sums = np.asarray(last.mask).sum(axis=0)
        for local, tok in enumerate(last.token_indices):
            assert full[:, tok].sum() == pytest.approx(sub_sums[local], abs=1e-6)

    @pytest.mark.slow
    def test_lite_mask_size_sequence(self):
        cfg = ModelConfig(prune_schedule=LITE_SCHEDULE)
        w = init_weights(cfg)
        img = np.random.default_rng(0).random((224, 224, 3)).astype(np.float32)
        res = model_forward(img, cfg, w)
        sizes = [st.mask.shape[0] for st in res.states]
        assert sizes == [196, 196, 160, 160, 160, 128, 128, 128, 96, 96, 96, 64]
        assert res.ledger.survivors().size == 64


class TestWholeModelGradients:
    """The tape's gradient of the whole pruned model, from the patch embedding
    through the prune gather to the classifier and the loss, checked along
    random directions over every parameter at once."""

    CFG = ModelConfig(image_size=16, patch_size=4, channels=16, heads=4, layers=3,
                      num_classes=3, prune_schedule=((2, 8),))
    EPS = 1e-5
    TOLERANCE = 1e-4  # the block gradient check's tolerance (criterion 3)

    def loss(self, res, label):
        return cross_entropy(reshape(res.logits, (1, self.CFG.num_classes)), [label])

    def test_random_directions_match_central_differences(self):
        # Each probe compares g.d with (L(w + eps d) - L(w - eps d)) / (2 eps)
        # and scales the gap by |g| |d|, so a near-zero g.d cannot dominate.
        # Where the two sides prune different tokens the loss has a kink
        # between them; such probes are counted, not compared.
        errors, kinks = [], 0
        for seed in range(20):
            cfg = replace(self.CFG, seed=seed)
            rng = np.random.default_rng(seed)
            weights = init_weights(cfg, dtype=np.float64)
            image = rng.random((16, 16, 3))
            label = int(rng.integers(cfg.num_classes))
            params = list(weights.named_tensors().values())
            base = [p.data.copy() for p in params]
            with Tape() as tape:
                res = model_forward(image, cfg, weights)
                loss = self.loss(res, label)
            grads = tape.gradients(loss, params)
            g_norm = np.sqrt(sum(float((g * g).sum()) for g in grads))

            # the same weights in float32 keep the same survivors
            narrow = ModelWeights.from_named_tensors(cfg, {
                name: Tensor(t.data.astype(np.float32))
                for name, t in weights.named_tensors().items()})
            assert np.array_equal(model_forward(image, cfg, narrow).ledger.survivors(),
                                  res.ledger.survivors()), seed

            for _ in range(16):
                d = [rng.standard_normal(b.shape) for b in base]
                sides = []
                for sign in (1.0, -1.0):
                    for p, b, di in zip(params, base, d):
                        p.data[...] = b + sign * self.EPS * di
                    out = model_forward(image, cfg, weights)
                    sides.append((self.loss(out, label).item(),
                                  [e.token for e in out.ledger.events]))
                (plus, pruned_plus), (minus, pruned_minus) = sides
                if pruned_plus != pruned_minus:
                    kinks += 1
                    continue
                gd = sum(float((g * di).sum()) for g, di in zip(grads, d))
                d_norm = np.sqrt(sum(float((di * di).sum()) for di in d))
                errors.append(abs(gd - (plus - minus) / (2 * self.EPS)) / (g_norm * d_norm))
            for p, b in zip(params, base):
                p.data[...] = b

        probes = 20 * 16
        report = (f"{kinks} of {probes} probes pruned differently at +eps and -eps; "
                  f"worst error of the other {len(errors)}: {max(errors):.2e}")
        print(report)
        assert len(errors) >= 0.9 * probes, report
        assert max(errors) <= self.TOLERANCE, report


class TestBlobData:
    def test_shapes_and_label(self):
        s = blob_scene(2, np.random.default_rng(0), grid=8, patch=16)
        assert s.image.shape == (128, 128, 3)
        assert s.image.dtype == np.float32  # as read_ppm returns
        assert s.labels.shape == (8, 8)
        assert set(np.unique(s.labels)) == {0, 1}

    def test_geometry_recomputed(self):
        for seed in range(5):
            s = blob_scene(3, np.random.default_rng(seed), grid=8, patch=16)
            vecs = patch_vectors(s.image, 16)
            unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
            cos = unit @ unit.T
            same = s.labels.ravel()[:, None] == s.labels.ravel()[None, :]
            assert cos[same].min() >= 0.95
            np.fill_diagonal(cos, 0.0)
            assert cos[~same].max() <= 0.10

    def test_regions_are_connected(self):
        for seed in range(5):
            s = blob_scene(3, np.random.default_rng(seed), grid=8, patch=16)
            labels = s.labels
            for r in range(3):
                cells = {(i, j) for i, j in zip(*np.where(labels == r))}
                start = next(iter(cells))
                seen = {start}
                stack = [start]
                while stack:
                    i, j = stack.pop()
                    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        nb = (i + di, j + dj)
                        if nb in cells and nb not in seen:
                            seen.add(nb)
                            stack.append(nb)
                assert seen == cells, f"region {r} disconnected at seed {seed}"

    def test_min_cells_respected(self):
        # an eighth of the 64-cell grid per region
        for k, floor in ((1, 8), (2, 4), (3, 2)):
            for seed in range(5):
                s = blob_scene(k, np.random.default_rng(seed), grid=8, patch=16)
                assert np.bincount(s.labels.ravel(), minlength=k).min() >= floor

    def test_too_many_regions_rejected(self):
        with pytest.raises(UsageError):
            blob_scene(4, np.random.default_rng(0), grid=8, patch=16)

    @pytest.mark.parametrize("grid, k", [(1, 1), (1, 2), (2, 3)])
    def test_grid_too_small_is_usage_error_before_any_draw(self, grid, k):
        # k regions of at least two patches need 2k cells; refusing up front
        # leaves the generator where a feasible scene would start drawing
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(UsageError, match=f"{grid}x{grid} patch grid cannot hold {k}"):
            blob_scene(k, rng, grid=grid, patch=16)
        assert rng.bit_generator.state == state

    def test_smallest_feasible_grid_still_draws(self):
        # two regions of two patches fill a 2 x 2 grid exactly
        s = blob_scene(2, np.random.default_rng(0), grid=2, patch=16)
        assert sorted(np.bincount(s.labels.ravel()).tolist()) == [2, 2]

    def test_dataset_balanced_and_deterministic(self):
        d1 = blob_dataset(8, seed=3, grid=8, patch=16)
        d2 = blob_dataset(8, seed=3, grid=8, patch=16)
        assert [s.label for s in d1] == [0, 1, 0, 1, 0, 1, 0, 1]
        # label 0 scenes hold 2 blobs, label 1 scenes 3
        assert [len(np.unique(s.labels)) for s in d1] == [2, 3, 2, 3, 2, 3, 2, 3]
        for a, b in zip(d1, d2):
            np.testing.assert_array_equal(a.image, b.image)


class TestTraining:
    def test_zero_lr_keeps_loss_constant(self):
        cfg = small_config(image_size=128, layers=2, num_classes=2)
        data = blob_dataset(1, seed=0, grid=8, patch=16)
        res = toy_train(data, cfg, steps=3, lr=0.0, seed=0, batch_size=1)
        assert len(res.losses) == 3
        assert res.losses[0] == pytest.approx(res.losses[1], abs=1e-12)
        assert res.losses[1] == pytest.approx(res.losses[2], abs=1e-12)
        init = init_weights(cfg).named_tensors()
        for name, t in res.weights.named_tensors().items():
            np.testing.assert_array_equal(t.data, init[name].data)

    def test_negative_seed_is_usage_error(self):
        with pytest.raises(UsageError):
            blob_dataset(1, seed=-1, grid=8, patch=16)
        cfg = small_config(image_size=128, layers=2, num_classes=2)
        with pytest.raises(UsageError):
            toy_train(blob_dataset(1, seed=0, grid=8, patch=16), cfg, steps=1, seed=-1)

    def test_training_reduces_loss(self):
        cfg = small_config(image_size=128, layers=2, num_classes=2)
        data = blob_dataset(6, seed=1, grid=8, patch=16)
        res = toy_train(data, cfg, steps=30, lr=3e-3, seed=0, batch_size=6)
        assert res.losses[-1] < res.losses[0]

    def test_single_sample_memorization(self):
        cfg = small_config(image_size=128, layers=2, num_classes=2)
        data = blob_dataset(1, seed=2, grid=8, patch=16)
        res = toy_train(data, cfg, steps=60, lr=5e-3, seed=0, batch_size=1)
        assert res.losses[-1] < 0.05
        assert evaluate(data, cfg, res.weights) == 1.0

    def test_evaluate_without_samples_is_usage_error(self):
        cfg = small_config(image_size=128, layers=2, num_classes=2)
        with pytest.raises(UsageError):
            evaluate([], cfg, init_weights(cfg))

    def test_one_backward_adds_little_memory(self):
        # At the toy geometry (C=32, H=4, L=4, 64 tokens, batch 8), keeping
        # every intermediate gradient until the end peaked at 15.2 MB above
        # the entry level; freeing each one once consumed gives about 0.6 MB.
        # The bound is a quarter of the first figure.  The forward leaves
        # 10.42 MB on the tape in 1171 records, with no (H, N, N) array per
        # block and image besides its attention stack; that bound is the
        # figure plus 5%.
        cfg = small_config(image_size=128, channels=32, heads=4, layers=4, num_classes=2)
        weights = init_weights(cfg)
        params = list(weights.named_tensors().values())
        data = blob_dataset(8, seed=0, grid=8, patch=16)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            with Tape() as tape:
                loss = _batch_loss(data, cfg, weights)
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            tape.gradients(loss, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape) == 1171
        assert before - start < 10.42e6 * 1.05
        assert peak - before < 15.2e6 / 4

    def test_float32_scenes_train_as_float64_ones_did(self):
        # a float32 model casts each image to float32 when it embeds it, so
        # a float64 copy of each scene trains to the same bytes
        cfg = small_config(image_size=128, layers=2, num_classes=2,
                           prune_schedule=((1, 48),))
        data = blob_dataset(6, seed=5, grid=8, patch=16)
        wide = [BlobSample(image=s.image.astype(np.float64), labels=s.labels,
                           label=s.label) for s in data]
        runs = [toy_train(d, cfg, steps=3, lr=3e-3, seed=2, batch_size=3) for d in (data, wide)]
        assert runs[0].losses == runs[1].losses
        assert runs[0].accuracy == runs[1].accuracy
        for a, b in zip(runs[0].weights.named_tensors().values(),
                        runs[1].weights.named_tensors().values()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_divergence_raises_training_error(self):
        cfg = small_config(image_size=128, layers=2, num_classes=2)
        data = blob_dataset(1, seed=0, grid=8, patch=16)
        with pytest.raises(TrainingError):
            with np.errstate(over="ignore", invalid="ignore"):
                toy_train(data, cfg, steps=5, lr=1e12, seed=0, batch_size=1)

    def test_deterministic_given_seed(self):
        cfg = small_config(image_size=128, layers=2, num_classes=2)
        data = blob_dataset(4, seed=4, grid=8, patch=16)
        r1 = toy_train(data, cfg, steps=4, lr=1e-3, seed=9, batch_size=2)
        r2 = toy_train(data, cfg, steps=4, lr=1e-3, seed=9, batch_size=2)
        np.testing.assert_array_equal(r1.losses, r2.losses)
        for name, t in r1.weights.named_tensors().items():
            np.testing.assert_array_equal(t.data, r2.weights.named_tensors()[name].data)
