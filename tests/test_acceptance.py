"""Whole-artifact acceptance gates, one verdict line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines; the
assertions behind each line pin the same thresholds the verdicts report.
The toy classifier used by the last two gates trains once and is shared,
so each of those tests still passes when run on its own.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

import depvit.tensor as tn
from depvit.errors import IntegrityError
from depvit.block import (
    block_forward,
    block_probe_loss,
    forward_attention,
    init_block_weights,
    reverse_compose,
)
from depvit.cli import run as run_cli
from depvit.costs import layer_flops
from depvit.data import blob_dataset, patch_vectors
from depvit.evalkit import LabelGrid, fiedler_vector, hungarian_match, part_metrics
from depvit.fileio import (
    read_container,
    tree_from_json_dict,
    tree_to_json_dict,
    write_container,
)
from depvit.model import ModelConfig, init_weights, model_forward
from depvit.pruning import expand_state_mask, retrieve_dense
from depvit.train import toy_train
from depvit.tree import (
    aggregate_masks,
    chu_liu_edmonds,
    induce_tree,
    partition_subtrees,
)
from oracles import brute_best_arborescence, brute_best_assignment, dense_fiedler


@contextmanager
def verdict(number: int, label: str):
    """Print exactly one PASS/FAIL line for a criterion, then re-raise."""
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({label}): PASS")


# The toy-training recipe shared by criteria 6 and 7.  The seeds were fixed
# once against the construction oracle and are part of the gate: accuracy,
# partition quality and full-vs-pruned agreement must all hold at once.
TOY_TRAIN_SCENES = 32
TOY_DATA_SEED = 7
TOY_EVAL_SEED = 99
TOY_CONFIG = ModelConfig(
    image_size=128, patch_size=16, channels=32, heads=4,
    layers=4, num_classes=2, seed=0,
)
TOY_LITE = ModelConfig(
    image_size=128, patch_size=16, channels=32, heads=4,
    layers=4, num_classes=2, seed=0,
    prune_schedule=((2, 48), (3, 32)),
)

_toy_cache: dict = {}


def toy_model():
    if not _toy_cache:
        samples = blob_dataset(
            TOY_TRAIN_SCENES, seed=TOY_DATA_SEED, grid=8, patch=16
        )
        result = toy_train(
            samples, TOY_CONFIG, steps=200, lr=1e-3, seed=0, batch_size=8
        )
        _toy_cache["samples"] = samples
        _toy_cache["result"] = result
    return _toy_cache["samples"], _toy_cache["result"]


class TestCostModel:
    def test_criterion_1_tiny_budget(self, tmp_path):
        with verdict(1, "tiny cost model"):
            t0 = time.monotonic()
            lc = layer_flops(196, 192, 12)
            stack = lc.attention + lc.projections + lc.ffn
            assert stack == 2 * 196**2 * 192 + 12 * 196 * 192**2
            assert stack == 101_455_872
            cfg = tmp_path / "tiny.cfg"
            cfg.write_text(
                "image_size=224\npatch_size=16\nchannels=192\nheads=12\nlayers=12\n"
            )
            out = tmp_path / "cost.json"
            assert run_cli(["flops", "--config", str(cfg), "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert abs(report["total"] - 1.3e9) <= 0.10 * 1.3e9
            b = report["breakdown"]
            assert (b["attention"] + b["projections"] + b["ffn"]) // 12 == 101_455_872
            assert time.monotonic() - t0 < 1.0

    def test_criterion_2_pruned_budget(self, tmp_path):
        with verdict(2, "pruned cost model"):
            t0 = time.monotonic()
            cfg = tmp_path / "pruned.cfg"
            cfg.write_text(
                "image_size=224\npatch_size=16\nchannels=192\nheads=12\nlayers=12\n"
                "prune_layers=2,5,8,11\nkept_tokens=160,128,96,64\n"
            )
            out = tmp_path / "cost.json"
            assert run_cli(["flops", "--config", str(cfg), "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            b = report["breakdown"]
            stack = b["attention"] + b["projections"] + b["ffn"]
            counts = [196, 196, 160, 160, 160, 128, 128, 128, 96, 96, 96, 64]
            assert stack == sum(2 * n * n * 192 + 12 * n * 192 * 192 for n in counts)
            assert abs(stack - 0.801e9) <= 0.01 * 0.801e9
            assert abs(report["total"] - 0.8e9) <= 0.10 * 0.8e9
            assert time.monotonic() - t0 < 1.0


class TestGradients:
    def test_criterion_3_block_gradcheck(self):
        # Probes every weight, the token matrix and the incoming gate of a
        # full block (selector, controller, gating and pooling included)
        # against float64 central differences.
        with verdict(3, "block gradient check"):
            t0 = time.monotonic()
            worst = 0.0
            for seed in range(20):
                rng = np.random.default_rng(seed)
                bw = init_block_weights(16, 4, rng, dtype=np.float64)
                x = tn.tensor(rng.normal(size=(8, 16)), dtype=np.float64)
                gp = tn.tensor(rng.uniform(0.3, 1.0, size=8), dtype=np.float64)
                inputs = [x, gp] + list(bw.named_tensors().values())
                report = tn.grad_check(lambda ts: block_probe_loss(ts, bw), inputs)
                assert report.passed, f"seed {seed}: {report.max_rel_error}"
                worst = max(worst, report.max_rel_error)
            assert worst < 1e-4
            assert time.monotonic() - t0 < 60.0


class TestOracleEquivalence:
    def test_criterion_4_combinatorial_oracles(self):
        with verdict(4, "combinatorial oracle equivalence"):
            t0 = time.monotonic()
            rng = np.random.default_rng(4000)
            for _ in range(1000):
                n = int(rng.integers(2, 7))
                scores = rng.uniform(0.0, 1.0, size=(n, n))
                roots = rng.uniform(0.0, 1.0, size=n)
                tree = chu_liu_edmonds(scores, roots)
                tree.validate()
                best, _, _ = brute_best_arborescence(scores, roots)
                assert tree.total_score() == best
            for _ in range(1000):
                p = int(rng.integers(1, 7))
                g = int(rng.integers(1, 7))
                s = rng.random((p, g))
                pairs = hungarian_match(s)
                best, optima = brute_best_assignment(s)
                assert abs(sum(s[a, b] for a, b in pairs) - best) <= 1e-9
                assert frozenset(pairs) in optima
            for _ in range(100):
                n = int(rng.integers(3, 13))
                w = rng.random((n, n)) + 0.05
                w = 0.5 * (w + w.T)
                np.fill_diagonal(w, 1.0)
                agreement = abs(float(fiedler_vector(w) @ dense_fiedler(w)))
                assert agreement >= 1.0 - 1e-5
            assert time.monotonic() - t0 < 120.0


class TestInvariants:
    def test_criterion_5_structural_invariants(self):
        with verdict(5, "structural invariants"):
            rng = np.random.default_rng(5000)

            # Sent mass is column-stochastic once the gate is fully open and
            # a single head makes the selector a no-op.
            for _ in range(100):
                n = int(rng.integers(2, 13))
                c = int(rng.choice([4, 8, 16]))
                bw = init_block_weights(c, 1, rng, dtype=np.float64)
                x = tn.tensor(rng.normal(size=(n, c)), dtype=np.float64)
                attn, _ = forward_attention(x, bw)
                probs = tn.tensor(np.ones((n, 1)), dtype=np.float64)
                open_gate = tn.tensor(np.ones(n), dtype=np.float64)
                _, mask = reverse_compose(attn, probs, open_gate)
                np.testing.assert_allclose(
                    mask.sum(axis=0), np.ones(n), atol=1e-6
                )

            # Cumulative gates never increase across the stack.
            for case in range(100):
                side = int(rng.choice([2, 3, 4]))
                config = ModelConfig(
                    image_size=16 * side, patch_size=16, channels=8, heads=2,
                    layers=3, num_classes=3, seed=case,
                )
                weights = init_weights(config)
                toks = rng.normal(size=(config.tokens, 8)).astype(np.float32)
                res = model_forward(toks, config, weights)
                prev = np.ones(config.tokens)
                for state in res.states:
                    assert (state.cumulative_gate <= prev + 1e-7).all()
                    prev = state.cumulative_gate

            # No entry of a sender's column exceeds that sender's gate.
            for _ in range(100):
                n = int(rng.integers(2, 13))
                bw = init_block_weights(8, 2, rng, dtype=np.float64)
                x = tn.tensor(rng.normal(size=(n, 8)), dtype=np.float64)
                gp = tn.tensor(rng.uniform(0.0, 1.0, size=n), dtype=np.float64)
                _, _, state = block_forward(x, bw, gp)
                assert (state.mask <= state.cumulative_gate[None, :] + 1e-9).all()

            # Reordering tokens reorders every output the same way.
            for _ in range(100):
                n = int(rng.integers(2, 10))
                bw = init_block_weights(8, 2, rng, dtype=np.float64)
                x = rng.normal(size=(n, 8))
                gp = rng.uniform(0.2, 1.0, size=n)
                perm = rng.permutation(n)
                out_a, gate_a, st_a = block_forward(
                    tn.tensor(x, dtype=np.float64),
                    bw,
                    tn.tensor(gp, dtype=np.float64),
                )
                out_b, gate_b, st_b = block_forward(
                    tn.tensor(x[perm], dtype=np.float64),
                    bw,
                    tn.tensor(gp[perm], dtype=np.float64),
                )
                np.testing.assert_allclose(
                    out_b.data, out_a.data[perm], rtol=1e-9, atol=1e-11
                )
                np.testing.assert_allclose(
                    gate_b.data, gate_a.data[perm], rtol=1e-9, atol=1e-12
                )
                np.testing.assert_allclose(
                    st_b.mask, st_a.mask[np.ix_(perm, perm)], rtol=1e-9, atol=1e-12
                )

            # With nothing pruned, dense retrieval is a bit-exact identity.
            for case in range(100):
                config = ModelConfig(
                    image_size=32, patch_size=16, channels=8, heads=2,
                    layers=2, num_classes=3, seed=case,
                )
                weights = init_weights(config)
                toks = rng.normal(size=(4, 8)).astype(np.float32)
                res = model_forward(toks, config, weights)
                dense = retrieve_dense(res.tokens.data, res.ledger)
                assert dense.tobytes() == res.tokens.data.tobytes()

            # Expanding a pruned mask back to full size conserves each
            # column's sent mass: survivors keep theirs, pruned tokens get
            # their cached gate back.  Untrained weights occasionally build
            # an all-cyclic argmax graph that refuses to prune; those cases
            # are skipped and replaced so 100 prunable ones get verified.
            verified = 0
            for case in range(120):
                if verified >= 100:
                    break
                config = ModelConfig(
                    image_size=64, patch_size=16, channels=8, heads=2,
                    layers=3, num_classes=3, seed=case,
                    prune_schedule=((1, 12), (2, 8)),
                )
                weights = init_weights(config)
                toks = rng.normal(size=(16, 8)).astype(np.float32)
                try:
                    res = model_forward(toks, config, weights)
                except IntegrityError:
                    continue
                cached_gate = {e.token: e.gate for e in res.ledger.events}
                for state in res.states:
                    full = expand_state_mask(state, res.ledger)
                    sums = full.sum(axis=0)
                    local = dict(
                        zip(state.token_indices.tolist(), state.mask.sum(axis=0))
                    )
                    for t in range(16):
                        want = local[t] if t in local else cached_gate[t]
                        assert abs(sums[t] - want) <= 1e-6
                verified += 1
            assert verified >= 100


class TestStructureRecovery:
    def test_criterion_6_blob_partition(self):
        # Scenes of 2 or 3 feature blobs (within-blob cosine >= 0.95,
        # cross-blob <= 0.10 by construction, spot-checked below).  After
        # 200 training steps the model must classify blob count and the
        # induced tree partition must recover blob membership.
        with verdict(6, "blob structure recovery"):
            t0 = time.monotonic()
            samples, result = toy_model()
            for sample in samples[:3]:
                vecs = patch_vectors(sample.image, 16)
                unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
                cos = unit @ unit.T
                same = sample.labels.ravel()[:, None] == sample.labels.ravel()[None, :]
                off_diag = ~np.eye(64, dtype=bool)
                assert cos[same & off_diag].min() >= 0.95
                assert cos[~same].max() <= 0.10
            assert result.accuracy >= 0.95
            scores = []
            for sample in samples:
                res = model_forward(sample.image, TOY_CONFIG, result.weights)
                tree = induce_tree(aggregate_masks(res.states, res.ledger))
                labels = partition_subtrees(tree, min_size=0.05)
                pred = LabelGrid.from_labels(labels.reshape(8, 8))
                gt = LabelGrid.from_labels(sample.labels)
                scores.append(part_metrics(pred, gt).miou)
            assert float(np.mean(scores)) >= 0.8
            assert time.monotonic() - t0 < 300.0

    def test_criterion_7_pruned_agreement(self):
        # Same trained weights, full path versus a schedule that halves the
        # token count mid-stack (64 -> 48 -> 32): predictions on fresh
        # scenes must agree at least 90 times out of 100.
        with verdict(7, "halved-token agreement"):
            _, result = toy_model()
            fresh = blob_dataset(
                100, seed=TOY_EVAL_SEED, grid=8, patch=16
            )
            agree = sum(
                model_forward(s.image, TOY_CONFIG, result.weights).prediction
                == model_forward(s.image, TOY_LITE, result.weights).prediction
                for s in fresh
            )
            assert agree >= 90


class TestSerialization:
    def test_criterion_8_roundtrips(self, tmp_path):
        with verdict(8, "serialization round trips"):
            rng = np.random.default_rng(8000)
            for dtype in (np.float32, np.float64):
                info = np.finfo(dtype)
                for case in range(100):
                    ndim = int(rng.integers(1, 4))
                    shape = tuple(int(rng.integers(1, 7)) for _ in range(ndim))
                    arr = rng.normal(size=shape).astype(dtype)
                    if case == 0:
                        arr = np.array(
                            [0.0, -0.0, float(info.tiny), float(info.max),
                             float(info.smallest_subnormal), 1.0 / 3.0],
                            dtype=dtype,
                        )
                    path = tmp_path / f"{np.dtype(dtype).name}_{case}.dvtn"
                    write_container(path, {"tensor": arr})
                    back = read_container(path)["tensor"]
                    assert back.dtype == arr.dtype
                    assert back.shape == arr.shape
                    assert back.tobytes() == arr.tobytes()
            for _ in range(100):
                n = int(rng.integers(2, 12))
                scores = rng.uniform(0.0, 1.0, size=(n, n))
                roots = rng.uniform(0.0, 1.0, size=n)
                tree = chu_liu_edmonds(scores, roots)
                clone = tree_from_json_dict(
                    json.loads(json.dumps(tree_to_json_dict(tree)))
                )
                np.testing.assert_array_equal(clone.parent, tree.parent)
                assert clone.root == tree.root
                np.testing.assert_array_equal(clone.edge_weight, tree.edge_weight)
