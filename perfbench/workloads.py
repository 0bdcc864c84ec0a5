"""The three benchmark workloads: set-up, one request, and its output checks.

Every workload builds its inputs from the seed during set-up and hands the
program only files: a ``key=value`` config, a ``.dvtn`` weights container,
PPM scenes and label-grid JSON.  A request replays the call sequence of one
``depvit`` command through module attributes looked up at call time, so the
tracer can wrap them.  ``check`` runs outside the timed region; it raises
``CheckFailed`` on a wrong output and otherwise returns a fingerprint of the
request's outputs, used to show that a traced run computed the same thing.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from depvit import costs, data, evalkit, fileio, model, pruning, train, tree

SCENE_POOL = 32  # scenes per run; requests cycle through them in order


class CheckFailed(Exception):
    """A request produced an output that fails the benchmark's checks."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def mac_check(states, mc: model.ModelConfig) -> None:
    """Per-block MACs at the token counts the blocks ran at must equal the
    cost model's per-layer figures, and each block's attention stack must
    be 2 N^2 C + 12 N C^2 (acceptance gate 1's formula)."""
    c, h = mc.channels, mc.heads
    per_block = []
    for st in states:
        n = int(st.token_indices.size)
        lc = costs.layer_flops(n, c, h)
        _require(lc.attention + lc.projections + lc.ffn == 2 * n * n * c + 12 * n * c * c,
                 f"attention stack MACs at N={n}, C={c} disagree with 2N^2C + 12NC^2")
        per_block.append(lc.total)
    _require(per_block == costs.model_cost(mc).per_layer,
             "per-block MAC sum disagrees with costs.model_cost(cfg).per_layer")


def _config_text(**values) -> str:
    lines = []
    for key, val in values.items():
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


class SceneWorkload:
    """Shared set-up of the two inference workloads: config, weights, scenes."""

    name = ""
    items_per_request = 1
    pass_len = SCENE_POOL  # requests in one pass over the inputs
    image_size = 224  # the paper's tiny geometry: 14 x 14 patches of 16 px

    def __init__(self, seed: int):
        self.seed = seed

    def config_values(self) -> dict:
        return dict(image_size=self.image_size, patch_size=16, channels=192, heads=12,
                    layers=12, num_classes=2, seed=self.seed)

    def setup(self, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        self.dir = workdir
        self.config_path = workdir / "run.cfg"
        self.config_path.write_text(_config_text(**self.config_values()))
        self.mc = fileio.load_config(self.config_path).to_model_config()
        self.weights_path = workdir / "weights.dvtn"
        fileio.save_weights(self.weights_path, model.init_weights(self.mc))
        scenes = data.blob_dataset(SCENE_POOL, seed=self.seed, grid=self.mc.grid,
                                   patch=self.mc.patch_size)
        for j, scene in enumerate(scenes):
            fileio.write_ppm(self.scene_path(j), scene.image)
            fileio.write_json(self.labels_path(j), fileio.grid_to_json_dict(
                evalkit.LabelGrid.from_labels(scene.labels)))
        warm = model.model_forward(fileio.read_ppm(self.scene_path(0)), self.mc,
                                   fileio.load_weights(self.weights_path, self.mc))
        mac_check(warm.states, self.mc)

    def scene_path(self, j: int) -> Path:
        return self.dir / f"scene{j}.ppm"

    def labels_path(self, j: int) -> Path:
        return self.dir / f"labels{j}.json"

    def forward(self, j: int):
        """load_config, load_weights, read_ppm, model_forward: the shared
        front half of ``depvit parse`` and ``depvit prune``."""
        cfg = fileio.load_config(self.config_path)
        mc = cfg.to_model_config()
        weights = fileio.load_weights(self.weights_path, mc)
        image = fileio.read_ppm(self.scene_path(j))
        return cfg, mc, model.model_forward(image, mc, weights)


class ParseWorkload(SceneWorkload):
    """``depvit parse --out`` on the tiny model at 8 x 8 patches, then part
    scoring.

    The tiny model keeps its widths (C=192, H=12, L=12) but sees 128 px
    scenes, so trees span 64 tokens instead of the paper's 196.  With the
    tree solver this benchmark was written against, one 196-token request
    takes 10-20 s and a 100-token one 1-15 s, heavy-tailed by scene, so a
    run held too few requests for any two runs to agree.  At 64 tokens a request takes about 0.5 s, still
    mostly tree induction, with no tail seen over 160 scenes.

    The part-size floor is scaled with the token count: 0.01 of 196 tokens
    merges single-token parts, and 0.03 of 64 tokens does the same.  At
    0.01 of 64 tokens nothing merges, partitions reach 64 parts and
    ``part_metrics`` alone took up to 4.7 s per scene.
    """

    name = "parse-tiny128"
    image_size = 128

    def config_values(self) -> dict:
        return dict(super().config_values(), min_part_size=0.03)

    def request(self, i: int):
        j = i % SCENE_POOL
        cfg, mc, res = self.forward(j)
        mask = tree.aggregate_masks(res.states, res.ledger)
        dep = tree.induce_tree(mask)
        tree.partition_subtrees(dep, min_size=cfg.min_part_size)
        out_path = self.dir / f"tree{j}.json"
        fileio.write_json(out_path, fileio.tree_to_json_dict(dep))
        gt = fileio.load_grid_values(self.labels_path(j))
        pred = evalkit.LabelGrid.from_labels(dep.subtree.reshape(mc.grid, mc.grid))
        report = evalkit.part_metrics(pred, evalkit.LabelGrid.from_labels(gt.astype(np.int64)))
        return res, dep, report, out_path

    def check(self, i: int, out) -> dict:
        res, dep, report, out_path = out
        dep.validate()
        labels = dep.subtree
        _require(labels.min() >= 0 and np.array_equal(np.unique(labels), np.arange(labels.max() + 1)),
                 "partition labels are not dense in 0..m-1")
        text = out_path.read_bytes()
        back = fileio.tree_from_json_dict(json.loads(text))
        _require(back.root == dep.root and np.array_equal(back.parent, dep.parent)
                 and np.array_equal(back.edge_weight, dep.edge_weight)
                 and np.array_equal(back.subtree, dep.subtree)
                 and np.array_equal(back.depth, dep.depth),
                 "tree JSON does not round-trip")
        report.validate()
        _require(report.miou is not None, "part metrics produced no mIoU")
        mac_check(res.states, self.mc)
        return {"digest": _digest(text), "tree_score": dep.total_score(), "miou": report.miou}


class PruneWorkload(SceneWorkload):
    """``depvit prune --ledger --tokens`` on the lite-tiny schedule."""

    name = "prune-lite224"

    def config_values(self) -> dict:
        # keep 160/128/96/64 after blocks 2/5/8/11
        return dict(super().config_values(),
                    prune_layers=tuple(l for l, _ in model.LITE_SCHEDULE),
                    kept_tokens=tuple(k for _, k in model.LITE_SCHEDULE))

    def request(self, i: int):
        j = i % SCENE_POOL
        _, _, res = self.forward(j)
        ledger_path = self.dir / f"ledger{j}.json"
        tokens_path = self.dir / f"tokens{j}.dvtn"
        fileio.write_json(ledger_path, res.ledger.to_json_dict())
        dense = pruning.retrieve_dense(res.tokens, res.ledger)
        fileio.write_container(tokens_path, {"tokens": dense})
        return res, ledger_path, tokens_path

    def check(self, i: int, out) -> dict:
        res, ledger_path, tokens_path = out
        ledger = res.ledger
        ledger.validate()
        ledger_text = ledger_path.read_bytes()
        back = pruning.PruneLedger.from_json_dict(json.loads(ledger_text))
        _require(back.to_json_dict() == ledger.to_json_dict(), "ledger JSON does not round-trip")
        tokens_blob = tokens_path.read_bytes()
        dense = fileio.read_container(tokens_path)["tokens"]
        final = res.tokens.data
        _require(dense[ledger.survivors()].tobytes() == final.tobytes(),
                 "retrieve_dense survivor rows differ from the final tokens")
        cached_gate = {e.token: e.gate for e in ledger.events}
        n = ledger.n_tokens
        for st in res.states:
            if st.token_indices.size == n:
                continue
            sums = pruning.expand_state_mask(st, ledger).sum(axis=0)
            want = np.array([cached_gate.get(t, 0.0) for t in range(n)])
            want[st.token_indices] = st.mask.sum(axis=0)
            _require(float(np.abs(sums - want).max()) <= 1e-6,
                     "expand_state_mask does not conserve column mass within 1e-6")
        mac_check(res.states, self.mc)
        return {"digest": _digest(ledger_text, tokens_blob)}


class TrainWorkload:
    """``depvit train-toy`` on the acceptance toy geometry."""

    name = "train-toy64"
    pass_len = 1  # every request trains on the same data
    samples = 32
    steps = 10
    batch = 8
    items_per_request = steps * batch

    def __init__(self, seed: int):
        self.seed = seed
        self.reference_losses = None

    def setup(self, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        self.dir = workdir
        self.config_path = workdir / "toy.cfg"
        self.config_path.write_text(_config_text(
            image_size=128, patch_size=16, channels=32, heads=4, layers=4,
            num_classes=2, seed=self.seed))
        self.mc = fileio.load_config(self.config_path).to_model_config()
        # train-toy generates its scenes in memory; the data module runs only here
        self.data = data.blob_dataset(self.samples, seed=self.seed, grid=self.mc.grid,
                                      patch=self.mc.patch_size)
        warm = model.model_forward(self.data[0].image, self.mc, model.init_weights(self.mc))
        mac_check(warm.states, self.mc)

    def request(self, i: int):
        cfg = fileio.load_config(self.config_path)
        result = train.toy_train(self.data, cfg.to_model_config(), steps=self.steps,
                                 lr=1e-3, seed=self.seed, batch_size=self.batch)
        out_path = self.dir / "train.json"
        fileio.write_json(out_path, {
            "losses": result.losses,
            "final_loss": result.losses[-1] if result.losses else None,
            "accuracy": result.accuracy,
        })
        return result

    def check(self, i: int, result) -> dict:
        losses = result.losses
        _require(len(losses) == self.steps, f"{len(losses)} losses for {self.steps} steps")
        _require(all(math.isfinite(v) for v in losses), "non-finite loss")
        for name, t in result.weights.named_tensors().items():
            _require(bool(np.isfinite(t.data).all()), f"non-finite weight {name}")
        # every request trains from the same seed, so the runs must agree bit for bit
        if self.reference_losses is None:
            self.reference_losses = list(losses)
        _require(losses == self.reference_losses, "losses differ between identical requests")
        return {"digest": _digest(repr(losses).encode(), repr(result.accuracy).encode()),
                "loss_final": losses[-1]}


WORKLOADS = {w.name: w for w in (ParseWorkload, PruneWorkload, TrainWorkload)}
