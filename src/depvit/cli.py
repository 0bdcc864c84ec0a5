"""Command-line surface: parse, prune, eval, cost, gradient check, training.

Every command reads what it needs from files, emits JSON to --out (or
standard output), and exits 0 on success, 1 when a computed check or
metric fails, 2 on bad usage or malformed input.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import tensor as tn
from .block import block_probe_loss, init_block_weights
from .costs import model_cost
from .data import blob_dataset
from .errors import (
    FormatError,
    IntegrityError,
    NumericError,
    ShapeError,
    TrainingError,
    UsageError,
)
from .evalkit import LabelGrid, part_metrics, saliency_metrics
from .fileio import (
    load_config,
    load_grid_values,
    load_weights,
    mask_to_json_dict,
    read_container,
    read_ppm,
    tree_to_dot,
    tree_to_json_dict,
    write_container,
    write_json,
)
from .model import model_forward
from .pruning import expand_state_mask, retrieve_dense
from .tensor import grad_check
from .train import toy_train
from .tree import aggregate_masks, induce_tree, partition_subtrees


def _default(fn, param: str):
    """The library's default for ``fn(param=...)``, so a flag never restates it."""
    return inspect.signature(fn).parameters[param].default


def _emit(payload: dict, out: str | None) -> None:
    if out:
        write_json(out, payload)
    else:
        print(json.dumps(payload, indent=2))


def _load_input(path: str, config) -> np.ndarray:
    suffix = Path(path).suffix.lower()
    if suffix == ".ppm":
        return read_ppm(path)
    if suffix == ".dvtn":
        tokens = read_container(path).get("tokens")
        want = (config.tokens, config.channels)
        if tokens is None or tokens.shape != want:
            found = "no 'tokens' entry" if tokens is None else f"'tokens' shaped {tokens.shape}"
            raise FormatError(f"{path}: {found}, config wants {want}")
        if not np.isfinite(tokens).all():
            raise FormatError(f"{path}: 'tokens' holds non-finite values")
        return tokens
    raise UsageError(f"unsupported input {path!r}; expected .ppm or .dvtn")


def _forward(args, config):
    weights = load_weights(args.weights, config)
    return model_forward(_load_input(args.input, config), config, weights)


def _cmd_parse(args) -> int:
    cfg = load_config(args.config)
    if args.layer is not None and not 1 <= args.layer <= cfg.layers:
        raise UsageError(f"--layer {args.layer} outside 1..{cfg.layers}")
    res = _forward(args, cfg)
    if args.layer is not None:
        mask = expand_state_mask(res.states[args.layer - 1], res.ledger)
    else:
        mask = aggregate_masks(res.states, res.ledger)
    tree = induce_tree(mask)
    partition_subtrees(tree, min_size=cfg.min_part_size)
    _emit(tree_to_json_dict(tree), args.out)
    if args.dot:
        Path(args.dot).write_text(tree_to_dot(tree))
    if args.mask:
        write_json(args.mask, mask_to_json_dict(mask))
    return 0


def _cmd_prune(args) -> int:
    res = _forward(args, load_config(args.config))
    write_json(args.ledger, res.ledger.to_json_dict())
    if args.tokens:
        dense = retrieve_dense(res.tokens, res.ledger)
        write_container(args.tokens, {"tokens": dense})
    return 0


def _grid_pair(args) -> tuple[np.ndarray, np.ndarray]:
    pred, gt = load_grid_values(args.pred), load_grid_values(args.gt)
    if pred.shape != gt.shape:
        raise UsageError(f"{args.pred} is {pred.shape[1]}x{pred.shape[0]} but "
                         f"{args.gt} is {gt.shape[1]}x{gt.shape[0]}")
    return pred, gt


def _int_grid(path: str, arr: np.ndarray) -> LabelGrid:
    if not np.all((arr == np.rint(arr)) & (np.abs(arr) < 2.0 ** 63)):  # NaN, inf fail
        raise UsageError(f"{path}: part labels must be integers that fit int64")
    try:
        return LabelGrid.from_labels(arr.astype(np.int64))
    except ShapeError as exc:  # a label below -1, or labels that are not dense
        raise UsageError(f"{path}: {exc}") from exc


def _cmd_eval_parts(args) -> int:
    pred, gt = _grid_pair(args)
    rep = part_metrics(_int_grid(args.pred, pred), _int_grid(args.gt, gt))
    _emit(rep.to_json_dict(), args.out)
    return 0


def _cmd_eval_saliency(args) -> int:
    pred, gt = _grid_pair(args)
    if not np.all((gt == 0) | (gt == 1)):
        raise UsageError(f"{args.gt}: reference mask must be binary")
    rep = saliency_metrics(pred, gt.astype(np.int64), beta2=args.beta2)
    _emit(rep.to_json_dict(), args.out)
    return 0


def _cmd_flops(args) -> int:
    rep = model_cost(load_config(args.config))
    if args.table:
        print(rep.table())
    else:
        _emit(rep.to_json_dict(), args.out)
    return 0


def _cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise UsageError(f"seed {args.seed} must be >= 0")
    rng = np.random.default_rng(args.seed)
    n, c, h = 6, 8, 2
    weights = init_block_weights(c, h, rng, dtype=np.float64)
    inputs = [
        tn.tensor(rng.standard_normal((n, c)), dtype=np.float64),
        tn.tensor(rng.uniform(0.5, 1.0, size=(n,)), dtype=np.float64),
        *weights.named_tensors().values(),
    ]
    report = grad_check(
        lambda ins: block_probe_loss(ins, weights),
        inputs,
        tolerance=args.tolerance,
    )
    _emit(asdict(report), args.out)
    return 0 if report.passed else 1


def _cmd_train_toy(args) -> int:
    cfg = load_config(args.config)
    data = blob_dataset(args.samples, seed=args.seed,
                        grid=cfg.grid, patch=cfg.patch_size)
    result = toy_train(data, cfg, steps=args.steps, lr=args.lr,
                       seed=args.seed, batch_size=args.batch)
    _emit(
        {
            "losses": result.losses,
            "final_loss": result.losses[-1] if result.losses else None,
            "accuracy": result.accuracy,
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depvit",
        description="Dependency-structured attention: trees, pruning, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="induce a dependency tree from an input")
    p.add_argument("--input", required=True, help="image.ppm or tokens.dvtn")
    p.add_argument("--weights", required=True, help="model weights container")
    p.add_argument("--config", required=True, help="key=value run config")
    p.add_argument("--out", help="tree JSON path (default: stdout)")
    p.add_argument("--dot", help="also write Graphviz DOT here")
    p.add_argument("--mask", help="also write the dependency mask JSON here")
    p.add_argument("--layer", type=int,
                   help="use this block's mask (1-based); default: mean over blocks")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("prune", help="run the token-pruning forward pass")
    p.add_argument("--input", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--ledger", required=True, help="prune journal JSON path")
    p.add_argument("--tokens", help="write retrieved dense tokens here (.dvtn)")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("eval-parts", help="matched part IoU/accuracy")
    p.add_argument("--pred", required=True, help="predicted grid JSON")
    p.add_argument("--gt", required=True, help="reference grid JSON")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval_parts)

    p = sub.add_parser("eval-saliency", help="foreground mask quality")
    p.add_argument("--pred", required=True, help="soft mask grid JSON")
    p.add_argument("--gt", required=True, help="binary mask grid JSON")
    p.add_argument("--beta2", type=float, default=_default(saliency_metrics, "beta2"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval_saliency)

    p = sub.add_parser("flops", help="arithmetic cost of a configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--table", action="store_true",
                   help="print a human-readable table instead of JSON")
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("gradcheck", help="finite-difference check of the block")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=_default(grad_check, "tolerance"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("train-toy", help="train a small model on blob scenes")
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=int, default=_default(toy_train, "steps"))
    p.add_argument("--lr", type=float, default=_default(toy_train, "lr"))
    p.add_argument("--seed", type=int, default=_default(toy_train, "seed"))
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--batch", type=int, default=_default(toy_train, "batch_size"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_train_toy)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (UsageError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, IntegrityError, ShapeError, TrainingError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(run())
