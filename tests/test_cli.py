"""End-to-end tests of the command-line interface via its run() entry."""

import inspect
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import depvit

from depvit.cli import build_parser, run
from depvit.evalkit import LabelGrid, saliency_metrics
from depvit.fileio import (
    grid_to_json_dict,
    read_container,
    save_weights,
    tree_from_json_dict,
    write_container,
    write_json,
    write_ppm,
)
from depvit.model import ModelConfig, init_weights
from depvit.pruning import PruneLedger
from depvit.tensor import grad_check
from depvit.train import toy_train


SMALL_CFG = (
    "image_size=64\npatch_size=16\nchannels=16\nheads=4\n"
    "layers=2\nnum_classes=3\nseed=1\n"
)


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    mc = ModelConfig(image_size=64, patch_size=16, channels=16, heads=4,
                     layers=2, num_classes=3, seed=1)
    weights = tmp_path / "w.dvtn"
    save_weights(weights, init_weights(mc))
    image = tmp_path / "x.ppm"
    write_ppm(image, np.random.default_rng(0).random((64, 64, 3)))
    return tmp_path, cfg, weights, image


class TestParse:
    def test_tree_from_image(self, workdir):
        d, cfg, weights, image = workdir
        out = d / "tree.json"
        dot = d / "tree.dot"
        mask = d / "mask.json"
        code = run(["parse", "--input", str(image), "--weights", str(weights),
                    "--config", str(cfg), "--out", str(out),
                    "--dot", str(dot), "--mask", str(mask)])
        assert code == 0
        tree = tree_from_json_dict(json.loads(out.read_text()))
        assert tree.size == 16
        assert dot.read_text().startswith("digraph")
        m = json.loads(mask.read_text())
        assert m["shape"] == [16, 16]
        # subtree labels were filled by the partitioning pass
        assert all(n["subtree"] >= 0 for n in json.loads(out.read_text())["nodes"])

    def test_layer_selection_changes_mask(self, workdir):
        d, cfg, weights, image = workdir
        m1, m2 = d / "m1.json", d / "m2.json"
        assert run(["parse", "--input", str(image), "--weights", str(weights),
                    "--config", str(cfg), "--out", str(d / "t1.json"),
                    "--mask", str(m1), "--layer", "1"]) == 0
        assert run(["parse", "--input", str(image), "--weights", str(weights),
                    "--config", str(cfg), "--out", str(d / "t2.json"),
                    "--mask", str(m2), "--layer", "2"]) == 0
        a = np.asarray(json.loads(m1.read_text())["data"])
        b = np.asarray(json.loads(m2.read_text())["data"])
        assert not np.array_equal(a, b)

    def test_layer_out_of_range(self, workdir):
        d, cfg, weights, image = workdir
        assert run(["parse", "--input", str(image), "--weights", str(weights),
                    "--config", str(cfg), "--layer", "3"]) == 2

    def test_token_container_input(self, workdir):
        d, cfg, weights, image = workdir
        tok = d / "tokens.dvtn"
        x = np.random.default_rng(2).standard_normal((16, 16)).astype(np.float32)
        write_container(tok, {"tokens": x})
        out = d / "tree.json"
        assert run(["parse", "--input", str(tok), "--weights", str(weights),
                    "--config", str(cfg), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["nodes"]) == 16

    def test_single_patch_image(self, workdir, tmp_path):
        d, _, _, _ = workdir
        cfg = tmp_path / "one.cfg"
        cfg.write_text("image_size=16\npatch_size=16\nchannels=16\nheads=4\n"
                       "layers=2\nnum_classes=3\nseed=1\n")
        mc = ModelConfig(image_size=16, patch_size=16, channels=16, heads=4,
                         layers=2, num_classes=3, seed=1)
        weights = tmp_path / "w1.dvtn"
        save_weights(weights, init_weights(mc))
        image = tmp_path / "one.ppm"
        write_ppm(image, np.random.default_rng(1).random((16, 16, 3)))
        out = tmp_path / "tree.json"
        assert run(["parse", "--input", str(image), "--weights", str(weights),
                    "--config", str(cfg), "--out", str(out)]) == 0
        tree = json.loads(out.read_text())
        assert len(tree["nodes"]) == 1
        assert tree["nodes"][0]["parent"] == -1
        assert tree["root"] == 0

    def test_missing_weights_names_path(self, workdir, capsys):
        d, cfg, _, image = workdir
        code = run(["parse", "--input", str(image),
                    "--weights", str(d / "absent.dvtn"), "--config", str(cfg)])
        assert code == 2
        assert "absent.dvtn" in capsys.readouterr().err

    def test_stdout_when_no_out(self, workdir, capsys):
        d, cfg, weights, image = workdir
        assert run(["parse", "--input", str(image), "--weights", str(weights),
                    "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "nodes" in payload

    def test_tree_at_paper_geometry(self, tmp_path):
        # 224 px in 16 px patches: the paper's 14 x 14 grid of 196 tokens
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG.replace("image_size=64", "image_size=224"))
        mc = ModelConfig(image_size=224, patch_size=16, channels=16, heads=4,
                         layers=2, num_classes=3, seed=1)
        weights = tmp_path / "w.dvtn"
        save_weights(weights, init_weights(mc))
        image = tmp_path / "x.ppm"
        write_ppm(image, np.random.default_rng(0).random((224, 224, 3)))
        out = tmp_path / "tree.json"
        assert run(["parse", "--input", str(image), "--weights", str(weights),
                    "--config", str(cfg), "--out", str(out)]) == 0
        tree = tree_from_json_dict(json.loads(out.read_text()))
        assert tree.size == 196
        tree.validate()


class TestPrune:
    def test_ledger_and_dense_tokens(self, workdir, tmp_path):
        d, _, _, image = workdir
        cfg = tmp_path / "lite.cfg"
        cfg.write_text(SMALL_CFG + "prune_layers=1,2\nkept_tokens=12,8\n")
        mc = ModelConfig(image_size=64, patch_size=16, channels=16, heads=4,
                         layers=2, num_classes=3, seed=1,
                         prune_schedule=((1, 12), (2, 8)))
        weights = tmp_path / "lw.dvtn"
        save_weights(weights, init_weights(mc))
        ledger_path = d / "ledger.json"
        tokens_path = d / "dense.dvtn"
        code = run(["prune", "--input", str(image), "--weights", str(weights),
                    "--config", str(cfg), "--ledger", str(ledger_path),
                    "--tokens", str(tokens_path)])
        assert code == 0
        led = PruneLedger.from_json_dict(json.loads(ledger_path.read_text()))
        led.validate()
        assert led.n_tokens == 16
        assert len(led.events) == 8
        dense = read_container(tokens_path)["tokens"]
        assert dense.shape == (16, 16)


class TestEval:
    def test_parts_perfect(self, workdir, capsys):
        d, _, _, _ = workdir
        g = grid_to_json_dict(LabelGrid.from_labels(np.array([[0, 0], [1, 1]])))
        p = d / "g.json"
        write_json(p, g)
        assert run(["eval-parts", "--pred", str(p), "--gt", str(p)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["miou"] == 1.0 and rep["macc"] == 1.0

    def test_parts_rejects_soft_labels(self, workdir):
        d, _, _, _ = workdir
        p = d / "soft.json"
        write_json(p, {"width": 2, "height": 1, "labels": [[0.5, 1.0]]})
        assert run(["eval-parts", "--pred", str(p), "--gt", str(p)]) == 2

    def test_saliency_hand_case(self, workdir, capsys):
        d, _, _, _ = workdir
        pred = d / "pred.json"
        gt = d / "gt.json"
        write_json(pred, {"width": 2, "height": 2,
                          "labels": [[0.9, 0.4], [0.6, 0.1]]})
        write_json(gt, {"width": 2, "height": 2, "labels": [[1, 1], [0, 0]]})
        assert run(["eval-saliency", "--pred", str(pred), "--gt", str(gt),
                    "--beta2", "0.3"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["max_f_beta"] == pytest.approx(0.8125)
        assert rep["iou"] == pytest.approx(1.0 / 3.0)

    def test_saliency_rejects_non_binary_reference(self, workdir):
        d, _, _, _ = workdir
        p = d / "x.json"
        write_json(p, {"width": 2, "height": 1, "labels": [[0.4, 0.8]]})
        assert run(["eval-saliency", "--pred", str(p), "--gt", str(p)]) == 2


    @pytest.mark.parametrize("beta2", ["nan", "inf", "-1"])
    def test_saliency_beta2_must_be_finite_non_negative(self, workdir, beta2):
        d, _, _, _ = workdir
        pred, gt = d / "pred.json", d / "gt.json"
        write_json(pred, {"width": 2, "height": 1, "labels": [[1.0, 0.0]]})
        write_json(gt, {"width": 2, "height": 1, "labels": [[1, 0]]})
        assert run(["eval-saliency", "--pred", str(pred), "--gt", str(gt),
                    "--beta2", beta2]) == 2


class TestFlopsGradcheckTrain:
    def test_flops_small_config(self, workdir, capsys):
        d, cfg, _, _ = workdir
        assert run(["flops", "--config", str(cfg)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["total"] == sum(rep["breakdown"].values())
        assert len(rep["per_layer"]) == 2

    def test_flops_table(self, workdir, capsys):
        d, cfg, _, _ = workdir
        assert run(["flops", "--config", str(cfg), "--table"]) == 0
        out = capsys.readouterr().out
        assert "attention" in out and "parameters" in out

    def test_flops_full_config_near_reported(self, tmp_path, capsys):
        cfg = tmp_path / "full.cfg"
        cfg.write_text("")  # defaults are the full-size model
        assert run(["flops", "--config", str(cfg)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["total"] - 1.3e9) / 1.3e9 < 0.10

    def test_gradcheck_passes(self, workdir, capsys):
        assert run(["gradcheck", "--seed", "0", "--tolerance", "1e-4"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"] is True
        assert rep["max_rel_error"] < 1e-4

    def test_gradcheck_fails_on_absurd_tolerance(self, workdir, capsys):
        assert run(["gradcheck", "--seed", "0", "--tolerance", "1e-12"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"] is False

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-4"])
    def test_gradcheck_tolerance_must_be_positive_finite(self, tolerance):
        assert run(["gradcheck", "--tolerance", tolerance]) == 2

    @pytest.mark.parametrize("lr", ["nan", "inf", "-0.1"])
    def test_train_toy_lr_must_be_finite_non_negative(self, workdir, lr):
        d, cfg, _, _ = workdir
        assert run(["train-toy", "--config", str(cfg), "--steps", "1",
                    "--samples", "2", "--lr", lr]) == 2

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--seed", "-1"],
        ["train-toy", "--steps", "1", "--samples", "2", "--seed", "-5"],
    ])
    def test_negative_seed_is_usage_error(self, workdir, capsys, argv):
        d, cfg, _, _ = workdir
        if argv[0] == "train-toy":
            argv = argv + ["--config", str(cfg)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err

    def test_train_toy_runs(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("image_size=128\npatch_size=16\nchannels=16\nheads=4\n"
                       "layers=2\nnum_classes=2\nseed=0\n")
        out = tmp_path / "train.json"
        code = run(["train-toy", "--config", str(cfg), "--steps", "3",
                    "--lr", "0.001", "--seed", "0", "--samples", "4",
                    "--batch", "2", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert len(rep["losses"]) == 3
        assert 0.0 <= rep["accuracy"] <= 1.0

    def test_flag_defaults_are_the_library_defaults(self):
        def default(fn, param):
            return inspect.signature(fn).parameters[param].default

        parser = build_parser()
        train = parser.parse_args(["train-toy", "--config", "toy.cfg"])
        assert (train.steps, train.lr, train.seed, train.batch) == (
            default(toy_train, "steps"), default(toy_train, "lr"),
            default(toy_train, "seed"), default(toy_train, "batch_size")) == (200, 3e-3, 0, 8)
        tolerance = parser.parse_args(["gradcheck"]).tolerance
        assert tolerance == default(grad_check, "tolerance") == 1e-4
        beta2 = parser.parse_args(["eval-saliency", "--pred", "p", "--gt", "g"]).beta2
        assert beta2 == default(saliency_metrics, "beta2") == 0.3


class TestUsage:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert run(["parse", "--input", "x.ppm"]) == 2

    def test_unknown_config_key(self, workdir, tmp_path):
        d, _, weights, image = workdir
        bad = tmp_path / "bad.cfg"
        bad.write_text("channel=16\n")
        assert run(["parse", "--input", str(image), "--weights", str(weights),
                    "--config", str(bad)]) == 2

    def test_temperature_is_not_a_config_key(self, tmp_path, capsys):
        # the head-selector temperature is the constant block.SELECTOR_TEMPERATURE
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG + "temperature=0.1\n")
        assert run(["flops", "--config", str(bad)]) == 2
        assert "unknown key 'temperature'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["flops", "parse", "prune", "train-toy"])
    def test_config_that_is_not_utf8_is_usage_error(self, workdir, tmp_path, capsys,
                                                    command):
        d, _, weights, image = workdir
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfe" + SMALL_CFG.encode("utf-16-le"))
        extra = {
            "flops": [],
            "parse": ["--input", str(image), "--weights", str(weights)],
            "prune": ["--input", str(image), "--weights", str(weights),
                      "--ledger", str(tmp_path / "ledger.json")],
            "train-toy": ["--steps", "1", "--samples", "2"],
        }[command]
        assert run([command, "--config", str(bad), *extra]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and "Traceback" not in err

    def test_unsupported_input_extension(self, workdir, tmp_path):
        d, cfg, weights, _ = workdir
        p = tmp_path / "x.png"
        p.write_bytes(b"\x89PNG")
        assert run(["parse", "--input", str(p), "--weights", str(weights),
                    "--config", str(cfg)]) == 2

    def test_corrupt_container_is_usage_error(self, workdir, tmp_path):
        d, cfg, _, image = workdir
        bad = tmp_path / "bad.dvtn"
        bad.write_bytes(b"XXXX" + bytes(8))
        assert run(["parse", "--input", str(image), "--weights", str(bad),
                    "--config", str(cfg)]) == 2

    def test_unrepresentable_input_shape_is_usage_error(self, workdir, tmp_path, capsys):
        # one empty entry whose extents 0 x (2^32-1)^3 overflow numpy's size
        d, cfg, weights, _ = workdir
        bad = tmp_path / "bad.dvtn"
        bad.write_bytes(b"DVTN" + struct.pack("<II", 1, 1) + struct.pack("<I", 6) + b"tokens"
                        + struct.pack("<6I", 0, 4, 0, *(2**32 - 1,) * 3))
        assert run(["parse", "--input", str(bad), "--weights", str(weights),
                    "--config", str(cfg)]) == 2
        assert "shape" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"width": 2, "height": 1e400, "labels": [[0, 1]]}',
        '{"width": 2, "height": 1, "labels": [[0, 1%s]]}' % ("0" * 400),
    ])
    def test_overflowing_grid_is_usage_error(self, tmp_path, text):
        p = tmp_path / "g.json"
        p.write_text(text)
        assert run(["eval-parts", "--pred", str(p), "--gt", str(p)]) == 2

    @pytest.mark.parametrize("command", ["parse", "prune"])
    @pytest.mark.parametrize("bad", ["narrow", "nan"])
    def test_token_input_must_fit_config(self, workdir, tmp_path, capsys, command, bad):
        d, cfg, weights, _ = workdir
        x = np.random.default_rng(2).standard_normal((16, 16)).astype(np.float32)
        if bad == "narrow":
            x = x[:, :4]  # (16, 4) against 16 channels
        else:
            x[3, 5] = np.nan
        tok = tmp_path / "tokens.dvtn"
        write_container(tok, {"tokens": x})
        argv = [command, "--input", str(tok), "--weights", str(weights), "--config", str(cfg)]
        if command == "prune":
            argv += ["--ledger", str(tmp_path / "ledger.json")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "tokens.dvtn" in err and "check failed" not in err

    @pytest.mark.parametrize("label", ["Infinity", "1e300", "NaN"])
    def test_part_labels_must_fit_int64(self, tmp_path, capsys, label):
        p = tmp_path / "g.json"
        p.write_text('{"width": 2, "height": 1, "labels": [[0, %s]]}' % label)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["eval-parts", "--pred", str(p), "--gt", str(p)]) == 2
        assert "int64" in capsys.readouterr().err

    @pytest.mark.parametrize("labels", [[[0, 2]], [[-3, 0]]])
    def test_part_labels_must_be_dense(self, tmp_path, capsys, labels):
        p = tmp_path / "g.json"
        write_json(p, {"width": 2, "height": 1, "labels": labels})
        assert run(["eval-parts", "--pred", str(p), "--gt", str(p)]) == 2
        err = capsys.readouterr().err
        assert "g.json" in err and "check failed" not in err

    @pytest.mark.parametrize("command", ["eval-parts", "eval-saliency"])
    def test_grid_without_cells_is_usage_error(self, tmp_path, capsys, command):
        p = tmp_path / "g.json"
        write_json(p, {"width": 0, "height": 1, "labels": [[]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--pred", str(p), "--gt", str(p)]) == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval-parts", "eval-saliency"])
    def test_grids_of_different_size_are_usage_error(self, tmp_path, capsys, command):
        pred, gt = tmp_path / "pred.json", tmp_path / "gt.json"
        write_json(pred, {"width": 2, "height": 1, "labels": [[0, 1]]})
        write_json(gt, {"width": 1, "height": 2, "labels": [[0], [1]]})
        assert run([command, "--pred", str(pred), "--gt", str(gt)]) == 2
        err = capsys.readouterr().err
        assert "2x1" in err and "1x2" in err and "check failed" not in err

    @pytest.mark.parametrize("command", ["parse", "prune"])
    def test_non_finite_weights_are_usage_error(self, workdir, tmp_path, capsys, command):
        d, cfg, weights, image = workdir
        entries = read_container(weights)
        entries["block00.w_q"][0, 0] = np.nan
        bad = tmp_path / "nan.dvtn"
        write_container(bad, entries)
        argv = [command, "--input", str(image), "--weights", str(bad), "--config", str(cfg)]
        if command == "prune":
            argv += ["--ledger", str(tmp_path / "ledger.json")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "block00.w_q" in err and "check failed" not in err

    def test_fractional_grid_size_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        p.write_text('{"width": 2, "height": 2.9, "labels": [[0, 1], [1, 0]]}')
        assert run(["eval-parts", "--pred", str(p), "--gt", str(p)]) == 2
        assert "whole numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("height", ["true", '"2"'])
    def test_non_integer_grid_size_is_usage_error(self, tmp_path, capsys, height):
        p = tmp_path / "g.json"
        p.write_text('{"width": 2, "height": %s, "labels": [[0, 1], [1, 0]]}' % height)
        assert run(["eval-parts", "--pred", str(p), "--gt", str(p)]) == 2
        assert "whole numbers" in capsys.readouterr().err

    def test_layer_is_checked_before_the_weights_load(self, workdir, tmp_path, capsys):
        d, cfg, _, image = workdir
        junk = tmp_path / "junk.dvtn"
        junk.write_bytes(b"not a container")
        assert run(["parse", "--input", str(image), "--weights", str(junk),
                    "--config", str(cfg), "--layer", "3"]) == 2
        assert "--layer 3 outside 1..2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["flops", "parse", "prune", "train-toy"])
    def test_min_part_size_is_checked_at_load(self, workdir, tmp_path, capsys, command):
        d, _, _, image = workdir
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG + "min_part_size=2\n")
        junk = tmp_path / "junk.dvtn"  # never read: the config fails first
        junk.write_bytes(b"not a container")
        argv = [command, "--config", str(bad)]
        if command in ("parse", "prune"):
            argv += ["--input", str(image), "--weights", str(junk)]
        if command == "prune":
            argv += ["--ledger", str(tmp_path / "ledger.json")]
        if command == "train-toy":
            argv += ["--steps", "1", "--samples", "2"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "min_part_size" in err and "check failed" not in err

    def test_saliency_rejects_nan_prediction(self, tmp_path, capsys):
        pred, gt = tmp_path / "pred.json", tmp_path / "gt.json"
        pred.write_text('{"width": 2, "height": 2, "labels": [[NaN, 1], [1, 0]]}')
        write_json(gt, {"width": 2, "height": 2, "labels": [[0, 1], [1, 0]]})
        assert run(["eval-saliency", "--pred", str(pred), "--gt", str(gt)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_determinism_across_invocations(self, workdir):
        d, cfg, weights, image = workdir
        o1, o2 = d / "a.json", d / "b.json"
        for o in (o1, o2):
            assert run(["parse", "--input", str(image), "--weights", str(weights),
                        "--config", str(cfg), "--out", str(o)]) == 0
        assert o1.read_text() == o2.read_text()


def test_import_leaves_scipy_optimize_unloaded():
    # part metrics import scipy.optimize and the Fiedler vector scipy.linalg
    # on first use; importing the CLI must not pay for either
    src = str(Path(depvit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, depvit.cli; "
            "sys.exit('scipy.optimize' in sys.modules or 'scipy.linalg' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
