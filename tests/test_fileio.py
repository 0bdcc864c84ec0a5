"""Tests for the tensor container, PPM reader, config parser, and tree JSON."""

import itertools
import json
import os
import struct
import tracemalloc
import warnings
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depvit.errors import ConfigError, DepvitError, FormatError, IntegrityError, UsageError
from depvit.fileio import (
    _KEY_PARSERS,
    RunConfig,
    load_grid_values,
    load_weights,
    mask_to_json_dict,
    parse_config,
    read_container,
    read_ppm,
    save_weights,
    tree_from_json_dict,
    tree_to_dot,
    tree_to_json_dict,
    write_container,
    write_json,
    write_ppm,
)
from depvit.model import ModelConfig, init_weights, parameter_shapes
from depvit.tree import DependencyTree
from oracles import explicit_model_init


def container_header(count: int) -> bytes:
    return b"DVTN" + struct.pack("<II", 1, count)


def entry_header(name: str, code: int, shape) -> bytes:
    raw = name.encode("utf-8")
    return (struct.pack("<I", len(raw)) + raw + struct.pack("<II", code, len(shape))
            + struct.pack(f"<{len(shape)}I", *shape))


class TestContainer:
    def test_round_trip_bit_identical_both_dtypes(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "t.dvtn"
        for dtype in (np.float32, np.float64):
            entries = {
                "m": rng.standard_normal((5, 3)).astype(dtype),
                "v": rng.standard_normal(7).astype(dtype),
                "s": rng.standard_normal(()).astype(dtype),
            }
            write_container(path, entries)
            back = read_container(path)
            assert list(back) == ["m", "v", "s"]
            for k in entries:
                assert back[k].dtype == entries[k].dtype
                assert back[k].shape == entries[k].shape
                assert back[k].tobytes() == entries[k].tobytes()

    def test_rejects_unsupported_dtype(self, tmp_path):
        with pytest.raises(UsageError):
            write_container(tmp_path / "x.dvtn", {"a": np.zeros(2, dtype=np.int32)})

    def test_bad_magic_offset_zero(self, tmp_path):
        p = tmp_path / "x.dvtn"
        p.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(FormatError) as err:
            read_container(p)
        assert "byte offset 0" in str(err.value)

    def test_bad_version_offset_four(self, tmp_path):
        p = tmp_path / "x.dvtn"
        p.write_bytes(b"DVTN" + struct.pack("<I", 9) + struct.pack("<I", 0))
        with pytest.raises(FormatError) as err:
            read_container(p)
        assert "byte offset 4" in str(err.value)

    def test_truncated_payload_reports_offset(self, tmp_path):
        p = tmp_path / "x.dvtn"
        good = tmp_path / "good.dvtn"
        write_container(good, {"a": np.ones((2, 2), dtype=np.float32)})
        raw = good.read_bytes()
        p.write_bytes(raw[:-4])
        with pytest.raises(FormatError) as err:
            read_container(p)
        assert "payload" in str(err.value)
        assert "byte offset" in str(err.value)

    def test_unknown_dtype_code(self, tmp_path):
        buf = b"DVTN" + struct.pack("<I", 1) + struct.pack("<I", 1)
        buf += struct.pack("<I", 1) + b"a" + struct.pack("<I", 7)
        p = tmp_path / "x.dvtn"
        p.write_bytes(buf)
        with pytest.raises(FormatError) as err:
            read_container(p)
        assert "dtype code 7" in str(err.value)

    def test_duplicate_names_rejected(self, tmp_path):
        one = b"\x00" * 4  # f32 scalar payload needs dtype/rank first; build by hand
        entry = struct.pack("<I", 1) + b"a" + struct.pack("<I", 0) \
            + struct.pack("<I", 0) + struct.pack("<f", 1.0)
        buf = b"DVTN" + struct.pack("<I", 1) + struct.pack("<I", 2) + entry + entry
        p = tmp_path / "x.dvtn"
        p.write_bytes(buf)
        with pytest.raises(FormatError) as err:
            read_container(p)
        assert "duplicate" in str(err.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        good = tmp_path / "good.dvtn"
        write_container(good, {"a": np.ones(2, dtype=np.float32)})
        p = tmp_path / "x.dvtn"
        p.write_bytes(good.read_bytes() + b"junk")
        with pytest.raises(FormatError) as err:
            read_container(p)
        assert "trailing" in str(err.value)

    def test_empty_entry_with_overflowing_extents(self, tmp_path):
        # zero payload bytes, but numpy cannot build a 0 x (2^32-1)^3 array
        p = tmp_path / "x.dvtn"
        p.write_bytes(container_header(1) + entry_header("a", 0, (0,) + (2**32 - 1,) * 3))
        with pytest.raises(FormatError) as err:
            read_container(p)
        assert "shape" in str(err.value)

    def test_empty_entries_round_trip(self, tmp_path):
        p = tmp_path / "x.dvtn"
        write_container(p, {"a": np.zeros((0, 3)), "b": np.zeros((2, 0, 5), dtype=np.float32)})
        back = read_container(p)
        assert back["a"].shape == (0, 3) and back["b"].shape == (2, 0, 5)

    def test_huge_entry_in_a_small_file_is_not_allocated(self, tmp_path, monkeypatch):
        # a (65536, 65536) float64 entry declares 32 GiB of payload
        head = container_header(1) + entry_header("a", 1, (65536, 65536))
        p = tmp_path / "x.dvtn"
        p.write_bytes(head + b"\x00" * 16)
        allocated = []

        def recording_empty(*args, **kwargs):
            allocated.append(args)
            return empty(*args, **kwargs)

        empty = np.empty
        monkeypatch.setattr(np, "empty", recording_empty)
        with pytest.raises(FormatError) as err:
            read_container(p)
        assert err.value.offset == len(head)
        assert str(err.value) == f"truncated while reading payload of 'a' (byte offset {len(head)})"
        assert allocated == []

    @pytest.mark.parametrize("code, shape", [
        (1, (2**32 - 1,) * 3 + (0,)),
        (0, (2**31, 0, 2**31, 2**31)),
        (1, (0,) * 65),
    ])
    def test_empty_entry_numpy_cannot_shape(self, tmp_path, code, shape):
        head = container_header(1) + entry_header("a", code, shape)
        p = tmp_path / "x.dvtn"
        p.write_bytes(head)
        with pytest.raises(FormatError) as err:
            read_container(p)
        assert "unrepresentable shape" in str(err.value)
        assert err.value.offset == len(head)

    @pytest.mark.parametrize("resize, message", [
        (lambda raw: raw[:-8], "truncated while reading payload of 'a' (byte offset 33)"),
        (lambda raw: raw + b"junk", "trailing bytes after final entry (byte offset 49)"),
    ])
    def test_file_changing_size_after_open(self, tmp_path, monkeypatch, resize, message):
        # checks use the size taken at open; the reads find the real bytes
        good = tmp_path / "good.dvtn"
        write_container(good, {"a": np.ones((2, 2), dtype=np.float32)})
        raw = good.read_bytes()
        assert len(raw) == 49
        p = tmp_path / "x.dvtn"
        p.write_bytes(resize(raw))
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=len(raw)))
        with pytest.raises(FormatError) as err:
            read_container(p)
        assert str(err.value) == message

    def test_every_cut_reports_the_field_it_cuts(self, tmp_path):
        # one float32 entry 'a' of shape (3, 1): each header field's offset
        # and name, then the 12-byte payload
        fields = [(0, "magic"), (4, "version"), (8, "entry count"),
                  (12, "name length of entry 0"), (16, "name of entry 0"),
                  (17, "dtype of 'a'"), (21, "rank of 'a'"), (25, "extent 0 of 'a'"),
                  (29, "extent 1 of 'a'"), (33, "payload of 'a'")]
        raw = container_header(1) + entry_header("a", 0, (3, 1)) + b"\x00" * 12
        assert len(raw) == 45
        p = tmp_path / "x.dvtn"
        for cut in range(len(raw)):
            offset, what = [f for f in fields if f[0] <= cut][-1]
            p.write_bytes(raw[:cut])
            with pytest.raises(FormatError) as err:
                read_container(p)
            assert err.value.offset == offset
            assert str(err.value) == f"truncated while reading {what} (byte offset {offset})"

    def test_unknown_dtype_is_reported_before_a_cut_rank(self, tmp_path):
        p = tmp_path / "x.dvtn"
        p.write_bytes(container_header(1) + entry_header("a", 7, (2,))[:11])
        with pytest.raises(FormatError) as err:
            read_container(p)
        assert str(err.value) == "unknown dtype code 7 (byte offset 17)"

    def test_rank_above_numpy_limit_is_refused_before_its_extents(self, tmp_path):
        # the tiny weights (22.9 MB) with the first entry's rank set to
        # 2^32-1: unpacked as extents, the rest of the file would take
        # hundreds of MB before a cut extent was reported
        p = tmp_path / "w.dvtn"
        save_weights(p, init_weights(ModelConfig()))
        raw = bytearray(p.read_bytes())
        rank_at = len(container_header(1)) + 4 + len("patch_proj") + 4
        assert struct.unpack_from("<I", raw, rank_at) == (2,)
        struct.pack_into("<I", raw, rank_at, 2**32 - 1)
        p.write_bytes(raw)
        del raw
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as err:
                read_container(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(err.value) == ("rank 4294967295 of 'patch_proj' is above numpy's "
                                  f"64 dimensions (byte offset {rank_at})")
        assert peak < 1e6

    @pytest.mark.parametrize("rank", [65, 2**32 - 1])
    def test_rank_above_numpy_limit_is_named_when_its_extents_overrun(self, tmp_path, rank):
        # 8 bytes follow the rank: two extents' worth, far fewer than it declares
        p = tmp_path / "x.dvtn"
        p.write_bytes(container_header(1) + struct.pack("<I", 1) + b"a"
                      + struct.pack("<II", 0, rank) + b"\x00" * 8)
        with pytest.raises(FormatError) as err:
            read_container(p)
        assert str(err.value) == (f"rank {rank} of 'a' is above numpy's 64 dimensions"
                                  " (byte offset 21)")

    def test_arrays_are_fresh_aligned_and_writable(self, tmp_path):
        cfg = ModelConfig(image_size=32, patch_size=16, channels=8, heads=2,
                          layers=2, num_classes=4, seed=3)
        p = tmp_path / "w.dvtn"
        save_weights(p, init_weights(cfg))
        entries = read_container(p)
        loaded = {k: t.data for k, t in load_weights(p, cfg).named_tensors().items()}
        for arrays in (entries, loaded):
            assert len(arrays) == len(parameter_shapes(cfg))
            for arr in arrays.values():
                assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous
            for a, b in itertools.combinations(arrays.values(), 2):
                assert not np.shares_memory(a, b)

    def test_writer_bytes_match_hand_built_file(self, tmp_path):
        m = np.arange(6, dtype=np.float32).reshape(2, 3)
        s = np.float64(-2.5)
        strided = np.arange(8.0)[::2]
        p = tmp_path / "x.dvtn"
        write_container(p, {"m": m, "s": s, "strided": strided, "\u00e9": np.zeros((0, 2))})
        expected = (container_header(4)
                    + entry_header("m", 0, (2, 3)) + struct.pack("<6f", 0, 1, 2, 3, 4, 5)
                    + entry_header("s", 1, ()) + struct.pack("<d", -2.5)
                    + entry_header("strided", 1, (4,)) + struct.pack("<4d", 0, 2, 4, 6)
                    + entry_header("\u00e9", 1, (0, 2)))
        assert p.read_bytes() == expected

    def test_rejected_entry_leaves_no_file(self, tmp_path):
        p = tmp_path / "x.dvtn"
        with pytest.raises(UsageError):
            write_container(p, {"a": np.ones(2), "b": np.zeros(2, dtype=np.int32)})
        assert not p.exists()


class TestWeightsIO:
    def test_save_load_round_trip(self, tmp_path):
        cfg = ModelConfig(image_size=32, patch_size=16, channels=8, heads=2,
                          layers=2, num_classes=4, seed=3)
        w = init_weights(cfg)
        p = tmp_path / "w.dvtn"
        save_weights(p, w)
        back = load_weights(p, cfg)
        for name, t in w.named_tensors().items():
            np.testing.assert_array_equal(t.data, back.named_tensors()[name].data)

    def test_entry_order_is_table_order(self, tmp_path):
        cfg = ModelConfig(image_size=32, patch_size=16, channels=8, heads=2,
                          layers=2, num_classes=4, seed=3)
        p = tmp_path / "w.dvtn"
        save_weights(p, init_weights(cfg))
        assert list(read_container(p)) == list(parameter_shapes(cfg))

    @pytest.mark.parametrize("order", ["old", "reversed"])
    def test_any_entry_order_loads(self, tmp_path, order):
        cfg = ModelConfig(image_size=32, patch_size=16, channels=8, heads=2,
                          layers=2, num_classes=4, seed=3)
        entries = list(explicit_model_init(cfg).items())  # the old file order
        if order == "reversed":
            entries.reverse()
        p = tmp_path / "w.dvtn"
        write_container(p, dict(entries))
        back = load_weights(p, cfg).named_tensors()
        for name, t in init_weights(cfg).named_tensors().items():
            assert back[name].data.tobytes() == t.data.tobytes(), name

    def test_missing_entry_rejected(self, tmp_path):
        cfg = ModelConfig(image_size=32, patch_size=16, channels=8, heads=2,
                          layers=1, num_classes=4)
        w = init_weights(cfg)
        entries = dict(w.named_tensors())
        del entries["classifier_b"]
        p = tmp_path / "w.dvtn"
        write_container(p, {k: t.data for k, t in entries.items()})
        with pytest.raises(FormatError) as err:
            load_weights(p, cfg)
        assert "classifier_b" in str(err.value)

    def test_wrong_shape_rejected(self, tmp_path):
        cfg = ModelConfig(image_size=32, patch_size=16, channels=8, heads=2,
                          layers=1, num_classes=4)
        w = init_weights(cfg)
        entries = {k: t.data for k, t in w.named_tensors().items()}
        entries["patch_bias"] = np.zeros(9, dtype=np.float32)
        p = tmp_path / "w.dvtn"
        write_container(p, entries)
        with pytest.raises(FormatError):
            load_weights(p, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, tmp_path, bad):
        cfg = ModelConfig(image_size=32, patch_size=16, channels=8, heads=2,
                          layers=1, num_classes=4)
        entries = {k: t.data for k, t in init_weights(cfg).named_tensors().items()}
        entries["block00.w_q"][1, 2] = bad
        p = tmp_path / "w.dvtn"
        write_container(p, entries)
        with pytest.raises(FormatError) as err:
            load_weights(p, cfg)
        assert "block00.w_q" in str(err.value) and "non-finite" in str(err.value)


class TestPpm:
    def test_round_trip(self, tmp_path):
        img = np.random.default_rng(1).random((6, 4, 3))
        p = tmp_path / "x.ppm"
        write_ppm(p, img)
        back = read_ppm(p)
        assert back.shape == (6, 4, 3)
        assert np.abs(back - img).max() <= 0.5 / 255

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_is_refused_before_the_file(self, tmp_path, bad):
        # the uint8 cast turns NaN into 0 with only a RuntimeWarning
        img = np.full((2, 2, 3), 0.5, dtype=np.float32)
        img[1, 0, 2] = bad
        p = tmp_path / "x.ppm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match="non-finite"):
                write_ppm(p, img)
        assert not p.exists()

    def test_comments_and_whitespace(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6 # comment\n# another\n 2 1\n255\n" + bytes(6))
        img = read_ppm(p)
        assert img.shape == (1, 2, 3)

    def test_wrong_magic_offset(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P5\n2 1\n255\n" + bytes(6))
        with pytest.raises(FormatError) as err:
            read_ppm(p)
        assert "byte offset 0" in str(err.value)

    def test_non_numeric_width(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6\nxx 1\n255\n" + bytes(6))
        with pytest.raises(FormatError) as err:
            read_ppm(p)
        assert "byte offset 3" in str(err.value)

    def test_wrong_maxval(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6\n2 1\n65535\n" + bytes(6))
        with pytest.raises(FormatError):
            read_ppm(p)

    def test_truncated_pixels(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(FormatError) as err:
            read_ppm(p)
        assert "payload" in str(err.value)

    def test_trailing_pixel_bytes(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6\n1 1\n255\n" + bytes(4))
        with pytest.raises(FormatError):
            read_ppm(p)


class TestRunConfig:
    def test_defaults_are_full_size(self):
        cfg = parse_config("")
        mc = cfg.to_model_config()
        assert (mc.channels, mc.heads, mc.layers) == (192, 12, 12)
        assert mc.tokens == 196

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("imagesize=224")
        assert "unknown key" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("seed=1\nseed=2")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("layers=twelve")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("layers 12")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# top\n\nseed = 5\n  # indented comment\n")
        assert cfg.seed == 5

    def test_schedule_lists(self):
        cfg = parse_config("prune_layers=2,5,8,11\nkept_tokens=160,128,96,64")
        mc = cfg.to_model_config()
        assert mc.prune_schedule == ((2, 160), (5, 128), (8, 96), (11, 64))

    def test_declares_only_min_part_size_beyond_the_model_config(self):
        model_fields = [f.name for f in fields(ModelConfig)]
        assert [f.name for f in fields(RunConfig)] == model_fields + ["min_part_size"]
        assert len(_KEY_PARSERS) == 10
        assert set(_KEY_PARSERS) == (set(model_fields) - {"prune_schedule"}
                                     | {"prune_layers", "kept_tokens", "min_part_size"})

    def test_accepts_exactly_ten_keys(self):
        # a new key is a new setting: adding one means changing this test
        keys = {"image_size", "patch_size", "channels", "heads", "layers", "num_classes",
                "seed", "min_part_size", "prune_layers", "kept_tokens"}
        assert set(_KEY_PARSERS) == keys
        cfg = parse_config("image_size=64\npatch_size=16\nchannels=16\nheads=4\nlayers=3\n"
                           "num_classes=2\nseed=1\nmin_part_size=0.5\n"
                           "prune_layers=2\nkept_tokens=9\n")
        assert cfg.prune_schedule == ((2, 9),) and cfg.min_part_size == 0.5

    def test_model_config_is_the_projection(self):
        cfg = parse_config("image_size=64\nchannels=16\nheads=4\nlayers=3\n"
                           "prune_layers=2\nkept_tokens=9\nmin_part_size=0.5")
        mc = cfg.to_model_config()
        assert type(mc) is ModelConfig
        assert mc == ModelConfig(image_size=64, channels=16, heads=4, layers=3,
                                 prune_schedule=((2, 9),))

    @pytest.mark.parametrize("line", [
        "min_part_size=nan", "min_part_size=inf", "min_part_size=-inf",
    ])
    def test_non_finite_floats_rejected(self, line):
        with pytest.raises(ConfigError) as err:
            parse_config(line)
        assert "bad value" in str(err.value)

    @pytest.mark.parametrize("line", ["heads=0", "heads=-4", "channels=0", "seed=-1",
                                      "min_part_size=2", "min_part_size=-0.01"])
    def test_degenerate_model_values_rejected(self, line):
        with pytest.raises(ConfigError):
            parse_config(line)

    def test_mismatched_schedule_lists(self):
        with pytest.raises(ConfigError):
            parse_config("prune_layers=2,5\nkept_tokens=160")

    def test_schedule_validation_delegated(self):
        with pytest.raises(ConfigError) as err:
            parse_config("prune_layers=5,2\nkept_tokens=160,128")
        assert "strictly increasing" in str(err.value)


class TestTreeJson:
    def tree(self):
        return DependencyTree(
            parent=np.array([1, -1, 1, 2]),
            edge_weight=np.array([0.25, 1.5, 0.75, 0.125]),
            root=1,
        )

    def test_round_trip_topology_and_weights(self):
        t = self.tree()
        d = tree_to_json_dict(t)
        s = json.dumps(d)
        back = tree_from_json_dict(json.loads(s))
        np.testing.assert_array_equal(back.parent, t.parent)
        np.testing.assert_array_equal(back.edge_weight, t.edge_weight)
        np.testing.assert_array_equal(back.depth, t.depth)
        assert back.root == t.root

    def test_full_precision_weights(self):
        t = self.tree()
        t.edge_weight[0] = 1.0 / 3.0
        back = tree_from_json_dict(json.loads(json.dumps(tree_to_json_dict(t))))
        assert back.edge_weight[0] == t.edge_weight[0]

    def test_subtree_labels_survive(self):
        t = self.tree()
        t.subtree = np.array([0, 0, 1, 1])
        back = tree_from_json_dict(tree_to_json_dict(t))
        np.testing.assert_array_equal(back.subtree, [0, 0, 1, 1])

    def test_file_holds_the_arrays_in_token_order(self):
        t = self.tree()
        t.subtree = np.array([0, 0, 1, 1])
        assert tree_to_json_dict(t) == {
            "root": 1, "parent": [1, -1, 1, 2], "weight": [0.25, 1.5, 0.75, 0.125],
            "depth": [1, 0, 1, 2], "subtree": [0, 0, 1, 1]}

    def test_depth_is_recomputed_and_subtree_optional(self):
        d = tree_to_json_dict(self.tree())
        d["depth"] = [7, 7, 7, 7]
        del d["subtree"]
        back = tree_from_json_dict(d)
        np.testing.assert_array_equal(back.depth, self.tree().depth)
        np.testing.assert_array_equal(back.subtree, [-1, -1, -1, -1])

    def test_malformed_rejected(self):
        with pytest.raises(FormatError):
            tree_from_json_dict({"parent": [-1], "root": 0})
        with pytest.raises(FormatError):
            tree_from_json_dict({"parent": 5, "weight": [1.0], "root": 0})

    def test_node_list_layout_rejected(self):
        # the layout before the arrays: one object per node, keyed by id
        t = self.tree()
        d = {"nodes": [{"id": i, "parent": int(t.parent[i]), "weight": float(t.edge_weight[i]),
                        "depth": int(t.depth[i]), "subtree": -1} for i in range(t.size)],
             "root": 1}
        with pytest.raises(FormatError):
            tree_from_json_dict(d)

    @pytest.mark.parametrize("field, value", [
        ("parent", [1, -1, 1, 2, 2]),
        ("parent", [1, -1, 1]),
        ("weight", [0.25, 1.5, 0.75]),
        ("subtree", [0, 0, 1, 1, 1]),
        ("subtree", []),
    ])
    def test_arrays_must_have_equal_length(self, field, value):
        # the tree's own check, not the reader, ties the lengths together
        d = tree_to_json_dict(self.tree())
        d[field] = value
        with pytest.raises(IntegrityError):
            tree_from_json_dict(d)

    @pytest.mark.parametrize("field, index, value, error", [
        ("root", None, 4, IntegrityError),        # root out of range
        ("root", None, -1, IntegrityError),       # negative root must not wrap to the last node
        ("root", None, 2**70, IntegrityError),    # no node has it, though no int64 holds it
        ("root", None, -2**70, IntegrityError),
        ("parent", 0, 7, IntegrityError),         # parent out of range
        ("parent", 0, -2, IntegrityError),
        ("parent", 0, 2**63, FormatError),        # beyond int64: no array can hold it
    ])
    def test_root_and_parents_must_be_in_range(self, field, index, value, error):
        d = tree_to_json_dict(self.tree())
        if index is None:
            d[field] = value
        else:
            d[field][index] = value
        with pytest.raises(error):
            tree_from_json_dict(d)

    @pytest.mark.parametrize("field, index, value", [
        ("root", None, 1.5), ("root", None, True), ("root", None, "1"),
        ("parent", 0, 1.5), ("parent", 0, "1"), ("parent", 2, True),
        ("subtree", 0, 0.5), ("subtree", 0, "0"), ("subtree", 0, False),
    ])
    def test_root_parents_and_subtrees_must_be_whole_numbers(self, field, index, value):
        # int() would take each of these: 1.5 and True as 1, "1" as 1
        d = tree_to_json_dict(self.tree())
        if index is None:
            d[field] = value
        else:
            d[field][index] = value
        with pytest.raises(FormatError, match="whole numbers"):
            tree_from_json_dict(d)

    def test_whole_floats_load_as_ints(self):
        d = tree_to_json_dict(self.tree())
        d["root"] = 1.0
        d["parent"] = [float(p) for p in d["parent"]]
        d["subtree"] = [float(v) for v in d["subtree"]]
        back = tree_from_json_dict(d)
        np.testing.assert_array_equal(back.parent, self.tree().parent)
        assert back.root == 1 and type(back.root) is int

    @pytest.mark.parametrize("value", ['"0.25"', "true", "NaN", "Infinity", "-Infinity"])
    def test_weights_must_be_finite_numbers(self, value):
        # float() would take "0.25" and true, and NaN or Infinity as they are
        d = tree_to_json_dict(self.tree())
        d["weight"][0] = json.loads(value)
        with pytest.raises(FormatError):
            tree_from_json_dict(d)

    def test_invalid_topology_rejected(self):
        d = tree_to_json_dict(self.tree())
        d["parent"][1] = 0  # two-node cycle, no root
        with pytest.raises(IntegrityError):
            tree_from_json_dict(d)

    def test_dot_output(self):
        text = tree_to_dot(self.tree())
        assert text.startswith("digraph dependency {")
        assert 'n1 -> n0' in text
        assert "doublecircle" in text


class TestGridAndMaskJson:
    def test_mask_round_trip(self):
        m = np.random.default_rng(0).random((3, 3))
        d = json.loads(json.dumps(mask_to_json_dict(m)))
        assert d["shape"] == [3, 3]
        np.testing.assert_array_equal(np.asarray(d["data"]), m)

    def test_grid_values_round_trip(self, tmp_path):
        p = tmp_path / "g.json"
        write_json(p, {"width": 2, "height": 1, "labels": [[0.5, 1.0]]})
        arr = load_grid_values(p)
        np.testing.assert_array_equal(arr, [[0.5, 1.0]])

    def test_grid_without_cells_rejected(self, tmp_path):
        p = tmp_path / "g.json"
        write_json(p, {"width": 0, "height": 1, "labels": [[]]})
        with pytest.raises(FormatError):
            load_grid_values(p)

    def test_grid_size_mismatch(self, tmp_path):
        p = tmp_path / "g.json"
        write_json(p, {"width": 3, "height": 1, "labels": [[0.5, 1.0]]})
        with pytest.raises(FormatError):
            load_grid_values(p)

    @pytest.mark.parametrize("width, height", [(2, 2.9), (2.5, 2), (True, 2), ("2", 2)])
    def test_fractional_grid_size_rejected(self, tmp_path, width, height):
        p = tmp_path / "g.json"
        write_json(p, {"width": width, "height": height, "labels": [[0, 1], [1, 0]]})
        with pytest.raises(FormatError) as err:
            load_grid_values(p)
        assert "whole numbers" in str(err.value)

    @pytest.mark.parametrize("label", ['"1"', "true"])
    def test_grid_labels_must_be_numbers(self, tmp_path, label):
        # the float64 conversion would take each of these as 1.0
        p = tmp_path / "g.json"
        p.write_text('{"width": 2, "height": 1, "labels": [[0, %s]]}' % label)
        with pytest.raises(FormatError, match="real numbers"):
            load_grid_values(p)

    def test_whole_float_grid_size_accepted(self, tmp_path):
        p = tmp_path / "g.json"
        write_json(p, {"width": 2.0, "height": 1.0, "labels": [[0, 1]]})
        np.testing.assert_array_equal(load_grid_values(p), [[0.0, 1.0]])


# -- readers under generated input -------------------------------------------
# Every input either round-trips or raises a DepvitError, never anything else.

_EXTENTS = st.sampled_from([0, 1, 2, 3, 2**31, 2**32 - 1])


def _damage(draw, buf: bytearray, words) -> bytes:
    """Up to two cuts, byte flips, word overwrites or appended bytes."""
    for _ in range(draw(st.integers(0, 2))):
        if not buf:
            break
        at = draw(st.integers(0, len(buf) - 1))
        action = draw(st.sampled_from(["cut", "word", "byte", "append"]))
        if action == "cut":
            del buf[at:]
        elif action == "word":
            word = draw(words)
            buf[at:at + len(word)] = word
        elif action == "byte":
            buf[at] = draw(st.integers(0, 255))
        else:
            buf += draw(st.binary(min_size=1, max_size=8))
    return bytes(buf)


@st.composite
def container_bytes(draw):
    entries = draw(st.lists(
        st.tuples(st.text(max_size=3), st.integers(0, 2), st.lists(_EXTENTS, max_size=4)),
        max_size=3,
    ))
    buf = bytearray(container_header(len(entries)))
    for name, code, shape in entries:
        buf += entry_header(name, code, shape)
        size = int(np.prod(shape, dtype=object)) * (8 if code else 4)
        buf += draw(st.binary(min_size=min(size, 64), max_size=min(size, 64)))
    return _damage(draw, buf, _EXTENTS.map(lambda v: struct.pack("<I", v)))


_PPM_WORDS = st.sampled_from([b"0", b"-1", b"65535", b"9" * 30, b"1_0", b"#", b"P5", b"\n"])


@st.composite
def ppm_bytes(draw):
    """A valid P6 image, then possibly damaged."""
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gap = st.sampled_from(["\n", " ", "\t", " # note\n"])
    end = draw(st.sampled_from(["\n", " "]))  # exactly one byte before the pixels
    header = f"P6{draw(gap)}{w}{draw(gap)}{h}{draw(gap)}255{end}"
    buf = bytearray(header.encode()) + draw(st.binary(min_size=h * w * 3, max_size=h * w * 3))
    return _damage(draw, buf, _PPM_WORDS)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**16) | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=5), kids, max_size=3),
    max_leaves=12,
)


@st.composite
def tree_payloads(draw):
    """A valid tree, then possibly one field or entry replaced by a nearby
    integer or arbitrary JSON."""
    n = draw(st.integers(1, 5))
    order = draw(st.permutations(range(n)))
    parent = [-1] * n
    for k in range(1, n):
        parent[order[k]] = order[draw(st.integers(0, k - 1))]
    d = {"root": order[0], "parent": parent,
         "weight": draw(st.lists(st.floats(), min_size=n, max_size=n)),
         "subtree": draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))}
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(d)))
        value = draw(st.integers(-2, n + 1) | _JSON)
        if key != "root" and draw(st.booleans()):
            d[key][draw(st.integers(0, n - 1))] = value
        else:
            d[key] = value
    return d


_HUGE = st.integers(10**399, 10**401)
_ENTRY = st.floats() | st.integers(-3, 5) | _HUGE


@st.composite
def masks(draw):
    """A square float mask, as `parse --mask` writes it."""
    n = draw(st.integers(1, 3))
    return np.array(draw(st.lists(st.lists(st.floats(), min_size=n, max_size=n),
                                  min_size=n, max_size=n)))


@st.composite
def grid_payloads(draw):
    """A soft label grid as written, then possibly one field replaced."""
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    labels = draw(st.lists(st.lists(_ENTRY, min_size=w, max_size=w), min_size=h, max_size=h))
    d = {"width": w, "height": h, "labels": labels}
    if draw(st.booleans()):
        d[draw(st.sampled_from(["width", "height", "labels"]))] = draw(_HUGE | _JSON)
    return d


def _config_value_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else repr(value)


_CONFIG_KEYS = st.sampled_from(list(_KEY_PARSERS) + ["beta2"])
_CONFIG_VALUES = (
    st.integers(-3, 300).map(str)
    | st.floats().map(repr)
    | st.lists(st.integers(-2, 20), max_size=3).map(lambda v: ",".join(map(str, v)))
    | st.text(max_size=5)
)
_CONFIG_LINES = st.lists(
    st.tuples(_CONFIG_KEYS, _CONFIG_VALUES).map("=".join)
    | st.sampled_from(["", "# comment"])
    | st.text(max_size=8),
    max_size=6,
    unique_by=lambda line: line.partition("=")[0].strip(),
).map("\n".join)


class TestReaderProperties:
    @given(container_bytes())
    @settings(max_examples=200, deadline=None)
    def test_container_round_trips_or_fails_cleanly(self, tmp_path_factory, blob):
        d = tmp_path_factory.mktemp("container")
        src, again = d / "in.dvtn", d / "out.dvtn"
        src.write_bytes(blob)
        try:
            entries = read_container(src)
        except DepvitError:
            return
        write_container(again, entries)
        assert again.read_bytes() == blob

    @given(tree_payloads() | _JSON)
    @settings(max_examples=200, deadline=None)
    def test_tree_json_round_trips_or_fails_cleanly(self, payload):
        try:
            tree = tree_from_json_dict(payload)
        except DepvitError:
            return
        assert tree.parent.tolist() == [int(p) for p in payload["parent"]]
        text = json.dumps(tree_to_json_dict(tree))
        assert json.dumps(tree_to_json_dict(tree_from_json_dict(json.loads(text)))) == text

    @given(_CONFIG_LINES)
    @settings(max_examples=200, deadline=None)
    def test_config_text_round_trips_or_fails_cleanly(self, text):
        try:
            cfg = parse_config(text)
        except DepvitError:
            return
        values = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
        schedule = values.pop("prune_schedule")
        values["prune_layers"] = tuple(layer for layer, _ in schedule)
        values["kept_tokens"] = tuple(kept for _, kept in schedule)
        assert set(values) == set(_KEY_PARSERS)
        again = "\n".join(f"{k}={_config_value_text(v)}" for k, v in values.items())
        assert parse_config(again) == cfg
        cfg.to_model_config()  # every check ran at load, so this cannot raise

    @given(ppm_bytes())
    @settings(max_examples=200, deadline=None)
    def test_ppm_round_trips_or_fails_cleanly(self, tmp_path_factory, blob):
        d = tmp_path_factory.mktemp("ppm")
        src, again = d / "in.ppm", d / "out.ppm"
        src.write_bytes(blob)
        try:
            img = read_ppm(src)
        except DepvitError:
            return
        write_ppm(again, img)
        np.testing.assert_array_equal(read_ppm(again), img)

    @given(masks())
    @settings(max_examples=200, deadline=None)
    def test_mask_json_round_trips(self, mask):
        d = json.loads(json.dumps(mask_to_json_dict(mask)))
        assert d["shape"] == list(mask.shape)
        np.testing.assert_array_equal(np.asarray(d["data"], dtype=np.float64), mask)

    @given(grid_payloads() | _JSON)
    @settings(max_examples=200, deadline=None)
    def test_grid_json_round_trips_or_fails_cleanly(self, tmp_path_factory, payload):
        d = tmp_path_factory.mktemp("grid")
        src, again = d / "in.json", d / "out.json"
        src.write_text(json.dumps(payload))
        try:
            values = load_grid_values(src)
        except DepvitError:
            return
        height, width = values.shape
        write_json(again, {"width": width, "height": height, "labels": values.tolist()})
        np.testing.assert_array_equal(load_grid_values(again), values)
