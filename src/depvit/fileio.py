"""Binary tensor container, PPM reading, run configuration, serialization.

The container format is fixed: magic "DVTN", a version word, an entry
count, then per entry a length-prefixed UTF-8 name, a dtype code (0 for
float32, 1 for float64), a rank, the extents, and the raw little-endian
row-major payload.  All multi-byte integers are unsigned 32-bit
little-endian.  Readers fail loudly with the byte offset of the problem.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import ConfigError, FormatError, UsageError, real_numbers, whole_numbers
from .model import ModelConfig, ModelWeights, parameter_shapes
from .tensor import Tensor
from .tree import DependencyTree

MAGIC = b"DVTN"
VERSION = 1
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_U32 = struct.Struct("<I")
_MAX_RANK = 64  # numpy's dimension limit


def write_container(path, entries: dict[str, np.ndarray]) -> None:
    """Write named arrays in declaration order; float32/float64 only.

    Headers are packed before the file is opened, so a rejected entry leaves
    no partial file; payloads go to the file from each array's own buffer.
    """
    parts = []
    for name, arr in entries.items():
        arr = arr.data if isinstance(arr, Tensor) else np.asarray(arr)
        if arr.dtype not in _CODES:
            raise UsageError(f"entry {name!r} has unsupported dtype {arr.dtype}")
        raw = name.encode("utf-8")
        code = _CODES[arr.dtype]
        header = (struct.pack("<I", len(raw)) + raw
                  + struct.pack(f"<II{arr.ndim}I", code, arr.ndim, *arr.shape))
        parts.append((header, np.ascontiguousarray(arr, dtype=_DTYPES[code])))
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<II", VERSION, len(parts)))
        for header, arr in parts:
            f.write(header)
            f.write(arr.data)


def read_container(path) -> dict[str, np.ndarray]:
    """Parse a container file back into named arrays, strictly.

    Each payload is checked against the bytes left in the file, then read
    straight into its own fresh array: one copy, aligned, writable and
    unshared.  A short read, from a file that shrank while open, is a
    truncation too.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        pos = 0

        # ``what`` is formatted with ``args`` only when it goes into an error
        def truncated(what: str, args: tuple, offset: int) -> FormatError:
            return FormatError(f"truncated while reading {what.format(*args)}", offset=offset)

        def need(nbytes: int, what: str, *args) -> int:
            nonlocal pos
            if size - pos < nbytes:
                raise truncated(what, args, pos)
            start = pos
            pos += nbytes
            return start

        def take(nbytes: int, what: str, *args) -> tuple[bytes, int]:
            start = need(nbytes, what, *args)
            raw = f.read(nbytes)
            if len(raw) != nbytes:
                raise truncated(what, args, start)
            return raw, start

        def u32(what: str, *args) -> int:
            return _U32.unpack(take(4, what, *args)[0])[0]

        def extents(rank: int, name: str) -> tuple[int, ...]:
            # all of them in one unpack; a cut one is reported by its index
            nonlocal pos
            start = pos
            raw = f.read(min(4 * rank, size - pos))
            shape = struct.unpack_from(f"<{len(raw) // 4}I", raw)
            if len(shape) < rank:
                raise truncated("extent {} of {!r}", (len(shape), name), start + 4 * len(shape))
            pos += 4 * rank
            return shape

        magic, start = take(4, "magic")
        if magic != MAGIC:
            raise FormatError("bad magic, not a tensor container", offset=start)
        version_at = pos
        version = u32("version")
        if version != VERSION:
            raise FormatError(f"unsupported container version {version}", offset=version_at)
        count = u32("entry count")
        out: dict[str, np.ndarray] = {}
        for i in range(count):
            nlen = u32("name length of entry {}", i)
            raw, name_at = take(nlen, "name of entry {}", i)
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"entry {i} name is not UTF-8", offset=name_at) from exc
            if name in out:
                raise FormatError(f"duplicate entry name {name!r}", offset=name_at)
            code_at = pos
            code = u32("dtype of {!r}", name)
            if code not in _DTYPES:
                raise FormatError(f"unknown dtype code {code}", offset=code_at)
            rank_at = pos
            rank = u32("rank of {!r}", name)
            if rank > _MAX_RANK:
                # numpy cannot build it, so no extent is unpacked: a rank whose
                # extents overrun the file is named at its own offset
                if 4 * rank > size - pos:
                    raise FormatError(f"rank {rank} of {name!r} is above numpy's "
                                      f"{_MAX_RANK} dimensions", offset=rank_at)
                raise FormatError(f"entry {name!r} has unrepresentable shape of rank {rank}",
                                  offset=pos + 4 * rank)
            shape = extents(rank, name)
            nbytes = math.prod(shape) * _DTYPES[code].itemsize
            payload_at = need(nbytes, "payload of {!r}", name)
            try:
                # an empty entry can still declare extents whose product overflows
                arr = np.empty(shape, dtype=_DTYPES[code])
            except ValueError as exc:
                raise FormatError(f"entry {name!r} has unrepresentable shape {shape}",
                                  offset=payload_at) from exc
            if f.readinto(arr) != nbytes:
                raise truncated("payload of {!r}", (name,), payload_at)
            out[name] = arr
        if pos != size or f.read(1):
            raise FormatError("trailing bytes after final entry", offset=pos)
    return out


def save_weights(path, weights: ModelWeights) -> None:
    write_container(path, weights.named_tensors())


def load_weights(path, config: ModelConfig) -> ModelWeights:
    """Rebuild model weights from a container, checking every shape."""
    entries = read_container(path)
    shapes = parameter_shapes(config)
    missing = sorted(set(shapes) - set(entries))
    if missing:
        raise FormatError(f"weights file lacks entries: {', '.join(missing)}", offset=0)
    extra = sorted(set(entries) - set(shapes))
    if extra:
        raise FormatError(f"weights file has unknown entries: {', '.join(extra)}", offset=0)
    tensors: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        arr = entries[name]
        if arr.shape != shape:
            raise FormatError(
                f"entry {name!r} shaped {arr.shape}, config wants {shape}", offset=0
            )
        if not np.isfinite(arr).all():
            raise FormatError(f"entry {name!r} holds non-finite values", offset=0)
        tensors[name] = Tensor(arr)
    return ModelWeights.from_named_tensors(config, tensors)


def read_ppm(path) -> np.ndarray:
    """Binary P6 image as float32 (H, W, 3) scaled to [0, 1]."""
    data = Path(path).read_bytes()
    pos = 0

    def token(what: str) -> tuple[bytes, int]:
        nonlocal pos
        while pos < len(data):
            c = data[pos:pos + 1]
            if c in b" \t\r\n":
                pos += 1
            elif c == b"#":
                while pos < len(data) and data[pos:pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and data[pos:pos + 1] not in b" \t\r\n#":
            pos += 1
        if start == pos:
            raise FormatError(f"missing {what} in header", offset=start)
        return data[start:pos], start

    def number(what: str) -> int:
        tok, at = token(what)
        try:
            val = int(tok)
        except ValueError as exc:
            raise FormatError(f"{what} is not a number: {tok!r}", offset=at) from exc
        if val <= 0:
            raise FormatError(f"{what} must be positive, got {val}", offset=at)
        return val

    magic, at = token("magic")
    if magic != b"P6":
        raise FormatError(f"not a binary P6 image (got {magic!r})", offset=at)
    width = number("width")
    height = number("height")
    maxval_at = pos
    maxval = number("maxval")
    if maxval != 255:
        raise FormatError(f"only maxval 255 supported, got {maxval}", offset=maxval_at)
    if pos >= len(data) or data[pos:pos + 1] not in b" \t\r\n":
        raise FormatError("expected single whitespace before pixels", offset=pos)
    pos += 1
    nbytes = width * height * 3
    if len(data) - pos < nbytes:
        raise FormatError(
            f"pixel payload needs {nbytes} bytes, {len(data) - pos} left",
            offset=len(data),
        )
    if len(data) - pos > nbytes:
        raise FormatError("trailing bytes after pixel payload", offset=pos + nbytes)
    arr = np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=pos)
    return (arr.reshape(height, width, 3).astype(np.float32)) / 255.0


def write_ppm(path, image: np.ndarray) -> None:
    """Inverse of read_ppm for float images in [0, 1]."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise UsageError("image must be (H, W, 3)")
    if not np.isfinite(img).all():
        raise UsageError("image holds non-finite values")
    h, w = img.shape[:2]
    body = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    Path(path).write_bytes(f"P6\n{w} {h}\n255\n".encode() + body.tobytes())


@dataclass(frozen=True)
class RunConfig(ModelConfig):
    """A model configuration plus the part-size floor of ``partition_subtrees``."""

    min_part_size: float = 0.01

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.min_part_size <= 1.0:
            raise ConfigError(f"min_part_size must be within [0, 1], got {self.min_part_size}")

    def to_model_config(self) -> ModelConfig:
        """The same model as a plain ``ModelConfig``, without ``min_part_size``."""
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


# the prune schedule is written as two lists, layer numbers and kept counts
_VALUE_PARSERS = {int: int, float: _finite_float}
_KEY_PARSERS = {
    **{name: _VALUE_PARSERS[kind] for name, kind in get_type_hints(RunConfig).items()
       if name != "prune_schedule"},
    "prune_layers": _int_list,
    "kept_tokens": _int_list,
}


def parse_config(text: str) -> RunConfig:
    """key=value lines; # comments and blank lines ignored; keys fixed.

    Every value is checked here, so a loaded config is a valid model config.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEY_PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    layers, kept = values.pop("prune_layers", ()), values.pop("kept_tokens", ())
    if len(layers) != len(kept):
        raise ConfigError(
            f"prune_layers and kept_tokens must pair up ({len(layers)} vs {len(kept)})"
        )
    return RunConfig(prune_schedule=tuple(zip(layers, kept)), **values)


def load_config(path) -> RunConfig:
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    return parse_config(text)


def tree_to_json_dict(tree: DependencyTree) -> dict:
    """The tree's arrays as JSON lists, each indexed by token."""
    return {
        "root": int(tree.root),
        "parent": tree.parent.tolist(),
        "weight": tree.edge_weight.tolist(),
        "depth": tree.depth.tolist(),
        "subtree": tree.subtree.tolist(),
    }


def tree_from_json_dict(d: dict) -> DependencyTree:
    """Inverse of tree_to_json_dict; ``depth`` is recomputed, and a missing
    ``subtree`` leaves every node unlabeled (-1).

    A field of the wrong JSON type is a FormatError here; whether the arrays
    form one tree is ``DependencyTree``'s own check, an IntegrityError.
    """
    try:
        root = whole_numbers(d["root"])[0]
        parent = np.array(whole_numbers(*d["parent"]), dtype=np.int64)
        weight = np.array(real_numbers(*d["weight"]), dtype=np.float64)
        subtree = np.array(whole_numbers(*d.get("subtree", [-1] * parent.size)), dtype=np.int64)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed tree JSON: {exc}", offset=0) from exc
    if not np.isfinite(weight).all():
        raise FormatError("tree edge weights must be finite", offset=0)
    return DependencyTree(parent=parent, edge_weight=weight, root=root, subtree=subtree)


def tree_to_dot(tree: DependencyTree) -> str:
    """Graphviz digraph, parent -> child, weights as edge labels."""
    lines = ["digraph dependency {"]
    for i in range(tree.size):
        shape = "doublecircle" if i == tree.root else "circle"
        lines.append(f'  n{i} [label="{i}", shape={shape}];')
    for i in range(tree.size):
        p = int(tree.parent[i])
        if p >= 0:
            lines.append(f'  n{p} -> n{i} [label="{tree.edge_weight[i]:.6g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def mask_to_json_dict(mask: np.ndarray) -> dict:
    m = np.asarray(mask, dtype=np.float64)
    return {"shape": list(m.shape), "data": m.tolist()}


def grid_to_json_dict(grid) -> dict:
    return {
        "width": int(grid.width),
        "height": int(grid.height),
        "labels": np.asarray(grid.labels).tolist(),
    }


def load_grid_values(path) -> np.ndarray:
    """Grid JSON to a raw value array of JSON numbers; labels may be soft
    for saliency."""
    try:
        d = json.loads(Path(path).read_text())
        arr = np.asarray(d["labels"], dtype=np.float64)
        size = tuple(whole_numbers(d["height"], d["width"]))
        if arr.shape != size:
            raise FormatError("grid labels disagree with declared size", offset=0)
        if arr.size == 0:
            raise FormatError("grid width and height must be positive", offset=0)
        real_numbers(*(v for row in d["labels"] for v in row))  # asarray took "1" and true
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed grid JSON: {exc}", offset=0) from exc
    return arr


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload) + "\n")  # indent= forces the Python encoder
