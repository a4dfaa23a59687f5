"""Readers and a float64 scorer written apart from the program.

Nothing here imports ``rankpress``: the container and checkpoint layouts are
parsed from their documented byte formats, and the forward pass is written
from the network's stated semantics (conv -> leaky ReLU -> 2x average pool
per conv block, global average pool, dense layers with leaky ReLU between
them). The benchmark checks the program's outputs against these.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

LEAKY_SLOPE = 0.01

_HEADER = struct.Struct("<4sHIHHH")  # magic, version, count, C, H, W


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# containers


def _read_container(path, magic: bytes, fields: list) -> np.ndarray:
    data = Path(path).read_bytes()
    got, version, count, c, h, w = _HEADER.unpack_from(data)
    if got != magic or version != 1:
        raise ValueError(f"{path}: header {got!r} v{version}, expected {magic!r} v1")
    dtype = np.dtype([(name, kind, shape) if shape else (name, kind)
                      for name, kind, shape in fields(c, h, w)])
    if len(data) != _HEADER.size + count * dtype.itemsize:
        raise ValueError(f"{path}: size {len(data)} does not hold {count} records")
    return np.frombuffer(data, dtype=dtype, count=count, offset=_HEADER.size)


def read_pairs(path) -> np.ndarray:
    """Records with fields patches (4, C, H, W) = r1, d1, r2, d2; label; kind; lev1; lev2."""
    return _read_container(path, b"RPDS", lambda c, h, w: [
        ("patches", "<f4", (4, c, h, w)), ("label", "u1", None), ("kind", "u1", None),
        ("lev1", "u1", None), ("lev2", "u1", None), ("mos1", "<f4", None), ("mos2", "<f4", None),
    ])


def read_eval(path) -> np.ndarray:
    """Records with fields ref, dist (C, H, W); kind; level; mos."""
    return _read_container(path, b"RPEV", lambda c, h, w: [
        ("ref", "<f4", (c, h, w)), ("dist", "<f4", (c, h, w)), ("kind", "u1", None),
        ("level", "u1", None), ("mos", "<f4", None),
    ])


# ---------------------------------------------------------------------------
# checkpoints


@dataclass(frozen=True)
class Layer:
    name: str
    kind: str
    in_ch: int
    out_ch: int
    kernel: int
    stride: int
    padding: int


@dataclass(frozen=True)
class Checkpoint:
    geometry: tuple[int, int, int]
    layers: tuple[Layer, ...]
    tensors: dict  # name -> float64 array


def read_checkpoint(path) -> Checkpoint:
    data = Path(path).read_bytes()
    pos = 0
    layers, shapes = [], []
    geometry = None
    while True:
        end = data.index(b"\n", pos)
        fields = data[pos:end].decode().split()
        pos = end + 1
        if fields[0] == "geometry":
            geometry = tuple(int(v) for v in fields[1:4])
        elif fields[0] == "layer":
            layers.append(Layer(fields[1], fields[2], *(int(v) for v in fields[3:8])))
        elif fields[0] == "tensor":
            shapes.append((fields[1], tuple(int(d) for d in fields[2].split(",")), int(fields[3])))
        elif fields[0] == "blob":
            nbytes, crc = int(fields[1]), fields[3]
            break
    blob = data[pos:pos + nbytes]
    if len(blob) != nbytes or f"{zlib.crc32(blob):08x}" != crc:
        raise ValueError(f"{path}: blob truncated or checksum mismatch")
    tensors = {
        name: np.frombuffer(blob, "<f4", int(np.prod(shape)), offset).reshape(shape).astype(np.float64)
        for name, shape, offset in shapes
    }
    return Checkpoint(geometry, tuple(layers), tensors)


# ---------------------------------------------------------------------------
# forward


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: int) -> np.ndarray:
    k = w.shape[-1]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    # win: (N, C, H', W', k, k); contract C, kh, kw against the OIHW kernel
    out = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3]))  # (N, H', W', O)
    return out.transpose(0, 3, 1, 2) + b[None, :, None, None]


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, LEAKY_SLOPE * x)


def _pool2(x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    return x[:, :, :2 * h2, :2 * w2].reshape(n, c, h2, 2, w2, 2).mean(axis=(3, 5))


def forward(ckpt: Checkpoint, ref: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Scores [N] of (reference, distorted) patch batches, in float64."""
    ref = np.asarray(ref, dtype=np.float64)
    dist = np.asarray(dist, dtype=np.float64)
    x = np.concatenate([ref - dist, dist], axis=1)
    first_dense = True
    for layer in ckpt.layers:
        w = ckpt.tensors[f"{layer.name}.weight"]
        b = ckpt.tensors[f"{layer.name}.bias"]
        if layer.kind == "conv":
            x = _pool2(_leaky(_conv(x, w, b, layer.stride, layer.padding)))
        else:
            if first_dense:
                x = x.mean(axis=(2, 3))
                first_dense = False
            else:
                x = _leaky(x)
            x = x @ w.T + b
    return x[:, 0]


def score_items(ckpt: Checkpoint, items: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Reference scores of eval records, in chunks to bound the window copies."""
    return np.concatenate([
        forward(ckpt, items["ref"][i:i + chunk], items["dist"][i:i + chunk])
        for i in range(0, len(items), chunk)
    ])


# ---------------------------------------------------------------------------
# accounting


def recount(geometry: tuple[int, int, int], kernel: int,
            conv_widths: list[int], dense_widths: list[int]) -> tuple[int, int]:
    """(params, FLOPs) of a net from its widths; a MAC counts 2 FLOPs, same padding."""
    in_ch, h, w = geometry
    params = flops = 0
    for out in conv_widths:
        params += out * in_ch * kernel * kernel + out
        flops += 2 * kernel * kernel * in_ch * out * h * w
        in_ch, h, w = out, h // 2, w // 2
    for out in dense_widths:
        params += out * in_ch + out
        flops += 2 * in_ch * out
        in_ch = out
    return params, flops


def plan_widths(plan_path) -> dict[str, int]:
    """Retained output channels per layer, from a plan.txt ``<layer> out[n]=...`` line."""
    widths = {}
    for line in Path(plan_path).read_text().splitlines():
        name, _, rest = line.partition(" ")
        if rest.startswith("out["):
            indices = rest.split("=", 1)[1]
            widths[name] = len(indices.split(",")) if indices else 0
            if widths[name] != int(rest[4:rest.index("]")]):
                raise ValueError(f"{plan_path}: {line!r} lists a different count")
    return widths
