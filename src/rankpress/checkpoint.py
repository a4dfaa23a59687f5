"""Shared checkpoint container: plaintext manifest + flat float32 blob.

Layout (single file):
    RPCK 1
    geometry <in_channels> <height> <width>
    meta <key>=<value>            (zero or more)
    layer <name> <kind> <in> <out> <kernel> <stride> <pad>
    tensor <name> <dim,dim,...> <byte-offset>
    manifest crc32 <hex>          (CRC32 of every byte before this line)
    blob <nbytes> crc32 <hex>
    <raw little-endian float32 bytes>

Tensors are serialized in ``NetworkSpec.param_shapes()`` order; the two CRC32s
guard the manifest and the blob, and the reader checks the tensor lines against
the layer lines.
"""

from __future__ import annotations

import math
import zlib
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .nets import LayerSpec, NetworkSpec, ParameterSet

MAGIC = "RPCK"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed, truncated, or corrupt checkpoint file."""


def save_checkpoint(path, spec: NetworkSpec, params: ParameterSet, meta: dict | None = None):
    path = Path(path)
    lines = [f"{MAGIC} {VERSION}", f"geometry {spec.in_channels} {spec.height} {spec.width}"]
    for key, value in sorted((meta or {}).items()):
        lines.append(f"meta {key}={value}")
    for layer in spec.layers:
        lines.append(
            f"layer {layer.name} {layer.kind} {layer.in_ch} {layer.out_ch} "
            f"{layer.kernel} {layer.stride} {layer.padding}"
        )
    chunks = []
    offset = 0
    for name in spec.param_shapes():
        arr = np.ascontiguousarray(params[name].data, dtype="<f4")
        shape = ",".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {shape} {offset}")
        raw = arr.tobytes()
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)
    manifest = "\n".join(lines).encode() + b"\n"
    tail = (f"manifest crc32 {zlib.crc32(manifest):08x}\n"
            f"blob {len(blob)} crc32 {zlib.crc32(blob):08x}\n")
    path.write_bytes(manifest + tail.encode() + blob)


def checkpoint_hash(path) -> str:
    """CRC of the parameter blob as stored in the manifest."""
    for line in Path(path).read_bytes().split(b"\n"):
        if line.startswith(b"blob "):
            return line.split()[-1].decode()
    raise CheckpointError(f"{path}: no blob line found")


def load_checkpoint(path) -> tuple[NetworkSpec, ParameterSet, dict]:
    """Read a checkpoint; any malformed, inconsistent or corrupt content is a CheckpointError."""
    path = Path(path)
    data = path.read_bytes()
    try:
        return _parse(data)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    # int(), decode(), unpacking and NetworkSpec() raise ValueErrors; a short line IndexError
    except (ValueError, IndexError) as exc:
        raise CheckpointError(f"{path}: malformed manifest: {exc}") from exc


def _parse(data: bytes) -> tuple[NetworkSpec, ParameterSet, dict]:
    pos = 0

    def next_line():
        nonlocal pos
        end = data.find(b"\n", pos)
        if end < 0:
            raise CheckpointError("truncated header")
        line = data[pos:end].decode()
        pos = end + 1
        return line

    header = next_line().split()
    if header[:1] != [MAGIC] or int(header[1]) != VERSION:
        raise CheckpointError(f"bad magic/version {header!r}")
    geom = next_line().split()
    if geom[0] != "geometry":
        raise CheckpointError("missing geometry line")
    in_ch, height, width = (int(v) for v in geom[1:4])

    meta: dict = {}
    layers: list[LayerSpec] = []
    tensors: dict[str, tuple[tuple[int, ...], int]] = {}
    prev = (pos, [])  # where the line before the current one starts, and its fields
    while True:
        start = pos
        line = next_line()
        fields = line.split()
        if fields[0] == "meta":
            key, _, value = line[len("meta ") :].partition("=")
            meta[key] = value
        elif fields[0] == "layer":
            c_in, c_out, kernel, stride, pad = (int(v) for v in fields[3:])
            layers.append(LayerSpec(fields[1], fields[2], c_in, c_out, kernel, stride, pad))
        elif fields[0] == "tensor":
            tensors[fields[1]] = (tuple(int(d) for d in fields[2].split(",")), int(fields[3]))
        elif fields[0] == "blob":
            nbytes = int(fields[1])
            crc_expected = fields[3]
            break
        elif fields[0] != "manifest":
            raise CheckpointError(f"unknown manifest line {line!r}")
        prev = (start, fields)

    spec = NetworkSpec(in_ch, height, width, tuple(layers))
    mismatches = spec.shape_mismatches({name: shape for name, (shape, _) in tensors.items()})
    if mismatches:
        raise CheckpointError("tensors disagree with the layer lines: " + "; ".join(mismatches))
    ends = np.cumsum([0] + [4 * math.prod(shape) for shape, _ in tensors.values()]).tolist()
    if [offset for _, offset in tensors.values()] != ends[:-1] or ends[-1] != nbytes:
        raise CheckpointError("tensor offsets do not tile the blob")
    manifest_end, crc_line = prev
    if crc_line[:2] != ["manifest", "crc32"]:
        raise CheckpointError("no manifest checksum line before the blob line")
    if crc_line[2:] != [f"{zlib.crc32(data[:manifest_end]):08x}"]:
        raise CheckpointError("manifest checksum mismatch")

    blob = data[pos : pos + nbytes]
    if len(blob) != nbytes:
        raise CheckpointError(f"truncated blob ({len(blob)} of {nbytes} bytes)")
    if f"{zlib.crc32(blob):08x}" != crc_expected:
        raise CheckpointError("blob checksum mismatch")

    params: ParameterSet = {}
    for name, (shape, offset) in tensors.items():
        arr = np.frombuffer(blob, dtype="<f4", count=math.prod(shape), offset=offset)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {name} holds a non-finite value")
        params[name] = Tensor(arr.reshape(shape).astype(np.float32), requires_grad=True)
    return spec, params, meta
