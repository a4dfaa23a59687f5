"""Synthetic training corpus: procedural patches, a severity-ordered
distortion ladder, and ranked pair instances.

Ground-truth ranking comes from the severity ordering within a distortion
kind; lower severity means higher quality. Generation is a pure function of
(config, seed): every instance derives its own seed from (seed, index), so
parallel and serial generation agree.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

KINDS = (
    "gaussian-blur",
    "additive-gaussian-noise",
    "uniform-quantization",
    "downsample-upsample",
)

DEFAULT_LEVELS = 6

PAIR_MAGIC = b"RPDS"
EVAL_MAGIC = b"RPEV"
FORMAT_VERSION = 1


class DataFormatError(ValueError):
    """Bad container magic or version, a truncated file, or an out-of-range kind."""


@dataclass(frozen=True)
class DistortionSpec:
    kind: str
    level: int  # 0 = identity, 1..S on a monotone severity ladder

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown distortion kind {self.kind!r}")
        if self.level < 0:
            raise ValueError("severity level must be >= 0")


def pair_dtype(c: int, h: int, w: int) -> np.dtype:
    """One ranked training pair; label 1 iff pair (r1, d1) has higher quality.

    ``patches`` holds r1, d1, r2, d2; ``kind`` indexes ``KINDS``.
    """
    return np.dtype([
        ("patches", "<f4", (4, c, h, w)), ("label", "u1"), ("kind", "u1"),
        ("lev1", "u1"), ("lev2", "u1"), ("mos1", "<f4"), ("mos2", "<f4"),
    ])


def eval_dtype(c: int, h: int, w: int) -> np.dtype:
    """One graded evaluation item with its pseudo-MOS score; ``kind`` indexes ``KINDS``."""
    return np.dtype([
        ("ref", "<f4", (c, h, w)), ("dist", "<f4", (c, h, w)), ("kind", "u1"),
        ("level", "u1"), ("mos", "<f4"),
    ])


# ---------------------------------------------------------------------------
# source patches


def _rescale(patch: np.ndarray) -> np.ndarray:
    lo, hi = patch.min(), patch.max()
    span = hi - lo
    if span < 1e-9:
        return np.full_like(patch, 0.5)
    return 0.1 + 0.8 * (patch - lo) / span


def _make_source(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    style = rng.integers(0, 4)
    if style == 0:  # band-limited noise
        patch = ndimage.gaussian_filter(rng.standard_normal((h, w)), sigma=rng.uniform(0.8, 2.5))
    elif style == 1:  # oriented ramp with texture
        theta = rng.uniform(0, np.pi)
        yy, xx = np.mgrid[0:h, 0:w]
        patch = np.cos(theta) * xx / w + np.sin(theta) * yy / h
        patch = patch + 0.15 * ndimage.gaussian_filter(rng.standard_normal((h, w)), 1.0)
    elif style == 2:  # jittered checkerboard
        cell = int(rng.integers(4, 9))
        yy, xx = np.mgrid[0:h, 0:w]
        jitter = rng.integers(0, cell, size=2)
        patch = (((yy + jitter[0]) // cell + (xx + jitter[1]) // cell) % 2).astype(float)
        patch = patch * rng.uniform(0.5, 1.0) + 0.1 * rng.standard_normal((h, w))
    else:  # smoothed blobs
        patch = np.zeros((h, w))
        yy, xx = np.mgrid[0:h, 0:w]
        for _ in range(int(rng.integers(3, 7))):
            cy, cx = rng.uniform(0, h), rng.uniform(0, w)
            s = rng.uniform(h / 12, h / 4)
            patch += rng.uniform(-1, 1) * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
    return _rescale(patch).astype(np.float32)


def generate_sources(n: int, geometry: tuple[int, int, int], seed: int) -> list[np.ndarray]:
    """Procedural grayscale/RGB patches in [0, 1], deterministic per seed."""
    if n < 1:
        raise ValueError("need n >= 1 source patches")
    c, h, w = geometry
    if c < 1 or h < 4 or w < 4:
        raise ValueError(f"degenerate geometry {geometry}")
    out = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA5, i)))
        out.append(np.stack([_make_source(rng, h, w) for _ in range(c)]))
    return out


# ---------------------------------------------------------------------------
# distortions


def _down_up(plane: np.ndarray, factor: int) -> np.ndarray:
    h, w = plane.shape
    ph = (-h) % factor
    pw = (-w) % factor
    padded = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    hh, ww = padded.shape
    small = padded.reshape(hh // factor, factor, ww // factor, factor).mean(axis=(1, 3))
    return np.repeat(np.repeat(small, factor, axis=0), factor, axis=1)[:h, :w]


def apply_distortion(patch: np.ndarray, spec: DistortionSpec, seed: int) -> np.ndarray:
    """Apply one ladder level; level 0 is the identity. Output clipped to [0, 1]."""
    if spec.level == 0:
        return patch.copy()
    level = spec.level
    out = patch.astype(np.float64)
    if spec.kind == "gaussian-blur":
        out = np.stack([ndimage.gaussian_filter(pl, sigma=0.6 * level) for pl in out])
    elif spec.kind == "additive-gaussian-noise":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD1, level)))
        out = out + rng.standard_normal(out.shape) * 0.05 * level
    elif spec.kind == "uniform-quantization":
        q = 2 ** (7 - level)  # levels 1..6 -> 64, 32, 16, 8, 4, 2 bins
        out = np.round(out * (q - 1)) / (q - 1)
    elif spec.kind == "downsample-upsample":
        out = np.stack([_down_up(pl, factor=1 + level) for pl in out])
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def pseudo_mos(level: int, levels: int, rng: np.random.Generator) -> float:
    """Graded quality stand-in: higher is better, jittered to avoid ties."""
    # stored as float32 in the containers; round here so round-trips are exact
    return float(np.float32(levels - level + rng.uniform(-0.2, 0.2)))


# ---------------------------------------------------------------------------
# datasets


def make_pair_dataset(
    sources: list[np.ndarray],
    levels: int,
    pairs_per_source: int,
    seed: int,
    cross_content: bool = False,
) -> np.ndarray:
    """``pairs_per_source`` ranked pairs per source, as ``pair_dtype`` records."""
    if levels < 2:
        raise ValueError("severity ladder needs at least 2 levels")
    pairs = np.zeros(len(sources) * pairs_per_source, pair_dtype(*sources[0].shape))
    for idx in range(len(pairs)):
        si = idx // pairs_per_source
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB2, idx)))
        ki = int(rng.integers(0, len(KINDS)))
        if cross_content:
            # harder setting: distinct contents, levels at least 2 apart
            sj = int(rng.integers(0, len(sources)))
            while True:
                la, lb = rng.choice(np.arange(1, levels + 1), size=2, replace=False)
                if abs(int(la) - int(lb)) >= 2:
                    break
            src1, src2 = sources[si], sources[sj]
        else:
            la, lb = rng.choice(np.arange(1, levels + 1), size=2, replace=False)
            src1 = src2 = sources[si]
        lev1, lev2 = int(la), int(lb)
        d1 = apply_distortion(src1, DistortionSpec(KINDS[ki], lev1), seed=int(rng.integers(2**31)))
        d2 = apply_distortion(src2, DistortionSpec(KINDS[ki], lev2), seed=int(rng.integers(2**31)))
        pairs[idx] = (np.stack([src1, d1, src2, d2]), int(lev1 < lev2), ki, lev1, lev2,
                      pseudo_mos(lev1, levels, rng), pseudo_mos(lev2, levels, rng))
    return pairs


def make_eval_dataset(sources: list[np.ndarray], levels: int, seed: int) -> np.ndarray:
    """One graded item per (source, kind, level), as ``eval_dtype`` records."""
    items = np.zeros(len(sources) * len(KINDS) * levels, eval_dtype(*sources[0].shape))
    idx = 0
    for si, src in enumerate(sources):
        for ki, kind in enumerate(KINDS):
            for level in range(1, levels + 1):
                rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC3, si, ki, level)))
                dist = apply_distortion(
                    src, DistortionSpec(kind, level), seed=int(rng.integers(2**31))
                )
                items[idx] = (src, dist, ki, level, pseudo_mos(level, levels, rng))
                idx += 1
    return items


# ---------------------------------------------------------------------------
# binary containers: a header, then the records of pair_dtype / eval_dtype


_HEADER = struct.Struct("<4sHIHHH")  # magic, version, count, C, H, W


def _write(path, magic: bytes, records: np.ndarray):
    c, h, w = records.dtype[0].shape[-3:]  # the first field of both dtypes ends in (C, H, W)
    header = _HEADER.pack(magic, FORMAT_VERSION, len(records), c, h, w)
    Path(path).write_bytes(header + records.tobytes())


def _read(path, magic: bytes, dtype_of) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise DataFormatError(f"{path}: file shorter than header")
    got, version, count, c, h, w = _HEADER.unpack_from(data)
    if got != magic:
        raise DataFormatError(f"{path}: bad magic {got!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    try:
        dtype = dtype_of(c, h, w)
    except ValueError:  # numpy caps a record at 2**31 bytes
        raise DataFormatError(f"{path}: geometry {c}x{h}x{w} too large") from None
    expected = _HEADER.size + count * dtype.itemsize
    if len(data) != expected:
        raise DataFormatError(f"{path}: expected {expected} bytes, found {len(data)} (truncated?)")
    records = np.frombuffer(data, dtype=dtype, count=count, offset=_HEADER.size)
    if np.any(records["kind"] >= len(KINDS)):
        raise DataFormatError(f"{path}: distortion kind out of range")
    return records


def write_dataset(path, pairs: np.ndarray):
    _write(path, PAIR_MAGIC, pairs)


def read_dataset(path) -> np.ndarray:
    """Read-only ``pair_dtype`` records."""
    return _read(path, PAIR_MAGIC, pair_dtype)


def write_eval_dataset(path, items: np.ndarray):
    _write(path, EVAL_MAGIC, items)


def read_eval_dataset(path) -> np.ndarray:
    """Read-only ``eval_dtype`` records."""
    return _read(path, EVAL_MAGIC, eval_dtype)
