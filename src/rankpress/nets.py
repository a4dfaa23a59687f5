"""Ranking-based quality networks: topology, forward semantics, accounting.

A network scores a (reference, distorted) patch pair; the preference
probability for two such pairs is sigmoid(s1 - s2). The teacher is a stack
of conv blocks (conv -> leaky ReLU -> 2x average pool) over the channel
concatenation of (R - D) and D, followed by global average pooling and a
dense score head.

Patches arrive NCHW, as the containers store them. ``pair_input`` lays the
conv stack's input out height-major, (H, C, W, N), the layout every conv
block keeps (see ``autodiff.conv2d``); global average pooling hands the
dense head an (N, C) matrix. Kernels stay OIHW.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

if TYPE_CHECKING:
    from .pipeline import PipelineConfig


# records per forward of a forward-only pass (scoring, accuracy, teacher probabilities);
# the scores' bits depend on it, not on how many lanes run the chunks
PREDICT_ROWS = 64


class ConfigError(ValueError):
    """Invalid network or pipeline configuration."""


@dataclass(frozen=True)
class LayerSpec:
    """One parameterized layer on the data path."""

    name: str
    kind: str  # "conv" | "dense"
    in_ch: int
    out_ch: int
    kernel: int = 0
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered parameterized layers plus the input patch geometry.

    Forward semantics: each conv layer is followed by leaky ReLU (slope 0.01)
    and 2x average pooling; after the last conv comes global average pooling;
    dense layers are separated by leaky ReLU, the last one emits the score.
    Construction raises ConfigError for a stack that cannot run on the patches.
    """

    in_channels: int
    height: int
    width: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        prev_out = self.in_channels
        seen_dense = False
        for layer in self.layers:
            if layer.kind not in ("conv", "dense"):
                raise ConfigError(f"unknown layer kind {layer.kind!r}")
            if layer.kind == "conv" and seen_dense:
                raise ConfigError(f"conv layer {layer.name} after dense head")
            seen_dense = seen_dense or layer.kind == "dense"
            if layer.in_ch != prev_out:
                raise ConfigError(
                    f"layer {layer.name}: in_ch {layer.in_ch} != previous out_ch {prev_out}"
                )
            conv_ok = layer.kind != "conv" or min(layer.kernel, layer.stride, layer.padding + 1) > 0
            if min(layer.in_ch, layer.out_ch) < 1 or not conv_ok:
                raise ConfigError(f"layer {layer.name}: bad width, kernel, stride or padding")
            prev_out = layer.out_ch
        if not self.layers or self.layers[-1].kind != "dense" or self.layers[-1].out_ch != 1:
            raise ConfigError("network must end in a single-unit dense score head")
        for layer, ((h, w), (h_out, w_out)) in zip(self.layers, self.spatial_sizes()):
            if h_out < 1 or w_out < 1:
                raise ConfigError(f"kernel {layer.kernel} exceeds padded input {h}x{w}")
            if h_out // 2 < 1 or w_out // 2 < 1:
                raise ConfigError("patch too small for the configured conv stack")

    def patch_mismatch(self, shape: tuple[int, ...]) -> Optional[str]:
        """Why (C, H, W) patches of ``shape`` are not this network's input, or None if they are.

        The input stacks R - D on D, so it has twice the patches' channels.
        """
        expected = (self.in_channels, self.height, self.width)
        if len(shape) == 3 and (2 * shape[0], *shape[1:]) == expected:
            return None
        return (f"{'x'.join(map(str, shape))} patches do not fit the network's input "
                f"({self.in_channels} planes of {self.height}x{self.width})")

    def spatial_sizes(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """(H, W) at the input and at the output (before the pool) of each conv layer."""
        h, w = self.height, self.width
        sizes = []
        for layer in self.layers:
            if layer.kind != "conv":
                break
            h_out = (h + 2 * layer.padding - layer.kernel) // layer.stride + 1
            w_out = (w + 2 * layer.padding - layer.kernel) // layer.stride + 1
            sizes.append(((h, w), (h_out, w_out)))
            h, w = h_out // 2, w_out // 2  # 2x average pool after every conv block
        return sizes

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Parameter name -> shape, weight then bias, layer by layer."""
        shapes = {}
        for layer in self.layers:
            kernel = (layer.kernel, layer.kernel) if layer.kind == "conv" else ()
            shapes[f"{layer.name}.weight"] = (layer.out_ch, layer.in_ch) + kernel
            shapes[f"{layer.name}.bias"] = (layer.out_ch,)
        return shapes

    def shape_mismatches(self, shapes: dict[str, tuple[int, ...]]) -> list[str]:
        """Each name whose shape in ``shapes`` differs from ``param_shapes()`` (None: absent)."""
        expected = self.param_shapes()
        names = list(expected) + sorted(set(shapes) - set(expected))
        return [f"{name}: shape {shapes.get(name)} != spec {expected.get(name)}"
                for name in names if shapes.get(name) != expected.get(name)]


ParameterSet = dict[str, Tensor]


def build_spec(cfg: PipelineConfig) -> NetworkSpec:
    """The teacher for ``cfg``: its conv and dense widths over square ``patch`` inputs."""
    if cfg.channels < 1 or cfg.patch < 1:
        raise ConfigError(
            f"channels and patch must be positive, got {cfg.channels} and {cfg.patch}"
        )
    if any(w < 1 for w in cfg.conv_widths) or any(w < 1 for w in cfg.dense_widths):
        raise ConfigError("layer widths must be positive")
    if not cfg.conv_widths:  # no dense layer is valid: the score head reads the pooled maps
        raise ConfigError("conv_widths must name at least one conv layer, the layers pruning thins")
    in_ch = 2 * cfg.channels  # (R - D) planes concatenated with D planes
    layers = []
    prev, pad = in_ch, cfg.kernel // 2
    for i, width in enumerate(cfg.conv_widths):
        layers.append(LayerSpec(f"conv{i + 1}", "conv", prev, width, cfg.kernel, 1, pad))
        prev = width
    for i, width in enumerate((*cfg.dense_widths, 1)):  # the last is the score head
        layers.append(LayerSpec(f"fc{i + 1}", "dense", prev, width))
        prev = width
    return NetworkSpec(in_ch, cfg.patch, cfg.patch, tuple(layers))


def init_params(spec: NetworkSpec, seed: int = 0, dtype=np.float32) -> ParameterSet:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    params: ParameterSet = {}
    for name, shape in spec.param_shapes().items():
        if name.endswith(".bias"):
            data = np.zeros(shape, dtype=dtype)
        else:
            field = math.prod(shape[2:])  # kernel area; 1 for a dense layer
            limit = np.sqrt(6.0 / ((shape[0] + shape[1]) * field))  # fan_in + fan_out
            data = rng.uniform(-limit, limit, size=shape).astype(dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


def build_teacher(cfg: PipelineConfig) -> tuple[NetworkSpec, ParameterSet]:
    spec = build_spec(cfg)
    return spec, init_params(spec, seed=cfg.seed)


def layer_forward(layer: LayerSpec, params: ParameterSet, x: Tensor) -> Tensor:
    """One layer of the stack: conv, leaky ReLU and 2x average pool; or dense."""
    w = params[f"{layer.name}.weight"]
    b = params[f"{layer.name}.bias"]
    if layer.kind == "conv":
        out = ad.conv2d(x, w, b, stride=layer.stride, padding=layer.padding)
        return ad.avg_pool2(ad.leaky_relu(out))
    # the first dense layer pools the (H, C, W, N) maps, the later ones follow leaky ReLU
    x = ad.global_avg_pool(x) if x.data.ndim == 4 else ad.leaky_relu(x)
    return ad.dense(x, w, b)


def forward_features(spec: NetworkSpec, params: ParameterSet, x: Tensor) -> Tensor:
    """Run the spec'd layer stack on a ``pair_input`` (H, C, W, N) input, returning scores [N]."""
    out = x
    for layer in spec.layers:
        out = layer_forward(layer, params, out)
    return ad.reshape(out, (out.data.shape[0],))


def pair_input(spec: NetworkSpec, ref: np.ndarray, dist: np.ndarray, dtype=None) -> Tensor:
    """Assemble the network input: R - D, then D, along channels, as (H, 2C, W, N).

    ``ref`` and ``dist`` are NCHW batches. R - D, taken in the patches' own
    dtype, and D are each copied once, transposed, into the height-major array
    of ``dtype`` that the conv stack runs on.
    """
    ref = np.asarray(ref)
    dist = np.asarray(dist)
    for what, arr in (("reference", ref), ("distorted", dist)):
        mismatch = spec.patch_mismatch(arr.shape[1:])
        if mismatch:
            raise ShapeError(f"{what}: {mismatch}")
    n, c, h, w = ref.shape
    x = np.empty((h, 2 * c, w, n), dtype=ref.dtype if dtype is None else dtype)
    x[:, :c] = (ref - dist).transpose(2, 1, 3, 0)
    x[:, c:] = dist.transpose(2, 1, 3, 0)
    return Tensor(x)


def score_batch(spec: NetworkSpec, params: ParameterSet, ref: np.ndarray, dist: np.ndarray) -> Tensor:
    dtype = next(iter(params.values())).data.dtype
    return forward_features(spec, params, pair_input(spec, ref, dist, dtype=dtype))


@functools.cache
def _openblas():
    """The OpenBLAS that numpy's wheel bundles, loaded by ``ctypes``: the library numpy
    already runs, so its state is numpy's. None for a numpy built against another BLAS."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(str(libs[0]))
        corename, threads = lib.scipy_openblas_get_corename64_, lib.scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):  # not loadable, or an OpenBLAS without these calls
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    threads.argtypes, threads.restype = [], ctypes.c_int
    return lib


def openblas_core() -> Optional[str]:
    """The kernel set OpenBLAS chose for this CPU at load time, or None without numpy's OpenBLAS."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_corename64_().decode()


def blas_threads() -> Optional[int]:
    """The threads each BLAS call runs on now, or None without numpy's OpenBLAS."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def forward_lanes(chunks: int) -> int:
    """The lanes a forward-only pass of ``chunks`` chunks runs in: one per usable CPU, at
    most one per chunk, when each BLAS call runs on one thread; otherwise 1, as also when
    the BLAS thread count cannot be read. Two lanes over two-thread BLAS calls on two CPUs
    scored 10% slower than one lane."""
    if blas_threads() != 1:
        return 1
    return max(1, min(chunks, _usable_cpus()))


@functools.cache
def _lane_pool():
    # imported and created on the first pass with two lanes: importing the package starts no
    # thread. At most one helper per other CPU: each new thread would take a malloc arena of
    # its own, and a pass can start before the last pass's helper counts itself idle.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max(1, _usable_cpus() - 1), thread_name_prefix="rankpress-lane")


def forward_chunks(forward: Callable[[slice], np.ndarray], n: int, chunk: int) -> np.ndarray:
    """``forward(rows)`` for each ``chunk``-record slice of ``range(n)``, without a backward
    graph, concatenated in slice order (an empty float64 array for ``n = 0``).

    The slices run in ``forward_lanes`` lanes, the calling thread and pool threads, each
    claiming the next slice until none is left; one lane, the calling thread alone, is a
    plain loop over the slices. numpy releases the GIL in BLAS and in large copies, so the
    lanes overlap. Every lane enters ``no_grad`` itself and runs in a copy of
    the caller's context, so an ``np.errstate`` of the caller holds in it too. A slice runs
    the same ops in any lane, so the result is the same bytes for any lane count. A slice
    that raises stops the claims, and the exception of the first failing slice is raised,
    as a loop over the slices would raise it.
    """
    starts = range(0, n, chunk)
    out = [None] * len(starts)
    failed: dict[int, Exception] = {}
    todo = iter(range(len(starts)))
    claim = threading.Lock()

    def lane():
        with ad.no_grad():
            while not failed:
                with claim:
                    k = next(todo, None)
                if k is None:
                    return
                try:
                    out[k] = forward(slice(starts[k], min(starts[k] + chunk, n)))
                except Exception as exc:
                    failed[k] = exc

    helpers = [_lane_pool().submit(contextvars.copy_context().run, lane)
               for _ in range(forward_lanes(len(starts)) - 1)]
    try:
        lane()
    finally:
        with claim:  # an interrupted caller leaves no slice for the helpers to claim
            for _ in todo:
                pass
        for helper in helpers:
            helper.result()
    if failed:
        raise failed[min(failed)]
    return np.concatenate(out) if out else np.empty(0)


def count_params(params: ParameterSet, nonzero_only: bool = False) -> int:
    if nonzero_only:
        return int(sum(np.count_nonzero(p.data) for p in params.values()))
    return int(sum(p.data.size for p in params.values()))


def count_flops(spec: NetworkSpec) -> int:
    """Multiply-accumulates counted as 2 FLOPs; activations and pooling excluded.

    A conv weight is applied once per output position, a dense weight once.
    """
    shapes = spec.param_shapes()
    positions = [h * w for _, (h, w) in spec.spatial_sizes()]  # the conv layers come first
    positions += [1] * (len(spec.layers) - len(positions))
    return sum(
        2 * math.prod(shapes[f"{layer.name}.weight"]) * n
        for layer, n in zip(spec.layers, positions)
    )
