"""Ranking-based quality networks: topology, forward semantics, accounting.

A network scores a (reference, distorted) patch pair; the preference
probability for two such pairs is sigmoid(s1 - s2). The teacher is a stack
of conv blocks (conv -> leaky ReLU -> 2x average pool) over the channel
concatenation of (R - D) and D, followed by global average pooling and a
dense score head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor


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
    """

    in_channels: int
    height: int
    width: int
    layers: tuple[LayerSpec, ...]

    def validate(self):
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


@dataclass(frozen=True)
class NetConfig:
    """Geometry and widths for building a fresh ranking network."""

    channels: int = 1
    height: int = 64
    width: int = 64
    conv_widths: tuple[int, ...] = (32, 64, 128)
    dense_widths: tuple[int, ...] = (64,)
    kernel: int = 3
    seed: int = 0


def build_spec(config: NetConfig) -> NetworkSpec:
    if config.channels < 1 or config.height < 1 or config.width < 1:
        raise ConfigError("patch geometry extents must be positive")
    if any(w < 1 for w in config.conv_widths) or any(w < 1 for w in config.dense_widths):
        raise ConfigError("layer widths must be positive")
    in_ch = 2 * config.channels  # (R - D) planes concatenated with D planes
    layers = []
    prev, pad = in_ch, config.kernel // 2
    for i, width in enumerate(config.conv_widths):
        layers.append(LayerSpec(f"conv{i + 1}", "conv", prev, width, config.kernel, 1, pad))
        prev = width
    for i, width in enumerate((*config.dense_widths, 1)):  # the last is the score head
        layers.append(LayerSpec(f"fc{i + 1}", "dense", prev, width))
        prev = width
    spec = NetworkSpec(in_ch, config.height, config.width, tuple(layers))
    spec.validate()
    return spec


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


def build_teacher(config: NetConfig = NetConfig()) -> tuple[NetworkSpec, ParameterSet]:
    spec = build_spec(config)
    return spec, init_params(spec, seed=config.seed)


def forward_features(spec: NetworkSpec, params: ParameterSet, x: Tensor) -> Tensor:
    """Run the spec'd layer stack on a prepared NCHW input, returning scores [N]."""
    out = x
    for layer in spec.layers:
        w = params[f"{layer.name}.weight"]
        b = params[f"{layer.name}.bias"]
        if layer.kind == "conv":
            out = ad.conv2d(out, w, b, stride=layer.stride, padding=layer.padding)
            out = ad.leaky_relu(out)
            out = ad.avg_pool2(out)
        else:  # the first dense layer pools the NCHW maps, the later ones follow leaky ReLU
            out = ad.global_avg_pool(out) if out.data.ndim == 4 else ad.leaky_relu(out)
            out = ad.dense(out, w, b)
    return ad.reshape(out, (out.data.shape[0],))


def _check_geometry(spec: NetworkSpec, arr: np.ndarray, what: str):
    c = spec.in_channels // 2
    if arr.shape[-3:] != (c, spec.height, spec.width):
        raise ShapeError(
            f"{what} geometry {arr.shape[-3:]} != configured ({c}, {spec.height}, {spec.width})"
        )


def pair_input(spec: NetworkSpec, ref: np.ndarray, dist: np.ndarray, dtype=None) -> Tensor:
    """Assemble the network input: concat(R - D, D) along channels, NCHW."""
    ref = np.asarray(ref)
    dist = np.asarray(dist)
    if ref.ndim == 3:
        ref, dist = ref[None], dist[None]
    _check_geometry(spec, ref, "reference")
    _check_geometry(spec, dist, "distorted")
    if dtype is None:
        dtype = ref.dtype
    stacked = np.concatenate([ref - dist, dist], axis=1).astype(dtype)
    return Tensor(stacked)


def score_batch(spec: NetworkSpec, params: ParameterSet, ref: np.ndarray, dist: np.ndarray) -> Tensor:
    dtype = next(iter(params.values())).data.dtype
    return forward_features(spec, params, pair_input(spec, ref, dist, dtype=dtype))


def sequence_quality(
    spec: NetworkSpec,
    params: ParameterSet,
    ref_frames: Sequence[np.ndarray],
    dist_frames: Sequence[np.ndarray],
    sampler: Optional[Callable[[Sequence[np.ndarray], Sequence[np.ndarray]], list]] = None,
) -> float:
    """Mean patch score over co-located sampled patches of an aligned sequence."""
    if len(ref_frames) != len(dist_frames):
        raise ShapeError("reference and distorted sequences differ in length")
    if sampler is None:
        pairs = list(zip(ref_frames, dist_frames))
    else:
        pairs = sampler(ref_frames, dist_frames)
    if not pairs:
        raise ValueError("no patches sampled from sequence")
    refs = np.stack([np.asarray(r) for r, _ in pairs])
    dists = np.stack([np.asarray(d) for _, d in pairs])
    return float(score_batch(spec, params, refs, dists).data.mean())


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
