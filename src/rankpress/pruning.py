"""Density-driven structured channel pruning.

Per-layer densities (nonzero-weight fractions of the sparse model) set each
layer's input-channel retention ratio. The plan is built walking backwards
from the score head; adjacent layers are reconciled so layer i's retained
output channels are exactly layer i+1's retained input channels. Channels
are selected by the L1 norm of their weight slice, keeping the largest.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, no_grad
from .nets import NetworkSpec, ParameterSet


class StructureError(ValueError):
    """Plan or parameters are inconsistent with the network spec."""


@dataclass(frozen=True)
class LayerDensity:
    name: str
    nonzero: int
    total: int

    @property
    def density(self) -> float:
        return self.nonzero / self.total if self.total else 1.0


@dataclass(frozen=True)
class DensityReport:
    layers: tuple[LayerDensity, ...]

    @property
    def global_nonzero(self) -> int:
        return sum(l.nonzero for l in self.layers)

    @property
    def global_total(self) -> int:
        return sum(l.total for l in self.layers)

    @property
    def global_density(self) -> float:
        return self.global_nonzero / self.global_total if self.global_total else 1.0

    def by_name(self) -> dict[str, LayerDensity]:
        return {l.name: l for l in self.layers}


@dataclass(frozen=True)
class LayerPlan:
    name: str
    retained_in: tuple[int, ...]
    retained_out: tuple[int, ...]


@dataclass(frozen=True)
class PruningPlan:
    layers: tuple[LayerPlan, ...]

    def by_name(self) -> dict[str, LayerPlan]:
        return {l.name: l for l in self.layers}


def compute_density(spec: NetworkSpec, params: ParameterSet) -> DensityReport:
    """Exact nonzero ratios per weight tensor; biases excluded."""
    entries = []
    for layer in spec.layers:
        w = params[f"{layer.name}.weight"].data
        total = int(w.size)
        nonzero = int(np.count_nonzero(w))
        if total == 0:
            warnings.warn(f"layer {layer.name} has no weights; density defined as 1.0")
        entries.append(LayerDensity(layer.name, nonzero, total))
    return DensityReport(tuple(entries))


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def build_pruning_plan(spec: NetworkSpec, report: DensityReport, params: ParameterSet) -> PruningPlan:
    """Backward walk from the head; per-layer input retention round(D*C_in), >= 1.

    Each layer keeps the input channels whose weight slices in ``params`` have
    the largest L1 norms.
    """
    densities = report.by_name()
    missing = [l.name for l in spec.layers if l.name not in densities]
    if missing:
        raise StructureError(f"density report missing layers: {missing}")

    plans: list[LayerPlan] = []
    retained_out = tuple(range(spec.layers[-1].out_ch))  # score head output is never pruned
    for idx in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[idx]
        if idx == 0:
            retained_in = tuple(range(layer.in_ch))  # image planes are part of the contract
        else:
            keep = _round_half_up(densities[layer.name].density * layer.in_ch)
            if keep < 1:
                warnings.warn(f"layer {layer.name}: degenerate density, clamping to 1 channel")
                keep = 1
            keep = min(layer.in_ch, keep)
            importance = _channel_importance(params[f"{layer.name}.weight"].data)
            retained_in = _keep_largest(importance, keep)
        plans.append(LayerPlan(layer.name, retained_in, retained_out))
        retained_out = retained_in  # the upstream layer keeps the outputs this one reads

    return PruningPlan(tuple(reversed(plans)))


def _channel_importance(weight: np.ndarray) -> np.ndarray:
    """L1 norm of each input channel's weight slice (conv OIHW or dense OI)."""
    if weight.ndim == 4:
        return np.abs(weight).sum(axis=(0, 2, 3))
    return np.abs(weight).sum(axis=0)


def _keep_largest(importance: np.ndarray, keep: int) -> tuple[int, ...]:
    # stable sort on (-importance, index): ties broken by the lower index
    order = np.lexsort((np.arange(importance.size), -importance))
    return tuple(sorted(int(i) for i in order[:keep]))


def prune_network(
    spec: NetworkSpec, params: ParameterSet, plan: PruningPlan
) -> tuple[NetworkSpec, ParameterSet]:
    """Slice weights and biases per plan, producing the compact student."""
    mismatches = spec.shape_mismatches({name: p.data.shape for name, p in params.items()})
    if mismatches:
        raise StructureError("; ".join(mismatches))
    plan_map = plan.by_name()
    new_layers = []
    new_params: ParameterSet = {}
    prev_out: tuple[int, ...] | None = None
    for layer in spec.layers:
        lp = plan_map.get(layer.name)
        if lp is None:
            raise StructureError(f"plan missing layer {layer.name}")
        if prev_out is not None and lp.retained_in != prev_out:
            raise StructureError(
                f"plan not chain-consistent at {layer.name}: "
                f"retained_in {lp.retained_in} != upstream retained_out {prev_out}"
            )
        w = params[f"{layer.name}.weight"].data
        b = params[f"{layer.name}.bias"].data
        rin = np.asarray(lp.retained_in, dtype=int)
        rout = np.asarray(lp.retained_out, dtype=int)
        if rin.size == 0 or rout.size == 0:
            raise StructureError(f"layer {layer.name}: empty retention set")
        if rin.max(initial=0) >= layer.in_ch or rout.max(initial=0) >= layer.out_ch:
            raise StructureError(f"layer {layer.name}: retained index out of range")
        sliced_w = w[np.ix_(rout, rin)]  # indexes the leading (out, in) axes for conv and dense
        new_params[f"{layer.name}.weight"] = Tensor(sliced_w.copy(), requires_grad=True)
        new_params[f"{layer.name}.bias"] = Tensor(b[rout].copy(), requires_grad=True)
        new_layers.append(replace(layer, in_ch=rin.size, out_ch=rout.size))
        prev_out = lp.retained_out
    return replace(spec, layers=tuple(new_layers)), new_params


def identity_plan(spec: NetworkSpec) -> PruningPlan:
    return PruningPlan(
        tuple(
            LayerPlan(l.name, tuple(range(l.in_ch)), tuple(range(l.out_ch)))
            for l in spec.layers
        )
    )


def validate_structure(spec: NetworkSpec, params: ParameterSet) -> list[str]:
    """Parameter names and shapes, and a dry-run forward; returns violations."""
    from .nets import score_batch  # local import to avoid a cycle at module load

    violations = spec.shape_mismatches({name: p.data.shape for name, p in params.items()})
    if not violations:
        c = spec.in_channels // 2
        zero = np.zeros((1, c, spec.height, spec.width), dtype=np.float32)
        try:
            with no_grad():
                score_batch(spec, params, zero, zero)
        except Exception as exc:  # dry run must never abort validation
            violations.append(f"dry-run forward failed: {exc}")
    return violations


def format_density_report(report: DensityReport) -> str:
    lines = [f"{'layer':<10} {'nonzero':>10} {'total':>10} {'density':>9}"]
    for l in report.layers:
        lines.append(f"{l.name:<10} {l.nonzero:>10} {l.total:>10} {l.density:>9.4f}")
    lines.append(
        f"{'GLOBAL':<10} {report.global_nonzero:>10} {report.global_total:>10} "
        f"{report.global_density:>9.4f}"
    )
    return "\n".join(lines)


def format_plan(plan: PruningPlan) -> str:
    lines = []
    for l in plan.layers:
        lines.append(f"{l.name} in[{len(l.retained_in)}]={','.join(map(str, l.retained_in))}")
        lines.append(f"{l.name} out[{len(l.retained_out)}]={','.join(map(str, l.retained_out))}")
    return "\n".join(lines)
