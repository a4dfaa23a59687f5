"""Phase-1 training: ranking BCE plus L1 sparsity with AdaMax.

The sparsifier follows a two-phase schedule: soft-threshold proximal steps
(exact prox of the scaled L1 norm) for the first half of the epochs, then
orthant-projected steps that freeze zeros and zero out sign flips for the
second half. Biases are exempt from the penalty and from sparsity
statistics.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .nets import NetworkSpec, ParameterSet, score_batch

EPS_PROB = 1e-7


class NumericalError(ArithmeticError):
    """Training hit a non-finite loss or gradient."""


@dataclass
class OptimizerConfig:
    lr: float = 0.002
    beta1: float = 0.9
    beta2: float = 0.999
    lam: float = 0.1
    epochs: int = 30
    batch_size: int = 8
    switch_epoch: Optional[int] = None  # default: epochs // 2
    seed: int = 0

    def resolved_switch(self) -> int:
        return self.epochs // 2 if self.switch_epoch is None else self.switch_epoch


def ranking_bce_loss(p: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross entropy of preference probabilities against labels.

    Probabilities are clamped to [eps, 1-eps] so saturated predictions stay
    finite; the clamp kills the gradient only where it is active.
    """
    labels = np.asarray(labels, dtype=p.dtype)
    pc = ad.clip(p, EPS_PROB, 1.0 - EPS_PROB)
    return -ad.tmean(labels * ad.log(pc) + (1.0 - labels) * ad.log(1.0 - pc))


class AdaMax:
    """AdaMax: first-moment EMA plus infinity-norm second moment."""

    def __init__(self, params: ParameterSet, lr: float, beta1: float = 0.9, beta2: float = 0.999):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.u = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        scale = self.lr / (1.0 - self.beta1**self.t)
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient in {name}")
            m = self.m[name]
            u = self.u[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            np.maximum(self.beta2 * u, np.abs(g), out=u)
            p.data -= scale * m / (u + 1e-8)


def prox_l1_step(params: ParameterSet, eta: float, lam: float):
    """Elementwise soft-threshold on weights: w <- sign(w) * max(|w| - eta*lam, 0)."""
    thr = eta * lam
    if thr == 0.0:
        return
    for name, p in params.items():
        if not name.endswith(".weight"):
            continue
        w = p.data
        p.data = np.sign(w) * np.maximum(np.abs(w) - w.dtype.type(thr), 0.0)


def capture_signs(params: ParameterSet) -> dict[str, np.ndarray]:
    return {
        name: np.sign(p.data) for name, p in params.items() if name.endswith(".weight")
    }


def orthant_step(params: ParameterSet, ref_signs: dict[str, np.ndarray], eta: float, lam: float):
    """L1 subgradient shift plus orthant projection against the reference signs.

    Coordinates whose sign flips relative to the reference are set to exactly
    0; coordinates with reference sign 0 stay frozen at 0.
    """
    for name, ref in ref_signs.items():
        w = params[name].data
        w -= (eta * lam) * ref.astype(w.dtype)
        w[w * ref <= 0] = 0.0


def nonzero_weight_count(params: ParameterSet) -> int:
    return int(
        sum(np.count_nonzero(p.data) for n, p in params.items() if n.endswith(".weight"))
    )


def total_weight_count(params: ParameterSet) -> int:
    return int(sum(p.data.size for n, p in params.items() if n.endswith(".weight")))


def weight_l1(params: ParameterSet) -> float:
    return float(sum(np.abs(p.data).sum() for n, p in params.items() if n.endswith(".weight")))


def predict_batch(spec: NetworkSpec, params: ParameterSet, batch: np.ndarray) -> Tensor:
    """Preference probabilities for ``pair_dtype`` records, differentiable w.r.t. params."""
    patches = batch["patches"]
    s1 = score_batch(spec, params, patches[:, 0], patches[:, 1])
    s2 = score_batch(spec, params, patches[:, 2], patches[:, 3])
    return ad.sigmoid(s1 - s2)


def pair_accuracy(spec: NetworkSpec, params: ParameterSet, dataset: np.ndarray,
                  batch_size: int = 64) -> float:
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    correct = 0
    for start in range(0, len(dataset), batch_size):
        batch = dataset[start : start + batch_size]
        p = predict_batch(spec, params, batch).data
        correct += int(np.sum((p > 0.5) == (batch["label"] == 1)))
    return correct / len(dataset)


def snapshot(params: ParameterSet) -> dict[str, np.ndarray]:
    return {k: p.data.copy() for k, p in params.items()}


def restore(params: ParameterSet, snap: dict[str, np.ndarray]):
    for k, p in params.items():
        p.data = snap[k].copy()


def train_ranking(
    spec: NetworkSpec,
    params: ParameterSet,
    train_set: np.ndarray,
    config: OptimizerConfig,
    val_set: Optional[np.ndarray] = None,
    sparsify: bool = False,
    log_path=None,
) -> list[dict]:
    """Train the ranking objective on ``pair_dtype`` records; with ``sparsify``
    adds the L1 machinery.

    Returns per-epoch log rows. On a non-finite loss the last good epoch's
    parameters are restored and training stops (the event is logged).
    """
    if len(train_set) == 0:
        raise ValueError("empty training set")
    opt = AdaMax(params, lr=config.lr, beta1=config.beta1, beta2=config.beta2)
    switch = config.resolved_switch()
    log: list[dict] = []
    last_good = snapshot(params)
    for epoch in range(config.epochs):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xE0, epoch)))
        perm = rng.permutation(len(train_set))
        losses = []
        hits = 0
        diverged = False
        for start in range(0, len(perm), config.batch_size):
            batch = train_set[perm[start : start + config.batch_size]]
            labels = batch["label"]
            for p in params.values():
                p.zero_grad()
            probs = predict_batch(spec, params, batch)
            loss = ranking_bce_loss(probs, labels)
            if not np.isfinite(loss.data):
                diverged = True
                break
            backward(loss)
            orthant_phase = sparsify and config.lam > 0 and epoch >= switch
            ref = capture_signs(params) if orthant_phase else None
            try:
                opt.step()
            except NumericalError:
                diverged = True
                break
            if sparsify and config.lam > 0:
                if orthant_phase:
                    orthant_step(params, ref, config.lr, config.lam)
                else:
                    prox_l1_step(params, config.lr, config.lam)
            losses.append(float(loss.data))
            hits += int(np.sum((probs.data > 0.5) == (labels == 1)))
        if diverged:
            restore(params, last_good)
            log.append({"epoch": epoch, "loss": float("nan"), "l1": weight_l1(params),
                        "nonzero": nonzero_weight_count(params), "acc": float("nan"),
                        "val_acc": float("nan"), "diverged": 1})
            break
        row = {
            "epoch": epoch,
            "loss": float(np.mean(losses)),
            "l1": weight_l1(params),
            "nonzero": nonzero_weight_count(params),
            "acc": hits / len(train_set),
            "val_acc": (pair_accuracy(spec, params, val_set)
                        if val_set is not None and len(val_set) else float("nan")),
            "diverged": 0,
        }
        log.append(row)
        last_good = snapshot(params)
    if log_path is not None:
        write_training_log(log_path, log)
    return log


def write_training_log(path, log: list[dict]):
    path = Path(path)
    fields = ["epoch", "loss", "l1", "nonzero", "acc", "val_acc", "diverged"]
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in log:
            writer.writerow({k: row.get(k, "") for k in fields})
