"""Multi-level knowledge distillation for the pruned student.

Three logit-level alignment terms against a frozen teacher: per-instance
soft-target BCE, a B x B Gram-matrix match of the batch prediction vectors,
and a scalar self-inner-product match. The total objective adds the
ground-truth ranking BCE weighted by alpha.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .nets import NetworkSpec, ParameterSet
from .optim import (
    EPS_PROB,
    AdaMax,
    NumericalError,
    OptimizerConfig,
    pair_accuracy,
    predict_batch,
    ranking_bce_loss,
    restore,
    snapshot,
)


@dataclass
class DistillConfig:
    alpha: float = 0.1
    epochs: int = 30
    batch_size: int = 8
    optim: OptimizerConfig = field(default_factory=OptimizerConfig)


@dataclass
class BatchPredictions:
    """Teacher/student preference probabilities and labels for one batch."""

    teacher: np.ndarray
    student: Union[Tensor, np.ndarray]
    labels: np.ndarray

    def __post_init__(self):
        self.teacher = np.asarray(self.teacher, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if not isinstance(self.student, Tensor):
            self.student = Tensor(np.asarray(self.student, dtype=np.float64))
        b = self.teacher.shape[0]
        if self.student.data.shape != (b,) or self.labels.shape != (b,):
            raise ValueError("teacher, student, and labels must share length B")


def _clamped(p: Tensor) -> Tensor:
    return ad.clip(p, EPS_PROB, 1.0 - EPS_PROB)


def instance_loss(bp: BatchPredictions) -> Tensor:
    """Mean BCE with the teacher probability as the soft target."""
    t = np.clip(bp.teacher, EPS_PROB, 1.0 - EPS_PROB)
    s = _clamped(bp.student)
    return -ad.tmean(t * ad.log(s) + (1.0 - t) * ad.log(1.0 - s))


def batch_loss(bp: BatchPredictions) -> Tensor:
    """Squared Frobenius distance of the B x B Gram matrices, scaled by 1/B."""
    b = bp.teacher.shape[0]
    gram_t = np.outer(bp.teacher, bp.teacher)
    s_col = ad.reshape(bp.student, (b, 1))
    s_row = ad.reshape(bp.student, (1, b))
    diff = ad.sub(Tensor(gram_t.astype(bp.student.dtype)), ad.mul(s_col, s_row))
    return ad.mul(ad.tsum(ad.mul(diff, diff)), 1.0 / b)


def class_loss(bp: BatchPredictions) -> Tensor:
    """Squared difference of the scalar self-inner-products (binary case)."""
    tt = float(np.dot(bp.teacher, bp.teacher))
    ss = ad.tsum(ad.mul(bp.student, bp.student))
    diff = ad.sub(ss, tt)
    return ad.mul(diff, diff)


def multilevel_loss(bp: BatchPredictions) -> Tensor:
    return instance_loss(bp) + batch_loss(bp) + class_loss(bp)


def total_loss(bp: BatchPredictions, alpha: float = 0.1) -> Tensor:
    return multilevel_loss(bp) + alpha * ranking_bce_loss(bp.student, bp.labels)


def teacher_probabilities(spec: NetworkSpec, params: ParameterSet, batch: np.ndarray) -> np.ndarray:
    """Forward the frozen teacher; returns plain probabilities (no gradients)."""
    return predict_batch(spec, params, batch).data.copy()


def distill_train(
    teacher_spec: NetworkSpec,
    teacher_params: ParameterSet,
    student_spec: NetworkSpec,
    student_params: ParameterSet,
    train_set: np.ndarray,
    config: DistillConfig,
    val_set: Optional[np.ndarray] = None,
    log_path=None,
) -> list[dict]:
    """Train the student on the multi-level objective; the teacher stays frozen.

    Returns per-epoch log rows with all four loss terms. A non-finite loss
    restores the last good epoch and stops.
    """
    if len(train_set) == 0:
        raise ValueError("empty training set")
    teacher_before = {k: p.data.copy() for k, p in teacher_params.items()}
    oc = config.optim
    opt = AdaMax(student_params, lr=oc.lr, beta1=oc.beta1, beta2=oc.beta2)
    log: list[dict] = []
    last_good = snapshot(student_params)
    for epoch in range(config.epochs):
        rng = np.random.default_rng(np.random.SeedSequence((oc.seed, 0xF0, epoch)))
        perm = rng.permutation(len(train_set))
        sums = {"instance": 0.0, "batch": 0.0, "class": 0.0, "rank": 0.0, "total": 0.0}
        nb = 0
        diverged = False
        for start in range(0, len(perm), config.batch_size):
            batch = train_set[perm[start : start + config.batch_size]]
            labels = batch["label"]
            p_t = teacher_probabilities(teacher_spec, teacher_params, batch)
            for p in student_params.values():
                p.zero_grad()
            p_s = predict_batch(student_spec, student_params, batch)
            bp = BatchPredictions(p_t, p_s, labels)
            li, lb, lc = instance_loss(bp), batch_loss(bp), class_loss(bp)
            lr_term = ranking_bce_loss(p_s, labels)
            loss = li + lb + lc + config.alpha * lr_term
            if not np.isfinite(loss.data):
                diverged = True
                break
            backward(loss)
            try:
                opt.step()
            except NumericalError:
                diverged = True
                break
            sums["instance"] += float(li.data)
            sums["batch"] += float(lb.data)
            sums["class"] += float(lc.data)
            sums["rank"] += float(lr_term.data)
            sums["total"] += float(loss.data)
            nb += 1
        if diverged:
            restore(student_params, last_good)
            log.append({"epoch": epoch, "diverged": 1, **{k: float("nan") for k in sums},
                        "val_acc": float("nan")})
            break
        row = {"epoch": epoch, "diverged": 0}
        row.update({k: v / nb for k, v in sums.items()})
        row["val_acc"] = (pair_accuracy(student_spec, student_params, val_set)
                          if val_set is not None and len(val_set) else float("nan"))
        log.append(row)
        last_good = snapshot(student_params)

    for k, p in teacher_params.items():
        assert np.array_equal(p.data, teacher_before[k]), f"teacher parameter {k} mutated"
    if log_path is not None:
        write_distill_log(log_path, log)
    return log


def write_distill_log(path, log: list[dict]):
    fields = ["epoch", "instance", "batch", "class", "rank", "total", "val_acc", "diverged"]
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in log:
            writer.writerow({k: row.get(k, "") for k in fields})
