"""Multi-level knowledge distillation for the pruned student.

Three logit-level alignment terms against a frozen teacher: per-instance
soft-target BCE, a B x B Gram-matrix match of the batch prediction vectors,
and a scalar self-inner-product match. The total objective adds the
ground-truth ranking BCE weighted by alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

# backward and pair_accuracy are not called here: perfbench/tracing.py wraps them in this module.
from .autodiff import Tensor, _node, backward
from .nets import NetworkSpec, ParameterSet
from .optim import (EPS_PROB, AdaMax, clamped, descend, fit, pair_accuracy, predict_batch,
                    predict_probabilities, ranking_bce_loss)
from .pruning import StructureError

if TYPE_CHECKING:
    from .pipeline import PipelineConfig


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


def instance_loss(bp: BatchPredictions) -> Tensor:
    """Mean BCE with the teacher probability as the soft target."""
    return ranking_bce_loss(bp.student, np.clip(bp.teacher, EPS_PROB, 1.0 - EPS_PROB))


def batch_loss(bp: BatchPredictions) -> Tensor:
    """Squared Frobenius distance of the B x B Gram matrices, scaled by 1/B."""
    s, inside = clamped(bp.student.data)
    b = s.shape[0]
    diff = np.outer(bp.teacher, bp.teacher).astype(s.dtype) - np.outer(s, s)
    loss = (diff * diff).sum() * s.dtype.type(1.0 / b)
    # the Gram difference is symmetric, so both factors of s s^T give diff @ s
    return _node(loss, (bp.student,), (lambda g: g * inside * (diff @ s) * (-4.0 / b),))


def class_loss(bp: BatchPredictions) -> Tensor:
    """Squared difference of the scalar self-inner-products (binary case)."""
    s, inside = clamped(bp.student.data)
    diff = (s * s).sum() - s.dtype.type(np.dot(bp.teacher, bp.teacher))
    return _node(diff * diff, (bp.student,), (lambda g: g * inside * s * (4.0 * diff),))


def objective(bp: BatchPredictions, alpha: float) -> tuple[Tensor, ...]:
    """The instance, batch, class and ranking terms, then their total
    ``instance + batch + class + alpha * rank``, in ``DISTILL_TERMS`` order."""
    li, lb, lc = instance_loss(bp), batch_loss(bp), class_loss(bp)
    lr = ranking_bce_loss(bp.student, bp.labels)
    return li, lb, lc, lr, li + lb + lc + alpha * lr


def total_loss(bp: BatchPredictions, alpha: float = 0.1) -> Tensor:
    return objective(bp, alpha)[-1]


def teacher_probabilities(spec: NetworkSpec, params: ParameterSet, pairs: np.ndarray) -> np.ndarray:
    """Forward the frozen teacher over ``pairs``; returns plain probabilities (no gradients)."""
    return predict_probabilities(spec, params, pairs)


DISTILL_TERMS = ["instance", "batch", "class", "rank", "total"]
DISTILL_FIELDS = ["epoch", *DISTILL_TERMS, "val_acc", "diverged"]


def distill_train(
    teacher_spec: NetworkSpec,
    teacher_params: ParameterSet,
    student_spec: NetworkSpec,
    student_params: ParameterSet,
    train_set: np.ndarray,
    cfg: PipelineConfig,
    val_set: Optional[np.ndarray] = None,
) -> list[dict]:
    """Train the student on the multi-level objective, the ranking term weighted
    by ``cfg.alpha``; the teacher stays frozen.

    Returns the per-epoch log rows of :func:`optim.fit` with all four loss
    terms. Raises ``StructureError`` if the teacher's parameters changed.
    """
    teacher_before = {k: p.data.copy() for k, p in teacher_params.items()}
    opt = AdaMax(student_params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    # the teacher is frozen: one forward over the train set serves every epoch
    p_teacher = teacher_probabilities(teacher_spec, teacher_params, train_set)

    def step(epoch, batch, idx):
        p_s = predict_batch(student_spec, student_params, batch)
        terms = objective(BatchPredictions(p_teacher[idx], p_s, batch["label"]), cfg.alpha)
        descend(terms[-1], opt)
        return terms[-1], [float(t.data) for t in terms]

    def summarize(records):
        sums = [0.0] * len(DISTILL_TERMS)
        for terms in records:
            sums = [total + v for total, v in zip(sums, terms)]
        return {k: v / len(records) for k, v in zip(DISTILL_TERMS, sums)}

    log = fit(student_spec, student_params, train_set, cfg, 0xF0, step, summarize,
              DISTILL_FIELDS, val_set)
    for k, p in teacher_params.items():
        if not np.array_equal(p.data, teacher_before[k]):
            raise StructureError(f"teacher parameter {k} mutated")
    return log
