"""Phase-1 training: ranking BCE plus L1 sparsity with AdaMax, on the epoch
loop (:func:`fit`) that distillation shares.

The sparsifier follows a two-phase schedule: soft-threshold proximal steps
(exact prox of the scaled L1 norm) for the first half of the epochs, then
orthant-projected steps that freeze zeros and zero out sign flips for the
second half. Biases are exempt from the penalty and from sparsity
statistics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _node, backward
from .nets import PREDICT_ROWS, NetworkSpec, ParameterSet, forward_chunks, score_batch

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

EPS_PROB = 1e-7


class NumericalError(ArithmeticError):
    """Training hit a non-finite loss or gradient."""


def clamped(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities ``p`` clamped to [eps, 1 - eps], and the mask where the clamp is
    inactive. A loss passes gradient to ``p`` only through that mask: a saturated
    probability gets none, where unclamped products such as ``p * p`` and the
    sigmoid's ``p (1 - p)`` would carry float32 subnormals, slow to compute with,
    into every layer below."""
    return np.clip(p, EPS_PROB, 1.0 - EPS_PROB), (p > EPS_PROB) & (p < 1.0 - EPS_PROB)


def ranking_bce_loss(p: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross entropy of preference probabilities against labels, hard
    or soft, as one node.

    Probabilities are clamped to [eps, 1-eps] so saturated predictions stay
    finite; the clamp kills the gradient only where it is active.
    """
    pc, inside = clamped(p.data)
    # each target and its complement rounded once from the labels' own precision
    hit = np.asarray(labels, dtype=p.dtype)
    miss = np.asarray(1.0 - np.asarray(labels), dtype=p.dtype)
    rest = 1.0 - pc
    loss = -np.mean(hit * np.log(pc) + miss * np.log(rest))
    return _node(loss, (p,), (lambda g: g * inside * ((miss / rest - hit / pc) / pc.size),))


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


def weight_l1(params: ParameterSet) -> float:
    return float(sum(np.abs(p.data).sum() for n, p in params.items() if n.endswith(".weight")))


def predict_batch(spec: NetworkSpec, params: ParameterSet, batch: np.ndarray) -> Tensor:
    """Preference probabilities for ``pair_dtype`` records, differentiable w.r.t. params.

    One forward scores the 2B rows: (r1, d1) of every record, then (r2, d2);
    the probability is the sigmoid of the first half's scores minus the second's.
    """
    patches = batch["patches"]
    ref = np.concatenate((patches[:, 0], patches[:, 2]))
    dist = np.concatenate((patches[:, 1], patches[:, 3]))
    return ad.sigmoid(ad.half_difference(score_batch(spec, params, ref, dist)))


def predict_probabilities(spec: NetworkSpec, params: ParameterSet, pairs: np.ndarray) -> np.ndarray:
    """``predict_batch`` over ``pairs`` by :func:`nets.forward_chunks`, as a plain array:
    ``PREDICT_ROWS // 2`` pairs, so ``PREDICT_ROWS`` rows, per forward."""
    return forward_chunks(lambda rows: predict_batch(spec, params, pairs[rows]).data,
                          len(pairs), PREDICT_ROWS // 2)


def pair_accuracy(spec: NetworkSpec, params: ParameterSet, dataset: np.ndarray) -> float:
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    probs = predict_probabilities(spec, params, dataset)
    return float(np.mean((probs > 0.5) == (dataset["label"] == 1)))


def snapshot(params: ParameterSet) -> dict[str, np.ndarray]:
    return {k: p.data.copy() for k, p in params.items()}


def restore(params: ParameterSet, snap: dict[str, np.ndarray]):
    for k, p in params.items():
        p.data = snap[k].copy()


def descend(loss: Tensor, opt: AdaMax):
    """Backward and one optimizer step; a non-finite loss raises ``NumericalError``."""
    if not np.isfinite(loss.data):
        raise NumericalError("non-finite loss")
    backward(loss)
    opt.step()


def fit(spec: NetworkSpec, params: ParameterSet, train_set: np.ndarray, cfg: PipelineConfig,
        stream: int, step: Callable, summarize: Callable, fields: list[str],
        val_set: Optional[np.ndarray] = None) -> list[dict]:
    """The epoch loop of every training phase.

    Each epoch visits ``train_set`` in the permutation seeded by
    ``(cfg.seed, stream, epoch)`` and calls ``step(epoch, batch, idx)`` on
    each batch, ``idx`` being its rows of ``train_set``, with the gradients
    zeroed; it returns the batch's loss tensor and a record. ``summarize``
    turns the epoch's records into the loss columns of its log row. A
    ``NumericalError`` from ``step`` restores the last completed epoch's
    parameters, logs one ``diverged=1`` row of NaNs and stops. Returns the
    rows, one per epoch, with the keys ``fields``; it writes nothing.
    """
    if len(train_set) == 0:
        raise ValueError("empty training set")
    log: list[dict] = []
    last_good = snapshot(params)
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, stream, epoch)))
        perm = rng.permutation(len(train_set))
        records = []
        # the NumericalError path reports a divergence; numpy's warnings would only repeat it
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, len(perm), cfg.batch_size):
                    for p in params.values():
                        p.zero_grad()
                    # ``loss`` keeps this batch's graph alive until the next one is built.
                    # Freed earlier, its memory goes back to the OS and the next batch
                    # faults it in again: ten times the page faults of the teacher stage.
                    idx = perm[start : start + cfg.batch_size]
                    loss, record = step(epoch, train_set[idx], idx)
                    records.append(record)
        except NumericalError:
            restore(params, last_good)
            log.append({**dict.fromkeys(fields, float("nan")), "epoch": epoch, "diverged": 1})
            break
        log.append({
            "epoch": epoch,
            **summarize(records),
            "val_acc": (pair_accuracy(spec, params, val_set)
                        if val_set is not None and len(val_set) else float("nan")),
            "diverged": 0,
        })
        last_good = snapshot(params)
    return log


RANKING_FIELDS = ["epoch", "loss", "l1", "nonzero", "acc", "val_acc", "diverged"]


def train_ranking(
    spec: NetworkSpec,
    params: ParameterSet,
    train_set: np.ndarray,
    cfg: PipelineConfig,
    val_set: Optional[np.ndarray] = None,
    sparsify: bool = False,
) -> list[dict]:
    """Train the ranking objective on ``pair_dtype`` records; with ``sparsify``
    adds the L1 machinery at weight ``cfg.lam``, which is read only then.
    Returns the per-epoch log rows of :func:`fit`.
    """
    opt = AdaMax(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    sparse = sparsify and cfg.lam > 0

    def step(epoch, batch, idx):
        labels = batch["label"]
        ref = capture_signs(params) if sparse and epoch >= cfg.epochs // 2 else None
        probs = predict_batch(spec, params, batch)
        loss = ranking_bce_loss(probs, labels)
        descend(loss, opt)
        if ref is not None:
            orthant_step(params, ref, cfg.lr, cfg.lam)
        elif sparse:
            prox_l1_step(params, cfg.lr, cfg.lam)
        return loss, (float(loss.data), int(np.sum((probs.data > 0.5) == (labels == 1))))

    def summarize(records):
        return {
            "loss": float(np.mean([loss for loss, _ in records])),
            "l1": weight_l1(params),
            "nonzero": nonzero_weight_count(params),
            "acc": sum(hits for _, hits in records) / len(train_set),
        }

    return fit(spec, params, train_set, cfg, 0xE0, step, summarize, RANKING_FIELDS, val_set)
