"""Evaluation statistics: SROCC, 4-parameter logistic regression, and the
variance-ratio F-test on regression residuals.

The F tail probability is computed from the regularized incomplete beta
function (Lentz continued fraction), accurate to ~1e-10, so the harness has
no external statistics dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nets import (PREDICT_ROWS, NetworkSpec, ParameterSet, count_flops, count_params,
                   forward_chunks, score_batch)
from .synthdata import eval_subsets


class StatsError(ValueError):
    """Degenerate input to a statistical routine."""


# ---------------------------------------------------------------------------
# rank correlation


def average_ranks(v: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based); tied values share the average rank."""
    v = np.asarray(v, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    # the sorted positions where a run of equal values starts, then the end
    bounds = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))
    first, last = bounds[:-1], bounds[1:] - 1
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def srocc(pred, truth) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size < 3:
        raise StatsError("srocc needs two equal-length vectors of size >= 3")
    rp = average_ranks(pred)
    rt = average_ranks(truth)
    rp -= rp.mean()
    rt -= rt.mean()
    denom = math.sqrt(float(rp @ rp) * float(rt @ rt))
    if denom == 0.0:
        raise StatsError("srocc undefined for a constant vector (all ranks tied)")
    return float(rp @ rt) / denom


# ---------------------------------------------------------------------------
# regularized incomplete beta and the F distribution


def _betacf(a: float, b: float, x: float) -> float:
    # modified Lentz continued fraction for the incomplete beta function
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def f_sf(f: float, d1: float, d2: float) -> float:
    """P(F > f) for the F distribution with (d1, d2) degrees of freedom."""
    if f <= 0:
        return 1.0
    x = d2 / (d2 + d1 * f)
    return betainc_reg(d2 / 2.0, d1 / 2.0, x)


@dataclass(frozen=True)
class FTestResult:
    statistic: float  # var_a / var_b
    p_value: float  # one-tail probability of the larger-over-smaller ratio
    verdict: int  # +1: a significantly better (smaller variance); -1: worse; 0: n.s.


def f_test(residuals_a, residuals_b, confidence: float = 0.95) -> FTestResult:
    """Two-sided variance-ratio test on regression residuals."""
    a = np.asarray(residuals_a, dtype=np.float64)
    b = np.asarray(residuals_b, dtype=np.float64)
    if a.size < 3 or b.size < 3:
        raise StatsError("f_test needs at least 3 residuals per model")
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    if var_a == 0.0 and var_b == 0.0:
        return FTestResult(1.0, 1.0, 0)
    if var_b == 0.0 or var_a == 0.0:
        better = +1 if var_a < var_b else -1
        return FTestResult(var_a / var_b if var_b else math.inf, 0.0, better)
    stat = var_a / var_b
    if var_a >= var_b:
        p_one = f_sf(var_a / var_b, a.size - 1, b.size - 1)
    else:
        p_one = f_sf(var_b / var_a, b.size - 1, a.size - 1)
    alpha = (1.0 - confidence) / 2.0  # two-sided at the stated confidence
    if p_one >= alpha:
        return FTestResult(stat, p_one, 0)
    return FTestResult(stat, p_one, +1 if var_a < var_b else -1)


# ---------------------------------------------------------------------------
# 4-parameter logistic regression


@dataclass(frozen=True)
class LogisticFit:
    params: tuple[float, float, float, float]  # (b1, b2, b3, b4)
    residuals: np.ndarray
    sse: float
    linear_fallback: bool


def _residual(b: np.ndarray, x: np.ndarray, t: np.ndarray):
    """``t`` minus the logistic at ``b``, with the ``x - b3`` and the sigmoid
    ``1 / (1 + exp(b2 (x - b3)))`` it was computed from."""
    xc = x - b[2]
    g = 1.0 / (1.0 + np.exp(np.clip(b[1] * xc, -500, 500)))
    return t - (b[0] * (0.5 - g) + b[3]), xc, g


def _lm(b0: np.ndarray, x: np.ndarray, t: np.ndarray, max_iter: int = 200) -> tuple[np.ndarray, float]:
    """Damped (Levenberg-Marquardt-style) least squares; SSE never increases.

    Each Jacobian reuses the sigmoid and ``x - b3`` of the point it is taken at,
    which the previous accepted step already computed.
    """
    b = b0.copy()
    r, xc, g = _residual(b, x, t)
    sse = float(r @ r)
    mu = 1e-3
    jac = np.empty((x.size, 4))
    jac[:, 3] = 1.0
    for _ in range(max_iter):
        gg = g * (1.0 - g)
        np.subtract(0.5, g, out=jac[:, 0])
        np.multiply(b[0] * gg, xc, out=jac[:, 1])
        np.multiply(-b[0] * b[1], gg, out=jac[:, 2])
        grad = jac.T @ r
        h = jac.T @ jac
        damped = h.copy()
        accepted = False
        for _ in range(50):
            np.fill_diagonal(damped, h.diagonal() + mu)
            try:
                delta = np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            b_new = b + delta
            r_new, xc_new, g_new = _residual(b_new, x, t)
            sse_new = float(r_new @ r_new)
            if np.isfinite(sse_new) and sse_new <= sse:
                improved = sse - sse_new
                b, r, sse, xc, g = b_new, r_new, sse_new, xc_new, g_new
                mu = max(mu / 3.0, 1e-12)
                accepted = True
                break
            mu *= 10.0
        if not accepted:
            break
        if improved < 1e-14 * max(sse, 1.0):
            break
    return b, sse


def logistic_fit(pred, truth, max_iter: int = 200) -> LogisticFit:
    """Least-squares fit of a 4-parameter logistic mapping pred -> truth."""
    x = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if x.size < 5:
        raise StatsError("logistic_fit needs at least 5 points")
    if np.ptp(t) == 0.0:
        raise StatsError("logistic_fit undefined for constant truth")

    sx = float(x.std()) or 1.0
    corr = float(np.corrcoef(x, t)[0, 1]) if np.ptp(x) > 0 else 0.0
    sign = -1.0 if corr < 0 else 1.0
    b_init = np.array([sign * float(np.ptp(t)) or 1.0, 1.0 / sx, float(np.median(x)), float(t.mean())])

    # second start: the near-linear limit seeded from the least-squares line,
    # so the fit always nests an (almost exactly) linear mapping
    slope, intercept = np.polyfit(x, t, 1) if np.ptp(x) > 0 else (0.0, float(t.mean()))
    b2_small = 1e-6 / sx
    b_linear = np.array([4.0 * slope / b2_small, b2_small, float(x.mean()), intercept + slope * float(x.mean())])

    candidates = []
    for b0 in (b_init, b_linear):
        try:
            candidates.append(_lm(b0, x, t, max_iter))
        except ArithmeticError:
            continue
    if not candidates:
        slope_r = np.array([slope, 0.0, 0.0, intercept])
        r = t - (slope * x + intercept)
        return LogisticFit(tuple(slope_r), r, float(r @ r), True)
    b, sse = min(candidates, key=lambda c: c[1])
    if not np.all(np.isfinite(b)):
        r = t - (slope * x + intercept)
        return LogisticFit((slope, 0.0, 0.0, intercept), r, float(r @ r), True)
    r = _residual(b, x, t)[0]
    return LogisticFit(tuple(float(v) for v in b), r, sse, False)


# ---------------------------------------------------------------------------
# model evaluation and comparison


@dataclass(frozen=True)
class DatasetEval:
    srocc: float
    fit: LogisticFit


@dataclass(frozen=True)
class EvalReport:
    name: str
    params_total: int
    params_nonzero: int
    flops: int
    datasets: dict[str, DatasetEval]


def predict_scores(spec: NetworkSpec, params: ParameterSet, items: np.ndarray) -> np.ndarray:
    """Quality scores of ``eval_dtype`` records, ``PREDICT_ROWS`` at a time by
    :func:`nets.forward_chunks`."""

    def forward(rows):
        chunk = items[rows]
        return score_batch(spec, params, chunk["ref"], chunk["dist"]).data.astype(np.float64)

    return forward_chunks(forward, len(items), PREDICT_ROWS)


def evaluate_model(
    spec: NetworkSpec,
    params: ParameterSet,
    items: np.ndarray,
    name: str = "model",
    predictor=None,
) -> EvalReport:
    """Score ``items`` once and evaluate "all" and each kind subset of them;
    ``predictor`` overrides the network forward pass (used to sanity-check the
    harness against known-perfect predictions)."""
    if len(items) == 0:
        raise StatsError("evaluate_model requires a non-empty eval set")
    if predictor is None:
        preds = predict_scores(spec, params, items)
    else:
        preds = np.asarray(predictor(items), dtype=np.float64)
    truth = items["mos"].astype(np.float64)
    results = {}
    for ds_name, rows in eval_subsets(items).items():
        results[ds_name] = DatasetEval(srocc(preds[rows], truth[rows]),
                                       logistic_fit(preds[rows], truth[rows]))
    return EvalReport(
        name=name,
        params_total=count_params(params),
        params_nonzero=count_params(params, nonzero_only=True),
        flops=count_flops(spec),
        datasets=results,
    )


@dataclass(frozen=True)
class ModelComparison:
    candidate: str
    reference: str
    per_dataset: dict[str, tuple[float, float, int]]  # (srocc_cand, srocc_ref, verdict)
    params_ratio: float
    flops_ratio: float
    srocc_retention: float


def compare_models(candidate: EvalReport, reference: EvalReport) -> ModelComparison:
    """Per-dataset SROCC + F-test verdicts and global candidate/reference ratios.

    Verdict +1 means the candidate is significantly better on that dataset.
    """
    if set(candidate.datasets) != set(reference.datasets):
        raise StatsError("models were evaluated on different datasets")
    per = {}
    for name in candidate.datasets:
        ca = candidate.datasets[name]
        rb = reference.datasets[name]
        verdict = f_test(ca.fit.residuals, rb.fit.residuals).verdict
        per[name] = (ca.srocc, rb.srocc, verdict)
    mean_c = float(np.mean([d.srocc for d in candidate.datasets.values()]))
    mean_r = float(np.mean([d.srocc for d in reference.datasets.values()]))
    return ModelComparison(
        candidate=candidate.name,
        reference=reference.name,
        per_dataset=per,
        params_ratio=candidate.params_total / reference.params_total,
        flops_ratio=candidate.flops / reference.flops,
        srocc_retention=mean_c / mean_r if mean_r else math.nan,
    )


def format_comparison(cmp: ModelComparison) -> str:
    """Aligned-text table with SROCC(F-verdict) cells and retention ratios."""
    lines = [f"{'dataset':<16} {cmp.candidate:>18} {cmp.reference:>18}"]
    for name, (sc, sr, verdict) in cmp.per_dataset.items():
        lines.append(f"{name:<16} {sc:>12.4f} ({verdict:+d}) {sr:>13.4f}     ")
    lines.append(f"params retained: {100.0 * cmp.params_ratio:.2f}%")
    lines.append(f"flops retained: {100.0 * cmp.flops_ratio:.2f}%")
    lines.append(f"srocc retention: {100.0 * cmp.srocc_retention:.2f}%")
    return "\n".join(lines)


def comparison_csv_rows(cmp: ModelComparison) -> list[dict]:
    rows = []
    for name, (sc, sr, verdict) in cmp.per_dataset.items():
        rows.append({
            "dataset": name,
            "srocc_candidate": f"{sc:.6f}",
            "srocc_reference": f"{sr:.6f}",
            "f_verdict": verdict,
        })
    rows.append({
        "dataset": "__ratios__",
        "srocc_candidate": f"{cmp.srocc_retention:.6f}",
        "srocc_reference": "",
        "f_verdict": "",
    })
    return rows
