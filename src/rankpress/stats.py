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


def f_test(residuals_a, residuals_b) -> FTestResult:
    """Two-sided variance-ratio test on regression residuals, at 95% confidence."""
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
    if p_one >= (1.0 - 0.95) / 2.0:  # two-sided
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


def _residual(b: np.ndarray, x: np.ndarray, t: np.ndarray, out=None):
    """``t`` minus the logistic at ``b`` (four parameters, or four rows of one
    parameter per point), with the ``x - b3`` and the sigmoid
    ``1 / (1 + exp(b2 (x - b3)))`` it was computed from."""
    xc = x - b[2]
    g = 1.0 / (1.0 + np.exp(np.minimum(np.maximum(b[1] * xc, -500.0), 500.0)))
    return np.subtract(t, b[0] * (0.5 - g) + b[3], out=out), xc, g


class _Layout:
    """The points of the live problems of ``_lm``, a problem's points contiguous
    and the largest point count first, with the buffers a round writes and, per
    run of problems with one point count, the views its matmuls read and write."""

    def __init__(self, x: np.ndarray, t: np.ndarray, counts: np.ndarray):
        self.x, self.t, self.counts = x, t, counts
        self.r = np.empty(x.size)
        self.jac = np.empty((x.size, 4))
        self.jac[:, 3] = 1.0
        self.sse = np.empty(counts.size)
        self.h, self.grad = np.empty((counts.size, 4, 4)), np.empty((counts.size, 4, 1))
        self.sse_views, self.normal_views = [], []
        k0 = p0 = 0
        for k1 in range(1, counts.size + 1):
            if k1 < counts.size and counts[k1] == counts[k0]:
                continue
            k, n = k1 - k0, int(counts[k0])
            p1 = p0 + k * n
            rows, jac = self.r[p0:p1].reshape(k, n), self.jac[p0:p1].reshape(k, n, 4)
            self.sse_views.append((rows[:, None, :], rows[:, :, None], self.sse[k0:k1, None, None]))
            self.normal_views.append((jac.transpose(0, 2, 1), jac, rows[:, :, None],
                                      self.grad[k0:k1], self.h[k0:k1]))
            k0, p0 = k1, p1

    def keep(self, rows: np.ndarray) -> "_Layout":
        """The layout of the problems where ``rows`` is true."""
        points = np.repeat(rows, self.counts)
        return _Layout(self.x[points], self.t[points], self.counts[rows])

    def trial(self, b: np.ndarray):
        """Each problem's SSE at its row of ``b``, with the per-point parameters,
        sigmoid and ``x - b3`` the residuals in ``self.r`` were computed from."""
        bp = np.repeat(b.T, self.counts, axis=1)  # each problem's parameters at its points
        _, xc, g = _residual(bp, self.x, self.t, out=self.r)
        for rows, cols, out in self.sse_views:
            np.matmul(rows, cols, out=out)
        return self.sse, bp, xc, g

    def normal_equations(self, bp, xc, g):
        """Each problem's ``jac.T @ jac`` and ``jac.T @ r`` at the last trial."""
        gg = g * (1.0 - g)
        np.subtract(0.5, g, out=self.jac[:, 0])
        np.multiply(bp[0] * gg, xc, out=self.jac[:, 1])
        np.multiply(-bp[0] * bp[1], gg, out=self.jac[:, 2])
        for jac_t, jac, r, grad, h in self.normal_views:
            np.matmul(jac_t, r, out=grad)
            np.matmul(jac_t, jac, out=h)
        return self.h, self.grad


def _lm(problems, max_iter: int = 200) -> list[tuple[np.ndarray, float]]:
    """Damped (Levenberg-Marquardt-style) least squares of every ``(b0, x, t)`` in
    ``problems``, all in one loop; SSE never increases.

    Each round makes one damped trial of every live problem. A problem stops on an
    improvement below ``1e-14 * max(sse, 1)``, after ``max_iter`` accepted steps or
    after 50 rejected trials in a row, and its points leave the arrays in that
    round. A problem's iterates are bit for bit those it gets solved alone:
    elementwise ops do not depend on a point's position, ``np.linalg.solve`` runs
    one LAPACK ``gesv`` per matrix of a stack, and each reduction is one
    ``np.matmul`` over the problems of one point count, so each problem's products
    run the BLAS kernel they would run alone. The Jacobian of an accepted step
    reuses the sigmoid and ``x - b3`` of its trial.
    """
    if not problems:
        return []
    order = sorted(range(len(problems)), key=lambda i: -problems[i][1].size)
    idx = np.array(order, dtype=np.intp)
    lay = _Layout(np.concatenate([problems[i][1] for i in order]),
                  np.concatenate([problems[i][2] for i in order]),
                  np.array([problems[i][1].size for i in order], dtype=np.intp))
    b = np.array([problems[i][0] for i in order], dtype=np.float64).reshape(-1, 4)
    out = [None] * len(problems)
    # a rejected trial may overflow or divide by zero; its SSE check rejects it
    with np.errstate(all="ignore"):
        sse, bp, xc, g = lay.trial(b)
        sse = sse.copy()
        h, grad = (a.copy() for a in lay.normal_equations(bp, xc, g))
        mu = np.full(len(order), 1e-3)
        steps = np.zeros(len(order), dtype=np.intp)
        fails = np.zeros(len(order), dtype=np.intp)  # rejected trials since the last step
        done = np.full(len(order), max_iter <= 0)
        damped = h.copy()  # h with mu added to its diagonal
        while True:
            if np.count_nonzero(done):
                for k in np.flatnonzero(done):
                    out[idx[k]] = (b[k].copy(), float(sse[k]))
                keep = ~done
                if not np.count_nonzero(keep):
                    return out
                lay = lay.keep(keep)
                idx, b, sse, mu, steps, fails, h, grad, damped = (
                    a[keep] for a in (idx, b, sse, mu, steps, fails, h, grad, damped))
            np.add(h.reshape(-1, 16)[:, ::5], mu[:, None], out=damped.reshape(-1, 16)[:, ::5])
            try:
                delta = np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError:
                # solved one by one, a singular matrix gives NaN: a rejected trial
                delta = np.full_like(grad, np.nan)
                for k in range(len(delta)):
                    try:
                        delta[k] = np.linalg.solve(damped[k], grad[k])
                    except np.linalg.LinAlgError:
                        pass
            b_new = b + delta[:, :, 0]
            sse_new, bp, xc, g = lay.trial(b_new)
            ok = np.isfinite(sse_new) & (sse_new <= sse)
            improved = sse - sse_new
            np.copyto(b, b_new, where=ok[:, None])
            np.copyto(sse, sse_new, where=ok)
            mu = np.where(ok, np.maximum(mu / 3.0, 1e-12), mu * 10.0)
            steps += ok
            fails = np.where(ok, 0, fails + 1)
            done = np.where(ok, (improved < 1e-14 * np.maximum(sse, 1.0)) | (steps == max_iter),
                            fails == 50)
            fresh = ok & ~done
            if np.count_nonzero(fresh):
                h_new, grad_new = lay.normal_equations(bp, xc, g)
                np.copyto(h, h_new, where=fresh[:, None, None])
                np.copyto(damped, h_new, where=fresh[:, None, None])
                np.copyto(grad, grad_new, where=fresh[:, None, None])


def _fit_problem(pred, truth):
    """The checked points of one logistic fit, its two starts and its least-squares line."""
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
    return x, t, (b_init, b_linear), (slope, intercept)


def _solve_fits(fits) -> list[LogisticFit]:
    """Every start of every ``_fit_problem`` in one ``_lm`` call; each fit keeps its
    start of least SSE, or its line if that start is not finite."""
    solved = _lm([(b0, x, t) for x, t, starts, _ in fits for b0 in starts])
    out = []
    for k, (x, t, _, (slope, intercept)) in enumerate(fits):
        b, sse = min(solved[2 * k:2 * k + 2], key=lambda c: c[1])
        if not np.all(np.isfinite(b)):
            r = t - (slope * x + intercept)
            out.append(LogisticFit((slope, 0.0, 0.0, intercept), r, float(r @ r), True))
            continue
        r = _residual(b, x, t)[0]
        out.append(LogisticFit(tuple(float(v) for v in b), r, sse, False))
    return out


def logistic_fits(pairs) -> list[LogisticFit]:
    """Least-squares fits of a 4-parameter logistic mapping pred -> truth, one per
    ``(pred, truth)`` of ``pairs``, solved together."""
    return _solve_fits([_fit_problem(pred, truth) for pred, truth in pairs])


def logistic_fit(pred, truth) -> LogisticFit:
    """Least-squares fit of a 4-parameter logistic mapping pred -> truth."""
    return logistic_fits([(pred, truth)])[0]


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


def evaluate_models(models, items: np.ndarray, predictor=None) -> list[EvalReport]:
    """Score ``items`` once per ``(name, spec, params)`` of ``models`` and evaluate
    "all" and each kind subset of them, with every logistic fit solved in one
    ``_lm`` call after the last model. ``models`` is consumed in order, so a lazy
    one loads each model just before it is scored. ``predictor`` overrides the
    network forward pass (used to sanity-check the harness against known-perfect
    predictions)."""
    truth = items["mos"].astype(np.float64)
    subsets = eval_subsets(items)
    counted, sroccs, fits = [], [], []
    for name, spec, params in models:
        if len(items) == 0:
            raise StatsError("evaluate_models requires a non-empty eval set")
        if predictor is None:
            preds = predict_scores(spec, params, items)
        else:
            preds = np.asarray(predictor(items), dtype=np.float64)
        for rows in subsets.values():
            sroccs.append(srocc(preds[rows], truth[rows]))
            fits.append(_fit_problem(preds[rows], truth[rows]))
        counted.append((name, count_params(params), count_params(params, nonzero_only=True),
                            count_flops(spec)))
    fitted = iter(zip(sroccs, _solve_fits(fits)))
    return [EvalReport(name, total, nonzero, flops,
                       {ds_name: DatasetEval(*next(fitted)) for ds_name in subsets})
            for name, total, nonzero, flops in counted]


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
    """Text table of SROCC(F-verdict) cells, each column as wide as its longest entry and
    the cells right-aligned under the model names, then the retention ratios."""
    rows = [("dataset", cmp.candidate, cmp.reference)]
    rows += [(name, f"{sc:.4f} ({verdict:+d})", f"{sr:.4f}")
             for name, (sc, sr, verdict) in cmp.per_dataset.items()]
    w = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = [f"{name:<{w[0]}}  {cand:>{w[1]}}  {ref:>{w[2]}}" for name, cand, ref in rows]
    lines.append(f"params retained: {100.0 * cmp.params_ratio:.2f}%")
    lines.append(f"flops retained: {100.0 * cmp.flops_ratio:.2f}%")
    lines.append(f"srocc retention: {100.0 * cmp.srocc_retention:.2f}%")
    return "\n".join(lines)


COMPARISON_FIELDS = ["dataset", "srocc_candidate", "srocc_reference", "f_verdict"]


def comparison_csv_rows(cmp: ModelComparison) -> list[dict]:
    """The rows of ``comparison.csv``: one per dataset, then the SROCC retention."""
    rows = [(name, f"{sc:.6f}", f"{sr:.6f}", verdict)
            for name, (sc, sr, verdict) in cmp.per_dataset.items()]
    rows.append(("__ratios__", f"{cmp.srocc_retention:.6f}", "", ""))
    return [dict(zip(COMPARISON_FIELDS, row)) for row in rows]
