import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankpress.nets import PREDICT_ROWS, build_teacher
from rankpress.pipeline import PipelineConfig
from rankpress.stats import (
    ModelComparison,
    StatsError,
    _lm,
    average_ranks,
    betainc_reg,
    compare_models,
    evaluate_models,
    f_sf,
    f_test,
    format_comparison,
    logistic_fit,
    logistic_fits,
    predict_scores,
    srocc,
)
from rankpress.synthdata import KINDS, generate_sources, make_eval_dataset


def _loop_ranks(v):
    """The former ``average_ranks``: a walk over the stably sorted values."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestRanks:
    def test_no_ties(self):
        assert np.array_equal(average_ranks(np.array([30.0, 10.0, 20.0])), [3, 1, 2])

    def test_ties_get_average(self):
        assert np.array_equal(average_ranks(np.array([1.0, 2.0, 2.0, 3.0])), [1, 2.5, 2.5, 4])

    @given(st.lists(st.integers(0, 5), min_size=3, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_rankdata(self, vals):
        v = np.array(vals, dtype=np.float64)
        assert np.allclose(average_ranks(v), scipy.stats.rankdata(v), atol=1e-12)

    @given(st.one_of(
        st.lists(st.floats(allow_nan=False), max_size=40, unique=True),  # untied
        st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0, np.inf]), max_size=40),  # tied
    ))
    @settings(max_examples=300, deadline=None)
    def test_equals_scipy_average_rankdata(self, vals):
        v = np.array(vals, dtype=np.float64)
        assert np.array_equal(average_ranks(v), scipy.stats.rankdata(v, method="average"))

    @given(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0, np.inf, np.nan]), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_the_loop_also_with_nan(self, vals):
        v = np.array(vals, dtype=np.float64)
        assert average_ranks(v).tobytes() == _loop_ranks(v).tobytes()


class TestSrocc:
    def test_monotone_is_one(self):
        assert srocc([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)

    def test_antitone_is_minus_one(self):
        assert srocc([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0, abs=1e-12)

    def test_tied_example_vs_brute_force(self):
        pred, truth = [1, 2, 2, 3], [1, 3, 2, 4]
        rp = average_ranks(np.asarray(pred, dtype=np.float64))
        rt = average_ranks(np.asarray(truth, dtype=np.float64))
        expected = np.corrcoef(rp, rt)[0, 1]
        assert srocc(pred, truth) == pytest.approx(expected, abs=1e-12)

    def test_constant_vector_rejected(self):
        with pytest.raises(StatsError):
            srocc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @given(
        st.lists(st.integers(-3, 3), min_size=4, max_size=10),
        st.lists(st.integers(-3, 3), min_size=4, max_size=10),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_spearman(self, a, b):
        n = min(len(a), len(b))
        a, b = np.array(a[:n], dtype=np.float64), np.array(b[:n], dtype=np.float64)
        if np.ptp(a) == 0 or np.ptp(b) == 0:
            return
        expected = scipy.stats.spearmanr(a, b).statistic
        assert srocc(a, b) == pytest.approx(expected, abs=1e-10)


class TestBeta:
    @given(
        st.floats(0.5, 20.0),
        st.floats(0.5, 20.0),
        st.floats(0.0, 1.0),
    )
    @example(a=0.5, b=0.5, x=0.9999999999999999)
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_betainc(self, a, b, x):
        # above 0.5 the oracle takes the complement, where 1 - x is exact (Sterbenz's
        # lemma); scipy evaluated at x itself is off by ~3e-9 near x = 1 for a = b = 0.5
        if x < 0.5:
            expected = scipy.special.betainc(a, b, x)
        else:
            expected = 1.0 - scipy.special.betainc(b, a, 1.0 - x)
        assert betainc_reg(a, b, x) == pytest.approx(expected, abs=1e-10)

    def test_f_tail_matches_scipy(self):
        for f, d1, d2 in [(1.0, 19, 19), (2.5, 19, 19), (4.0, 9, 9), (0.9, 5, 30)]:
            assert f_sf(f, d1, d2) == pytest.approx(scipy.stats.f.sf(f, d1, d2), abs=1e-10)


class TestFTest:
    def test_identical_residuals_not_significant(self):
        r = np.array([0.1, -0.2, 0.3, -0.1, 0.05])
        out = f_test(r, r)
        assert out.statistic == 1.0 and out.verdict == 0

    def test_table_critical_value_19_19(self):
        # published two-sided 95% critical value for (19,19) dof is ~2.526;
        # ratio 4.0 is significant, ratio 2.4 is not
        crit = scipy.stats.f.isf(0.025, 19, 19)
        assert crit == pytest.approx(2.526, abs=2e-3)
        rng = np.random.default_rng(0)
        base = rng.standard_normal(20)
        base = (base - base.mean()) / base.std(ddof=1)
        assert f_test(base, base * 2.0).verdict == +1  # var ratio 1/4
        assert f_test(base * 2.0, base).verdict == -1
        assert f_test(base, base * np.sqrt(2.4)).verdict == 0

    def test_table_critical_value_9_9(self):
        # two-sided 95% critical value for (9,9) dof is ~4.026
        crit = scipy.stats.f.isf(0.025, 9, 9)
        assert crit == pytest.approx(4.026, abs=2e-3)
        rng = np.random.default_rng(1)
        base = rng.standard_normal(10)
        base = (base - base.mean()) / base.std(ddof=1)
        assert f_test(base, base * np.sqrt(4.5)).verdict == +1
        assert f_test(base, base * np.sqrt(1.1)).verdict == 0

    def test_verdict_against_scipy_p_values(self):
        rng = np.random.default_rng(2)
        for scale in (1.0, 1.5, 3.0, 6.0):
            a = rng.standard_normal(15)
            b = rng.standard_normal(15) * scale
            out = f_test(a, b)
            va, vb = a.var(ddof=1), b.var(ddof=1)
            big, dofs = (va / vb, (14, 14)) if va >= vb else (vb / va, (14, 14))
            p = scipy.stats.f.sf(big, *dofs)
            assert out.p_value == pytest.approx(p, abs=1e-10)
            expected = 0 if p >= 0.025 else (+1 if va < vb else -1)
            assert out.verdict == expected

    def test_too_few_residuals_rejected(self):
        with pytest.raises(StatsError):
            f_test([0.1, 0.2], [0.1, 0.2, 0.3])


class TestLogisticFit:
    def test_recovers_generating_curve(self):
        b = np.array([3.0, 1.2, 0.5, 2.0])
        x = np.linspace(-4, 5, 40)
        t = b[0] * (0.5 - 1.0 / (1.0 + np.exp(b[1] * (x - b[2])))) + b[3]
        fit = logistic_fit(x, t)
        assert not fit.linear_fallback
        assert np.sqrt(fit.sse / x.size) < 1e-6
        bb = np.array(fit.params)
        refit = bb[0] * (0.5 - 1.0 / (1.0 + np.exp(np.clip(bb[1] * (x - bb[2]), -500, 500)))) + bb[3]
        assert np.allclose(refit, t, atol=1e-5)

    def test_nests_linear_data(self):
        x = np.linspace(0, 10, 25)
        t = 0.7 * x - 1.3
        fit = logistic_fit(x, t)
        slope, intercept = np.polyfit(x, t, 1)
        linear_sse = float(np.sum((t - (slope * x + intercept)) ** 2))
        assert fit.sse <= linear_sse + 1e-9

    def test_constant_truth_rejected(self):
        with pytest.raises(StatsError):
            logistic_fit(np.arange(6.0), np.full(6, 2.0))

    def test_too_few_points_rejected(self):
        with pytest.raises(StatsError):
            logistic_fit([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])

    def test_noisy_monotone_beats_mean_predictor(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.random(30) * 8)
        t = np.tanh(x - 4) * 2 + 3 + rng.normal(0, 0.05, 30)
        fit = logistic_fit(x, t)
        assert fit.sse < float(np.sum((t - t.mean()) ** 2))


def _lm_reference(b0, x, t, max_iter=200, events=None):
    """The damped least squares as first written, one problem at a time: a fresh
    Jacobian and sigmoid per iteration and ``h + mu I``. Also returns the
    iterations it ran, and adds to ``events`` "singular" for a damped matrix
    ``np.linalg.solve`` refused, "non-finite" for a trial of non-finite SSE,
    "mu floor" for a step that leaves mu at its floor, "fiftieth accepted" for a
    step taken at the last trial allowed and "fifty rejected" for an end by 50
    rejected trials."""
    events = set() if events is None else events

    def logistic(b):
        z = np.clip(b[1] * (x - b[2]), -500, 500)
        return b[0] * (0.5 - 1.0 / (1.0 + np.exp(z))) + b[3]

    def jacobian(b):
        z = np.clip(b[1] * (x - b[2]), -500, 500)
        g = 1.0 / (1.0 + np.exp(z))
        gg = g * (1.0 - g)
        return np.column_stack([0.5 - g, b[0] * gg * (x - b[2]), -b[0] * b[1] * gg,
                                np.ones_like(x)])

    b = b0.copy()
    with np.errstate(all="ignore"):  # the extreme problems below overflow on purpose
        r = t - logistic(b)
        sse = float(r @ r)
        mu = 1e-3
        it = 0
        for it in range(1, max_iter + 1):
            jac = jacobian(b)
            g = jac.T @ r
            h = jac.T @ jac
            accepted = False
            for trial in range(50):
                try:
                    delta = np.linalg.solve(h + mu * np.eye(4), g)
                except np.linalg.LinAlgError:
                    events.add("singular")
                    mu *= 10.0
                    continue
                b_new = b + delta
                r_new = t - logistic(b_new)
                sse_new = float(r_new @ r_new)
                if not np.isfinite(sse_new):
                    events.add("non-finite")
                if np.isfinite(sse_new) and sse_new <= sse:
                    if trial == 49:
                        events.add("fiftieth accepted")
                    if mu / 3.0 < 1e-12:
                        events.add("mu floor")
                    improved = sse - sse_new
                    b, r, sse = b_new, r_new, sse_new
                    mu = max(mu / 3.0, 1e-12)
                    accepted = True
                    break
                mu *= 10.0
            if not accepted:
                events.add("fifty rejected")
            if not accepted or improved < 1e-14 * max(sse, 1.0):
                break
    return b, sse, it


def _graded(seed: int, noise: float, signal: float):
    """Six graded levels (48 points) scored by ``signal`` times the level plus
    normal noise, and ``logistic_fit``'s first start."""
    rng = np.random.default_rng(seed)
    t = np.repeat(np.arange(6.0, 0.0, -1.0), 8) + rng.uniform(-0.2, 0.2, 48)
    x = rng.normal(size=48) * noise + signal * t
    return np.array([np.ptp(t), 1.0 / x.std(), np.median(x), t.mean()]), x, t


STALLS = (3, 1.0, 0.0)  # a weak predictor: the start stalls at max_iter
QUICK = (4, 0.1, 0.3)  # a fair one: the start stops in a few steps
FLOORED = (15, 0.3, 0.3)  # its mu reaches the 1e-12 floor


def _extreme_problems():
    """Problems that take the solver's rare paths, each as ``(b0, x, t)``."""
    # powers of two on a constant x make the b1 and b2 columns of the Jacobian equal
    # and its entries so large that mu vanishes beside them: gesv refuses the matrix
    singular = (np.array([2.0**60, -(2.0**-20), 1.0, 3.5]), np.full(8, 1.0 + 2.0**-20),
                np.arange(8.0))
    # a saturated sigmoid with b0 * b1 = inf: a NaN Jacobian, so every trial is rejected
    rejected = (np.array([1e200, -1e200, 0.0, 0.5e200]), np.linspace(1.0, 2.0, 10),
                np.linspace(0.0, 1.0, 10))
    # huge parameters: the step is too long until mu reaches 1e46, the last mu allowed
    late = (np.array([1e122, -1e24, 0.25, 1.0]), np.linspace(-1.0, 1.0, 8),
            np.cos(3.0 * np.linspace(-1.0, 1.0, 8)))
    # the weak predictor's problem scaled so that its SSE is near the largest double:
    # a trial that doubles it overflows
    b0, x, t = _graded(*STALLS)
    scale = np.sqrt(0.4 * np.finfo(np.float64).max / _lm_reference(b0, x, t, 0)[1])
    overflowing = (b0 * [scale, 1.0, 1.0, scale], x, t * scale)
    return [singular, rejected, late, overflowing]


def _assert_same(got, expected):
    assert len(got) == len(expected)
    for (b, sse), (b_ref, sse_ref, _) in zip(got, expected):
        assert b.tobytes() == b_ref.tobytes()
        assert np.float64(sse).tobytes() == np.float64(sse_ref).tobytes()


class TestLevenbergMarquardt:
    @pytest.mark.parametrize("noise, stalls", [(1.0, True), (0.1, False)])
    def test_iterates_match_the_reference_bit_for_bit(self, noise, stalls):
        b0, x, t = _graded(*(STALLS if stalls else QUICK))
        b_ref, sse_ref, iterations = _lm_reference(b0, x, t)
        assert (iterations == 200) == stalls
        [(b, sse)] = _lm([(b0, x, t)])
        assert b.tobytes() == b_ref.tobytes() and sse == sse_ref

    def test_extreme_problems_take_the_rare_paths(self):
        for problem, event in zip(_extreme_problems(), ("singular", "fifty rejected",
                                                        "fiftieth accepted", "non-finite")):
            events = set()
            _lm_reference(*problem, events=events)
            assert event in events

    @pytest.mark.parametrize("max_iter", [200, 7, 1, 0])
    def test_mixed_batch_matches_the_reference_one_by_one(self, max_iter):
        # point counts 12, 48, 8 and 10 in one call, the largest neither first nor
        # last; a start that stalls at max_iter beside ones that stop in a few steps;
        # the singular matrix makes the whole stack's solve raise
        rng = np.random.default_rng(5)
        short = (np.array([2.0, 1.0, 0.0, 0.5]), rng.normal(size=12), rng.normal(size=12))
        problems = [short, _graded(*STALLS), *_extreme_problems(), _graded(*QUICK),
                    _graded(*FLOORED)]
        floored = set()
        expected = [_lm_reference(*p, max_iter=max_iter) for p in problems[:-1]]
        expected.append(_lm_reference(*problems[-1], max_iter=max_iter, events=floored))
        if max_iter == 200:
            assert {it for *_, it in expected} >= {200, 1}
            assert expected[-2][2] < 20 and floored == {"mu floor"}
        _assert_same(_lm(problems, max_iter), expected)
        _assert_same(_lm(problems[::-1], max_iter), expected[::-1])

    def test_batch_of_one_matches_the_reference(self):
        for problem in [_graded(*STALLS), _graded(*QUICK), *_extreme_problems()]:
            _assert_same(_lm([problem]), [_lm_reference(*problem)])

    def test_equal_point_counts_share_a_run(self):
        # four problems of one count around a larger one: sorted, they share one run
        rng = np.random.default_rng(6)
        problems = []
        for n in (9, 9, 30, 9, 9):
            x = rng.normal(size=n)
            t = 2.0 * np.tanh(x) + rng.normal(0, 0.3, n)
            problems.append((np.array([np.ptp(t), 1.0 / x.std(), np.median(x), t.mean()]), x, t))
        _assert_same(_lm(problems), [_lm_reference(*p) for p in problems])

    def test_no_problems(self):
        assert _lm([]) == [] and logistic_fits([]) == []

    def test_logistic_fits_equal_logistic_fit_one_by_one(self):
        rng = np.random.default_rng(7)
        pairs = [(rng.normal(size=n), rng.normal(size=n) + np.arange(n)) for n in (6, 40, 6, 17)]
        for batch, single in zip(logistic_fits(pairs), (logistic_fit(*p) for p in pairs)):
            assert batch.params == single.params and batch.sse == single.sse
            assert batch.residuals.tobytes() == single.residuals.tobytes()

    def test_logistic_fits_checks_every_pair(self):
        with pytest.raises(StatsError, match="at least 5 points"):
            logistic_fits([(np.arange(6.0), np.arange(6.0)), ([1.0, 2.0], [1.0, 2.0])])


def evaluate(spec, params, items, predictor=None):
    return evaluate_models([("model", spec, params)], items, predictor)[0]


@pytest.fixture(scope="module")
def eval_setup():
    cfg = PipelineConfig(channels=1, patch=12, conv_widths=(4,), dense_widths=(8,), seed=0)
    spec_params = build_teacher(cfg)
    sources = generate_sources(4, (1, 12, 12), seed=2)
    items = make_eval_dataset(sources, levels=6, seed=2)
    return spec_params, items


class TestEvaluate:
    def test_oracle_predictor_gets_srocc_one(self, eval_setup):
        (spec, params), items = eval_setup
        report = evaluate(spec, params, items,
                          predictor=lambda rows: rows["mos"])
        assert report.datasets["all"].srocc == pytest.approx(1.0, abs=1e-12)

    def test_anti_oracle_gets_minus_one(self, eval_setup):
        (spec, params), items = eval_setup
        report = evaluate(spec, params, items,
                          predictor=lambda rows: -rows["mos"])
        assert report.datasets["all"].srocc == pytest.approx(-1.0, abs=1e-12)

    def test_deterministic_reruns(self, eval_setup):
        (spec, params), items = eval_setup
        r1 = evaluate(spec, params, items)
        r2 = evaluate(spec, params, items)
        assert r1.datasets["all"].srocc == r2.datasets["all"].srocc
        assert np.array_equal(r1.datasets["all"].fit.residuals, r2.datasets["all"].fit.residuals)

    def test_items_scored_once_and_subsets_indexed(self, eval_setup):
        (spec, params), items = eval_setup
        scored = []
        report = evaluate(spec, params, items,
                          predictor=lambda rows: scored.append(len(rows)) or rows["level"])
        assert scored == [len(items)]
        assert set(report.datasets) == {"all", *KINDS}
        for k, kind in enumerate(KINDS):
            subset = items[items["kind"] == k]
            expected = srocc(subset["level"].astype(np.float64), subset["mos"].astype(np.float64))
            assert report.datasets[kind].srocc == expected

    def test_scoring_builds_no_graph(self, eval_setup, monkeypatch):
        import rankpress.nets as nets

        (spec, params), items = eval_setup
        forward, outputs = nets.forward_features, []
        monkeypatch.setattr(nets, "forward_features",
                            lambda *args: outputs.append(forward(*args)) or outputs[-1])
        predict_scores(spec, params, items)
        assert all(p.requires_grad and p.grad is None for p in params.values())
        assert len(outputs) == -(-len(items) // PREDICT_ROWS)
        assert all(not out._parents and out._backward is None for out in outputs)

    def test_empty_dataset_rejected(self, eval_setup):
        (spec, params), items = eval_setup
        with pytest.raises(StatsError):
            evaluate(spec, params, items[:0])

    def test_comparison_ratios(self, eval_setup):
        (spec, params), items = eval_setup
        small_cfg = PipelineConfig(channels=1, patch=12, conv_widths=(2,), dense_widths=(4,), seed=1)
        small = build_teacher(small_cfg)
        ref = evaluate(spec, params, items)
        cand = evaluate(small[0], small[1], items)
        cmp = compare_models(cand, ref)
        assert cmp.params_ratio == pytest.approx(cand.params_total / ref.params_total, abs=1e-12)
        assert cmp.flops_ratio == pytest.approx(cand.flops / ref.flops, abs=1e-12)
        text = format_comparison(cmp)
        assert "params" in text and "%" in text

    def test_comparison_table_cells_end_under_the_model_names(self):
        per = {name: (0.9 - 0.45 * i, 0.85 - 0.3 * i, (-1, 0, 1)[i % 3])
               for i, name in enumerate(["all", *KINDS])}  # negative SROCCs included
        cmp = ModelComparison("distilled", "teacher", per, 0.16, 0.13, 1.04)
        lines = format_comparison(cmp).splitlines()
        header, rows = lines[0], lines[1 : 1 + len(per)]
        ends = [header.index(name) + len(name) for name in ("distilled", "teacher")]
        for row, name in zip(rows, per):
            assert row.startswith(name + " ")
            for end in ends:  # the cell's last character is in the name's last column
                assert row[end - 1] != " " and row[end : end + 1] in ("", " "), (row, end)
            assert len(row) == len(header)
        assert not any(line.endswith(" ") for line in lines)
        assert lines[-1] == "srocc retention: 104.00%"

    def test_two_models_equal_each_model_alone(self, eval_setup):
        (spec, params), items = eval_setup
        small = build_teacher(PipelineConfig(channels=1, patch=12, conv_widths=(2,),
                                             dense_widths=(4,), seed=1))
        both = evaluate_models([("a", spec, params), ("b", *small)], items)
        assert [r.name for r in both] == ["a", "b"]
        for report, alone in zip(both, (evaluate(spec, params, items), evaluate(*small, items))):
            assert list(report.datasets) == list(alone.datasets)
            for name, d in report.datasets.items():
                assert d.srocc == alone.datasets[name].srocc
                assert d.fit.params == alone.datasets[name].fit.params
                assert d.fit.residuals.tobytes() == alone.datasets[name].fit.residuals.tobytes()

    def test_models_are_consumed_in_order(self, eval_setup):
        (spec, params), items = eval_setup
        seen = []

        def models():
            for name in ("first", "second"):
                seen.append(name)
                yield name, spec, params
                assert len(scored) == len(seen)

        scored = []
        reports = evaluate_models(models(), items,
                                  predictor=lambda rows: scored.append(1) or rows["level"])
        assert seen == ["first", "second"] and [r.name for r in reports] == seen


def test_eval_stage_writes_the_bytes_of_the_reference_fits(tmp_path, monkeypatch):
    """``pipeline.evaluate`` on two checkpoints writes the same files as a run whose
    fits go through ``_lm_reference`` one start at a time."""
    import rankpress.stats as stats
    from rankpress.checkpoint import save_checkpoint
    from rankpress.pipeline import evaluate
    from rankpress.synthdata import write_eval_dataset

    cfg = PipelineConfig(channels=1, patch=12, conv_widths=(4,), dense_widths=(8,), eval_sources=2)
    paths = []
    for seed, widths in ((0, (4,)), (1, (2,))):
        spec, params = build_teacher(PipelineConfig(channels=1, patch=12, conv_widths=widths,
                                                    dense_widths=(8,), seed=seed))
        paths.append(tmp_path / f"net{seed}.ckpt")
        save_checkpoint(paths[-1], spec, params)
    items = make_eval_dataset(generate_sources(3, (1, 12, 12), seed=4), levels=6, seed=4)
    write_eval_dataset(tmp_path / "eval.rpev", items)
    evaluate(cfg, tmp_path / "eval.rpev", paths, tmp_path / "lockstep")
    calls = []

    def one_by_one(problems, max_iter=200):
        calls.append(len(problems))
        return [_lm_reference(b0, x, t, max_iter)[:2] for b0, x, t in problems]

    monkeypatch.setattr(stats, "_lm", one_by_one)
    evaluate(cfg, tmp_path / "eval.rpev", paths, tmp_path / "reference")
    assert calls == [2 * 2 * (1 + len(KINDS))]  # one call: two starts per dataset and model
    for name in ("eval.csv", "comparison.csv", "report.txt"):
        assert (tmp_path / "lockstep" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()
