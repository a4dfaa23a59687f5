import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankpress.nets import NetConfig, build_teacher
from rankpress.stats import (
    StatsError,
    average_ranks,
    betainc_reg,
    compare_models,
    evaluate_model,
    f_sf,
    f_test,
    format_comparison,
    logistic_fit,
    srocc,
)
from rankpress.synthdata import generate_sources, make_eval_dataset


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


@pytest.fixture(scope="module")
def eval_setup():
    cfg = NetConfig(channels=1, height=12, width=12, conv_widths=(4,), dense_widths=(8,), seed=0)
    spec_params = build_teacher(cfg)
    sources = generate_sources(4, (1, 12, 12), seed=2)
    items = make_eval_dataset(sources, levels=6, seed=2)
    return spec_params, {"all": items}


class TestEvaluate:
    def test_oracle_predictor_gets_srocc_one(self, eval_setup):
        (spec, params), datasets = eval_setup
        report = evaluate_model(spec, params, datasets,
                                predictor=lambda items: items["mos"])
        assert report.datasets["all"].srocc == pytest.approx(1.0, abs=1e-12)

    def test_anti_oracle_gets_minus_one(self, eval_setup):
        (spec, params), datasets = eval_setup
        report = evaluate_model(spec, params, datasets,
                                predictor=lambda items: -items["mos"])
        assert report.datasets["all"].srocc == pytest.approx(-1.0, abs=1e-12)

    def test_deterministic_reruns(self, eval_setup):
        (spec, params), datasets = eval_setup
        r1 = evaluate_model(spec, params, datasets)
        r2 = evaluate_model(spec, params, datasets)
        assert r1.datasets["all"].srocc == r2.datasets["all"].srocc
        assert np.array_equal(r1.datasets["all"].fit.residuals, r2.datasets["all"].fit.residuals)

    def test_empty_dataset_rejected(self, eval_setup):
        (spec, params), _ = eval_setup
        with pytest.raises(StatsError):
            evaluate_model(spec, params, {"empty": []})

    def test_comparison_ratios(self, eval_setup):
        (spec, params), datasets = eval_setup
        small_cfg = NetConfig(channels=1, height=12, width=12, conv_widths=(2,), dense_widths=(4,), seed=1)
        small = build_teacher(small_cfg)
        ref = evaluate_model(spec, params, datasets)
        cand = evaluate_model(small[0], small[1], datasets)
        cmp = compare_models(cand, ref)
        assert cmp.params_ratio == pytest.approx(cand.params_total / ref.params_total, abs=1e-12)
        assert cmp.flops_ratio == pytest.approx(cand.flops / ref.flops, abs=1e-12)
        text = format_comparison(cmp)
        assert "params" in text and "%" in text
