import numpy as np
import pytest

from rankpress import autodiff as ad
from rankpress import optim
from rankpress.autodiff import Tensor
from rankpress.nets import NetConfig, build_teacher
from rankpress.optim import (
    AdaMax,
    NumericalError,
    OptimizerConfig,
    capture_signs,
    nonzero_weight_count,
    orthant_step,
    pair_accuracy,
    prox_l1_step,
    ranking_bce_loss,
    train_ranking,
)
from rankpress.synthdata import generate_sources, make_pair_dataset


def _p(data, name="layer.weight"):
    return {name: Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)}


class TestRankingLoss:
    def test_confident_correct_near_zero(self):
        loss = ranking_bce_loss(Tensor(np.array([1.0 - 1e-7])), np.array([1.0]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_maximal_uncertainty(self):
        loss = ranking_bce_loss(Tensor(np.array([0.5])), np.array([0.5]))
        assert float(loss.data) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_hand_value(self):
        loss = ranking_bce_loss(Tensor(np.array([0.25])), np.array([1.0]))
        assert float(loss.data) == pytest.approx(-np.log(0.25), abs=1e-12)

    def test_saturated_probability_stays_finite(self):
        loss = ranking_bce_loss(Tensor(np.array([0.0, 1.0])), np.array([1.0, 0.0]))
        assert np.isfinite(float(loss.data))

    def test_mean_over_batch(self):
        p = Tensor(np.array([0.25, 0.5]))
        loss = ranking_bce_loss(p, np.array([1.0, 0.5]))
        expected = (-np.log(0.25) + np.log(2.0)) / 2.0
        assert float(loss.data) == pytest.approx(expected, abs=1e-12)


class TestAdaMax:
    def test_zero_gradient_no_motion(self):
        params = _p([1.0, -2.0, 3.0])
        params["layer.weight"].grad = np.zeros(3)
        before = params["layer.weight"].data.copy()
        AdaMax(params, lr=0.01).step()
        assert np.array_equal(params["layer.weight"].data, before)

    def test_first_step_matches_reference(self):
        # independent hand-rolled AdaMax recurrence
        rng = np.random.default_rng(0)
        w0 = rng.standard_normal(6)
        grads = [rng.standard_normal(6) for _ in range(5)]
        lr, b1, b2 = 0.002, 0.9, 0.999

        w_ref = w0.copy()
        m = np.zeros(6)
        u = np.zeros(6)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            u = np.maximum(b2 * u, np.abs(g))
            w_ref -= (lr / (1 - b1**t)) * m / (u + 1e-8)

        params = _p(w0)
        opt = AdaMax(params, lr=lr, beta1=b1, beta2=b2)
        for g in grads:
            params["layer.weight"].grad = g.copy()
            opt.step()
        assert np.allclose(params["layer.weight"].data, w_ref, atol=1e-15)

    def test_nonfinite_gradient_rejected(self):
        params = _p([1.0])
        params["layer.weight"].grad = np.array([np.nan])
        with pytest.raises(NumericalError):
            AdaMax(params, lr=0.01).step()

    def test_step_size_bounded_by_lr_over_bias_correction(self):
        params = _p([0.0])
        params["layer.weight"].grad = np.array([1000.0])
        AdaMax(params, lr=0.01).step()
        # |delta| = lr/(1-b1) * m / (u + eps) <= lr since m = (1-b1)g, u = |g|
        assert abs(params["layer.weight"].data[0]) <= 0.01 + 1e-12


class TestProx:
    def test_soft_threshold_values(self):
        params = _p([0.5, -0.3, 0.05, 0.0])
        prox_l1_step(params, eta=1.0, lam=0.1)
        assert np.allclose(params["layer.weight"].data, [0.4, -0.2, 0.0, 0.0], atol=1e-15)

    def test_small_magnitudes_become_exact_zero(self):
        params = _p([0.09, -0.099, 1e-12])
        prox_l1_step(params, eta=1.0, lam=0.1)
        assert np.array_equal(params["layer.weight"].data, np.zeros(3))

    def test_biases_untouched(self):
        params = _p([0.05], name="layer.weight")
        params["layer.bias"] = Tensor(np.array([0.05]), requires_grad=True)
        prox_l1_step(params, eta=1.0, lam=0.1)
        assert params["layer.bias"].data[0] == 0.05
        assert params["layer.weight"].data[0] == 0.0

    def test_shrinkage_is_nonexpansive(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal(100)
        params = _p(w.copy())
        prox_l1_step(params, eta=0.01, lam=0.1)
        out = params["layer.weight"].data
        assert np.all(np.abs(out) <= np.abs(w) + 1e-15)
        assert np.all(np.sign(out) * np.sign(w) >= 0)


class TestOrthant:
    def test_sign_flip_projects_to_zero(self):
        params = _p([0.05, -0.05, 1.0])
        signs = capture_signs(params)
        orthant_step(params, signs, eta=1.0, lam=0.1)
        # 0.05 - 0.1 flips sign -> 0; -0.05 + 0.1 flips -> 0; 1.0 shrinks
        assert np.allclose(params["layer.weight"].data, [0.0, 0.0, 0.9], atol=1e-15)

    def test_zeros_stay_frozen(self):
        params = _p([0.0, 0.4])
        signs = capture_signs(params)
        params["layer.weight"].data[0] = 0.7  # drifted off the face between steps
        orthant_step(params, signs, eta=1.0, lam=0.1)
        assert params["layer.weight"].data[0] == 0.0

    def test_nonzero_count_monotone_under_orthant(self):
        rng = np.random.default_rng(2)
        params = _p(rng.standard_normal(200) * 0.05)
        signs = capture_signs(params)
        counts = [nonzero_weight_count(params)]
        for _ in range(5):
            orthant_step(params, signs, eta=0.1, lam=0.1)
            counts.append(nonzero_weight_count(params))
        assert all(a >= b for a, b in zip(counts, counts[1:]))


@pytest.fixture(scope="module")
def tiny_task():
    cfg = NetConfig(channels=1, height=12, width=12, conv_widths=(4,), dense_widths=(8,), seed=0)
    sources = generate_sources(8, (1, 12, 12), seed=0)
    train = make_pair_dataset(sources, levels=6, pairs_per_source=6, seed=0)
    val = make_pair_dataset(sources, levels=6, pairs_per_source=2, seed=1)
    return cfg, train, val


class TestTraining:
    def test_loss_decreases_and_beats_chance(self, tiny_task):
        cfg, train, val = tiny_task
        spec, params = build_teacher(cfg)
        log = train_ranking(spec, params, train, OptimizerConfig(epochs=6, seed=0), val_set=val)
        assert log[-1]["loss"] < log[0]["loss"]
        assert pair_accuracy(spec, params, val) > 0.5

    def test_training_is_deterministic(self, tiny_task):
        cfg, train, _ = tiny_task
        spec1, p1 = build_teacher(cfg)
        spec2, p2 = build_teacher(cfg)
        train_ranking(spec1, p1, train, OptimizerConfig(epochs=3, seed=5))
        train_ranking(spec2, p2, train, OptimizerConfig(epochs=3, seed=5))
        for k in p1:
            assert np.array_equal(p1[k].data, p2[k].data)

    def test_sparse_phase_produces_exact_zeros(self, tiny_task):
        cfg, train, _ = tiny_task
        spec, params = build_teacher(cfg)
        train_ranking(spec, params, train, OptimizerConfig(epochs=3, seed=0))
        dense_nonzero = nonzero_weight_count(params)
        train_ranking(spec, params, train, OptimizerConfig(epochs=6, lam=0.1, seed=0), sparsify=True)
        sparse_nonzero = nonzero_weight_count(params)
        assert sparse_nonzero < dense_nonzero

    def test_log_schema(self, tiny_task):
        cfg, train, val = tiny_task
        spec, params = build_teacher(cfg)
        log = train_ranking(spec, params, train, OptimizerConfig(epochs=2, seed=0), val_set=val)
        assert len(log) == 2
        for row in log:
            for key in ("epoch", "loss", "l1", "nonzero", "acc", "val_acc", "diverged"):
                assert key in row
