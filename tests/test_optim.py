import numpy as np
import pytest

from rankpress import autodiff as ad
from rankpress import optim
from rankpress.autodiff import Tensor
from rankpress.nets import PREDICT_ROWS, build_teacher, init_params, score_batch
from rankpress.optim import (
    AdaMax,
    NumericalError,
    capture_signs,
    nonzero_weight_count,
    orthant_step,
    pair_accuracy,
    predict_batch,
    predict_probabilities,
    prox_l1_step,
    ranking_bce_loss,
    train_ranking,
)
from rankpress.pipeline import PipelineConfig
from rankpress.pruning import build_pruning_plan, compute_density, prune_network
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
    cfg = PipelineConfig(channels=1, patch=12, conv_widths=(4,), dense_widths=(8,), seed=0)
    sources = generate_sources(8, (1, 12, 12), seed=0)
    train = make_pair_dataset(sources, levels=6, pairs_per_source=6, seed=0)
    val = make_pair_dataset(sources, levels=6, pairs_per_source=2, seed=1)
    return cfg, train, val


class TestTraining:
    def test_loss_decreases_and_beats_chance(self, tiny_task):
        cfg, train, val = tiny_task
        spec, params = build_teacher(cfg)
        log = train_ranking(spec, params, train, PipelineConfig(epochs=6, seed=0), val_set=val)
        assert log[-1]["loss"] < log[0]["loss"]
        assert pair_accuracy(spec, params, val) > 0.5

    def test_training_is_deterministic(self, tiny_task):
        cfg, train, _ = tiny_task
        spec1, p1 = build_teacher(cfg)
        spec2, p2 = build_teacher(cfg)
        train_ranking(spec1, p1, train, PipelineConfig(epochs=3, seed=5))
        train_ranking(spec2, p2, train, PipelineConfig(epochs=3, seed=5))
        for k in p1:
            assert np.array_equal(p1[k].data, p2[k].data)

    def test_sparse_phase_produces_exact_zeros(self, tiny_task):
        cfg, train, _ = tiny_task
        spec, params = build_teacher(cfg)
        train_ranking(spec, params, train, PipelineConfig(epochs=3, seed=0))
        dense_nonzero = nonzero_weight_count(params)
        train_ranking(spec, params, train, PipelineConfig(epochs=6, lam=0.1, seed=0), sparsify=True)
        sparse_nonzero = nonzero_weight_count(params)
        assert sparse_nonzero < dense_nonzero

    def test_log_schema(self, tiny_task):
        cfg, train, val = tiny_task
        spec, params = build_teacher(cfg)
        log = train_ranking(spec, params, train, PipelineConfig(epochs=2, seed=0), val_set=val)
        assert len(log) == 2
        for row in log:
            for key in ("epoch", "loss", "l1", "nonzero", "acc", "val_acc", "diverged"):
                assert key in row

    def test_divergence_restores_params_and_logs_one_row(self, tiny_task):
        cfg, train, val = tiny_task
        spec, params = build_teacher(cfg)
        before = {k: p.data.tobytes() for k, p in params.items()}
        with np.errstate(all="ignore"):
            log = train_ranking(spec, params, train, PipelineConfig(epochs=3, lr=1e30, seed=0),
                                val_set=val)
        assert len(log) == 1
        assert log[0]["epoch"] == 0 and log[0]["diverged"] == 1
        assert all(np.isnan(log[0][k]) for k in ("loss", "acc", "val_acc"))
        assert {k: p.data.tobytes() for k, p in params.items()} == before


def _two_forwards(spec, params, batch):
    """sigmoid(s1 - s2) from one forward per pair of each record."""
    patches = batch["patches"]
    with ad.no_grad():
        s1 = score_batch(spec, params, patches[:, 0], patches[:, 1])
        s2 = score_batch(spec, params, patches[:, 2], patches[:, 3])
        return ad.sigmoid(ad.sub(s1, s2)).data


@pytest.fixture(scope="module")
def teacher_and_student(tiny_task):
    _, train, _ = tiny_task
    cfg = PipelineConfig(channels=1, patch=12, conv_widths=(8, 12), dense_widths=(8,), seed=2)
    spec, params = build_teacher(cfg)
    student = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
    prox_l1_step(student, 1.0, 0.1)  # zero the smaller weights, so whole channels go
    s_spec, s_params = prune_network(spec, student, build_pruning_plan(
        spec, compute_density(spec, student), student))
    assert s_spec.layers[0].out_ch < spec.layers[0].out_ch
    return [(spec, params), (s_spec, s_params)], train


class TestPredictBatch:
    @pytest.mark.parametrize("net", ["teacher", "student"])
    @pytest.mark.parametrize("rows", [slice(0, 1), slice(0, 8), slice(40, 45)])
    def test_one_forward_equals_two(self, teacher_and_student, net, rows):
        nets, train = teacher_and_student
        spec, params = nets[["teacher", "student"].index(net)]
        batch = train[rows]
        got = predict_batch(spec, params, batch)
        assert got.data.shape == (len(batch),) and got.data.dtype == np.float32
        np.testing.assert_allclose(got.data, _two_forwards(spec, params, batch), rtol=0, atol=1e-6)

    def test_forward_only_chunks_equal_two_forwards(self, teacher_and_student):
        nets, train = teacher_and_student
        assert len(train) % (PREDICT_ROWS // 2)  # a short final chunk
        for spec, params in nets:
            np.testing.assert_allclose(predict_probabilities(spec, params, train),
                                       _two_forwards(spec, params, train), rtol=0, atol=1e-6)

    def test_ranking_gradient_matches_finite_differences(self, tiny_task):
        cfg, train, _ = tiny_task
        spec, _ = build_teacher(cfg)
        params = init_params(spec, seed=3, dtype=np.float64)
        batch = train[:5]

        def fwd():
            return ranking_bce_loss(predict_batch(spec, params, batch), batch["label"])

        assert ad.gradient_check(fwd, params, n_coords=20) < 1e-4

    def test_training_step_scores_once(self, tiny_task, monkeypatch):
        cfg, train, _ = tiny_task
        rows = []

        def counting(spec, params, ref, dist):
            rows.append(len(ref))
            return score_batch(spec, params, ref, dist)

        monkeypatch.setattr(optim, "score_batch", counting)
        spec, params = build_teacher(cfg)
        train_ranking(spec, params, train[:20], PipelineConfig(epochs=1, batch_size=8, seed=0))
        assert rows == [16, 16, 8]
