from collections import Counter

import numpy as np
import pytest

from rankpress import autodiff as ad
from rankpress.autodiff import Tensor
from rankpress.distill import (
    BatchPredictions,
    batch_loss,
    class_loss,
    distill_train,
    instance_loss,
    objective,
    teacher_probabilities,
    total_loss,
)
from rankpress.nets import build_teacher
from rankpress.optim import EPS_PROB, pair_accuracy, predict_probabilities, ranking_bce_loss
from rankpress.pipeline import PipelineConfig
from rankpress.pruning import StructureError
from rankpress.synthdata import generate_sources, make_pair_dataset


def bp(t, s, labels=None):
    t = np.asarray(t, dtype=np.float64)
    if labels is None:
        labels = np.zeros_like(t)
    return BatchPredictions(t, np.asarray(s, dtype=np.float64), np.asarray(labels, dtype=np.float64))


class TestInstanceLoss:
    def test_soft_target_hand_value(self):
        # -(0.8 ln 0.6 + 0.2 ln 0.4)
        expected = -(0.8 * np.log(0.6) + 0.2 * np.log(0.4))
        got = float(instance_loss(bp([0.8], [0.6])).data)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(0.59192, abs=5e-6)

    def test_matching_distributions_minimize(self):
        base = float(instance_loss(bp([0.8], [0.8])).data)
        for s in (0.6, 0.7, 0.9, 0.95):
            assert float(instance_loss(bp([0.8], [s])).data) > base

    def test_mean_over_batch(self):
        single = [float(instance_loss(bp([t], [s])).data) for t, s in ((0.8, 0.6), (0.3, 0.4))]
        both = float(instance_loss(bp([0.8, 0.3], [0.6, 0.4])).data)
        assert both == pytest.approx(np.mean(single), abs=1e-12)


class TestBatchLoss:
    def test_single_item_oracle(self):
        # (1 - 0.25)^2 / 1
        assert float(batch_loss(bp([1.0], [0.5])).data) == pytest.approx(0.5625, abs=1e-12)

    def test_two_item_oracle(self):
        # Gram_t = [[1,0],[0,0]], Gram_s = 0.25 everywhere; squared Frobenius
        # diff = 0.5625 + 3 * 0.0625 = 0.75; scaled by 1/B -> 0.375
        assert float(batch_loss(bp([1.0, 0.0], [0.5, 0.5])).data) == pytest.approx(0.375, abs=1e-9)

    def test_identical_probabilities_zero(self):
        p = [0.3, 0.8, 0.6]
        assert float(batch_loss(bp(p, p)).data) == pytest.approx(0.0, abs=1e-15)

    def test_independent_gram_oracle(self):
        rng = np.random.default_rng(0)
        t = rng.random(5)
        s = rng.random(5)
        expected = np.sum((np.outer(t, t) - np.outer(s, s)) ** 2) / 5
        assert float(batch_loss(bp(t, s)).data) == pytest.approx(expected, abs=1e-12)


class TestClassLoss:
    def test_oracle(self):
        # (sum s^2 - sum t^2)^2 = (0.5 - 1.0)^2
        assert float(class_loss(bp([1.0, 0.0], [0.5, 0.5])).data) == pytest.approx(0.25, abs=1e-9)

    def test_matching_energy_zero(self):
        assert float(class_loss(bp([0.6, 0.8], [0.8, 0.6])).data) == pytest.approx(0.0, abs=1e-15)


class TestTotals:
    def test_multilevel_is_sum_of_parts(self):
        x = bp([1.0, 0.0], [0.5, 0.5])
        *terms, total = objective(x, alpha=0.0)
        parts = [float(f(x).data) for f in (instance_loss, batch_loss, class_loss)]
        assert [float(term.data) for term in terms[:3]] == parts
        assert float(total.data) == pytest.approx(sum(parts), abs=1e-12)

    def test_total_adds_weighted_ranking_term(self):
        x = bp([1.0, 0.0], [0.5, 0.5], labels=[1.0, 0.0])
        rank = float(ranking_bce_loss(Tensor(np.array([0.5, 0.5])), np.array([1.0, 0.0])).data)
        multilevel = sum(float(f(x).data) for f in (instance_loss, batch_loss, class_loss))
        assert float(objective(x, alpha=0.1)[3].data) == rank
        assert float(total_loss(x, alpha=0.1).data) == pytest.approx(multilevel + 0.1 * rank,
                                                                     abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        t = rng.random(4) * 0.8 + 0.1
        labels = (rng.random(4) > 0.5).astype(np.float64)
        raw = Tensor(rng.standard_normal(4), requires_grad=True)

        def fwd():
            return total_loss(BatchPredictions(t, ad.sigmoid(raw), labels), alpha=0.1)

        assert ad.gradient_check(fwd, {"raw": raw}) < 1e-4

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BatchPredictions(np.array([0.5]), np.array([0.5, 0.5]), np.array([1.0]))


def _composed_term(name, bp):
    """A term of the objective as a graph of elementary ops, each clamping the student."""
    s = ad.clip(bp.student, EPS_PROB, 1.0 - EPS_PROB)
    if name in ("instance", "rank"):
        y = np.clip(bp.teacher, EPS_PROB, 1.0 - EPS_PROB) if name == "instance" else bp.labels
        return -ad.tmean(y * ad.log(s) + (1.0 - y) * ad.log(1.0 - s))
    if name == "batch":
        b = len(bp.teacher)
        gram_t = Tensor(np.outer(bp.teacher, bp.teacher).astype(s.dtype))
        diff = ad.sub(gram_t, ad.mul(ad.reshape(s, (b, 1)), ad.reshape(s, (1, b))))
        return ad.mul(ad.tsum(ad.mul(diff, diff)), 1.0 / b)
    diff = ad.sub(ad.tsum(ad.mul(s, s)), float(np.dot(bp.teacher, bp.teacher)))
    return ad.mul(diff, diff)


TERMS = {"instance": instance_loss, "batch": batch_loss, "class": class_loss,
         "rank": lambda x: ranking_bce_loss(x.student, x.labels)}


class TestFusedTerms:
    @pytest.mark.parametrize("name", TERMS)
    def test_one_node_matches_the_composed_graph(self, name):
        # float32 as in training; the third student value sits below the clamp
        rng = np.random.default_rng(4)
        teacher = rng.random(6) * 0.8 + 0.1
        labels = (rng.random(6) > 0.5).astype(np.float64)
        raw = (rng.random(6) * 0.9 + 0.05).astype(np.float32)
        raw[2] = 1e-9
        grads = []
        for term in (TERMS[name], lambda x: _composed_term(name, x)):
            student = Tensor(raw.copy(), requires_grad=True)
            loss = term(BatchPredictions(teacher, student, labels))
            ad.backward(loss)
            grads.append((loss, student.grad))
        (fused, g_fused), (composed, g_composed) = grads
        assert fused.data.dtype == np.float32 and fused.data.tobytes() == composed.data.tobytes()
        assert not fused._parents[0]._parents  # one node above the student
        assert g_fused.dtype == np.float32 and g_fused[2] == 0.0
        np.testing.assert_allclose(g_fused, g_composed, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("name", TERMS)
    def test_gradient_matches_finite_differences(self, name):
        rng = np.random.default_rng(5)
        teacher = rng.random(5) * 0.8 + 0.1
        labels = (rng.random(5) > 0.5).astype(np.float64)
        raw = Tensor(rng.standard_normal(5), requires_grad=True)
        err = ad.gradient_check(
            lambda: TERMS[name](BatchPredictions(teacher, ad.sigmoid(raw), labels)), {"raw": raw})
        assert err < 1e-6




@pytest.fixture(scope="module")
def distill_setup():
    cfg = PipelineConfig(channels=1, patch=12, conv_widths=(6,), dense_widths=(8,), seed=0)
    small = PipelineConfig(channels=1, patch=12, conv_widths=(3,), dense_widths=(4,), seed=1)
    sources = generate_sources(8, (1, 12, 12), seed=0)
    train = make_pair_dataset(sources, levels=6, pairs_per_source=6, seed=0)
    val = make_pair_dataset(sources, levels=6, pairs_per_source=2, seed=1)
    t_spec, t_params = build_teacher(cfg)
    from rankpress.optim import train_ranking

    train_ranking(t_spec, t_params, train, PipelineConfig(epochs=6, seed=0))
    return small, (t_spec, t_params), train, val


class TestDistillTrain:
    def test_teacher_untouched_and_student_learns(self, distill_setup):
        small, (t_spec, t_params), train, val = distill_setup
        before = {k: p.data.copy() for k, p in t_params.items()}
        s_spec, s_params = build_teacher(small)
        cfg = PipelineConfig(epochs=6, seed=0)
        log = distill_train(t_spec, t_params, s_spec, s_params, train, cfg, val_set=val)
        for k in t_params:
            assert np.array_equal(t_params[k].data, before[k])
        assert log[-1]["total"] < log[0]["total"]
        assert pair_accuracy(s_spec, s_params, val) > 0.5

    def test_deterministic(self, distill_setup):
        small, (t_spec, t_params), train, _ = distill_setup
        outs = []
        for _ in range(2):
            s_spec, s_params = build_teacher(small)
            cfg = PipelineConfig(epochs=2, seed=3)
            distill_train(t_spec, t_params, s_spec, s_params, train, cfg)
            outs.append({k: p.data.copy() for k, p in s_params.items()})
        for k in outs[0]:
            assert np.array_equal(outs[0][k], outs[1][k])

    def test_log_schema(self, distill_setup):
        small, (t_spec, t_params), train, val = distill_setup
        s_spec, s_params = build_teacher(small)
        cfg = PipelineConfig(epochs=2, seed=0)
        log = distill_train(t_spec, t_params, s_spec, s_params, train, cfg, val_set=val)
        for row in log:
            for key in ("epoch", "instance", "batch", "class", "rank", "total", "val_acc", "diverged"):
                assert key in row

    def test_divergence_restores_student_and_logs_one_row(self, distill_setup):
        small, (t_spec, t_params), train, val = distill_setup
        s_spec, s_params = build_teacher(small)
        before = {k: p.data.tobytes() for k, p in s_params.items()}
        cfg = PipelineConfig(epochs=3, lr=1e30, seed=0)
        with np.errstate(all="ignore"):
            log = distill_train(t_spec, t_params, s_spec, s_params, train, cfg, val_set=val)
        assert len(log) == 1
        assert log[0]["epoch"] == 0 and log[0]["diverged"] == 1
        assert all(np.isnan(log[0][k]) for k in ("instance", "batch", "class", "rank", "total"))
        assert {k: p.data.tobytes() for k, p in s_params.items()} == before

    def test_teacher_as_student_rejected(self, distill_setup):
        small, _, train, _ = distill_setup
        spec, params = build_teacher(small)
        cfg = PipelineConfig(epochs=1, seed=0)
        with pytest.raises(StructureError):
            distill_train(spec, params, spec, params, train, cfg)

    def test_teacher_probabilities_match_forward(self, distill_setup):
        small, (t_spec, t_params), train, _ = distill_setup
        from rankpress.optim import predict_batch

        probs = teacher_probabilities(t_spec, t_params, train[:8])
        direct = predict_batch(t_spec, t_params, train[:8]).data
        assert np.array_equal(probs, direct)

    def test_forward_only_passes_build_no_graph(self, distill_setup, monkeypatch):
        import rankpress.nets as nets

        small, (t_spec, t_params), train, val = distill_setup
        forward, outputs = nets.forward_features, []
        monkeypatch.setattr(nets, "forward_features",
                            lambda *args: outputs.append(forward(*args)) or outputs[-1])
        for p in t_params.values():
            p.zero_grad()
        teacher_probabilities(t_spec, t_params, train)
        pair_accuracy(t_spec, t_params, val)
        assert all(p.requires_grad and p.grad is None for p in t_params.values())
        # one forward per chunk of pairs, scoring both pairs of each: 2 rows per pair. Lanes
        # run the chunks in any order, so the forwards' row counts compare as a multiset.
        chunk = nets.PREDICT_ROWS // 2
        expected = [2 * len(pairs[start : start + chunk])
                    for pairs in (train, val) for start in range(0, len(pairs), chunk)]
        assert Counter(len(out.data) for out in outputs) == Counter(expected)
        # 48 train pairs: a full chunk and a short one; 16 val pairs: one short chunk
        assert expected == [nets.PREDICT_ROWS, 32, 32]
        assert all(not out._parents and out._backward is None for out in outputs)

    def test_teacher_forwarded_once_per_stage(self, distill_setup, monkeypatch):
        import rankpress.distill as kd

        small, (t_spec, t_params), train, _ = distill_setup
        forwarded = []

        def counting(spec, params, pairs):
            forwarded.append(len(pairs))
            return teacher_probabilities(spec, params, pairs)

        monkeypatch.setattr(kd, "teacher_probabilities", counting)
        s_spec, s_params = build_teacher(small)
        distill_train(t_spec, t_params, s_spec, s_params, train, PipelineConfig(epochs=2, seed=0))
        assert forwarded == [len(train)]

    def test_empty_train_set_is_refused_by_the_epoch_loop(self, distill_setup):
        small, (t_spec, t_params), train, _ = distill_setup
        s_spec, s_params = build_teacher(small)
        with pytest.raises(ValueError, match="empty training set"):
            distill_train(t_spec, t_params, s_spec, s_params, train[:0], PipelineConfig(seed=0))

    def test_saturated_student_gets_no_subnormal_gradient(self, distill_setup):
        # the eight pairs the student ranks lowest, pushed far below EPS_PROB by a
        # large last layer: unclamped, the Gram and energy terms send float32
        # subnormals into every parameter gradient
        small, (t_spec, t_params), train, _ = distill_setup
        s_spec, s_params = build_teacher(small)
        batch = train[np.argsort(predict_probabilities(s_spec, s_params, train))[:8]]
        s_params["fc2.weight"].data *= 3200.0
        assert predict_probabilities(s_spec, s_params, batch).max() < 1e-20
        distill_train(t_spec, t_params, s_spec, s_params, batch, PipelineConfig(epochs=1, seed=0))
        tiny = np.finfo(np.float32).tiny
        for name, p in s_params.items():
            assert p.grad.dtype == np.float32
            assert not np.any((p.grad != 0) & (np.abs(p.grad) < tiny)), name
