import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankpress import autodiff as ad
from rankpress.autodiff import ShapeError, Tensor


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestSigmoid:
    def test_zero_is_half(self):
        assert float(ad.sigmoid(t(0.0)).data) == 0.5

    def test_closed_form_value(self):
        # 1 / (1 + e^-2)
        assert float(ad.sigmoid(t(2.0)).data) == pytest.approx(0.8807970779778823, abs=1e-12)

    def test_outputs_strictly_inside_unit_interval(self):
        x = np.array([-30.0, -5.0, 0.0, 5.0, 30.0])
        y = ad.sigmoid(t(x)).data
        assert np.all(y > 0.0) and np.all(y < 1.0)

    @given(st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, x):
        a = float(ad.sigmoid(t(x)).data)
        b = float(ad.sigmoid(t(-x)).data)
        assert a + b == pytest.approx(1.0, abs=1e-12)


class TestConv2d:
    def test_scalar_kernel_scales(self):
        x = t(np.ones((1, 1, 3, 3)))
        k = t([[[[2.0]]]])
        out = ad.conv2d(x, k, t([0.0]))
        assert np.array_equal(out.data, np.full((1, 1, 3, 3), 2.0))

    def test_zero_kernel_gives_bias(self):
        x = t(np.random.default_rng(0).random((2, 3, 5, 5)))
        k = t(np.zeros((4, 3, 3, 3)))
        out = ad.conv2d(x, k, t([1.0, -2.0, 0.5, 3.0]), padding=1)
        for c, b in enumerate([1.0, -2.0, 0.5, 3.0]):
            assert np.allclose(out.data[:, c], b)

    def test_averaging_kernel_on_ramp(self):
        # oracle: direct 9-point neighborhood sums, written independently
        ramp = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        k = t(np.full((1, 1, 3, 3), 1.0 / 9.0))
        out = ad.conv2d(t(ramp), k, t([0.0]))
        expected = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = ramp[0, 0, i : i + 3, j : j + 3].sum() / 9.0
        assert np.allclose(out.data[0, 0], expected, atol=1e-12)

    def test_one_hot_1x1_kernel_selects_channel(self):
        x = t(np.random.default_rng(1).random((2, 4, 6, 6)))
        k = np.zeros((1, 4, 1, 1))
        k[0, 2, 0, 0] = 1.0
        out = ad.conv2d(x, t(k), t([0.0]))
        assert np.array_equal(out.data[:, 0], x.data[:, 2])

    def test_output_geometry(self):
        x = t(np.zeros((1, 1, 11, 7)))
        out = ad.conv2d(x, t(np.zeros((1, 1, 3, 3))), t([0.0]), stride=2, padding=1)
        assert out.data.shape == (1, 1, (11 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channel"):
            ad.conv2d(t(np.zeros((1, 2, 4, 4))), t(np.zeros((1, 3, 3, 3))), t([0.0]))

    def test_kernel_larger_than_padded_input_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv2d(t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 5, 5))), t([0.0]))


class TestDense:
    def test_identity(self):
        x = t(np.random.default_rng(2).random((3, 4)))
        out = ad.dense(x, t(np.eye(4)), t(np.zeros(4)))
        assert np.array_equal(out.data, x.data)

    def test_zero_weight_constant_rows(self):
        out = ad.dense(t(np.ones((2, 3))), t(np.zeros((2, 3))), t([4.0, -1.0]))
        assert np.array_equal(out.data, np.tile([4.0, -1.0], (2, 1)))

    def test_hand_computed_value(self):
        out = ad.dense(t([[1.0, 2.0]]), t([[3.0, 4.0]]), t([5.0]))
        assert out.data[0, 0] == 16.0  # 1*3 + 2*4 + 5

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError, match="mismatch"):
            ad.dense(t(np.zeros((1, 3))), t(np.zeros((2, 4))), t(np.zeros(2)))


class TestBackward:
    def test_sum_gives_ones(self):
        w = t(np.random.default_rng(3).random((4, 5)), grad=True)
        ad.backward(ad.tsum(w))
        assert np.array_equal(w.grad, np.ones((4, 5)))

    def test_half_sum_of_squares_gives_w(self):
        w = t(np.random.default_rng(4).standard_normal(7), grad=True)
        ad.backward(ad.mul(ad.tsum(ad.mul(w, w)), 0.5))
        assert np.allclose(w.grad, w.data, atol=1e-14)

    def test_non_scalar_rejected(self):
        w = t(np.zeros(3), grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            ad.backward(ad.mul(w, 2.0))

    def test_shared_subexpression_accumulates(self):
        w = t([3.0], grad=True)
        y = ad.mul(w, w)  # w^2; dy/dw = 2w
        ad.backward(ad.tsum(y))
        assert w.grad[0] == pytest.approx(6.0)

    def test_broadcast_gradients_unbroadcast(self):
        w = t(np.ones((1, 4)), grad=True)
        x = t(np.ones((3, 4)))
        ad.backward(ad.tsum(ad.mul(w, x)))
        assert w.grad.shape == (1, 4)
        assert np.array_equal(w.grad, np.full((1, 4), 3.0))


class TestTape:
    def _graph(self):
        a = t([1.0], grad=True)
        b = ad.mul(a, 2.0)
        c = ad.mul(a, 3.0)
        d = ad.add(b, c)
        return a, b, c, d

    def test_topological_order(self):
        a, b, c, d = self._graph()
        order = ad._topological_order(ad.tsum(d))
        pos = {node._id: i for i, node in enumerate(order)}
        for node in order:
            for parent in node._parents:
                assert pos[parent._id] < pos[node._id]

    def test_each_node_visited_once(self):
        _, _, _, d = self._graph()
        ids = [node._id for node in ad._topological_order(ad.tsum(d))]
        assert len(ids) == len(set(ids))


class TestDeterminism:
    def test_forward_bit_identical(self):
        rng = np.random.default_rng(5)
        x = rng.random((2, 3, 8, 8))
        k = rng.random((4, 3, 3, 3))
        b = rng.random(4)
        out1 = ad.conv2d(t(x), t(k), t(b), padding=1).data
        out2 = ad.conv2d(t(x), t(k), t(b), padding=1).data
        assert np.array_equal(out1, out2)


class TestGradientCheck:
    def test_linear_model_near_exact(self):
        w = t(np.random.default_rng(6).random(5), grad=True)
        x = np.random.default_rng(7).random(5)
        err = ad.gradient_check(lambda: ad.tsum(ad.mul(w, x)), {"w": w})
        assert err < 1e-9

    def test_conv_relu_dense_stack(self):
        rng = np.random.default_rng(8)
        params = {
            "k": t(rng.standard_normal((3, 2, 3, 3)) * 0.5, grad=True),
            "kb": t(rng.standard_normal(3) * 0.1, grad=True),
            "w": t(rng.standard_normal((1, 3)) * 0.5, grad=True),
            "b": t(rng.standard_normal(1) * 0.1, grad=True),
        }
        x = rng.random((2, 2, 6, 6))

        def fwd():
            h = ad.leaky_relu(ad.conv2d(Tensor(x), params["k"], params["kb"], padding=1))
            h = ad.global_avg_pool(h)
            return ad.tsum(ad.dense(h, params["w"], params["b"]))

        assert ad.gradient_check(fwd, params, n_coords=20) < 1e-4

    def test_corrupted_backward_detected(self):
        w = t(np.random.default_rng(9).random(4) + 0.5, grad=True)

        def bad_square(a):
            out_data = a.data**2

            def bw(g):
                a.grad = (a.grad if a.grad is not None else 0) + g * 3.0 * a.data  # wrong factor

            return Tensor(out_data, _parents=(a,), _backward=bw)

        err = ad.gradient_check(lambda: ad.tsum(bad_square(w)), {"w": w})
        assert err > 1e-2

    def test_every_layer_type(self):
        rng = np.random.default_rng(10)
        x = rng.random((2, 2, 8, 8))
        params = {
            "k": t(rng.standard_normal((2, 2, 3, 3)) * 0.4, grad=True),
            "kb": t(rng.standard_normal(2) * 0.1, grad=True),
            "w": t(rng.standard_normal((1, 4)) * 0.4, grad=True),
            "b": t(rng.standard_normal(1) * 0.1, grad=True),
        }

        def fwd():
            h = ad.conv2d(Tensor(x), params["k"], params["kb"], padding=1)
            h = ad.leaky_relu(h)
            h = ad.avg_pool2(h)
            h = ad.concat([h, ad.mul(h, -1.0)], axis=1)
            h = ad.global_avg_pool(h)
            h = ad.dense(h, params["w"], params["b"])
            h = ad.sigmoid(h)
            return ad.tmean(ad.log(ad.clip(h, 1e-7, 1 - 1e-7)))

        assert ad.gradient_check(fwd, params, n_coords=20) < 1e-4
