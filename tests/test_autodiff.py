import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankpress import autodiff as ad
from rankpress.autodiff import ShapeError, Tensor


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def hcwn(a):
    """An NCHW array in the (H, C, W, N) layout that conv2d and the pools take."""
    return np.ascontiguousarray(np.asarray(a).transpose(2, 1, 3, 0))


def nchw(a):
    """An (H, C, W, N) array back in NCHW."""
    return a.transpose(3, 1, 0, 2)


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
        x = t(hcwn(np.ones((1, 1, 3, 3))))
        k = t([[[[2.0]]]])
        out = ad.conv2d(x, k, t([0.0]))
        assert np.array_equal(nchw(out.data), np.full((1, 1, 3, 3), 2.0))

    def test_zero_kernel_gives_bias(self):
        x = t(hcwn(np.random.default_rng(0).random((2, 3, 5, 5))))
        k = t(np.zeros((4, 3, 3, 3)))
        out = ad.conv2d(x, k, t([1.0, -2.0, 0.5, 3.0]), padding=1)
        for c, b in enumerate([1.0, -2.0, 0.5, 3.0]):
            assert np.allclose(nchw(out.data)[:, c], b)

    def test_averaging_kernel_on_ramp(self):
        # oracle: direct 9-point neighborhood sums, written independently
        ramp = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        k = t(np.full((1, 1, 3, 3), 1.0 / 9.0))
        out = ad.conv2d(t(hcwn(ramp)), k, t([0.0]))
        expected = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = ramp[0, 0, i : i + 3, j : j + 3].sum() / 9.0
        assert np.allclose(nchw(out.data)[0, 0], expected, atol=1e-12)

    def test_one_hot_1x1_kernel_selects_channel(self):
        x = np.random.default_rng(1).random((2, 4, 6, 6))
        k = np.zeros((1, 4, 1, 1))
        k[0, 2, 0, 0] = 1.0
        out = ad.conv2d(t(hcwn(x)), t(k), t([0.0]))
        assert np.array_equal(nchw(out.data)[:, 0], x[:, 2])

    def test_output_geometry(self):
        x = t(hcwn(np.zeros((1, 1, 11, 7))))
        out = ad.conv2d(x, t(np.zeros((1, 1, 3, 3))), t([0.0]), stride=2, padding=1)
        assert nchw(out.data).shape == (1, 1, (11 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channel"):
            ad.conv2d(t(hcwn(np.zeros((1, 2, 4, 4)))), t(np.zeros((1, 3, 3, 3))), t([0.0]))

    def test_kernel_larger_than_padded_input_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv2d(t(hcwn(np.zeros((1, 1, 2, 2)))), t(np.zeros((1, 1, 5, 5))), t([0.0]))


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


def test_half_difference_subtracts_the_second_half():
    assert np.array_equal(ad.half_difference(t([5.0, 7.0, 1.0, 2.0])).data, [4.0, 5.0])
    for shape in ((3,), (2, 2)):
        with pytest.raises(ShapeError, match="even length"):
            ad.half_difference(t(np.zeros(shape)))


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
        pos = {id(node): i for i, node in enumerate(order)}
        for node in order:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]

    def test_an_op_on_constants_alone_is_a_leaf(self):
        a, c = t([1.0, 2.0], grad=True), t([3.0, 4.0])
        const = ad.mul(c, c)
        assert not const.requires_grad and not const._parents and const._backward is None
        out = ad.mul(const, a)
        assert out.requires_grad and out._parents == (const, a)
        ad.backward(ad.tsum(out))
        assert np.array_equal(a.grad, [9.0, 16.0]) and c.grad is None and const.grad is None

    def test_each_node_visited_once(self):
        _, _, _, d = self._graph()
        ids = [id(node) for node in ad._topological_order(ad.tsum(d))]
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
            h = ad.leaky_relu(ad.conv2d(Tensor(hcwn(x)), params["k"], params["kb"], padding=1))
            h = ad.global_avg_pool(h)
            return ad.tsum(ad.dense(h, params["w"], params["b"]))

        assert ad.gradient_check(fwd, params, n_coords=20) < 1e-4

    def test_corrupted_backward_detected(self):
        w = t(np.random.default_rng(9).random(4) + 0.5, grad=True)

        def bad_square(a):
            out_data = a.data**2

            def bw(g):
                a.grad = (a.grad if a.grad is not None else 0) + g * 3.0 * a.data  # wrong factor

            return Tensor(out_data, requires_grad=True, _parents=(a,), _backward=bw)

        err = ad.gradient_check(lambda: ad.tsum(bad_square(w)), {"w": w})
        assert err > 1e-2

    def test_every_layer_type(self):
        rng = np.random.default_rng(10)
        x = rng.random((2, 2, 8, 8))
        params = {
            "k": t(rng.standard_normal((2, 2, 3, 3)) * 0.4, grad=True),
            "kb": t(rng.standard_normal(2) * 0.1, grad=True),
            "w": t(rng.standard_normal((1, 2)) * 0.4, grad=True),
            "b": t(rng.standard_normal(1) * 0.1, grad=True),
        }

        def fwd():
            h = ad.conv2d(Tensor(hcwn(x)), params["k"], params["kb"], padding=1)
            h = ad.leaky_relu(h)
            h = ad.avg_pool2(h)
            h = ad.global_avg_pool(h)
            h = ad.dense(h, params["w"], params["b"])
            h = ad.sigmoid(h)
            return ad.tmean(ad.log(ad.clip(h, 1e-7, 1 - 1e-7)))

        assert ad.gradient_check(fwd, params, n_coords=20) < 1e-4


# parameter shapes and the op under test; every parameter requires a gradient. The conv
# and pool inputs are (H, C, W, N), the NCHW shapes (2, 2, 7, 7) and (2, 3, 7, 5)
OP_GRADIENT_CASES = {
    "add-broadcast": ({"a": (3, 4), "b": (1, 4)}, lambda p: ad.add(p["a"], p["b"])),
    "sub-broadcast": ({"a": (3, 4), "b": (1, 4)}, lambda p: ad.sub(p["a"], p["b"])),
    "mul-broadcast": ({"a": (3, 4), "b": (1, 4)}, lambda p: ad.mul(p["a"], p["b"])),
    "conv2d-stride2-pad1": (
        {"x": (7, 2, 7, 2), "k": (3, 2, 3, 3), "kb": (3,)},
        lambda p: ad.conv2d(p["x"], p["k"], p["kb"], stride=2, padding=1),
    ),
    "avg_pool2-odd-extent": ({"x": (7, 3, 5, 2)}, lambda p: ad.avg_pool2(p["x"])),
    "half_difference": ({"a": (6,)}, lambda p: ad.half_difference(p["a"])),
    "dense-input-grad": (
        {"x": (3, 5), "w": (2, 5), "b": (2,)},
        lambda p: ad.dense(p["x"], p["w"], p["b"]),
    ),
}


@pytest.mark.parametrize("case", OP_GRADIENT_CASES)
def test_op_gradients_beside_a_constant_operand(case):
    shapes, op = OP_GRADIENT_CASES[case]
    rng = np.random.default_rng(11)
    params = {name: t(rng.standard_normal(shape), grad=True) for name, shape in shapes.items()}
    weight = t(rng.standard_normal(op(params).shape))  # a constant: no gradient may reach it
    err = ad.gradient_check(lambda: ad.tsum(ad.mul(op(params), weight)), params, n_coords=40)
    assert err < 1e-6
    assert weight.grad is None


def _naive_conv2d(x, k, b, stride, padding):
    """Direct float64 loops over every output position, tap and channel."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    out = np.empty((n, c_out, h_out, w_out))
    for m in range(n):
        for o in range(c_out):
            for y in range(h_out):
                for z in range(w_out):
                    patch = xp[m, :, y * stride : y * stride + kh, z * stride : z * stride + kw]
                    out[m, o, y, z] = np.sum(patch * k[o]) + b[o]
    return out


def _naive_conv2d_grads(x, k, g, stride, padding):
    """d sum(g * conv2d(x, k)) / dx and / dk by the same loops, scattering and gathering."""
    _, _, h, w = x.shape
    _, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gxp, gk = np.zeros_like(xp), np.zeros_like(k)
    n, c_out, h_out, w_out = g.shape
    for m in range(n):
        for o in range(c_out):
            for y in range(h_out):
                for z in range(w_out):
                    rows = np.s_[y * stride : y * stride + kh]
                    cols = np.s_[z * stride : z * stride + kw]
                    gxp[m, :, rows, cols] += g[m, o, y, z] * k[o]
                    gk[o] += g[m, o, y, z] * xp[m, :, rows, cols]
    return gxp[:, :, padding : padding + h, padding : padding + w], gk


# (input shape, kernel, stride, padding): every kernel of 1, 3 and 5 at padding 0, 1 and 2
# and stride 1 and 2 on a non-square input, plus kernels as large as the padded input
CONV_CASES = [((2, 3, 7, 5), kernel, stride, padding)
              for kernel in (1, 3, 5) for stride in (1, 2) for padding in (0, 1, 2)]
CONV_CASES += [((1, 2, 3, 3), 5, 1, 1), ((2, 2, 5, 3), 5, 2, 1), ((1, 3, 4, 6), 4, 1, 0)]


@pytest.mark.parametrize("shape, kernel, stride, padding", CONV_CASES)
def test_conv2d_matches_naive_loop(shape, kernel, stride, padding):
    rng = np.random.default_rng(12)
    x_nchw = rng.standard_normal(shape)
    x = t(hcwn(x_nchw), grad=True)
    k = t(rng.standard_normal((4, shape[1], kernel, kernel)), grad=True)
    b = t(rng.standard_normal(4), grad=True)
    out = ad.conv2d(x, k, b, stride=stride, padding=padding)
    expected = _naive_conv2d(x_nchw, k.data, b.data, stride, padding)
    assert nchw(out.data).shape == expected.shape
    np.testing.assert_allclose(nchw(out.data), expected, rtol=1e-12, atol=1e-12)
    with ad.no_grad():
        leaf = ad.conv2d(x, k, b, stride=stride, padding=padding)
    assert leaf.data.tobytes() == out.data.tobytes()
    assert not leaf._parents and leaf._backward is None and not leaf.requires_grad
    g = rng.standard_normal(expected.shape)
    ad.backward(ad.tsum(ad.mul(out, hcwn(g))))
    gx, gk = _naive_conv2d_grads(x_nchw, k.data, g, stride, padding)
    np.testing.assert_allclose(nchw(x.grad), gx, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(k.grad, gk, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(b.grad, g.sum(axis=(0, 2, 3)), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 3, 7, 5), (1, 2, 5, 9), (2, 1, 4, 6)])
def test_avg_pool2_matches_reshape_mean(shape, dtype):
    rng = np.random.default_rng(13)
    x_nchw = rng.standard_normal(shape).astype(dtype)
    x = Tensor(hcwn(x_nchw), requires_grad=True)
    out = ad.avg_pool2(x)
    n, c, h, w = shape
    h2, w2 = h // 2, w // 2
    mean = x_nchw[:, :, : 2 * h2, : 2 * w2].reshape(n, c, h2, 2, w2, 2).mean(axis=(3, 5))
    assert out.data.dtype == dtype
    # four rounded additions on each side, each off by at most eps/2 of a partial sum
    bound = 4 * np.finfo(dtype).eps * np.abs(x.data).max()
    np.testing.assert_allclose(nchw(out.data), mean, rtol=0, atol=bound)
    g = rng.standard_normal(mean.shape).astype(dtype)
    ad.backward(ad.tsum(ad.mul(out, hcwn(g))))
    expected = np.zeros(shape, dtype=dtype)  # the trailing odd row and column get nothing
    expected[:, :, : 2 * h2, : 2 * w2] = np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) / 4
    assert np.array_equal(nchw(x.grad), expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_bit_identical_to_where(dtype):
    special = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, np.finfo(dtype).tiny,
               -np.finfo(dtype).tiny, np.finfo(dtype).smallest_subnormal,
               -np.finfo(dtype).smallest_subnormal, np.finfo(dtype).max, -np.finfo(dtype).max]
    x = np.concatenate([np.array(special, dtype=dtype),
                        np.random.default_rng(14).standard_normal(200).astype(dtype) * 10])
    a = Tensor(x, requires_grad=True)
    out = ad.leaky_relu(a)
    assert out.data.tobytes() == np.where(x > 0, x, 0.01 * x).tobytes()
    g = np.random.default_rng(15).standard_normal(x.shape).astype(dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # the loss sums inf and -inf
        ad.backward(ad.tsum(ad.mul(out, g)))
    assert a.grad.tobytes() == (g * np.where(x > 0, 1.0, 0.01).astype(dtype)).tobytes()
    assert a.grad.tobytes() == _take_leaky_relu_grad(x, g, 0.01).tobytes()


# The earlier gradient rules of leaky_relu, avg_pool2 and conv2d's input, kept as oracles:
# the rewritten rules must give the same bytes.


def _take_leaky_relu_grad(x, g, slope):
    """g times the multiplier looked up by ``take`` on the sign map of x."""
    return g * np.array([slope, 1], g.dtype).take((x > 0).view(np.uint8))


def _zero_filled_pool_grad(a, g):
    """A zero-filled input gradient with g / 4 written into each corner of every window."""
    h2, w2 = a.shape[0] // 2, a.shape[2] // 2
    gx = np.zeros_like(a)
    for i in (0, 1):
        for j in (0, 1):
            gx[i : 2 * h2 : 2, :, j : 2 * w2 : 2] = g * 0.25
    return gx


def _padded_scatter_grad_x(x_shape, kernel, g, stride, padding):
    """``conv2d``'s input gradient as col2im into a zeroed padded array, then its
    unpadded part: the taps in row-major order, padded positions included."""
    h, c_in, w, n = x_shape
    c_out, _, kh, kw = kernel.shape
    h_out, _, w_out, _ = g.shape
    kmat = kernel.transpose(0, 2, 3, 1).reshape(c_out, kh * kw * c_in)
    g_cols = (kmat.T @ g.reshape(h_out, c_out, w_out * n)).reshape(
        h_out, kh * kw, c_in, w_out, n)
    gxp = np.zeros((h + 2 * padding, c_in, w + 2 * padding, n), dtype=g_cols.dtype)
    for tap in range(kh * kw):
        i, j = divmod(tap, kw)
        gxp[i : i + stride * h_out : stride, :, j : j + stride * w_out : stride] += g_cols[:, tap]
    return gxp[padding : padding + h, :, padding : padding + w]


def _vjps_of(monkeypatch, op, *args, **kwargs):
    """The output of ``op(*args, **kwargs)`` and the vjps it hands ``_node``."""
    seen = []
    node = ad._node

    def recording_node(data, parents, vjps):
        seen.append(vjps)
        return node(data, parents, vjps)

    monkeypatch.setattr(ad, "_node", recording_node)
    out = op(*args, **kwargs)
    monkeypatch.undo()
    return out, seen[-1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(5, 2, 7, 1), (4, 2, 6, 2), (5, 3, 4, 2), (4, 1, 3, 3)])
def test_avg_pool2_grad_bit_identical_to_zero_filled(shape, dtype, monkeypatch):
    rng = np.random.default_rng(16)
    a = rng.standard_normal(shape).astype(dtype)
    out, (grad_x,) = _vjps_of(monkeypatch, ad.avg_pool2, Tensor(a, requires_grad=True))
    g = rng.standard_normal(out.shape).astype(dtype)
    expected = _zero_filled_pool_grad(a, g).tobytes()
    for _ in range(3):
        # a freed array of the same size, full of NaN, is what the rule's next
        # allocation most likely reuses: an element it leaves unwritten shows
        poison = np.full(shape, np.nan, dtype)
        del poison
        assert grad_x(g).tobytes() == expected


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, kernel, stride, padding",
                         [((2, 3, 7, 5), kernel, stride, padding)
                          for kernel in (1, 3, 5) for stride in (1, 2) for padding in (0, 1, 2)]
                         + [((1, 2, 7, 5), 9, 1, 2), ((2, 2, 7, 5), 7, 2, 1)])
def test_conv2d_input_grad_bit_identical_to_padded_scatter(shape, kernel, stride, padding,
                                                           dtype):
    rng = np.random.default_rng(17)
    x = Tensor(hcwn(rng.standard_normal(shape).astype(dtype)), requires_grad=True)
    k = Tensor(rng.standard_normal((4, shape[1], kernel, kernel)).astype(dtype))
    out = ad.conv2d(x, k, Tensor(np.zeros(4, dtype)), stride=stride, padding=padding)
    g = rng.standard_normal(out.shape).astype(dtype)
    ad.backward(ad.tsum(ad.mul(out, g)))
    expected = _padded_scatter_grad_x(x.shape, k.data, g, stride, padding)
    assert x.grad.dtype == dtype and x.grad.tobytes() == expected.tobytes()


def test_layer_gradient_rules_hand_on_arrays_that_own_their_memory(monkeypatch):
    rng = np.random.default_rng(18)
    x = Tensor(rng.standard_normal((5, 2, 7, 3)), requires_grad=True)
    k = Tensor(rng.standard_normal((3, 2, 3, 3)))
    layers = {"conv2d": ad.conv2d(x, k, Tensor(np.zeros(3)), padding=1),
              "leaky_relu": ad.leaky_relu(x), "avg_pool2": ad.avg_pool2(x)}
    handed = []
    monkeypatch.setattr(ad, "_accumulate", lambda tensor, g: handed.append((tensor, g)))
    for name, out in layers.items():
        handed.clear()
        out._backward(rng.standard_normal(out.shape))
        (gx,) = [g for tensor, g in handed if tensor is x]
        assert gx.base is None, name


def test_no_grad_nests_and_restores_the_mode_after_an_exception():
    a = t([1.0, 2.0], grad=True)
    with ad.no_grad():
        with ad.no_grad():
            inner = ad.mul(a, a)
        outer = ad.mul(a, a)  # leaving the inner context keeps the outer one's mode
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside")
        after_raise = ad.mul(a, a)
    for out in (inner, outer, after_raise):
        assert not out._parents and out._backward is None and not out.requires_grad
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside")
    loss = ad.tsum(ad.mul(a, a))
    assert loss.requires_grad
    ad.backward(loss)
    assert np.array_equal(a.grad, [2.0, 4.0])


def test_no_grad_leaves_other_threads_recording():
    import threading

    a = t([1.0, 2.0], grad=True)
    entered, release, outs = threading.Event(), threading.Event(), []

    def forward_only():
        with ad.no_grad():
            entered.set()
            release.wait(timeout=10)
            outs.append(ad.mul(a, a))

    worker = threading.Thread(target=forward_only)
    worker.start()
    try:
        assert entered.wait(timeout=10)
        recorded = ad.mul(a, a)  # while the worker is inside no_grad
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert recorded.requires_grad and recorded._parents == (a, a)
    assert not outs[0].requires_grad and not outs[0]._parents


def test_accumulate_gives_each_parent_its_own_gradient_buffer():
    a, b = t([1.0, 2.0, 3.0], grad=True), t([4.0, 5.0, 6.0], grad=True)
    s = ad.add(a, b)  # hands the same upstream gradient to both parents
    ad.backward(ad.tsum(ad.mul(s, s)))
    assert np.array_equal(a.grad, [10.0, 14.0, 18.0]) and np.array_equal(b.grad, a.grad)
    assert not np.shares_memory(a.grad, b.grad)
    assert not np.shares_memory(a.grad, s.grad) and not np.shares_memory(b.grad, s.grad)
    a.grad += 1.0  # so an optimizer writing into one gradient leaves the other alone
    assert np.array_equal(b.grad, [10.0, 14.0, 18.0])


def _per_row_conv2d(x, kernel, bias, stride, padding):
    """``conv2d``'s forward, one output row at a time: the row's im2col columns gathered
    tap by tap from a zero-padded copy, then one GEMM per row, then the bias."""
    h, c_in, w, n = x.shape
    c_out, _, kh, kw = kernel.shape
    xp = np.pad(x, ((padding, padding), (0, 0), (padding, padding), (0, 0)))
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    kmat = kernel.transpose(0, 2, 3, 1).reshape(c_out, kh * kw * c_in)
    out = np.empty((h_out, c_out, w_out * n), x.dtype)
    for y in range(h_out):
        cols = np.empty((kh * kw, c_in, w_out, n), x.dtype)
        for tap in range(kh * kw):
            i, j = divmod(tap, kw)
            cols[tap] = xp[stride * y + i, :, j : j + stride * w_out : stride]
        out[y] = kmat @ cols.reshape(kh * kw * c_in, w_out * n)
    out += bias[:, None]
    return out.reshape(h_out, c_out, w_out, n)


@pytest.mark.parametrize("block_rows", [1, 2, 3, None])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel, stride, padding",
                         [(kernel, stride, padding)
                          for kernel in (1, 3, 5) for stride in (1, 2) for padding in (0, 1, 2)])
def test_conv2d_blocked_gather_gives_the_same_bytes(kernel, stride, padding, dtype, block_rows,
                                                     monkeypatch):
    # a forward-only pass gathers ``block_rows`` output rows at a time (None: the default
    # budget), so that 1-row blocks, several blocks and a ragged last block all run
    n, c_in, h, w = 3, 2, 7, 6
    h_out = (h + 2 * padding - kernel) // stride + 1
    w_out = (w + 2 * padding - kernel) // stride + 1
    if block_rows is not None:
        row_bytes = kernel * kernel * c_in * w_out * n * np.dtype(dtype).itemsize
        monkeypatch.setattr(ad, "_BLOCK_BYTES", block_rows * row_bytes)
    rng = np.random.default_rng(19)
    # random values test the sum order; small integers make every sum order exact, so the
    # float64 loops of ``_naive_conv2d`` give the same bytes too
    for data in (rng.standard_normal, lambda shape: rng.integers(-3, 4, shape)):
        k = Tensor(data((4, c_in, kernel, kernel)).astype(dtype))
        b = Tensor(data(4).astype(dtype))
        # every other column of a wider array: an input that is not contiguous
        wide = hcwn(data((n, c_in, h, 2 * w)).astype(dtype))
        x = Tensor(wide[:, :, ::2], requires_grad=True)
        assert not x.data.flags.c_contiguous
        recorded = ad.conv2d(x, k, b, stride=stride, padding=padding)
        with ad.no_grad():
            leaf = ad.conv2d(x, k, b, stride=stride, padding=padding)
        assert leaf.shape == recorded.shape == (h_out, 4, w_out, n)
        assert leaf.data.dtype == dtype
        assert leaf.data.tobytes() == recorded.data.tobytes()
        oracle = _per_row_conv2d(x.data, k.data, b.data, stride, padding)
        assert leaf.data.tobytes() == oracle.tobytes()
    naive = _naive_conv2d(nchw(x.data), k.data, b.data, stride, padding).astype(dtype)
    assert nchw(leaf.data).tobytes() == np.ascontiguousarray(naive).tobytes()
