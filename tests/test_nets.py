import dataclasses

import numpy as np
import pytest

from rankpress.autodiff import ShapeError
from rankpress.nets import (
    ConfigError,
    LayerSpec,
    NetworkSpec,
    build_spec,
    build_teacher,
    count_flops,
    count_params,
    init_params,
    pair_input,
    score_batch,
)
from rankpress.optim import predict_batch
from rankpress.pipeline import PipelineConfig
from rankpress.synthdata import pair_dtype


@pytest.fixture(scope="module")
def small_net():
    cfg = PipelineConfig(channels=1, patch=16, conv_widths=(4, 8), dense_widths=(8,), seed=3)
    return cfg, build_teacher(cfg)


def test_pair_input_is_difference_then_distorted(small_net):
    cfg, (spec, _) = small_net
    rng = np.random.default_rng(0)
    ref = rng.random((2, 1, 16, 16))
    dist = rng.random((2, 1, 16, 16))
    x = pair_input(spec, ref, dist).data
    assert x.shape == (16, 2, 16, 2)  # (H, C, W, N)
    x = x.transpose(3, 1, 0, 2)
    assert np.array_equal(x[:, :1], ref - dist)
    assert np.array_equal(x[:, 1:], dist)


def test_patches_of_another_geometry_rejected(small_net):
    cfg, (spec, _) = small_net
    assert spec.patch_mismatch((1, 16, 16)) is None
    for shape in ((2, 16, 16), (1, 16, 12), (1, 12, 16), (16, 16), (1, 1, 16, 16)):
        assert "do not fit the network's input (2 planes of 16x16)" in spec.patch_mismatch(shape)
    good, bad = np.zeros((2, 1, 16, 16)), np.zeros((2, 1, 16, 12))
    with pytest.raises(ShapeError, match="reference: 1x16x12 patches do not fit"):
        pair_input(spec, bad, good)
    with pytest.raises(ShapeError, match="distorted: 1x16x12 patches do not fit"):
        pair_input(spec, good, bad)
    with pytest.raises(ShapeError, match="reference: 16x16 patches do not fit"):
        pair_input(spec, good[0], good[0])  # one CHW patch, not an NCHW batch


def test_identical_pair_has_zero_difference_channel(small_net):
    cfg, (spec, _) = small_net
    img = np.random.default_rng(1).random((1, 1, 16, 16))
    x = pair_input(spec, img, img).data
    assert np.all(x[:, :1] == 0.0)


def test_score_is_scalar_per_item(small_net):
    cfg, (spec, params) = small_net
    ref = np.random.default_rng(2).random((3, 1, 16, 16))
    dist = np.random.default_rng(3).random((3, 1, 16, 16))
    s = score_batch(spec, params, ref, dist).data
    assert s.shape == (3,)
    assert np.all(np.isfinite(s))
    assert score_batch(spec, params, ref[:1], dist[:1]).data[0] == pytest.approx(float(s[0]), rel=1e-6)


def one_pair(r1, d1, r2, d2) -> np.ndarray:
    """A one-record ``pair_dtype`` batch holding (r1, d1) against (r2, d2).

    Its patches are float32; float64 parameters make the scores float64.
    """
    batch = np.zeros(1, dtype=pair_dtype(*r1.shape))
    batch["patches"][0] = np.stack([r1, d1, r2, d2])
    return batch


def test_preference_structure(small_net):
    cfg, (spec, _) = small_net
    params = init_params(spec, seed=cfg.seed, dtype=np.float64)
    rng = np.random.default_rng(4)
    r, d1, d2 = (rng.random((1, 16, 16)) for _ in range(3))
    batch = one_pair(r, d1, r, d2)
    p = float(predict_batch(spec, params, batch).data[0])
    # p = sigmoid(s1 - s2) of the two sides' scores
    patches = batch["patches"]
    s1 = float(score_batch(spec, params, patches[:, 0], patches[:, 1]).data[0])
    s2 = float(score_batch(spec, params, patches[:, 2], patches[:, 3]).data[0])
    assert p == pytest.approx(1.0 / (1.0 + np.exp(-(s1 - s2))), abs=1e-12)
    # same distorted image on both sides -> indifference
    tie = predict_batch(spec, params, one_pair(r, d1, r, d1)).data[0]
    assert tie == 0.5


def test_preference_antisymmetry(small_net):
    cfg, (spec, _) = small_net
    params = init_params(spec, seed=cfg.seed, dtype=np.float64)
    rng = np.random.default_rng(5)
    r, d1, d2 = (rng.random((1, 16, 16)) for _ in range(3))
    fwd = float(predict_batch(spec, params, one_pair(r, d1, r, d2)).data[0])
    rev = float(predict_batch(spec, params, one_pair(r, d2, r, d1)).data[0])
    assert fwd + rev == pytest.approx(1.0, abs=1e-12)


def test_spec_geometry_chain():
    cfg = PipelineConfig(channels=1, patch=32, conv_widths=(4, 8, 16), dense_widths=(8,))
    spec = build_spec(cfg)
    # conv layers consume 2 input channels (difference + distorted)
    assert spec.layers[0].in_ch == 2
    for prev, cur in zip(spec.layers, spec.layers[1:]):
        assert cur.in_ch == prev.out_ch
    assert spec.layers[-1].out_ch == 1


def test_init_is_seed_deterministic():
    cfg = PipelineConfig(conv_widths=(4,), dense_widths=(4,), patch=16, seed=11)
    _, p1 = build_teacher(cfg)
    _, p2 = build_teacher(cfg)
    for k in p1:
        assert np.array_equal(p1[k].data, p2[k].data)
    _, p3 = build_teacher(PipelineConfig(conv_widths=(4,), dense_widths=(4,), patch=16, seed=12))
    assert any(not np.array_equal(p1[k].data, p3[k].data) for k in p1)


class TestCounts:
    def test_default_teacher_param_count(self):
        # closed form: sum over layers of (k*k*cin*cout + cout) for conv,
        # (fin*fout + fout) for dense
        spec, params = build_teacher(
            PipelineConfig(patch=64, conv_widths=(32, 64, 128), dense_widths=(64,)))
        expected = 0
        for lay in spec.layers:
            if lay.kind == "conv":
                expected += lay.kernel * lay.kernel * lay.in_ch * lay.out_ch + lay.out_ch
            else:
                expected += lay.in_ch * lay.out_ch + lay.out_ch
        assert count_params(params) == expected == 101281

    def test_nonzero_only_counting(self):
        spec, params = build_teacher(PipelineConfig(conv_widths=(4,), dense_widths=(4,), patch=16))
        before = count_params(params, nonzero_only=True)
        first = next(k for k in params if k.endswith("weight"))
        newly_zeroed = int(np.count_nonzero(params[first].data[..., 0]))
        params[first].data[..., 0] = 0.0
        assert count_params(params, nonzero_only=True) == before - newly_zeroed

    def test_flops_small_oracle(self):
        # one 3x3 conv, 2->4 channels, 8x8 padded output, then GAP + dense 4->1
        cfg = PipelineConfig(channels=1, patch=8, conv_widths=(4,), dense_widths=())
        spec, params = build_teacher(cfg)
        conv = 2 * 3 * 3 * 2 * 4 * 8 * 8
        head = 2 * 4 * 1
        assert count_flops(spec) == conv + head


def test_bad_config_rejected():
    with pytest.raises(ConfigError):
        build_spec(PipelineConfig(conv_widths=(0,)))
    with pytest.raises(ConfigError):
        build_spec(PipelineConfig(patch=2, conv_widths=(4, 4, 4, 4)))


def test_param_shapes_are_the_init_params_layout():
    spec, params = build_teacher(PipelineConfig())
    assert [(n, p.data.shape) for n, p in params.items()] == list(spec.param_shapes().items())


def test_geometry_walk_rejects_what_does_not_fit():
    with pytest.raises(ConfigError, match="patch too small"):
        build_spec(PipelineConfig(patch=2, conv_widths=(4, 4, 4, 4)))
    # build_spec pads by kernel // 2, which keeps every kernel inside the padded input,
    # so an unpadded spec reaches the kernel check
    head = LayerSpec("fc1", "dense", 4, 1)
    with pytest.raises(ConfigError, match="kernel 5 exceeds padded input 4x4"):
        NetworkSpec(2, 4, 4, (LayerSpec("conv1", "conv", 2, 4, 5, 1, 0), head))
    with pytest.raises(ConfigError, match="bad width, kernel, stride or padding"):
        NetworkSpec(2, 4, 4, (LayerSpec("conv1", "conv", 2, 4, 3, 0, 1), head))


def test_a_spec_cannot_be_changed_into_an_invalid_one():
    spec = build_spec(PipelineConfig(patch=16, conv_widths=(4, 8), dense_widths=(8,)))
    with pytest.raises(ConfigError, match="patch too small"):
        dataclasses.replace(spec, height=2)
    with pytest.raises(ConfigError, match="single-unit dense score head"):
        dataclasses.replace(spec, layers=spec.layers[:-1])
