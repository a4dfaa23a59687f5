import numpy as np
import pytest

from rankpress.autodiff import Tensor
from rankpress.nets import build_teacher, count_params, score_batch
from rankpress.pipeline import PipelineConfig
from rankpress.pruning import (
    DensityReport,
    LayerDensity,
    StructureError,
    build_pruning_plan,
    compute_density,
    format_density_report,
    identity_plan,
    prune_network,
    validate_structure,
)


@pytest.fixture()
def net():
    cfg = PipelineConfig(channels=1, patch=16, conv_widths=(4, 8), dense_widths=(8,), seed=1)
    return cfg, build_teacher(cfg)


class TestDensity:
    def test_exact_ratio(self, net):
        cfg, (spec, params) = net
        w = params["conv2.weight"].data
        w.flat[: w.size // 2] = 0.0
        report = compute_density(spec, params)
        d = report.by_name()["conv2"]
        assert d.nonzero == np.count_nonzero(w)
        assert d.density == d.nonzero / w.size

    def test_half_zero_vector_example(self):
        d = LayerDensity("l", nonzero=2, total=4)
        assert d.density == 0.5

    def test_all_zero_layer(self, net):
        cfg, (spec, params) = net
        params["fc1.weight"].data[:] = 0.0
        report = compute_density(spec, params)
        assert report.by_name()["fc1"].density == 0.0

    def test_biases_excluded(self, net):
        cfg, (spec, params) = net
        report = compute_density(spec, params)
        total = sum(p.data.size for n, p in params.items() if n.endswith(".weight"))
        assert report.global_total == total

    def test_global_density_is_ratio_of_sums(self, net):
        cfg, (spec, params) = net
        params["conv1.weight"].data[:] = 0.0
        report = compute_density(spec, params)
        assert report.global_density == report.global_nonzero / report.global_total


class TestPlan:
    def test_full_density_identity(self, net):
        cfg, (spec, params) = net
        report = compute_density(spec, params)  # fresh init: nothing is zero
        plan = build_pruning_plan(spec, report, params)
        ident = identity_plan(spec)
        for a, b in zip(plan.layers, ident.layers):
            assert a.retained_in == b.retained_in
            assert a.retained_out == b.retained_out

    def test_quarter_density_keeps_quarter_inputs(self):
        cfg = PipelineConfig(channels=1, patch=16, conv_widths=(64,), dense_widths=(), seed=0)
        spec, params = build_teacher(cfg)
        report = DensityReport(
            tuple(
                LayerDensity(l.name, nonzero=(l.in_ch * l.out_ch) // 4 if l.name == "fc1" else 1,
                             total=l.in_ch * l.out_ch)
                for l in spec.layers
            )
        )
        plan = build_pruning_plan(spec, report, params)
        head = plan.by_name()["fc1"]
        assert len(head.retained_in) == 16  # round(0.25 * 64)

    def test_chain_consistency(self, net):
        cfg, (spec, params) = net
        params["fc1.weight"].data[:, ::2] = 0.0
        params["conv2.weight"].data[:4] = 0.0
        report = compute_density(spec, params)
        plan = build_pruning_plan(spec, report, params)
        for up, down in zip(plan.layers, plan.layers[1:]):
            assert up.retained_out == down.retained_in

    def test_head_output_and_image_inputs_never_pruned(self, net):
        cfg, (spec, params) = net
        for n, p in params.items():
            if n.endswith(".weight"):
                p.data[..., 0] = 0.0  # induce sub-unity densities everywhere
        plan = build_pruning_plan(spec, compute_density(spec, params), params)
        assert plan.layers[-1].retained_out == (0,)
        assert plan.layers[0].retained_in == tuple(range(spec.layers[0].in_ch))

    def test_l1_ranking_with_index_ties(self):
        cfg = PipelineConfig(channels=1, patch=16, conv_widths=(4,), dense_widths=(), seed=0)
        spec, params = build_teacher(cfg)
        w = params["fc1.weight"].data
        w[:] = 0.0
        w[0, 1] = 3.0
        w[0, 2] = 3.0  # tied with channel 1 -> both beat 0 and 3; tie among selected
        w[0, 0] = 1.0
        report = DensityReport(
            tuple(
                LayerDensity(l.name, nonzero=l.in_ch * l.out_ch // 2, total=l.in_ch * l.out_ch)
                for l in spec.layers
            )
        )
        plan = build_pruning_plan(spec, report, params)
        assert plan.by_name()["fc1"].retained_in == (1, 2)

    def test_missing_layer_rejected(self, net):
        cfg, (spec, params) = net
        report = compute_density(spec, params)
        short = DensityReport(report.layers[:-1])
        with pytest.raises(StructureError):
            build_pruning_plan(spec, short, params)


class TestPruneNetwork:
    def test_function_preserved_when_pruned_channels_are_dead(self, net):
        # zero out some conv2 input channels end to end (producer weights+bias,
        # consumer slices); pruning them must not change any output
        cfg, (spec, params) = net
        dead = [1, 3]
        params["conv1.weight"].data[dead] = 0.0
        params["conv1.bias"].data[dead] = 0.0
        params["conv2.weight"].data[:, dead] = 0.0
        report = compute_density(spec, params)
        plan = build_pruning_plan(spec, report, params)
        kept = plan.by_name()["conv2"].retained_in
        assert set(kept).isdisjoint(dead)

        spec2, params2 = prune_network(spec, params, plan)
        rng = np.random.default_rng(3)
        ref = rng.random((4, 1, 16, 16)).astype(np.float32)
        dist = rng.random((4, 1, 16, 16)).astype(np.float32)
        before = score_batch(spec, params, ref, dist).data
        after = score_batch(spec2, params2, ref, dist).data
        assert np.max(np.abs(before - after)) <= 1e-6

    def test_identity_plan_is_lossless(self, net):
        cfg, (spec, params) = net
        spec2, params2 = prune_network(spec, params, identity_plan(spec))
        for k in params:
            assert np.array_equal(params[k].data, params2[k].data)

    def test_param_count_drops(self, net):
        cfg, (spec, params) = net
        params["conv2.weight"].data[:, :2] = 0.0
        params["fc1.weight"].data[:, : params["fc1.weight"].data.shape[1] // 2] = 0.0
        plan = build_pruning_plan(spec, compute_density(spec, params), params)
        spec2, params2 = prune_network(spec, params, plan)
        assert count_params(params2) < count_params(params)
        assert not validate_structure(spec2, params2)

    def test_pruned_network_structure_valid(self, net):
        cfg, (spec, params) = net
        params["conv2.weight"].data[:, 1::2] = 0.0
        plan = build_pruning_plan(spec, compute_density(spec, params), params)
        spec2, params2 = prune_network(spec, params, plan)
        assert validate_structure(spec2, params2) == []
        for layer in spec2.layers:
            w = params2[f"{layer.name}.weight"].data
            if layer.kind == "conv":
                assert w.shape[:2] == (layer.out_ch, layer.in_ch)
            else:
                assert w.shape == (layer.out_ch, layer.in_ch)


    def test_student_params_follow_param_shapes(self, net):
        cfg, (spec, params) = net
        params["conv2.weight"].data[:, 1::2] = 0.0
        plan = build_pruning_plan(spec, compute_density(spec, params), params)
        spec2, params2 = prune_network(spec, params, plan)
        assert spec2 != spec
        assert [(n, p.data.shape) for n, p in params2.items()] == list(spec2.param_shapes().items())

    def test_bad_bias_and_extra_parameter_reported(self, net):
        cfg, (spec, params) = net
        params["fc1.bias"] = Tensor(np.zeros(3, dtype=np.float32))
        params["fc9.weight"] = Tensor(np.zeros((1, 1), dtype=np.float32))
        assert validate_structure(spec, params) == [
            "fc1.bias: shape (3,) != spec (8,)",
            "fc9.weight: shape (1, 1) != spec None",
        ]
        with pytest.raises(StructureError, match="fc1.bias"):
            prune_network(spec, params, identity_plan(spec))


def test_density_report_formatting(net):
    cfg, (spec, params) = net
    text = format_density_report(compute_density(spec, params))
    for layer in spec.layers:
        assert layer.name in text
