"""Acceptance suite: nine go/no-go criteria for the compression pipeline.

Each test prints one PASS/FAIL line. Criteria 6, 7, and 9 share a single
end-to-end pipeline run (session-scoped fixture) so the whole suite stays
inside the time budget; the full run itself is the artifact under test.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rankpress import autodiff as ad
from rankpress import pipeline
from rankpress.autodiff import Tensor
from rankpress.checkpoint import load_checkpoint
from rankpress.distill import (
    BatchPredictions,
    batch_loss,
    class_loss,
    distill_train,
    instance_loss,
    total_loss,
)
from rankpress.nets import build_spec, build_teacher, count_params, init_params, score_batch
from rankpress.optim import (
    capture_signs,
    orthant_step,
    pair_accuracy,
    prox_l1_step,
    train_ranking,
)
from rankpress.pipeline import PipelineConfig
from rankpress.pruning import build_pruning_plan, compute_density, identity_plan, prune_network
from rankpress.stats import average_ranks, f_test, srocc
from rankpress.synthdata import generate_sources, make_pair_dataset, read_dataset


def _report(criterion: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}" + (f" — {detail}" if detail else ""))
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared end-to-end run (criteria 6, 7b, 9)


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("accept")
    cfg = pipeline.PipelineConfig()
    t0 = time.monotonic()
    paths = pipeline.gen_data(cfg, base / "data")
    teacher = pipeline.train_teacher(cfg, base / "data", base / "teacher")
    sparse = pipeline.sparsify(cfg, base / "data", teacher, base / "sparse")
    student = pipeline.prune(cfg, sparse, base / "pruned")
    distilled = pipeline.distill(cfg, base / "data", teacher, student, base / "distill",
                                 freeze_check=True)
    pipeline.evaluate(cfg, paths["eval"], [distilled, teacher], base / "eval")
    elapsed = time.monotonic() - t0
    return {
        "base": base,
        "cfg": cfg,
        "paths": paths,
        "teacher": teacher,
        "sparse": sparse,
        "student": student,
        "distilled": distilled,
        "elapsed": elapsed,
    }


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        cfg = PipelineConfig(channels=1, patch=12, conv_widths=(4, 6), dense_widths=(8,), seed=seed)
        spec = build_spec(cfg)
        params = init_params(spec, seed=seed, dtype=np.float64)
        r1, d1 = rng.random((2, 1, 12, 12)), rng.random((2, 1, 12, 12))
        r2, d2 = rng.random((2, 1, 12, 12)), rng.random((2, 1, 12, 12))
        labels = (rng.random(2) > 0.5).astype(np.float64)
        p_teacher = rng.random(2) * 0.8 + 0.1

        def fwd():
            s1 = score_batch(spec, params, r1, d1)
            s2 = score_batch(spec, params, r2, d2)
            p_s = ad.sigmoid(s1 - s2)
            return total_loss(BatchPredictions(p_teacher, p_s, labels), alpha=0.1)

        worst = max(worst, ad.gradient_check(fwd, params, n_coords=20, rng=np.random.default_rng(seed)))
    elapsed = time.monotonic() - t0
    _report(
        "criterion 1: end-to-end gradients match finite differences (<1e-4, <60s)",
        worst < 1e-4 and elapsed < 60.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. loss-value oracles


def test_criterion_2_loss_value_oracles():
    def bp(t, s):
        t = np.asarray(t, dtype=np.float64)
        return BatchPredictions(t, np.asarray(s, dtype=np.float64), np.zeros_like(t))

    inst = float(instance_loss(bp([0.8], [0.6])).data)
    bat = float(batch_loss(bp([1.0, 0.0], [0.5, 0.5])).data)
    cls = float(class_loss(bp([1.0, 0.0], [0.5, 0.5])).data)
    inst_oracle = -(0.8 * np.log(0.6) + 0.2 * np.log(0.4))
    ok = (
        abs(inst - inst_oracle) < 1e-9
        and abs(bat - 0.375) < 1e-9
        and abs(cls - 0.25) < 1e-9
    )
    _report(
        "criterion 2: instance/batch/class loss oracles to 1e-9",
        ok,
        f"instance {inst:.6f} (0.59192), batch {bat:.6f} (0.375), class {cls:.6f} (0.25)",
    )


# ---------------------------------------------------------------------------
# 3. prox / orthant correctness


def test_criterion_3_prox_orthant_correctness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        w = float(rng.uniform(-2, 2))
        thr = float(rng.uniform(0.01, 0.5))  # eta * lam
        params = {"l.weight": Tensor(np.array([w]), requires_grad=True)}
        prox_l1_step(params, eta=1.0, lam=thr)
        got = float(params["l.weight"].data[0])
        # independent oracle: minimize 0.5(v-w)^2 + thr|v| on a 1e-3 grid
        grid = np.arange(-2.5, 2.5, 1e-3)
        best = grid[np.argmin(0.5 * (grid - w) ** 2 + thr * np.abs(grid))]
        worst = max(worst, abs(got - best))
    prox_ok = worst <= 1e-3  # grid resolution bounds the disagreement

    # constructed orthant case: exactly the sign-flipped coordinates zero out
    params = {"l.weight": Tensor(np.array([0.05, -0.03, 1.0, -1.0, 0.0]), requires_grad=True)}
    signs = capture_signs(params)
    orthant_step(params, signs, eta=1.0, lam=0.1)
    out = params["l.weight"].data
    orthant_ok = (
        out[0] == 0.0 and out[1] == 0.0 and out[4] == 0.0
        and abs(out[2] - 0.9) < 1e-12 and abs(out[3] + 0.9) < 1e-12
    )
    _report(
        "criterion 3: soft-threshold matches the proximal minimizer; orthant zeroes sign flips",
        prox_ok and orthant_ok,
        f"max grid deviation {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. density exactness


def test_criterion_4_density_exactness():
    rng = np.random.default_rng(11)
    ok = True
    for seed in range(5):
        cfg = PipelineConfig(channels=1, patch=16, conv_widths=(4, 8), dense_widths=(8,), seed=seed)
        spec, params = build_teacher(cfg)
        for name, p in params.items():
            if name.endswith(".weight"):
                mask = rng.random(p.data.shape) < rng.uniform(0.1, 0.9)
                p.data[mask] = 0.0
        report = compute_density(spec, params)
        for layer in report.layers:
            w = params[f"{layer.name}.weight"].data
            ok &= layer.nonzero == int(np.count_nonzero(w))
            ok &= layer.total == w.size
            # exact rational identity, no float round-off allowed
            ok &= layer.density * layer.total == layer.nonzero
    _report("criterion 4: density * total == nonzero exactly on randomized sparse nets", ok)


# ---------------------------------------------------------------------------
# 5. pruning function preservation


def test_criterion_5_pruning_function_preservation():
    cfg = PipelineConfig(channels=1, patch=16, conv_widths=(8, 8), dense_widths=(8,), seed=5)
    spec, params = build_teacher(cfg)
    # kill 3 of 8 channels at the conv1/conv2 junction end to end: producer
    # rows + bias and consumer columns. conv2's density becomes exactly 5/8,
    # so the plan retains precisely the 5 live channels and nothing else.
    dead = [1, 4, 6]
    params["conv1.weight"].data[dead] = 0.0
    params["conv1.bias"].data[dead] = 0.0
    params["conv2.weight"].data[:, dead] = 0.0

    plan = build_pruning_plan(spec, compute_density(spec, params), params)
    assert set(plan.by_name()["conv2"].retained_in) == set(range(8)) - set(dead)
    spec2, params2 = prune_network(spec, params, plan)

    rng = np.random.default_rng(6)
    ref = rng.random((100, 1, 16, 16)).astype(np.float32)
    dist = rng.random((100, 1, 16, 16)).astype(np.float32)
    before = score_batch(spec, params, ref, dist).data
    after = score_batch(spec2, params2, ref, dist).data
    max_dev = float(np.max(np.abs(before - after)))

    spec3, params3 = prune_network(spec, params, identity_plan(spec))
    ident = score_batch(spec3, params3, ref, dist).data
    bit_identical = np.array_equal(before, ident)

    _report(
        "criterion 5: pruning dead channels preserves scores (<=1e-6); identity plan bit-exact",
        max_dev <= 1e-6 and bit_identical and count_params(params2) < count_params(params),
        f"max |delta| {max_dev:.2e} over 100 patches",
    )


# ---------------------------------------------------------------------------
# 6. pipeline compression analog


def test_criterion_6_pipeline_compression(full_run):
    _, student_params, _ = load_checkpoint(full_run["student"])
    _, teacher_params, _ = load_checkpoint(full_run["teacher"])
    ratio = count_params(student_params) / count_params(teacher_params)
    ratio_file = dict(
        line.split("=")
        for line in (full_run["base"] / "pruned" / "ratio.txt").read_text().split()
        if "=" in line
    )
    manifest_consistent = (
        int(ratio_file["params_student"]) == count_params(student_params)
        and int(ratio_file["params_teacher"]) == count_params(teacher_params)
        and abs(float(ratio_file["params_ratio"]) - ratio) < 1e-6
    )
    elapsed = full_run["elapsed"]
    _report(
        "criterion 6: student <= 35% of teacher params; pipeline < 30 min; ratios from manifests",
        ratio <= 0.35 and elapsed < 1800.0 and manifest_consistent,
        f"params ratio {ratio:.4f}, wall time {elapsed / 60.0:.1f} min",
    )


# ---------------------------------------------------------------------------
# 7. distillation benefit


def test_criterion_7_distillation_benefit(full_run):
    cfg = full_run["cfg"]
    t_spec, t_params, _ = load_checkpoint(full_run["teacher"])
    s_spec0, s_params0, _ = load_checkpoint(full_run["student"])
    train = read_dataset(full_run["paths"]["train"])
    val = read_dataset(full_run["paths"]["val"])

    # (a) paired reps: the distillation phase as the pipeline runs it (student
    # starts from the pruned weights) vs an identically shaped scratch student
    # under the same optimizer budget and seed
    wins = 0
    details = []
    for rep in range(3):
        seed = cfg.seed + 100 + rep
        rep_cfg = replace(cfg, seed=seed)

        d_params = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in s_params0.items()}
        distill_train(t_spec, t_params, s_spec0, d_params, train, rep_cfg)
        acc_distilled = pair_accuracy(s_spec0, d_params, val)

        sc_params = init_params(s_spec0, seed=seed)
        train_ranking(s_spec0, sc_params, train, rep_cfg, val_set=None)
        acc_scratch = pair_accuracy(s_spec0, sc_params, val)

        wins += acc_distilled >= acc_scratch
        details.append(f"rep{rep}: distilled {acc_distilled:.3f} vs scratch {acc_scratch:.3f}")

    # (b) SROCC retention from the emitted report
    report = (full_run["base"] / "eval" / "report.txt").read_text()
    retention_line = next(l for l in report.splitlines() if l.startswith("srocc retention:"))
    retention = float(retention_line.split(":")[1].strip().rstrip("%")) / 100.0

    _report(
        "criterion 7: distilled >= scratch (majority of 3 paired reps); SROCC retention >= 90%",
        wins >= 2 and retention >= 0.90,
        f"{wins}/3 wins ({'; '.join(details)}); retention {retention:.1%}",
    )


# ---------------------------------------------------------------------------
# 8. statistics oracles


def test_criterion_8_statistics_oracles():
    import scipy.stats

    srocc_ok = (
        abs(srocc([1, 2, 3], [10, 20, 30]) - 1.0) < 1e-12
        and abs(srocc([1, 2, 3], [30, 20, 10]) + 1.0) < 1e-12
    )

    rng = np.random.default_rng(13)
    ties_ok = True
    for _ in range(1000):
        v = rng.integers(0, 6, size=int(rng.integers(3, 10))).astype(np.float64)
        # brute-force average-rank oracle
        order = np.argsort(v, kind="stable")
        ranks = np.empty_like(v)
        i = 0
        while i < v.size:
            j = i
            while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
                j += 1
            ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
            i = j + 1
        ties_ok &= bool(np.allclose(average_ranks(v), ranks, atol=1e-12))

    # F verdicts against the published two-sided 95% table values
    crit_19 = scipy.stats.f.isf(0.025, 19, 19)  # ~2.526
    crit_9 = scipy.stats.f.isf(0.025, 9, 9)  # ~4.026
    base20 = rng.standard_normal(20)
    base20 = (base20 - base20.mean()) / base20.std(ddof=1)
    base10 = rng.standard_normal(10)
    base10 = (base10 - base10.mean()) / base10.std(ddof=1)
    f_ok = (
        f_test(base20, base20 * np.sqrt(crit_19 * 1.05)).verdict == +1
        and f_test(base20, base20 * np.sqrt(crit_19 * 0.95)).verdict == 0
        and f_test(base10, base10 * np.sqrt(crit_9 * 1.05)).verdict == +1
        and f_test(base10, base10 * np.sqrt(crit_9 * 0.95)).verdict == 0
        and f_test(base10 * np.sqrt(crit_9 * 1.05), base10).verdict == -1
    )
    _report(
        "criterion 8: SROCC +/-1 on monotone data; 1000-vector tie oracle; F table (19,19)/(9,9)",
        srocc_ok and ties_ok and f_ok,
        f"critical values {crit_19:.3f} and {crit_9:.3f} bracketed correctly",
    )


# ---------------------------------------------------------------------------
# 9. determinism & formats


def test_criterion_9_determinism_and_formats(full_run, tmp_path):
    cfg = full_run["cfg"]
    # stage reruns must be byte-identical
    pipeline.gen_data(cfg, tmp_path / "data")
    data_ok = all(
        (tmp_path / "data" / n).read_bytes() == (full_run["base"] / "data" / n).read_bytes()
        for n in ("train.rpds", "val.rpds", "eval.rpev")
    )
    teacher2 = pipeline.train_teacher(cfg, tmp_path / "data", tmp_path / "teacher")
    teacher_ok = Path(teacher2).read_bytes() == Path(full_run["teacher"]).read_bytes()
    student2 = pipeline.prune(cfg, full_run["sparse"], tmp_path / "pruned")
    student_ok = Path(student2).read_bytes() == Path(full_run["student"]).read_bytes()

    # containers round-trip (verified by loaders' strict checks) and reject truncation
    from rankpress.checkpoint import CheckpointError
    from rankpress.synthdata import DataFormatError

    spec, params, _ = load_checkpoint(full_run["distilled"])
    bad_ckpt = tmp_path / "trunc.ckpt"
    bad_ckpt.write_bytes(Path(full_run["distilled"]).read_bytes()[:-17])
    try:
        load_checkpoint(bad_ckpt)
        trunc_ckpt_ok = False
    except CheckpointError:
        trunc_ckpt_ok = True

    bad_data = tmp_path / "trunc.rpds"
    bad_data.write_bytes(Path(full_run["paths"]["train"]).read_bytes()[:-5])
    try:
        read_dataset(bad_data)
        trunc_data_ok = False
    except DataFormatError:
        trunc_data_ok = True

    _report(
        "criterion 9: byte-reproducible stages; containers round-trip; truncation always errors",
        data_ok and teacher_ok and student_ok and trunc_ckpt_ok and trunc_data_ok,
        f"data={data_ok} teacher={teacher_ok} student={student_ok}",
    )
