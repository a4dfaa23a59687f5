"""End-to-end command-line checks on a deliberately tiny configuration."""

import pytest

from rankpress.cli import run
from rankpress.nets import ConfigError
from rankpress.pipeline import PipelineConfig, load_config

TINY = [
    "patch=12",
    "conv_widths=4",
    "dense_widths=8",
    "train_sources=6",
    "pairs_per_source=4",
    "val_sources=3",
    "val_pairs_per_source=2",
    "eval_sources=2",
    "epochs=4",
]


def _sets(extra=()):
    out = []
    for kv in list(TINY) + list(extra):
        out += ["--set", kv]
    return out


class TestConfig:
    def test_defaults_resolve(self):
        cfg = load_config(None, {})
        assert cfg == PipelineConfig()

    def test_file_and_override_precedence(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("# comment\nepochs=5\nlam = 0.2\n")
        cfg = load_config(f, {"epochs": "9"})
        assert cfg.epochs == 9  # --set beats the file
        assert cfg.lam == 0.2

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("momentum=0.9\n")
        with pytest.raises(ConfigError):
            load_config(f, {})

    def test_tuple_keys_parsed(self):
        cfg = load_config(None, {"conv_widths": "4,8", "dense_widths": "16"})
        assert cfg.conv_widths == (4, 8)
        assert cfg.dense_widths == (16,)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One full tiny pipeline driven exclusively through the CLI."""
    base = tmp_path_factory.mktemp("cli")
    d = {k: str(base / k) for k in ("data", "teacher", "sparse", "pruned", "distill", "eval")}
    assert run(["gen-data", "--out", d["data"]] + _sets()) == 0
    assert run(["train-teacher", "--data", d["data"], "--out", d["teacher"]] + _sets()) == 0
    assert run(["sparsify", "--data", d["data"], "--teacher", d["teacher"] + "/teacher.ckpt",
                "--out", d["sparse"]] + _sets()) == 0
    assert run(["prune", "--sparse", d["sparse"] + "/sparse.ckpt", "--out", d["pruned"]] + _sets()) == 0
    assert run(["distill", "--data", d["data"], "--teacher", d["teacher"] + "/teacher.ckpt",
                "--student", d["pruned"] + "/student.ckpt", "--out", d["distill"],
                "--freeze-check"] + _sets()) == 0
    assert run(["eval", "--eval-data", d["data"] + "/eval.rpev",
                "--ckpt", d["distill"] + "/distilled.ckpt",
                "--ckpt", d["teacher"] + "/teacher.ckpt",
                "--out", d["eval"]] + _sets()) == 0
    return base, d


class TestPipelineCommands:
    def test_expected_artifacts_exist(self, artifacts):
        base, d = artifacts
        from pathlib import Path

        for rel in (
            "data/train.rpds", "data/val.rpds", "data/eval.rpev",
            "teacher/teacher.ckpt", "teacher/teacher_log.csv",
            "sparse/sparse.ckpt", "sparse/density.txt", "sparse/sparse_log.csv",
            "pruned/student.ckpt", "pruned/plan.txt", "pruned/ratio.txt",
            "distill/distilled.ckpt", "distill/distill_log.csv",
            "eval/report.txt", "eval/eval.csv", "eval/comparison.csv",
        ):
            stage, name = rel.split("/", 1)
            assert Path(d[stage], name).exists(), rel

    def test_effective_config_echoed(self, artifacts):
        base, d = artifacts
        from pathlib import Path

        text = Path(d["teacher"], "effective_config.txt").read_text()
        assert "epochs=4" in text

    def test_gen_data_reproducible(self, artifacts, tmp_path):
        base, d = artifacts
        from pathlib import Path

        assert run(["gen-data", "--out", str(tmp_path / "again")] + _sets()) == 0
        for name in ("train.rpds", "val.rpds", "eval.rpev"):
            assert (tmp_path / "again" / name).read_bytes() == Path(d["data"], name).read_bytes()

    def test_ratio_file_matches_checkpoints(self, artifacts):
        base, d = artifacts
        from pathlib import Path

        from rankpress.checkpoint import load_checkpoint
        from rankpress.nets import count_params

        kv = dict(
            line.split("=") for line in Path(d["pruned"], "ratio.txt").read_text().split() if "=" in line
        )
        _, student, _ = load_checkpoint(Path(d["pruned"], "student.ckpt"))
        _, sparse, _ = load_checkpoint(Path(d["sparse"], "sparse.ckpt"))
        assert int(kv["params_student"]) == count_params(student)
        assert int(kv["params_teacher"]) == count_params(sparse)
        assert float(kv["params_ratio"]) == pytest.approx(count_params(student) / count_params(sparse), abs=1e-6)

    def test_report_contains_retention_lines(self, artifacts):
        base, d = artifacts
        from pathlib import Path

        text = Path(d["eval"], "report.txt").read_text()
        assert "params retained:" in text
        assert "srocc retention:" in text


class TestExitCodes:
    def test_bad_set_syntax_is_config_error(self, tmp_path):
        assert run(["gen-data", "--out", str(tmp_path / "o"), "--set", "epochs"]) == 1

    def test_unknown_key_is_config_error(self, tmp_path):
        assert run(["gen-data", "--out", str(tmp_path / "o"), "--set", "bogus=1"]) == 1

    def test_missing_data_is_data_error(self, artifacts, tmp_path):
        base, d = artifacts
        code = run(["train-teacher", "--data", str(tmp_path / "nowhere"),
                    "--out", str(tmp_path / "o")] + _sets())
        assert code == 2

    def test_out_of_range_kind_is_data_error(self, artifacts, tmp_path):
        base, d = artifacts
        import shutil

        from rankpress.synthdata import pair_dtype

        data = tmp_path / "data"
        shutil.copytree(d["data"], data)
        blob = bytearray((data / "train.rpds").read_bytes())
        blob[16 + pair_dtype(1, 12, 12).fields["kind"][1]] = 200  # after the 16-byte header
        (data / "train.rpds").write_bytes(bytes(blob))
        code = run(["train-teacher", "--data", str(data), "--out", str(tmp_path / "o")] + _sets())
        assert code == 2

    def test_corrupt_checkpoint_is_data_error(self, artifacts, tmp_path):
        base, d = artifacts
        from pathlib import Path

        bad = tmp_path / "bad.ckpt"
        blob = bytearray(Path(d["sparse"], "sparse.ckpt").read_bytes())
        blob[-1] ^= 0xFF
        bad.write_bytes(bytes(blob))
        assert run(["prune", "--sparse", str(bad), "--out", str(tmp_path / "o")] + _sets()) == 2

    def test_teacher_divergence_is_numerical_failure(self, artifacts, tmp_path):
        base, d = artifacts
        from rankpress.checkpoint import load_checkpoint

        out = tmp_path / "o"
        code = run(["train-teacher", "--data", d["data"], "--out", str(out)] + _sets(["lr=1e30"]))
        assert code == 3
        rows = (out / "teacher_log.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].endswith(",1")  # header, one diverged=1 row
        _, _, meta = load_checkpoint(out / "teacher.ckpt")
        assert meta["epoch"] == "-1"  # no epoch completed: the initial weights

    def test_distill_divergence_is_numerical_failure(self, artifacts, tmp_path):
        base, d = artifacts
        out = tmp_path / "o"
        code = run(["distill", "--data", d["data"], "--teacher", d["teacher"] + "/teacher.ckpt",
                    "--student", d["pruned"] + "/student.ckpt", "--out", str(out)]
                   + _sets(["lr=1e30"]))
        assert code == 3
        assert (out / "distilled.ckpt").exists()
        rows = (out / "distill_log.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].endswith(",1")  # header, one diverged=1 row

    def test_checkpoint_shapes_disagreeing_with_layers_is_data_error(self, artifacts, tmp_path):
        base, d = artifacts
        from pathlib import Path

        data = Path(d["teacher"], "teacher.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data.replace(b"conv1.weight 4,2,3,3", b"conv1.weight 2,4,3,3", 1))
        assert bad.read_bytes() != data
        code = run(["eval", "--eval-data", d["data"] + "/eval.rpev", "--ckpt", str(bad),
                    "--out", str(tmp_path / "o")] + _sets())
        assert code == 2

    def test_train_patch_mismatch_is_config_error(self, artifacts, tmp_path):
        base, d = artifacts
        code = run(["train-teacher", "--data", d["data"], "--out", str(tmp_path / "o")]
                   + _sets(["patch=16"]))
        assert code == 1

    def test_eval_checkpoint_geometry_mismatch_is_config_error(self, artifacts, tmp_path):
        base, d = artifacts
        from rankpress.checkpoint import save_checkpoint
        from rankpress.nets import NetConfig, build_teacher

        other = tmp_path / "16x16.ckpt"
        save_checkpoint(other, *build_teacher(NetConfig(height=16, width=16, conv_widths=(4,),
                                                        dense_widths=(8,))))
        code = run(["eval", "--eval-data", d["data"] + "/eval.rpev", "--ckpt", str(other),
                    "--out", str(tmp_path / "o")] + _sets())
        assert code == 1

    def test_shape_guard_rejects_foreign_checkpoint(self, artifacts, tmp_path):
        base, d = artifacts
        code = run(["sparsify", "--data", d["data"],
                    "--teacher", d["teacher"] + "/teacher.ckpt",
                    "--out", str(tmp_path / "o")] + _sets(["conv_widths=6"]))
        assert code == 1
