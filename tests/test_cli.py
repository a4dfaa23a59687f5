"""End-to-end command-line checks on a deliberately tiny configuration."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rankpress import checkpoint, pipeline
from rankpress.cli import run
from rankpress.nets import ConfigError
from rankpress.pipeline import PipelineConfig, format_config, format_csv, load_config

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


def _tiny_config() -> PipelineConfig:
    return load_config(None, dict(kv.split("=") for kv in TINY))


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

    def test_effective_config_reloads_to_the_config_that_wrote_it(self, tmp_path):
        cfg = PipelineConfig(conv_widths=(4, 8), dense_widths=(), lr=0.003, lam=0.25, alpha=0.5,
                             cross_content=1)
        (tmp_path / "effective_config.txt").write_text(format_config(cfg))
        assert load_config(tmp_path / "effective_config.txt") == cfg

    def test_csv_rows_end_in_crlf(self):
        assert format_csv(["a", "b"], [{"a": 1, "b": 0.5}]) == "a,b\r\n1,0.5\r\n"


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
        written = {
            "data": ["eval.rpev", "train.rpds", "val.rpds"],
            "teacher": ["teacher.ckpt", "teacher_log.csv"],
            "sparse": ["density.txt", "sparse.ckpt", "sparse_log.csv"],
            "pruned": ["density.txt", "plan.txt", "ratio.txt", "student.ckpt"],
            "distill": ["distill_log.csv", "distilled.ckpt"],
            "eval": ["comparison.csv", "eval.csv", "report.txt"],
        }
        for stage, outdir in d.items():  # exactly these: no temporary is left behind
            assert sorted(os.listdir(outdir)) == sorted(written[stage] + ["effective_config.txt"])

    def test_effective_config_echoed(self, artifacts):
        base, d = artifacts
        for stage, outdir in d.items():
            assert load_config(Path(outdir, "effective_config.txt")) == _tiny_config(), stage

    def test_failed_stage_changes_no_file(self, artifacts, tmp_path, monkeypatch):
        base, d = artifacts
        out = tmp_path / "pruned"
        out.mkdir()
        earlier = {"student.ckpt": Path(d["pruned"], "student.ckpt").read_bytes(),
                   "plan.txt": b"an earlier run's plan\n"}
        for name, data in earlier.items():
            (out / name).write_bytes(data)

        def failing_save(path, *args, **kwargs):  # after density.txt and plan.txt
            Path(path).write_bytes(b"half a checkpoint")
            raise RuntimeError("injected failure")

        monkeypatch.setattr(checkpoint, "save_checkpoint", failing_save)
        with pytest.raises(RuntimeError, match="injected"):
            pipeline.prune(_tiny_config(), Path(d["sparse"], "sparse.ckpt"), out)
        assert sorted(os.listdir(out)) == sorted(earlier)
        for name, data in earlier.items():
            assert (out / name).read_bytes() == data, name

    def test_one_checkpoint_eval_removes_an_earlier_comparison(self, artifacts, tmp_path):
        base, d = artifacts
        out = tmp_path / "eval"
        shutil.copytree(d["eval"], out)
        assert run(["eval", "--eval-data", d["data"] + "/eval.rpev",
                    "--ckpt", d["teacher"] + "/teacher.ckpt", "--out", str(out)] + _sets()) == 0
        assert sorted(os.listdir(out)) == ["effective_config.txt", "eval.csv", "report.txt"]
        assert "teacher" in (out / "eval.csv").read_text()

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


# case -> (what its error line must name, its CLI arguments), where {tmp} is the directory
# holding cfg.txt and {data} the tiny pipeline's data; each case must exit 1
BAD_CONFIG_VALUES = {
    "set-not-an-int": ("epochs", ["gen-data", "--set", "epochs=abc"]),
    "file-width-not-an-int": ("cfg.txt:2: bad value '4,x' for 'conv_widths'",
                              ["gen-data", "--config", "{tmp}/cfg.txt"]),
    "one-level": ("levels", ["gen-data", "--set", "levels=1"]),
    "no-train-sources": ("train_sources", ["gen-data", "--set", "train_sources=0"]),
    "zero-batch-size": ("batch_size", ["train-teacher", "--data", "{data}", "--set", "batch_size=0"]),
    # gen-data refuses a geometry the configured network cannot take or too small for sources
    "zero-patch": ("patch", ["gen-data", "--set", "patch=0"]),
    "no-channels": ("channels", ["gen-data", "--set", "channels=0"]),
    "patch-below-the-conv-stack": ("patch too small", ["gen-data", "--set", "conv_widths=4,8,16",
                                                       "--set", "patch=7"]),
    "patch-below-the-source-generator": ("patch must be at least 4",
                                         ["gen-data", "--set", "patch=3"]),
    "seven-levels": ("levels", ["gen-data", "--set", "levels=7"]),
    "zero-epochs": ("epochs", ["gen-data", "--set", "epochs=0"]),
    "negative-lr": ("lr", ["gen-data", "--set", "lr=-1"]),
    "infinite-lr": ("lr", ["gen-data", "--set", "lr=inf"]),
    "beta1-above-one": ("beta1", ["gen-data", "--set", "beta1=2"]),
    "beta2-of-one": ("beta2", ["gen-data", "--set", "beta2=1"]),
    "even-kernel": ("kernel", ["gen-data", "--set", "kernel=4"]),
    "negative-lam": ("lam", ["gen-data", "--set", "lam=-1"]),
    "nan-alpha": ("alpha", ["gen-data", "--set", "alpha=nan"]),
    "negative-seed": ("seed", ["gen-data", "--set", "seed=-1"]),
    "negative-val-pairs": ("val_pairs_per_source",
                           ["gen-data", "--set", "val_pairs_per_source=-1"]),
    "negative-cross-content": ("cross_content", ["gen-data", "--set", "cross_content=-3"]),
    "cross-content-of-two": ("cross_content", ["gen-data", "--set", "cross_content=2"]),
    "no-conv-layer": ("conv_widths", ["gen-data", "--set", "conv_widths="]),
}


# case -> CLI arguments naming a path of the wrong kind, where {tmp} holds the file "afile" and
# the directory "adir", {data} is the tiny pipeline's data and {teacher} its teacher checkpoint;
# each case must exit 2
WRONG_KIND_PATHS = {
    "config-is-a-directory": ["gen-data", "--config", "{tmp}/adir", "--out", "{tmp}/o"],
    "out-is-a-file": ["gen-data", "--out", "{tmp}/afile"],
    "out-below-a-file": ["gen-data", "--out", "{tmp}/afile/sub"],
    "data-is-a-file": ["train-teacher", "--data", "{tmp}/afile", "--out", "{tmp}/o"],
    "data-is-a-container": ["train-teacher", "--data", "{data}/train.rpds", "--out", "{tmp}/o"],
    "sparse-is-a-directory": ["prune", "--sparse", "{tmp}/adir", "--out", "{tmp}/o"],
    "teacher-is-a-directory": ["sparsify", "--data", "{data}", "--teacher", "{tmp}/adir",
                               "--out", "{tmp}/o"],
    "eval-data-is-a-directory": ["eval", "--eval-data", "{tmp}/adir", "--ckpt", "{teacher}",
                                 "--out", "{tmp}/o"],
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(WRONG_KIND_PATHS))
    def test_path_of_the_wrong_kind_is_data_error(self, case, artifacts, tmp_path, capsys):
        (tmp_path / "afile").write_text("epochs=2\n")
        (tmp_path / "adir").mkdir()
        d = artifacts[1]
        argv = [a.format(tmp=tmp_path, data=d["data"], teacher=d["teacher"] + "/teacher.ckpt")
                for a in WRONG_KIND_PATHS[case]]
        assert run(argv[:1] + _sets() + argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
    def test_bad_config_value_is_config_error(self, case, artifacts, tmp_path, capsys):
        named, argv = BAD_CONFIG_VALUES[case]
        (tmp_path / "cfg.txt").write_text("epochs=2\nconv_widths=4,x\n")
        argv = [a.format(tmp=tmp_path, data=artifacts[1]["data"]) for a in argv]
        # the tiny config goes first, so that the case's own --set wins
        assert run(argv[:1] + _sets() + argv[1:] + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_too_few_eval_items_per_kind_is_data_error(self, artifacts, tmp_path):
        base, d = artifacts
        data = tmp_path / "data"
        assert run(["gen-data", "--out", str(data)] + _sets(["eval_sources=1", "levels=2"])) == 0
        code = run(["eval", "--eval-data", str(data / "eval.rpev"),
                    "--ckpt", d["teacher"] + "/teacher.ckpt", "--out", str(tmp_path / "o")] + _sets())
        assert code == 2

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

    @pytest.mark.parametrize("stage", ["train-teacher", "sparsify", "distill"])
    def test_empty_train_set_is_data_error(self, stage, artifacts, tmp_path, capsys):
        base, d = artifacts
        import shutil

        from rankpress.synthdata import read_dataset, write_dataset

        data = tmp_path / "data"
        shutil.copytree(d["data"], data)
        write_dataset(data / "train.rpds", read_dataset(data / "train.rpds")[:0])
        ckpts = {"train-teacher": [],
                 "sparsify": ["--teacher", d["teacher"] + "/teacher.ckpt"],
                 "distill": ["--teacher", d["teacher"] + "/teacher.ckpt",
                             "--student", d["pruned"] + "/student.ckpt"]}
        code = run([stage, "--data", str(data), "--out", str(tmp_path / "o")] + ckpts[stage]
                   + _sets())
        assert code == 2
        assert "train.rpds" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_train_payload_is_data_error(self, value, artifacts, tmp_path, capsys):
        base, d = artifacts
        from rankpress.synthdata import pair_dtype

        data = tmp_path / "data"
        shutil.copytree(d["data"], data)
        blob = bytearray((data / "train.rpds").read_bytes())
        at = 16 + pair_dtype(1, 12, 12).itemsize + 40  # a patch float of record 1
        blob[at : at + 4] = np.float32(value).tobytes()
        (data / "train.rpds").write_bytes(bytes(blob))
        out = tmp_path / "o"
        assert run(["train-teacher", "--data", str(data), "--out", str(out)] + _sets()) == 2
        assert "non-finite value in patches" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_non_finite_checkpoint_is_data_error(self, artifacts, tmp_path, capsys):
        base, d = artifacts
        spec, params, meta = checkpoint.load_checkpoint(Path(d["sparse"], "sparse.ckpt"))
        params["fc1.weight"].data[0, 0] = np.nan
        bad = tmp_path / "bad.ckpt"
        checkpoint.save_checkpoint(bad, spec, params, meta)  # with valid checksums
        assert run(["prune", "--sparse", str(bad), "--out", str(tmp_path / "o")] + _sets()) == 2
        assert "fc1.weight holds a non-finite value" in capsys.readouterr().err

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
        assert sorted(os.listdir(out)) == ["effective_config.txt", "teacher.ckpt",
                                           "teacher_log.csv"]

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
        from rankpress.nets import build_teacher

        other = tmp_path / "16x16.ckpt"
        save_checkpoint(other, *build_teacher(PipelineConfig(patch=16, conv_widths=(4,),
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


def _src_env() -> dict:
    """The environment of a fresh process that imports this checkout's ``rankpress``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


# subcommand -> the flags its --help lists besides --config, --out and --set
SUBCOMMAND_FLAGS = {
    "gen-data": [],
    "train-teacher": ["--data"],
    "sparsify": ["--data", "--teacher"],
    "prune": ["--sparse"],
    "distill": ["--data", "--teacher", "--student", "--freeze-check"],
    "eval": ["--eval-data", "--ckpt"],
}


@pytest.mark.parametrize("command", [None, *SUBCOMMAND_FLAGS])
def test_module_entry_point_help(command):
    argv = [sys.executable, "-m", "rankpress", *filter(None, [command]), "--help"]
    out = subprocess.run(argv, env=_src_env(), capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stderr == ""
    if command is None:
        assert all(name in out.stdout for name in SUBCOMMAND_FLAGS)
        return
    assert out.stdout.startswith(f"usage: rankpress {command} ")
    for flag in ["--config", "--out", "--set", *SUBCOMMAND_FLAGS[command]]:
        assert f" {flag}" in out.stdout, flag
    if command == "eval":
        assert "checkpoint to evaluate (repeatable; first vs last" in out.stdout


def test_cli_runs_without_scipy(tmp_path):
    # a fresh process: the tests themselves import scipy as an oracle
    env = _src_env()
    script = ("import sys\n"
              "from rankpress.cli import run\n"
              "code = run(sys.argv[1:])\n"
              "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    argv = ["gen-data", "--out", str(tmp_path / "data"), *_sets()]
    out = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split("\n")[-2] == "0 []"
    assert (tmp_path / "data" / "train.rpds").exists()
