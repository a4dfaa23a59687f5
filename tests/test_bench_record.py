"""Smoke test of ``bench/record.py``: this checkout against its own HEAD, at a tiny
geometry, for two rounds."""

import importlib.util
import json
import math
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "record.py"
TINY = {"patch": "12", "train_sources": "2", "pairs_per_source": "2", "val_sources": "1",
        "val_pairs_per_source": "2", "eval_sources": "1"}
NETS = ("teacher", "student")
LAYERS = ("conv1", "conv2", "conv3", "fc1", "fc2")
STAGES = ["gen_data", "train_teacher", "sparsify", "prune", "distill", "eval", "total"]
ROWS = ({f"layers/{net}/{batch}/{layer}/{what}_ms" for net in NETS for batch in ("8", "16")
         for layer in LAYERS for what in ("forward", "backward")}
        | {f"steps/{net}/step_ms" for net in NETS} | {f"scoring/{net}/items_per_s" for net in NETS}
        | {f"stages/{stage}" for stage in STAGES} | {"eval/seconds", "eval/fit_share"}
        | {"cli_import_s"})


def _has_git_head() -> bool:
    try:
        subprocess.run(["git", "rev-parse", "--verify", "HEAD:src/rankpress"], cwd=ROOT,
                       capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return False
    return True


def _rows(section, name):
    """(name, row) of every row in ``section``; a row is a dict with a ``ratio``."""
    if "ratio" in section:
        yield name, section
        return
    for key, value in section.items():
        yield from _rows(value, f"{name}/{key}")


@pytest.mark.skipif(not _has_git_head(), reason="the checkout has no git history")
def test_record_writes_every_section(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = module.record("HEAD", "smoke", "compress", 2, tmp_path, TINY)
    assert out == tmp_path / "BENCH_smoke.json"
    result = json.loads(out.read_text())
    assert result["label"] == "smoke" and result["base"] == "HEAD" and result["rounds"] == 2
    assert len(result["base_sha"]) == 40 and result["config"] == "compress"
    assert result["overrides"] == {"lam": "1.0", "epochs": "2", **TINY}
    for key in ("nproc", "numpy", "blas", "openblas_core", "blas_threads", "forward_lanes",
                "git_sha"):
        assert key in result["machine"]
    assert result["machine"]["forward_lanes"] >= 1
    # HEAD may differ from the working tree, so nothing is asserted about identity
    assert isinstance(result["identical"], bool) and isinstance(result["differing"], list)
    assert result["nets"]["student"]["conv_widths"] == [4, 6, 20]
    assert result["nets"]["teacher"]["patch"] == 12
    assert float(result["student_ratio"]["params_ratio"]) <= 1.0
    assert list(result["stages"]) == STAGES
    rows = dict(row for section in ("layers", "steps", "scoring", "stages", "eval",
                                    "cli_import_s") for row in _rows(result[section], section))
    assert set(rows) == ROWS
    for row in rows.values():
        assert row["base"] > 0 and row["change"] > 0
        assert all(math.isfinite(row[k]) for k in ("base", "change", "ratio", "ratio_p25",
                                                   "ratio_p75"))
        assert 0 < row["ratio_p25"] <= row["ratio"] <= row["ratio_p75"]
    assert 0 < result["eval"]["fit_share"]["base"] < 1
    assert 0 < result["eval"]["fit_share"]["change"] < 1
    assert result["cli_import_s"]["change"] < 30
