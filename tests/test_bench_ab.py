"""Smoke test of the A/B stage timing in ``bench/record.py``: this checkout against its
own HEAD, at a tiny geometry."""

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


def _has_git_head() -> bool:
    try:
        subprocess.run(["git", "rev-parse", "--verify", "HEAD:src/rankpress"], cwd=ROOT,
                       capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return False
    return True


@pytest.mark.skipif(not _has_git_head(), reason="the checkout has no git history")
def test_ab_against_head_writes_every_stage(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = module.record("HEAD", "smoke", "compress", 2, tmp_path, TINY)
    assert out == tmp_path / "BENCH_smoke.json"
    result = json.loads(out.read_text())
    assert result["label"] == "smoke" and result["base"] == "HEAD" and result["rounds"] == 2
    assert len(result["base_sha"]) == 40 and result["config"] == "compress"
    assert result["overrides"] == {"lam": "1.0", "epochs": "2", **TINY}
    assert "openblas_core" in result["machine"] and "blas_threads" in result["machine"]
    # HEAD may differ from the working tree, so nothing is asserted about identity
    assert isinstance(result["identical"], bool) and isinstance(result["differing"], list)
    assert list(result["stages"]) == ["gen_data", "train_teacher", "sparsify", "prune",
                                      "distill", "eval", "total"]
    for row in result["stages"].values():
        assert row["base"] > 0 and row["change"] > 0
        assert all(math.isfinite(row[k]) for k in ("ratio", "ratio_p25", "ratio_p75"))
        assert 0 < row["ratio_p25"] <= row["ratio"] <= row["ratio_p75"]
