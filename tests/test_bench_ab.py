"""Smoke test of the A/B stage timing in ``bench/record.py``: this checkout against its
own HEAD, at a tiny geometry (the ``bench_recording`` fixture)."""

import json
import math


def test_ab_against_head_writes_every_stage(bench_recording):
    out = bench_recording.path
    assert out == bench_recording.outdir / "BENCH_smoke.json"
    result = json.loads(out.read_text())
    assert result["label"] == "smoke" and result["base"] == "HEAD" and result["rounds"] == 2
    assert len(result["base_sha"]) == 40 and result["config"] == "compress"
    assert result["overrides"] == {"lam": "1.0", "epochs": "2", **bench_recording.overrides}
    assert "openblas_core" in result["machine"] and "blas_threads" in result["machine"]
    # HEAD may differ from the working tree, so nothing is asserted about identity
    assert isinstance(result["identical"], bool) and isinstance(result["differing"], list)
    assert list(result["stages"]) == ["gen_data", "train_teacher", "sparsify", "prune",
                                      "distill", "eval", "total"]
    for row in result["stages"].values():
        assert row["base"] > 0 and row["change"] > 0
        assert all(math.isfinite(row[k]) for k in ("ratio", "ratio_p25", "ratio_p75"))
        assert 0 < row["ratio_p25"] <= row["ratio"] <= row["ratio_p75"]
