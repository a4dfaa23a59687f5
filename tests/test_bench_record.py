"""Smoke test of ``bench/record.py``: this checkout against its own HEAD, at a tiny
geometry, for two rounds (the ``bench_recording`` fixture)."""

import json
import math

NETS = ("teacher", "student")
LAYERS = ("conv1", "conv2", "conv3", "fc1", "fc2")
STAGES = ["gen_data", "train_teacher", "sparsify", "prune", "distill", "eval", "total"]
ROWS = ({f"layers/{net}/{batch}/{layer}/{what}_ms" for net in NETS for batch in ("8", "16")
         for layer in LAYERS for what in ("forward", "backward")}
        | {f"steps/{net}/step_ms" for net in NETS} | {f"scoring/{net}/items_per_s" for net in NETS}
        | {f"stages/{stage}" for stage in STAGES} | {"eval/seconds", "eval/fit_share"}
        | {f"runtime/{what}" for what in ("student_items_per_s", "teacher_items_per_s",
                                         "runtime_ratio", "params_ratio", "flops_ratio")}
        | {"cli_import_s"})


def _rows(section, name):
    """(name, row) of every row in ``section``; a row is a dict with a ``ratio``."""
    if "ratio" in section:
        yield name, section
        return
    for key, value in section.items():
        yield from _rows(value, f"{name}/{key}")


def test_record_writes_every_section(bench_recording):
    out = bench_recording.path
    assert out == bench_recording.outdir / "BENCH_smoke.json"
    result = json.loads(out.read_text())
    assert result["label"] == "smoke" and result["base"] == "HEAD" and result["rounds"] == 2
    assert len(result["base_sha"]) == 40 and result["config"] == "compress"
    assert result["overrides"] == {"lam": "1.0", "epochs": "2", **bench_recording.overrides}
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
    rows = dict(row for section in ("layers", "steps", "scoring", "stages", "eval", "runtime",
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
    runtime = result["runtime"]
    for tree in ("base", "change"):
        assert runtime["runtime_ratio"][tree] > 0 and 0 < runtime["params_ratio"][tree] <= 1
        assert 0 < runtime["flops_ratio"][tree] <= 1
    ratio = {k: float(v) for k, v in result["student_ratio"].items()}
    assert runtime["params_ratio"]["change"] == ratio["params_ratio"]
    assert runtime["flops_ratio"]["change"] == ratio["flops_ratio"]
