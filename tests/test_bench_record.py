"""Smoke test of ``bench/record.py`` at a tiny geometry with one repetition."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "record.py"
TINY = {"patch": "12", "train_sources": "2", "pairs_per_source": "2", "val_sources": "1",
        "val_pairs_per_source": "2", "eval_sources": "1"}


def _recorder():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_writes_every_section(tmp_path):
    out = _recorder().record("smoke", 1, tmp_path, TINY)
    assert out == tmp_path / "BENCH_smoke.json"
    result = json.loads(out.read_text())
    assert result["label"] == "smoke" and result["config"]["epochs"] == 2
    assert result["config"]["lam"] == 1.0 and result["config"]["patch"] == 12
    for key in ("nproc", "numpy", "blas", "openblas_core", "blas_threads", "forward_lanes",
                "git_sha"):
        assert key in result["machine"]
    assert result["machine"]["forward_lanes"] >= 1
    assert 0 < result["machine"]["cli_import_s"] < 30
    names = {"teacher": ["conv1", "conv2", "conv3", "fc1", "fc2"],
             "student": ["conv1", "conv2", "conv3", "fc1", "fc2"]}
    assert result["nets"]["student"]["conv_widths"] == [4, 6, 20]
    for net, layers in names.items():
        for batch in ("8", "16"):
            rows = result["layers"][net][batch]
            assert list(rows) == layers
            for r in rows.values():
                for what in ("forward", "backward"):
                    assert 0 < r[f"{what}_ms_p25"] <= r[f"{what}_ms"] <= r[f"{what}_ms_p75"]
    assert result["steps"]["batch"] == 8
    for net in names:
        step = result["steps"][net]
        assert 0 < step["step_ms_p25"] <= step["step_ms"] <= step["step_ms_p75"]
    assert result["scoring"]["items"] == 1536
    for net in names:
        rate = result["scoring"][net]
        assert 0 < rate["items_per_s_p25"] <= rate["items_per_s"] <= rate["items_per_s_p75"]
    for section in ("stages", "stages_acceptance"):
        seconds = result[section]["seconds"]
        assert list(seconds) == ["gen_data", "train_teacher", "sparsify", "prune", "distill",
                                 "eval", "total"]
        assert seconds["total"] == sum(v for k, v in seconds.items() if k != "total")
        assert float(result[section]["ratio"]["params_ratio"]) <= 1.0
    evaluation = result["eval"]
    assert evaluation["items"] == 24  # one source, four kinds, six levels
    assert 0 < evaluation["seconds_p25"] <= evaluation["seconds"] <= evaluation["seconds_p75"]
    assert 0 < evaluation["fit_share"] < 1
