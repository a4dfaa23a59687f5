"""The program's scores agree with the float64 forward that perfbench checks them against.

perfbench/reference.py scores a checkpoint from the network's stated
semantics, written apart from rankpress. perfbench compares the two on its
workloads; this test makes the same comparison in tier-1, on a net whose
rows, columns, channels, widths and batch sizes all differ, so that mixing
up two axes of the conv stack's layout changes the scores.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np

from rankpress import checkpoint, nets, stats, synthdata

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _reference(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_reference", PERFBENCH / "reference.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def _score_rtol() -> float:
    """``SCORE_RTOL`` of perfbench/checks.py, read without importing it (it imports
    perfbench's own modules)."""
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SCORE_RTOL"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no SCORE_RTOL in perfbench/checks.py")


def test_predict_scores_match_the_reference_forward(tmp_path, monkeypatch):
    # 2 patch channels of 12x16, conv widths 3/5 and a dense width of 6
    layers = (nets.LayerSpec("conv1", "conv", 4, 3, 3, 1, 1),
              nets.LayerSpec("conv2", "conv", 3, 5, 3, 1, 1),
              nets.LayerSpec("fc1", "dense", 5, 6), nets.LayerSpec("fc2", "dense", 6, 1))
    spec = nets.NetworkSpec(4, 12, 16, layers)
    params = nets.init_params(spec, seed=7)
    rng = np.random.default_rng(7)
    for name, p in params.items():  # nonzero biases, so a misplaced bias shows
        if name.endswith(".bias"):
            p.data[:] = rng.uniform(-0.5, 0.5, p.data.shape)
    path = tmp_path / "net.ckpt"
    checkpoint.save_checkpoint(path, spec, params)

    items = np.zeros(70, dtype=synthdata.eval_dtype(2, 12, 16))  # a full chunk and a partial one
    items["ref"] = rng.random(items["ref"].shape)
    items["dist"] = rng.random(items["dist"].shape)
    assert len(items) > nets.PREDICT_ROWS and len(items) % nets.PREDICT_ROWS

    program = stats.predict_scores(spec, params, items)
    reference = _reference(monkeypatch)
    expected = reference.score_items(reference.read_checkpoint(path), items)
    assert program.shape == expected.shape == (70,)
    assert len(np.unique(expected)) == 70
    scale = max(float(np.abs(expected).max()), 1e-6)
    assert np.abs(program - expected).max() <= _score_rtol() * scale
