"""Self-tests of the benchmark: the reference scorer, and that every check can fail.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import struct
import sys
import tempfile
import unittest
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.stats import spearmanr

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import reference as ref  # noqa: E402
from tracing import Tracer  # noqa: E402


def write_checkpoint(path: Path, geometry, layers, tensors: dict):
    """A checkpoint in the documented layout: manifest lines, then a float32 blob."""
    lines = ["RPCK 1", "geometry " + " ".join(map(str, geometry))]
    lines += [f"layer {' '.join(map(str, layer))}" for layer in layers]
    blob, offset = b"", 0
    for name, arr in tensors.items():
        raw = np.asarray(arr, dtype="<f4").tobytes()
        lines.append(f"tensor {name} {','.join(map(str, np.shape(arr)))} {offset}")
        blob += raw
        offset += len(raw)
    lines.append(f"blob {len(blob)} crc32 {zlib.crc32(blob):08x}")
    path.write_bytes("\n".join(lines).encode() + b"\n" + blob)


class ReferenceScorer(unittest.TestCase):
    def test_tiny_network_by_hand(self):
        # 1x1 conv on (R - D, D) with weights (1, 2) and bias 0.5 gives R + D + 0.5
        # per pixel: (1.5, 0.5, 0.5, -0.5); leaky ReLU makes the last -0.005; the
        # 2x2 pool and the global pool give 2.495 / 4 = 0.62375. fc1 maps it to
        # (3 * 0.62375 - 1, -0.62375) = (0.87125, -0.62375), leaky ReLU makes the
        # second -0.0062375, and fc2 = (1, 2) gives 0.87125 - 0.012475 = 0.858775.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tiny.ckpt"
            write_checkpoint(
                path, (2, 2, 2),
                [("conv1", "conv", 2, 1, 1, 1, 0), ("fc1", "dense", 1, 2, 0, 1, 0),
                 ("fc2", "dense", 2, 1, 0, 1, 0)],
                {"conv1.weight": [[[[1.0]], [[2.0]]]], "conv1.bias": [0.5],
                 "fc1.weight": [[3.0], [-1.0]], "fc1.bias": [-1.0, 0.0],
                 "fc2.weight": [[1.0, 2.0]], "fc2.bias": [0.0]},
            )
            ckpt = ref.read_checkpoint(path)
        r = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        d = np.array([[[[0.0, 0.0], [0.0, -2.0]]]])
        self.assertEqual([layer.name for layer in ckpt.layers], ["conv1", "fc1", "fc2"])
        np.testing.assert_allclose(ref.forward(ckpt, r, d), [0.858775], rtol=1e-12)

    def test_padded_conv_matches_loop(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 5, 4))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        loop = np.zeros((2, 4, 5, 4))
        for n in range(2):
            for o in range(4):
                for i in range(5):
                    for j in range(4):
                        loop[n, o, i, j] = np.sum(xp[n, :, i:i + 3, j:j + 3] * w[o]) + b[o]
        np.testing.assert_allclose(ref._conv(x, w, b, 1, 1), loop, rtol=1e-12)


class ChecksFail(unittest.TestCase):
    def test_perturbed_score_fails(self):
        expected = np.linspace(-2.0, 3.0, 50)
        checks.scores(expected.astype(np.float32), expected, "float32 rounding")
        perturbed = expected.copy()
        perturbed[7] += 1e-3
        with self.assertRaises(checks.CheckError):
            checks.scores(perturbed, expected, "perturbed")

    def test_wrong_srocc_fails(self):
        rng = np.random.default_rng(1)
        s, mos = rng.standard_normal(40), rng.standard_normal(40)
        value = spearmanr(s, mos).statistic
        rows = [{"model": "m", "dataset": "all", "srocc": f"{value:.6f}"}]
        checks.srocc(rows, "m", "all", s, mos)
        rows[0]["srocc"] = f"{value + 1e-5:.6f}"
        with self.assertRaises(checks.CheckError):
            checks.srocc(rows, "m", "all", s, mos)

    def _prune_dir(self, tmp: Path, params_student: int | None = None):
        # teacher conv 2->4->8 on 8x8, dense 8->3->1; the plan keeps 2, 5, 3, 1
        t_params = (4 * 2 * 9 + 4) + (8 * 4 * 9 + 8) + (3 * 8 + 3) + (1 * 3 + 1)
        t_flops = 2 * 9 * 2 * 4 * 64 + 2 * 9 * 4 * 8 * 16 + 2 * 8 * 3 + 2 * 3
        s_params = (2 * 2 * 9 + 2) + (5 * 2 * 9 + 5) + (3 * 5 + 3) + (1 * 3 + 1)
        s_flops = 2 * 9 * 2 * 2 * 64 + 2 * 9 * 2 * 5 * 16 + 2 * 5 * 3 + 2 * 3
        (tmp / "plan.txt").write_text(
            "conv1 in[2]=0,1\nconv1 out[2]=0,3\nconv2 in[2]=0,3\nconv2 out[5]=0,1,2,4,7\n"
            "fc1 in[5]=0,1,2,4,7\nfc1 out[3]=0,1,2\nfc2 in[3]=0,1,2\nfc2 out[1]=0\n")
        (tmp / "ratio.txt").write_text(
            f"params_student={params_student or s_params}\nparams_teacher={t_params}\n"
            f"params_ratio={s_params / t_params:.6f}\nflops_student={s_flops}\n"
            f"flops_teacher={t_flops}\nflops_ratio={s_flops / t_flops:.6f}\n")
        rows = [{"model": "student", "params": s_params, "flops": s_flops, "nonzero": s_params},
                {"model": "teacher", "params": t_params, "flops": t_flops, "nonzero": 100}]
        cfg = SimpleNamespace(channels=1, patch=8, kernel=3, conv_widths=(4, 8), dense_widths=(3,))
        return cfg, rows

    def test_wrong_parameter_count_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg, rows = self._prune_dir(tmp)
            checks.counts(cfg, tmp, rows, "student", "teacher")
            rows[0]["params"] += 1
            with self.assertRaises(checks.CheckError):
                checks.counts(cfg, tmp, rows, "student", "teacher")
            cfg, rows = self._prune_dir(tmp, params_student=123)
            with self.assertRaises(checks.CheckError):
                checks.counts(cfg, tmp, rows, "student", "teacher")

    def test_flipped_rerun_byte_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "round1", Path(tmp) / "round2"
            for d in (a, b):
                (d / "eval").mkdir(parents=True)
                (d / "eval" / "eval.csv").write_bytes(b"model,srocc\nteacher,0.912345\n")
            checks.identical(a, b)
            data = bytearray((b / "eval" / "eval.csv").read_bytes())
            data[-3] ^= 0x01
            (b / "eval" / "eval.csv").write_bytes(bytes(data))
            with self.assertRaises(checks.CheckError):
                checks.identical(a, b)

    def test_wrong_label_fails(self):
        dtype = np.dtype([("patches", "<f4", (4, 1, 2, 2)), ("label", "u1"), ("kind", "u1"),
                          ("lev1", "u1"), ("lev2", "u1"), ("mos1", "<f4"), ("mos2", "<f4")])
        recs = np.zeros(3, dtype=dtype)
        recs["lev1"], recs["lev2"] = [1, 4, 2], [3, 2, 6]
        recs["label"] = [1, 0, 1]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "train.rpds"
            path.write_bytes(struct.pack("<4sHIHHH", b"RPDS", 1, 3, 1, 2, 2) + recs.tobytes())
            checks.pairs(path, 3, 6, cross_content=True)
            with self.assertRaises(checks.CheckError):
                checks.pairs(path, 4, 6, cross_content=True)
            recs["label"][1] = 1
            path.write_bytes(struct.pack("<4sHIHHH", b"RPDS", 1, 3, 1, 2, 2) + recs.tobytes())
            with self.assertRaises(checks.CheckError):
                checks.pairs(path, 3, 6, cross_content=True)


class TracerTotals(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        tracer = Tracer({})
        tracer.spans = [["pipeline.distill", 0.0, 10.0, -1], ["optim.predict", 1.0, 4.0, 0],
                        ["autodiff.conv2d", 1.5, 2.5, 1], ["autodiff.conv2d", 5.0, 6.0, 0]]
        totals = tracer.totals()
        self.assertAlmostEqual(totals["pipeline.distill_s"], 10.0)
        self.assertAlmostEqual(totals["pipeline.distill_self_s"], 6.0)
        self.assertAlmostEqual(totals["optim.predict_self_s"], 2.0)
        self.assertAlmostEqual(totals["autodiff.conv2d_s"], 2.0)
        self.assertAlmostEqual(totals["autodiff.conv2d_self_s"], 2.0)


if __name__ == "__main__":
    unittest.main()
