"""Checks of the program's outputs against computations made apart from it.

Each check raises ``CheckError`` with what differed. The expected values
come from ``reference`` (own readers, float64 forward, recounts) or from
scipy, never from the program's own reporting code.
"""

from __future__ import annotations

import csv
import filecmp
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

import reference as ref

SCORE_RTOL = 1e-5  # float32 program vs float64 reference, relative to the largest score
SROCC_ATOL = 1e-6  # eval.csv rounds to 6 decimals
KIND_NAMES = ("gaussian-blur", "additive-gaussian-noise", "uniform-quantization",
              "downsample-upsample")


class CheckError(AssertionError):
    """An output of the program is wrong."""


def scores(program: np.ndarray, reference: np.ndarray, what: str):
    program = np.asarray(program, dtype=np.float64)
    if program.shape != reference.shape:
        raise CheckError(f"{what}: {program.shape} scores, reference has {reference.shape}")
    err = float(np.max(np.abs(program - reference)))
    scale = max(float(np.max(np.abs(reference))), 1e-6)
    if not err <= SCORE_RTOL * scale:
        raise CheckError(f"{what}: scores differ from the reference by {err:.3g} (scale {scale:.3g})")


def read_eval_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def srocc(rows: list[dict], model: str, dataset: str, program_scores, mos):
    """eval.csv's SROCC for (model, dataset) equals scipy's on the scored items."""
    found = [r for r in rows if r["model"] == model and r["dataset"] == dataset]
    if len(found) != 1:
        raise CheckError(f"eval.csv has {len(found)} rows for {model}/{dataset}")
    expected = spearmanr(program_scores, mos).statistic
    got = float(found[0]["srocc"])
    if not abs(got - expected) <= SROCC_ATOL:
        raise CheckError(f"{model}/{dataset}: eval.csv srocc {got} != spearmanr {expected:.7f}")


def eval_subsets(items: np.ndarray) -> dict[str, np.ndarray]:
    """Dataset name -> item indices, as the eval stage splits its container."""
    subsets = {"all": np.arange(len(items))}
    for k, name in enumerate(KIND_NAMES):
        idx = np.flatnonzero(items["kind"] == k)
        if idx.size:
            subsets[name] = idx
    return subsets


def counts(cfg, prune_dir, eval_rows: list[dict] = (), student: str = "", teacher: str = ""):
    """ratio.txt (and eval.csv, when given) counts equal a recount from plan.txt and the geometry."""
    prune_dir = Path(prune_dir)
    geometry = (2 * cfg.channels, cfg.patch, cfg.patch)
    n_conv = len(cfg.conv_widths)
    t_params, t_flops = ref.recount(geometry, cfg.kernel, list(cfg.conv_widths),
                                    list(cfg.dense_widths) + [1])
    kept = ref.plan_widths(prune_dir / "plan.txt")
    widths = list(kept.values())
    s_params, s_flops = ref.recount(geometry, cfg.kernel, widths[:n_conv], widths[n_conv:])
    ratio = dict(line.split("=", 1) for line in (prune_dir / "ratio.txt").read_text().split())
    expected = {
        "params_student": s_params, "params_teacher": t_params,
        "flops_student": s_flops, "flops_teacher": t_flops,
    }
    for key, value in expected.items():
        if int(ratio[key]) != value:
            raise CheckError(f"ratio.txt {key}={ratio[key]}, recount gives {value}")
    for key, num, den in (("params_ratio", s_params, t_params), ("flops_ratio", s_flops, t_flops)):
        if abs(float(ratio[key]) - num / den) > 5e-7:
            raise CheckError(f"ratio.txt {key}={ratio[key]}, recount gives {num / den:.6f}")
    if s_params > t_params:
        raise CheckError(f"student has {s_params} parameters, more than the teacher's {t_params}")
    models = ((student, s_params, s_flops), (teacher, t_params, t_flops)) if eval_rows else ()
    for model, params, flops in models:
        rows = [r for r in eval_rows if r["model"] == model]
        if not rows:
            raise CheckError(f"eval.csv has no rows for {model}")
        for r in rows:
            if (int(r["params"]), int(r["flops"])) != (params, flops) or int(r["nonzero"]) > params:
                raise CheckError(f"eval.csv {model}: params/flops/nonzero {r['params']}/"
                                 f"{r['flops']}/{r['nonzero']}, recount gives {params}/{flops}")


def pairs(path, expected: int, levels: int, cross_content: bool):
    recs = ref.read_pairs(path)
    if len(recs) != expected:
        raise CheckError(f"{path}: {len(recs)} pairs, config asks for {expected}")
    if not np.array_equal(recs["label"], (recs["lev1"] < recs["lev2"]).astype(np.uint8)):
        raise CheckError(f"{path}: a label differs from lev1 < lev2")
    lev = np.concatenate([recs["lev1"], recs["lev2"]])
    if lev.min() < 1 or lev.max() > levels or np.any(recs["kind"] >= len(KIND_NAMES)):
        raise CheckError(f"{path}: level or kind out of range")
    gap = np.abs(recs["lev1"].astype(int) - recs["lev2"].astype(int))
    if np.any(gap < (2 if cross_content else 1)):
        raise CheckError(f"{path}: a pair's levels are closer than the setting allows")


def eval_items(items: np.ndarray, sources: int, levels: int):
    expected = sources * len(KIND_NAMES) * levels
    if len(items) != expected:
        raise CheckError(f"eval container has {len(items)} items, config asks for {expected}")
    per_kind = np.bincount(items["kind"], minlength=len(KIND_NAMES))
    if not np.all(per_kind == sources * levels):
        raise CheckError(f"eval container kind counts {per_kind.tolist()}")


def no_divergence(*logs):
    for path in logs:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows or any(r["diverged"] != "0" for r in rows):
            raise CheckError(f"{path}: empty or a row has diverged=1")


def unchanged(before: str, after: str, what: str):
    if before != after:
        raise CheckError(f"{what} changed: sha256 {before[:12]} -> {after[:12]}")


def identical(dir_a, dir_b):
    """Two output trees hold the same files with the same bytes."""
    a, b = Path(dir_a), Path(dir_b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        raise CheckError(f"{a} and {b} hold different files")
    for rel in files_a:
        if not filecmp.cmp(a / rel, b / rel, shallow=False):
            raise CheckError(f"rerun output {rel} differs between {a.name} and {b.name}")
