"""Time this checkout against an earlier commit, row by row in one process, into ``BENCH_<label>.json``.

    python3 bench/record.py --base REV --label L [--config compress|small-net|acceptance] [--rounds N]

Run from a checkout. ``git archive REV src/rankpress`` writes the base
package to a temporary directory, and it is imported beside the checkout's
``rankpress`` as ``rankpress_base``: each copy resolves its relative imports
inside itself. Timings taken in different processes on a shared host move by
more than most changes do, so each round measures every row once with each
tree, the base first in even rounds and the change first in odd ones, and
the rows compare the two trees round by round. A recording of one tree is an
A/A run: ``--base HEAD`` from a checkout without changes.

Every row holds the median over the rounds of the base and of the change
(``base``, ``change``) and the median and quartiles of the per-round ratio
change/base (``ratio``, ``ratio_p25``, ``ratio_p75``). The sections:

- ``layers``: per net, batch (8 and 16) and layer (conv1 ... fcN), the
  forward and the backward milliseconds (``forward_ms``, ``backward_ms``), each
  the median of ``LAYER_REPS`` timings in a round. A layer's time covers
  ``nets.layer_forward``, the op chain the forward pass runs for it; its
  backward starts from the sum of its output, and its input needs a gradient
  unless it is the first layer;
- ``steps``: per net, the milliseconds of one training step (``predict_batch``,
  ranking BCE, ``backward`` and ``AdaMax.step``) on ``STEP_BATCH`` random pairs
  (``step_ms``), the median of ``STEPS_PER_ROUND`` steps after one untimed step;
- ``scoring``: per net, the items per second of ``stats.predict_scores`` on
  ``SCORING_ITEMS`` random eval items (``items_per_s``), the median of
  ``SCORING_PASSES`` passes after one untimed pass;
- ``stages``: the wall seconds of each stage of one pipeline run at
  ``--config``, and their ``total``;
- ``eval``: the wall seconds of a second ``pipeline.evaluate`` on that run's
  eval items and its two checkpoints, distilled and teacher (``seconds``), and
  the share of them spent in its logistic fits, ``stats._solve_fits``
  (``fit_share``);
- ``runtime``: the paper's runtime claim on that run's own nets. The items
  per second of ``stats.predict_scores`` on its eval items with its distilled
  student and with its teacher (``student_items_per_s``,
  ``teacher_items_per_s``), each the median of ``RUNTIME_PASSES`` passes after
  one untimed pass; the teacher's rate over the student's, the student's
  share of the teacher's scoring time (``runtime_ratio``); and the params and
  FLOPs ratios of its ``ratio.txt`` (``params_ratio``, ``flops_ratio``);
- ``cli_import_s``: the wall seconds of a fresh ``python -c "import
  rankpress.cli"``, the start-up every command pays.

The nets are the teacher of the default configuration and a fixed student
(conv widths 4/6/20, dense width 20), whatever ``--config``. The
configurations are the pipeline settings of perfbench's ``compress`` and
``small-net`` workloads, at seed 0, and ``PipelineConfig()``
(``acceptance``). The file also records the base revision and its commit, the
settings, the rounds, the nets' shapes, the student's ``ratio.txt``, whether
every file the two trees' pipeline runs wrote was byte-identical in every
round (``identical``; ``differing`` names the files that were not), and the
machine: CPU count, Python, numpy and BLAS versions, the OpenBLAS core that
numpy's BLAS picked for this CPU (criterion 6 moves with it), the BLAS thread
count that library reports, the lanes a scoring pass runs in
(``forward_lanes``) and the checkout's commit. Like ``perfbench``, the
harness runs one BLAS thread unless ``OPENBLAS_NUM_THREADS`` says otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import importlib
import importlib.util
import io
import json
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

CONFIGS = {
    "compress": {"lam": "1.0", "epochs": "2"},
    "small-net": {"conv_widths": "4,8", "dense_widths": "8", "patch": "48", "cross_content": "1",
                  "pairs_per_source": "16", "lam": "1.0", "epochs": "2"},
    "acceptance": {},
}
STUDENT = {"conv_widths": (4, 6, 20), "dense_widths": (20,)}
BATCHES = (8, 16)
LAYER_REPS = 5
STEP_BATCH = 8
STEPS_PER_ROUND = 20
SCORING_ITEMS = 1536
SCORING_PASSES = 3
RUNTIME_PASSES = 9
MODULES = ("autodiff", "checkpoint", "nets", "optim", "pipeline", "stats", "synthdata")


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def tree(package: str, src: Path, settings: dict, overrides: dict) -> SimpleNamespace:
    """The modules of ``package``, imported from ``src``, with that package's own
    configurations: ``cfg`` for the pipeline at ``settings`` and ``net_cfgs`` for the
    teacher and the student at ``overrides``."""
    t = SimpleNamespace(src=src, **{m: importlib.import_module(f"{package}.{m}") for m in MODULES})
    t.cfg = t.pipeline.load_config(overrides=settings)
    teacher = t.pipeline.load_config(overrides=overrides)
    t.net_cfgs = {"teacher": teacher, "student": dataclasses.replace(teacher, **STUDENT)}
    return t


def import_base(rev: str, into: Path) -> Path:
    """Write the package ``src/rankpress`` of commit ``rev`` under ``into``, import it as
    ``rankpress_base``, and return the ``src`` directory that holds it."""
    with zipfile.ZipFile(io.BytesIO(_git("archive", "--format=zip", rev, "src/rankpress"))) as z:
        z.extractall(into)
    package = into / "src" / "rankpress"
    for name in [n for n in sys.modules if n.split(".")[0] == "rankpress_base"]:
        del sys.modules[name]  # an earlier recording's base
    spec = importlib.util.spec_from_file_location(
        "rankpress_base", package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["rankpress_base"] = module
    spec.loader.exec_module(module)
    return into / "src"


def machine(t: SimpleNamespace) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_core": t.nets.openblas_core(),
        "blas_threads": t.nets.blas_threads(),
        "forward_lanes": t.nets.forward_lanes(-(-SCORING_ITEMS // t.nets.PREDICT_ROWS)),
        "git_sha": _git("rev-parse", "HEAD").decode().strip(),
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
    }


def time_layers(t: SimpleNamespace, spec, params, batch: int) -> dict:
    """Forward and backward ms of each layer on the activations of a random batch."""
    rng = np.random.default_rng(0)
    c = spec.in_channels // 2
    ref = rng.random((batch, c, spec.height, spec.width), dtype=np.float32)
    dist = rng.random((batch, c, spec.height, spec.width), dtype=np.float32)
    act = t.nets.pair_input(spec, ref, dist).data
    rows = {}
    for i, layer in enumerate(spec.layers):
        forward, backward = [], []
        for _ in range(LAYER_REPS):
            for p in params.values():
                p.zero_grad()
            x = t.autodiff.Tensor(act, requires_grad=i > 0)
            t0 = time.perf_counter()
            out = t.nets.layer_forward(layer, params, x)
            t1 = time.perf_counter()
            t.autodiff.backward(t.autodiff.tsum(out))
            t2 = time.perf_counter()
            forward.append(t1 - t0)
            backward.append(t2 - t1)
        rows[layer.name] = {"forward_ms": 1e3 * np.median(forward),
                            "backward_ms": 1e3 * np.median(backward)}
        act = out.data
    return rows


def time_step(t: SimpleNamespace, cfg) -> dict:
    """Milliseconds of one training step of the net of ``cfg`` on ``STEP_BATCH`` random
    pairs: the forward of ``predict_batch``, ranking BCE, backward and the AdaMax step."""
    spec, params = t.nets.build_teacher(cfg)
    rng = np.random.default_rng(0)
    batch = np.zeros(STEP_BATCH, t.synthdata.pair_dtype(spec.in_channels // 2, spec.height,
                                                        spec.width))
    batch["patches"] = rng.random(batch["patches"].shape, dtype=np.float32)
    batch["label"] = rng.integers(0, 2, STEP_BATCH)
    opt = t.optim.AdaMax(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    seconds = []
    for _ in range(STEPS_PER_ROUND + 1):  # the first step is not timed
        for p in params.values():
            p.zero_grad()
        t0 = time.perf_counter()
        loss = t.optim.ranking_bce_loss(t.optim.predict_batch(spec, params, batch), batch["label"])
        t.autodiff.backward(loss)
        opt.step()
        seconds.append(time.perf_counter() - t0)
    return {"step_ms": 1e3 * np.median(seconds[1:])}


def time_scoring(t: SimpleNamespace, spec, params) -> dict:
    """Items per second of ``stats.predict_scores`` on ``SCORING_ITEMS`` random eval items."""
    items = np.zeros(SCORING_ITEMS, t.synthdata.eval_dtype(spec.in_channels // 2, spec.height,
                                                           spec.width))
    rng = np.random.default_rng(0)
    items["ref"] = rng.random(items["ref"].shape, dtype=np.float32)
    items["dist"] = rng.random(items["dist"].shape, dtype=np.float32)
    return {"items_per_s": items_per_s(t, spec, params, items, SCORING_PASSES)}


def items_per_s(t: SimpleNamespace, spec, params, items: np.ndarray, passes: int) -> float:
    """Items per second of ``stats.predict_scores`` on ``items``: the median of ``passes``
    passes after one untimed pass."""
    rates = []
    for _ in range(passes + 1):
        t0 = time.perf_counter()
        t.stats.predict_scores(spec, params, items)
        rates.append(len(items) / (time.perf_counter() - t0))
    return float(np.median(rates[1:]))


def time_nets(t: SimpleNamespace, work: Path) -> dict:
    """The ``layers``, ``steps`` and ``scoring`` rows of one round."""
    sample = {"layers": {}, "steps": {}, "scoring": {}}
    for name, cfg in t.net_cfgs.items():
        spec, params = t.nets.build_teacher(cfg)
        sample["layers"][name] = {str(b): time_layers(t, spec, params, b) for b in BATCHES}
        sample["steps"][name] = time_step(t, cfg)
        sample["scoring"][name] = time_scoring(t, spec, params)
    return sample


def time_pipeline(t: SimpleNamespace, work: Path) -> dict:
    """The ``stages``, ``eval`` and ``runtime`` rows of one pipeline run in ``work``."""
    p, cfg = t.pipeline, t.cfg
    data = work / "data"
    teacher = work / "teacher" / "teacher.ckpt"
    sparse = work / "sparse" / "sparse.ckpt"
    student = work / "pruned" / "student.ckpt"
    distilled = work / "distill" / "distilled.ckpt"
    stages = [
        ("gen_data", lambda: p.gen_data(cfg, data)),
        ("train_teacher", lambda: p.train_teacher(cfg, data, teacher.parent)),
        ("sparsify", lambda: p.sparsify(cfg, data, teacher, sparse.parent)),
        ("prune", lambda: p.prune(cfg, sparse, student.parent)),
        ("distill", lambda: p.distill(cfg, data, teacher, student, distilled.parent)),
        ("eval", lambda: p.evaluate(cfg, data / "eval.rpev", [distilled, teacher], work / "eval")),
    ]
    seconds = {}
    for name, run in stages:
        t0 = time.perf_counter()
        run()
        seconds[name] = time.perf_counter() - t0
    seconds["total"] = sum(seconds.values())
    return {"stages": seconds,
            "eval": time_eval(t, data / "eval.rpev", [distilled, teacher], work / "eval_timed"),
            "runtime": time_runtime(t, data / "eval.rpev", distilled, teacher,
                                    student.parent / "ratio.txt")}


def time_eval(t: SimpleNamespace, eval_path: Path, ckpts: list[Path], outdir: Path) -> dict:
    """Seconds of ``pipeline.evaluate`` and the share of them spent in ``stats._solve_fits``."""
    solve_fits, fit_seconds = t.stats._solve_fits, []

    def timed_fits(*args):
        t0 = time.perf_counter()
        try:
            return solve_fits(*args)
        finally:
            fit_seconds.append(time.perf_counter() - t0)

    t.stats._solve_fits = timed_fits
    try:
        t0 = time.perf_counter()
        t.pipeline.evaluate(t.cfg, eval_path, ckpts, outdir)
        seconds = time.perf_counter() - t0
    finally:
        t.stats._solve_fits = solve_fits
    return {"seconds": seconds, "fit_share": sum(fit_seconds) / seconds}


def time_runtime(t: SimpleNamespace, eval_path: Path, student: Path, teacher: Path,
                 ratio_txt: Path) -> dict:
    """The scoring rates of a run's distilled student and teacher on its eval items, the
    student's share of the teacher's scoring time, and the ratios of its ``ratio.txt``."""
    items = t.synthdata.read_eval_dataset(eval_path)
    row = {}
    for net, path in (("student", student), ("teacher", teacher)):
        spec, params, _ = t.checkpoint.load_checkpoint(path)
        row[f"{net}_items_per_s"] = items_per_s(t, spec, params, items, RUNTIME_PASSES)
    row["runtime_ratio"] = row["teacher_items_per_s"] / row["student_items_per_s"]
    ratios = dict(line.split("=") for line in ratio_txt.read_text().split())
    return {**row, "params_ratio": float(ratios["params_ratio"]),
            "flops_ratio": float(ratios["flops_ratio"])}


def time_cli(t: SimpleNamespace, work: Path) -> dict:
    """Wall seconds of a fresh ``python -c "import rankpress.cli"`` from the tree's ``src``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import rankpress.cli"],
                   env={**os.environ, "PYTHONPATH": str(t.src)}, check=True)
    return {"cli_import_s": time.perf_counter() - t0}


def rows(base: list, change: list) -> dict:
    """The rows of per-round samples ``base`` and ``change``, nested dicts of the same
    keys with a number at each leaf."""
    if isinstance(base[0], dict):
        return {key: rows([b[key] for b in base], [c[key] for c in change]) for key in base[0]}
    b, c = np.array(base), np.array(change)
    p25, median, p75 = np.percentile(c / b, (25, 50, 75))
    return {"base": float(np.median(b)), "change": float(np.median(c)),
            "ratio": median, "ratio_p25": p25, "ratio_p75": p75}


def net_shapes(t: SimpleNamespace) -> dict:
    shapes = {}
    for name, cfg in t.net_cfgs.items():
        spec, params = t.nets.build_teacher(cfg)
        shapes[name] = {"conv_widths": list(cfg.conv_widths),
                        "dense_widths": list(cfg.dense_widths), "patch": cfg.patch,
                        "params": t.nets.count_params(params), "flops": t.nets.count_flops(spec)}
    return shapes


def _files(work: Path) -> dict[str, bytes]:
    return {str(f.relative_to(work)): f.read_bytes() for f in sorted(work.rglob("*"))
            if f.is_file()}


def record(base: str, label: str, config: str = "compress", rounds: int = 10,
           outdir: Path = ROOT, overrides: dict | None = None) -> Path:
    """Write ``BENCH_<label>.json`` into ``outdir``: ``rounds`` alternating rounds of
    every row, the tree of commit ``base`` against this checkout, with the pipeline at
    ``config``. ``overrides`` are ``--set`` pairs of the CLI on top of the pipeline's
    and the nets' configurations, for a smaller run."""
    overrides = overrides or {}
    settings = {**CONFIGS[config], **overrides}
    samples = {"base": [], "change": []}
    differing: set[str] = set()
    with tempfile.TemporaryDirectory(prefix="rankpress-bench-") as tmp:
        trees = {"base": tree("rankpress_base", import_base(base, Path(tmp) / "tree"), settings,
                              overrides),
                 "change": tree("rankpress", ROOT / "src", settings, overrides)}
        for k in range(rounds):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            work = Path(tmp) / f"round{k}"
            for name in order:
                samples[name].append({})
            for measure in (time_nets, time_pipeline, time_cli):
                for name in order:
                    samples[name][-1].update(measure(trees[name], work / name))
            written = {name: _files(work / name) for name in order}
            shutil.rmtree(work)
            differing |= {f for f in written["base"].keys() | written["change"].keys()
                          if written["base"].get(f) != written["change"].get(f)}
        result = {
            "label": label,
            "base": base,
            "base_sha": _git("rev-parse", base).decode().strip(),
            "config": config,
            "overrides": settings,
            "rounds": rounds,
            "machine": machine(trees["change"]),
            "nets": net_shapes(trees["change"]),
            "student_ratio": dict(line.split("=") for line in
                                  written["change"]["pruned/ratio.txt"].decode().split()),
            "identical": not differing,
            "differing": sorted(differing),
            **rows(samples["base"], samples["change"]),
        }
    out = outdir / f"BENCH_{label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--label", required=True)
    parser.add_argument("--config", choices=sorted(CONFIGS), default="compress")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    print(record(args.base, args.label, args.config, args.rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
