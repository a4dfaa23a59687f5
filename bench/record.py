"""Record where the rankpress pipeline spends its time, into ``BENCH_<label>.json``.

    python3 bench/record.py --label before [--reps 5]

Run from a checkout: the program is imported from the ``src/`` beside this
script. The file holds

- ``layers``: the forward and backward milliseconds of each layer (conv1
  ... fcN) of the configured teacher and of a fixed student (conv widths
  4/6/20, dense width 20), at batch 8 and 16: the median over the reps
  (``forward_ms``, ``backward_ms``) and the 25th and 75th percentiles
  (``forward_ms_p25``, ``forward_ms_p75`` and so on). A layer's time covers
  ``nets.layer_forward``, the op chain the forward pass runs for it; its
  backward starts from the sum of its output, and its input needs a gradient
  unless it is the first layer;
- ``steps``: the milliseconds of one training step (``predict_batch``,
  ranking BCE, ``backward`` and ``AdaMax.step``) of the same teacher and
  student at batch 8, on random pairs: the median (``step_ms``) and the
  quartiles (``step_ms_p25``, ``step_ms_p75``) over ``20 * reps`` steps, after
  one untimed step;
- ``scoring``: the items per second of ``stats.predict_scores`` on
  ``SCORING_ITEMS`` (1,536) random eval items, for the same teacher and
  student: the median (``items_per_s``) and the quartiles
  (``items_per_s_p25``, ``items_per_s_p75``) over ``reps`` passes, after one
  untimed pass;
- ``stages``: the wall seconds of each stage of one 2-epoch pipeline
  (``epochs=2, lam=1.0``), and the student's ``ratio.txt``;
- ``stages_acceptance``: the same for one pipeline at the acceptance
  configuration, ``PipelineConfig()``;
- ``eval``: the wall seconds of ``pipeline.evaluate`` on the eval items and the
  two checkpoints (distilled, teacher) of the ``stages`` run: the median
  (``seconds``) and the quartiles (``seconds_p25``, ``seconds_p75``) over
  ``reps`` runs, after one untimed run, and the median share of a run spent in
  its logistic fits (``fit_share``, the time of ``stats._solve_fits``);
- ``machine``: CPU count, Python, numpy and BLAS versions, the OpenBLAS core
  that numpy's BLAS picked for this CPU (``openblas_core``; criterion 6 moves
  with it), the BLAS thread count that library reports, the lanes a scoring
  pass of ``SCORING_ITEMS`` runs in (``forward_lanes``), the git commit of the
  checkout, and
  ``cli_import_s``: the median wall seconds over ``--reps`` fresh processes of
  ``python -c "import rankpress.cli"``, the start-up every command pays.

Every part uses the default pipeline configuration. Like ``perfbench``, the
recorder runs one BLAS thread unless ``OPENBLAS_NUM_THREADS`` says otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rankpress import autodiff as ad  # noqa: E402
from rankpress import nets, optim, pipeline, stats, synthdata  # noqa: E402

STUDENT = {"conv_widths": (4, 6, 20), "dense_widths": (20,)}
BATCHES = (8, 16)
STEP_BATCH = 8
STEPS_PER_REP = 20
SCORING_ITEMS = 1536


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def cli_import_seconds(reps: int) -> float:
    """Median wall seconds of a fresh ``python -c "import rankpress.cli"``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    seconds = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rankpress.cli"], env=env, check=True)
        seconds.append(time.perf_counter() - t0)
    return float(np.median(seconds))


def machine(reps: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_core": nets.openblas_core(),
        "blas_threads": nets.blas_threads(),
        "forward_lanes": nets.forward_lanes(-(-SCORING_ITEMS // nets.PREDICT_ROWS)),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "cli_import_s": cli_import_seconds(reps),
    }


def time_layers(spec: nets.NetworkSpec, params: nets.ParameterSet, batch: int,
                reps: int) -> dict:
    """Forward and backward ms of each layer on the activations of a random batch:
    the median and the quartiles over ``reps``."""
    rng = np.random.default_rng(0)
    c = spec.in_channels // 2
    ref = rng.random((batch, c, spec.height, spec.width), dtype=np.float32)
    dist = rng.random((batch, c, spec.height, spec.width), dtype=np.float32)
    act = nets.pair_input(spec, ref, dist).data
    rows = {}
    for i, layer in enumerate(spec.layers):
        forward, backward = [], []
        for _ in range(reps):
            for p in params.values():
                p.zero_grad()
            x = ad.Tensor(act, requires_grad=i > 0)
            t0 = time.perf_counter()
            out = nets.layer_forward(layer, params, x)
            t1 = time.perf_counter()
            ad.backward(ad.tsum(out))
            t2 = time.perf_counter()
            forward.append(t1 - t0)
            backward.append(t2 - t1)
        rows[layer.name] = {**quartiles_ms("forward", forward),
                            **quartiles_ms("backward", backward)}
        act = out.data
    return rows


def quartiles_ms(what: str, seconds: list[float]) -> dict:
    """The median of ``seconds`` as ``<what>_ms`` and its quartiles as ``<what>_ms_p25``
    and ``<what>_ms_p75``, in milliseconds."""
    p25, median, p75 = 1e3 * np.percentile(seconds, (25, 50, 75))
    return {f"{what}_ms": median, f"{what}_ms_p25": p25, f"{what}_ms_p75": p75}


def time_steps(cfg: pipeline.PipelineConfig, reps: int) -> dict:
    """Milliseconds of one training step of the net of ``cfg`` on ``STEP_BATCH`` random
    pairs: the forward of ``predict_batch``, ranking BCE, backward and the AdaMax step."""
    spec, params = nets.build_teacher(cfg)
    rng = np.random.default_rng(0)
    batch = np.zeros(STEP_BATCH, synthdata.pair_dtype(spec.in_channels // 2, spec.height,
                                                      spec.width))
    batch["patches"] = rng.random(batch["patches"].shape, dtype=np.float32)
    batch["label"] = rng.integers(0, 2, STEP_BATCH)
    opt = optim.AdaMax(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    seconds = []
    for _ in range(STEPS_PER_REP * reps + 1):  # the first step is not timed
        for p in params.values():
            p.zero_grad()
        t0 = time.perf_counter()
        loss = optim.ranking_bce_loss(optim.predict_batch(spec, params, batch), batch["label"])
        ad.backward(loss)
        opt.step()
        seconds.append(time.perf_counter() - t0)
    return quartiles_ms("step", seconds[1:])


def time_scoring(cfg: pipeline.PipelineConfig, reps: int) -> dict:
    """Items per second of ``stats.predict_scores`` with the net of ``cfg`` on
    ``SCORING_ITEMS`` random eval items: the median and the quartiles over ``reps``
    passes, after one untimed pass."""
    spec, params = nets.build_teacher(cfg)
    items = np.zeros(SCORING_ITEMS, synthdata.eval_dtype(spec.in_channels // 2, spec.height,
                                                         spec.width))
    rng = np.random.default_rng(0)
    items["ref"] = rng.random(items["ref"].shape, dtype=np.float32)
    items["dist"] = rng.random(items["dist"].shape, dtype=np.float32)
    rates = []
    for _ in range(reps + 1):
        t0 = time.perf_counter()
        stats.predict_scores(spec, params, items)
        rates.append(SCORING_ITEMS / (time.perf_counter() - t0))
    p25, median, p75 = np.percentile(rates[1:], (25, 50, 75))
    return {"items_per_s": median, "items_per_s_p25": p25, "items_per_s_p75": p75}


def time_stages(cfg: pipeline.PipelineConfig, work: Path, p=pipeline) -> dict:
    """Wall seconds of each stage of one pipeline run in ``work``, by the stages of
    ``p``, a ``pipeline`` module."""
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
    ratio = dict(line.split("=") for line in (student.parent / "ratio.txt").read_text().split())
    return {"seconds": seconds, "ratio": ratio}


def time_eval(cfg: pipeline.PipelineConfig, work: Path, reps: int) -> dict:
    """Seconds of ``pipeline.evaluate`` on the outputs of ``time_stages(cfg, work)``:
    the median and the quartiles over ``reps`` runs, after one untimed run, and the
    median share of a run spent in ``stats._solve_fits``."""
    eval_path = work / "data" / "eval.rpev"
    ckpts = [work / "distill" / "distilled.ckpt", work / "teacher" / "teacher.ckpt"]
    solve_fits, fit_seconds = stats._solve_fits, []

    def timed_fits(*args):
        t0 = time.perf_counter()
        try:
            return solve_fits(*args)
        finally:
            fit_seconds.append(time.perf_counter() - t0)

    stats._solve_fits = timed_fits
    try:
        seconds = []
        for _ in range(reps + 1):
            t0 = time.perf_counter()
            pipeline.evaluate(cfg, eval_path, ckpts, work / "eval_timed")
            seconds.append(time.perf_counter() - t0)
    finally:
        stats._solve_fits = solve_fits
    p25, median, p75 = np.percentile(seconds[1:], (25, 50, 75))
    return {"items": len(synthdata.read_eval_dataset(eval_path)), "seconds": median,
            "seconds_p25": p25, "seconds_p75": p75,
            "fit_share": float(np.median(np.divide(fit_seconds[1:], seconds[1:])))}


def record(label: str, reps: int, outdir: Path = ROOT, overrides: dict | None = None) -> Path:
    """Write ``BENCH_<label>.json`` into ``outdir``; ``overrides`` are ``--set``
    pairs of the CLI on top of both the 2-epoch and the acceptance configuration,
    for a smaller run."""
    acceptance = pipeline.load_config(overrides=overrides)
    cfg = pipeline.load_config(overrides={"epochs": "2", "lam": "1.0", **(overrides or {})})
    layers, steps, shapes, scoring = {}, {"batch": STEP_BATCH}, {}, {"items": SCORING_ITEMS}
    for name, net_cfg in (("teacher", cfg), ("student", dataclasses.replace(cfg, **STUDENT))):
        spec, params = nets.build_teacher(net_cfg)
        shapes[name] = {"conv_widths": list(net_cfg.conv_widths),
                        "dense_widths": list(net_cfg.dense_widths), "patch": net_cfg.patch,
                        "params": nets.count_params(params), "flops": nets.count_flops(spec)}
        layers[name] = {str(b): time_layers(spec, params, b, reps) for b in BATCHES}
        steps[name] = time_steps(net_cfg, reps)
        scoring[name] = time_scoring(net_cfg, reps)
    with tempfile.TemporaryDirectory(prefix="rankpress-bench-") as work:
        stages = time_stages(cfg, Path(work) / "short")
        evaluation = time_eval(cfg, Path(work) / "short", reps)
        stages_acceptance = time_stages(acceptance, Path(work) / "acceptance")
    result = {
        "label": label,
        "machine": machine(reps),
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in dataclasses.asdict(cfg).items()},
        "reps": reps,
        "nets": shapes,
        "layers": layers,
        "steps": steps,
        "scoring": scoring,
        "stages": stages,
        "stages_acceptance": stages_acceptance,
        "eval": evaluation,
    }
    out = outdir / f"BENCH_{label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--reps", type=int, default=5, help="repetitions per layer timing")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    print(record(args.label, args.reps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
