"""Pipeline stages behind the CLI: reproducible configs and on-disk artifacts.

Every stage is a pure function of (config, input files) to output files;
checkpoints are immutable and each stage writes new files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import distill as kd
from . import optim, pruning, stats, synthdata
from .nets import ConfigError, NetConfig, build_spec, count_flops, count_params, init_params


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    channels: int = 1
    patch: int = 24
    conv_widths: tuple[int, ...] = (16, 32, 64)
    dense_widths: tuple[int, ...] = (32,)
    kernel: int = 3
    levels: int = 6
    train_sources: int = 32
    pairs_per_source: int = 8
    val_sources: int = 8
    val_pairs_per_source: int = 8
    eval_sources: int = 8
    cross_content: int = 0
    lr: float = 0.002
    beta1: float = 0.9
    beta2: float = 0.999
    lam: float = 0.1
    alpha: float = 0.1
    epochs: int = 30
    batch_size: int = 8

    def net_config(self) -> NetConfig:
        return NetConfig(
            channels=self.channels,
            height=self.patch,
            width=self.patch,
            conv_widths=self.conv_widths,
            dense_widths=self.dense_widths,
            kernel=self.kernel,
            seed=self.seed,
        )

    def optimizer_config(self, lam: float | None = None) -> optim.OptimizerConfig:
        return optim.OptimizerConfig(
            lr=self.lr,
            beta1=self.beta1,
            beta2=self.beta2,
            lam=self.lam if lam is None else lam,
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=self.seed,
        )


_INT_TUPLE_KEYS = {"conv_widths", "dense_widths"}


def _parse_value(key: str, raw: str, kind):
    if key in _INT_TUPLE_KEYS:
        return tuple(int(v) for v in raw.split(",") if v != "")
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    return raw


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Plaintext key=value config; CLI overrides win; unknown keys rejected."""
    known = {f.name: f.type for f in fields(PipelineConfig)}
    kinds = {f.name: type(getattr(PipelineConfig(), f.name)) for f in fields(PipelineConfig)}
    values: dict = {}
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, raw = line.partition("=")
            key = key.strip()
            if not sep or key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown or malformed key {key!r}")
            values[key] = _parse_value(key, raw.strip(), kinds[key])
    for key, raw in (overrides or {}).items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _parse_value(key, str(raw), kinds[key]) if isinstance(raw, str) else raw
    return PipelineConfig(**values)


def write_effective_config(cfg: PipelineConfig, outdir: Path):
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name}={value}")
    (outdir / "effective_config.txt").write_text("\n".join(lines) + "\n")


def _ensure_outdir(outdir) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


# ---------------------------------------------------------------------------
# stages


def gen_data(cfg: PipelineConfig, outdir) -> dict[str, Path]:
    outdir = _ensure_outdir(outdir)
    geometry = (cfg.channels, cfg.patch, cfg.patch)
    train_sources = synthdata.generate_sources(cfg.train_sources, geometry, seed=cfg.seed)
    val_sources = synthdata.generate_sources(cfg.val_sources, geometry, seed=cfg.seed + 1)
    eval_sources = synthdata.generate_sources(cfg.eval_sources, geometry, seed=cfg.seed + 2)
    train = synthdata.make_pair_dataset(
        train_sources, cfg.levels, cfg.pairs_per_source, seed=cfg.seed,
        cross_content=bool(cfg.cross_content),
    )
    val = synthdata.make_pair_dataset(
        val_sources, cfg.levels, cfg.val_pairs_per_source, seed=cfg.seed + 1,
        cross_content=bool(cfg.cross_content),
    )
    eval_items = synthdata.make_eval_dataset(eval_sources, cfg.levels, seed=cfg.seed + 2)
    paths = {
        "train": outdir / "train.rpds",
        "val": outdir / "val.rpds",
        "eval": outdir / "eval.rpev",
    }
    synthdata.write_dataset(paths["train"], train)
    synthdata.write_dataset(paths["val"], val)
    synthdata.write_eval_dataset(paths["eval"], eval_items)
    write_effective_config(cfg, outdir)
    return paths


def _load_pair_data(datadir):
    datadir = Path(datadir)
    train = synthdata.read_dataset(datadir / "train.rpds")
    val = synthdata.read_dataset(datadir / "val.rpds")
    return train, val


def train_teacher(cfg: PipelineConfig, datadir, outdir) -> Path:
    outdir = _ensure_outdir(outdir)
    train, val = _load_pair_data(datadir)
    spec = build_spec(cfg.net_config())
    params = init_params(spec, seed=cfg.seed)
    log = optim.train_ranking(
        spec, params, train, cfg.optimizer_config(lam=0.0), val_set=val,
        log_path=outdir / "teacher_log.csv",
    )
    out = outdir / "teacher.ckpt"
    last_epoch = log[-1]["epoch"] if log else -1
    ckpt.save_checkpoint(out, spec, params, meta={"phase": "teacher", "epoch": last_epoch})
    write_effective_config(cfg, outdir)
    if log and log[-1].get("diverged"):
        raise optim.NumericalError("teacher training diverged")
    return out


def sparsify(cfg: PipelineConfig, datadir, teacher_ckpt, outdir, lam: float | None = None) -> Path:
    outdir = _ensure_outdir(outdir)
    train, val = _load_pair_data(datadir)
    spec, params, _meta = ckpt.load_checkpoint(teacher_ckpt)
    expected = build_spec(cfg.net_config())
    if spec.layers != expected.layers:
        raise ConfigError(
            "checkpoint shape does not match the configured teacher "
            "(refusing a student-shaped or foreign checkpoint)"
        )
    oconf = cfg.optimizer_config(lam=lam)
    log = optim.train_ranking(
        spec, params, train, oconf, val_set=val, sparsify=True, log_path=outdir / "sparse_log.csv"
    )
    report = pruning.compute_density(spec, params)
    pruning.write_density_report(outdir / "density.txt", report)
    out = outdir / "sparse.ckpt"
    ckpt.save_checkpoint(out, spec, params, meta={"phase": "sparse", "lambda": oconf.lam})
    write_effective_config(cfg, outdir)
    if log and log[-1].get("diverged"):
        raise optim.NumericalError("sparsity training diverged")
    return out


def prune(cfg: PipelineConfig, sparse_ckpt, outdir) -> Path:
    outdir = _ensure_outdir(outdir)
    spec, params, _meta = ckpt.load_checkpoint(sparse_ckpt)
    report = pruning.compute_density(spec, params)
    plan = pruning.build_pruning_plan(spec, report, params)
    student_spec, student_params = pruning.prune_network(spec, params, plan)
    violations = pruning.validate_structure(student_spec, student_params)
    if violations:
        raise pruning.StructureError("; ".join(violations))
    pruning.write_density_report(outdir / "density.txt", report)
    pruning.write_plan(outdir / "plan.txt", plan)
    out = outdir / "student.ckpt"
    ckpt.save_checkpoint(out, student_spec, student_params, meta={"phase": "pruned"})
    ratio = count_params(student_params) / count_params(params)
    (outdir / "ratio.txt").write_text(
        f"params_student={count_params(student_params)}\n"
        f"params_teacher={count_params(params)}\n"
        f"params_ratio={ratio:.6f}\n"
        f"flops_student={count_flops(student_spec)}\n"
        f"flops_teacher={count_flops(spec)}\n"
        f"flops_ratio={count_flops(student_spec) / count_flops(spec):.6f}\n"
    )
    write_effective_config(cfg, outdir)
    return out


def distill(cfg: PipelineConfig, datadir, teacher_ckpt, student_ckpt, outdir,
            freeze_check: bool = False) -> Path:
    outdir = _ensure_outdir(outdir)
    train, val = _load_pair_data(datadir)
    t_spec, t_params, _ = ckpt.load_checkpoint(teacher_ckpt)
    s_spec, s_params, _ = ckpt.load_checkpoint(student_ckpt)
    if (t_spec.in_channels, t_spec.height, t_spec.width) != (
        s_spec.in_channels, s_spec.height, s_spec.width
    ):
        raise ConfigError("teacher and student checkpoints have different input geometry")
    for p in t_params.values():
        p.requires_grad = False
    hash_before = ckpt.checkpoint_hash(teacher_ckpt)
    dconf = kd.DistillConfig(
        alpha=cfg.alpha, epochs=cfg.epochs, batch_size=cfg.batch_size,
        optim=cfg.optimizer_config(lam=0.0),
    )
    log = kd.distill_train(
        t_spec, t_params, s_spec, s_params, train, dconf, val_set=val,
        log_path=outdir / "distill_log.csv",
    )
    if freeze_check and ckpt.checkpoint_hash(teacher_ckpt) != hash_before:
        raise pruning.StructureError("teacher checkpoint changed during distillation")
    out = outdir / "distilled.ckpt"
    ckpt.save_checkpoint(out, s_spec, s_params, meta={"phase": "distilled"})
    write_effective_config(cfg, outdir)
    if log and log[-1].get("diverged"):
        raise optim.NumericalError("distillation diverged")
    return out


def eval_datasets_from_file(eval_path) -> dict[str, np.ndarray]:
    """The eval records as "all" plus one subset per distortion kind present."""
    items = synthdata.read_eval_dataset(eval_path)
    datasets = {"all": items}
    for k, kind in enumerate(synthdata.KINDS):
        subset = items[items["kind"] == k]
        if len(subset):
            datasets[kind] = subset
    return datasets


def evaluate(cfg: PipelineConfig, eval_path, ckpt_paths: list, outdir) -> str:
    outdir = _ensure_outdir(outdir)
    datasets = eval_datasets_from_file(eval_path)
    reports = []
    for path in ckpt_paths:
        spec, params, _ = ckpt.load_checkpoint(path)
        reports.append(stats.evaluate_model(spec, params, datasets, name=Path(path).stem))
    lines = []
    for report in reports:
        lines.append(f"model {report.name}: params={report.params_total} "
                     f"nonzero={report.params_nonzero} flops={report.flops}")
        for ds_name, d in report.datasets.items():
            lines.append(f"  {ds_name}: srocc={d.srocc:.4f}")
    comparison = None
    if len(reports) >= 2:
        comparison = stats.compare_models(reports[0], reports[-1])
        lines.append(stats.format_comparison(comparison))
        with (outdir / "comparison.csv").open("w", newline="") as fh:
            rows = stats.comparison_csv_rows(comparison)
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    with (outdir / "eval.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["model", "dataset", "srocc", "params", "nonzero", "flops"]
        )
        writer.writeheader()
        for report in reports:
            for ds_name, d in report.datasets.items():
                writer.writerow({
                    "model": report.name, "dataset": ds_name, "srocc": f"{d.srocc:.6f}",
                    "params": report.params_total, "nonzero": report.params_nonzero,
                    "flops": report.flops,
                })
    text = "\n".join(lines)
    (outdir / "report.txt").write_text(text + "\n")
    return text
