"""Pipeline stages behind the CLI: reproducible configs and on-disk artifacts.

Every stage is a pure function of (config, input files) to output files;
checkpoints are immutable and each stage writes new files. A stage's files
appear together when it completes (see :class:`_stage`).
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import distill as kd
from . import optim, pruning, stats, synthdata
from .nets import ConfigError, build_spec, build_teacher, count_flops, count_params


@dataclass(frozen=True)
class PipelineConfig:
    """The settings of every stage, from data generation to distillation and eval."""

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

    def __post_init__(self):
        # above the ladder's top the uniform quantizer would have one bin and write NaN patches
        if not 2 <= self.levels <= synthdata.MAX_LEVEL:
            raise ConfigError(
                f"levels must be from 2 to {synthdata.MAX_LEVEL}, got {self.levels}"
            )
        for key in ("train_sources", "val_sources", "eval_sources", "pairs_per_source",
                    "batch_size", "epochs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        for key in ("seed", "val_pairs_per_source"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be non-negative, got {getattr(self, key)}")
        if self.cross_content not in (0, 1):
            raise ConfigError(f"cross_content must be 0 or 1, got {self.cross_content}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        for key in ("beta1", "beta2"):
            if not 0 <= getattr(self, key) < 1:
                raise ConfigError(f"{key} must be in [0, 1), got {getattr(self, key)}")
        for key in ("lam", "alpha"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be non-negative and finite, got {value}")
        # padding kernel // 2 keeps the map's size only for an odd kernel
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be a positive odd number, got {self.kernel}")


def _parse_value(key: str, raw, kind, where: str):
    """``raw`` as a value of ``kind`` (a tuple is of ints); a value that is not a
    string is taken as it is."""
    if not isinstance(raw, str):
        return raw
    try:
        if kind is tuple:
            return tuple(int(v) for v in raw.split(",") if v != "")
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}bad value {raw!r} for {key!r}") from None


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Plaintext key=value config; CLI overrides win; unknown keys rejected."""
    kinds = {f.name: type(getattr(PipelineConfig(), f.name)) for f in fields(PipelineConfig)}
    entries = []  # (key, raw value, where it came from), later entries win
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, raw = line.partition("=")
            key = key.strip()
            if not sep or key not in kinds:
                raise ConfigError(f"{path}:{lineno}: unknown or malformed key {key!r}")
            entries.append((key, raw.strip(), f"{path}:{lineno}: "))
    for key, raw in (overrides or {}).items():
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r}")
        entries.append((key, raw, ""))
    return PipelineConfig(**{key: _parse_value(key, raw, kinds[key], where)
                             for key, raw, where in entries})


def format_config(cfg: PipelineConfig) -> str:
    """``cfg`` as the ``key=value`` lines that :func:`load_config` reads back."""
    values = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    return "".join(f"{key}={','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                   for key, v in values.items())


def format_csv(fieldnames: list[str], rows: list[dict]) -> str:
    """``rows`` as CSV under a header of ``fieldnames``, with ``\\r\\n`` line ends."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


class _stage:
    """``with _stage(cfg, outdir) as out:`` creates ``outdir`` and hands out the
    stage's files, each under a temporary name in it. A clean exit adds
    ``effective_config.txt`` and renames every temporary to its final name; an
    exception deletes them, so no file under a final name changes."""

    def __init__(self, cfg: PipelineConfig, outdir):
        self.cfg, self.dir = cfg, Path(outdir)
        self.files: dict[str, Path | None] = {}  # final name -> its temporary; None removes it

    def __enter__(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        return self

    def path(self, name: str) -> Path:
        """A temporary path that becomes ``name`` when the stage completes."""
        return self.files.setdefault(name, self.dir / f".{name}.{os.getpid()}.tmp")

    def text(self, name: str, text: str):
        self.path(name).write_bytes(text.encode())

    def remove(self, name: str):
        """Remove ``name``, a file of an earlier run, when the stage completes."""
        self.files[name] = None

    def __exit__(self, exc_type, *_):
        try:
            if exc_type is None:
                self.text("effective_config.txt", format_config(self.cfg))
                for name, tmp in self.files.items():
                    if tmp is None:
                        (self.dir / name).unlink(missing_ok=True)
                    else:
                        os.replace(tmp, self.dir / name)
        finally:  # after the renames only the temporaries of a failed stage are left
            for tmp in filter(None, self.files.values()):
                tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# stages


def gen_data(cfg: PipelineConfig, outdir) -> dict[str, Path]:
    build_spec(cfg)  # data the configured network cannot take is refused before it is made
    if cfg.patch < synthdata.MIN_SOURCE_EXTENT:
        raise ConfigError(f"patch must be at least {synthdata.MIN_SOURCE_EXTENT} "
                          f"to generate sources, got {cfg.patch}")
    geometry = (cfg.channels, cfg.patch, cfg.patch)
    train_sources = synthdata.generate_sources(cfg.train_sources, geometry, seed=cfg.seed)
    val_sources = synthdata.generate_sources(cfg.val_sources, geometry, seed=cfg.seed + 1)
    eval_sources = synthdata.generate_sources(cfg.eval_sources, geometry, seed=cfg.seed + 2)
    train = synthdata.make_pair_dataset(train_sources, cfg.levels, cfg.pairs_per_source,
                                        seed=cfg.seed, cross_content=cfg.cross_content == 1)
    val = synthdata.make_pair_dataset(val_sources, cfg.levels, cfg.val_pairs_per_source,
                                      seed=cfg.seed + 1, cross_content=cfg.cross_content == 1)
    eval_items = synthdata.make_eval_dataset(eval_sources, cfg.levels, seed=cfg.seed + 2)
    with _stage(cfg, outdir) as out:
        synthdata.write_dataset(out.path("train.rpds"), train)
        synthdata.write_dataset(out.path("val.rpds"), val)
        synthdata.write_eval_dataset(out.path("eval.rpev"), eval_items)
    return {"train": out.dir / "train.rpds", "val": out.dir / "val.rpds",
            "eval": out.dir / "eval.rpev"}


def _check_geometry(records: np.ndarray, spec, what) -> None:
    """ConfigError unless the records' (C, H, W) patches are the network's input geometry."""
    mismatch = spec.patch_mismatch(records.dtype[0].shape[-3:])  # a record's leading patch field
    if mismatch:
        raise ConfigError(f"{what}: {mismatch}")


def _load_pair_data(datadir, *specs):
    """The train and val pairs, checked against the geometry of each spec."""
    datadir = Path(datadir)
    train = synthdata.read_dataset(datadir / "train.rpds")
    if len(train) == 0:
        raise synthdata.DataFormatError(f"{datadir / 'train.rpds'}: no training pairs")
    val = synthdata.read_dataset(datadir / "val.rpds")
    for spec in specs:
        _check_geometry(train, spec, datadir / "train.rpds")
        _check_geometry(val, spec, datadir / "val.rpds")
    return train, val


def train_teacher(cfg: PipelineConfig, datadir, outdir) -> Path:
    with _stage(cfg, outdir) as out:
        spec, params = build_teacher(cfg)
        train, val = _load_pair_data(datadir, spec)
        log = optim.train_ranking(spec, params, train, cfg, val_set=val)
        out.text("teacher_log.csv", format_csv(optim.RANKING_FIELDS, log))
        last_epoch = max((row["epoch"] for row in log if not row["diverged"]), default=-1)
        ckpt.save_checkpoint(out.path("teacher.ckpt"), spec, params,
                             meta={"phase": "teacher", "epoch": last_epoch})
    if log[-1]["diverged"]:
        raise optim.NumericalError("teacher training diverged")
    return out.dir / "teacher.ckpt"


def sparsify(cfg: PipelineConfig, datadir, teacher_ckpt, outdir) -> Path:
    with _stage(cfg, outdir) as out:
        spec, params, _meta = ckpt.load_checkpoint(teacher_ckpt)
        if spec.layers != build_spec(cfg).layers:
            raise ConfigError(
                "checkpoint shape does not match the configured teacher "
                "(refusing a student-shaped or foreign checkpoint)"
            )
        train, val = _load_pair_data(datadir, spec)
        log = optim.train_ranking(spec, params, train, cfg, val_set=val, sparsify=True)
        out.text("sparse_log.csv", format_csv(optim.RANKING_FIELDS, log))
        report = pruning.compute_density(spec, params)
        out.text("density.txt", pruning.format_density_report(report) + "\n")
        ckpt.save_checkpoint(out.path("sparse.ckpt"), spec, params,
                             meta={"phase": "sparse", "lambda": cfg.lam})
    if log[-1]["diverged"]:
        raise optim.NumericalError("sparsity training diverged")
    return out.dir / "sparse.ckpt"


def prune(cfg: PipelineConfig, sparse_ckpt, outdir) -> Path:
    with _stage(cfg, outdir) as out:
        spec, params, _meta = ckpt.load_checkpoint(sparse_ckpt)
        report = pruning.compute_density(spec, params)
        plan = pruning.build_pruning_plan(spec, report, params)
        student_spec, student_params = pruning.prune_network(spec, params, plan)
        violations = pruning.validate_structure(student_spec, student_params)
        if violations:
            raise pruning.StructureError("; ".join(violations))
        out.text("density.txt", pruning.format_density_report(report) + "\n")
        out.text("plan.txt", pruning.format_plan(plan) + "\n")
        ckpt.save_checkpoint(out.path("student.ckpt"), student_spec, student_params,
                             meta={"phase": "pruned"})
        counts = {"params": (count_params(student_params), count_params(params)),
                  "flops": (count_flops(student_spec), count_flops(spec))}
        out.text("ratio.txt", "".join(
            f"{k}_student={s}\n{k}_teacher={t}\n{k}_ratio={s / t:.6f}\n"
            for k, (s, t) in counts.items()))
    return out.dir / "student.ckpt"


def distill(cfg: PipelineConfig, datadir, teacher_ckpt, student_ckpt, outdir,
            freeze_check: bool = False) -> Path:
    with _stage(cfg, outdir) as out:
        t_spec, t_params, _ = ckpt.load_checkpoint(teacher_ckpt)
        s_spec, s_params, _ = ckpt.load_checkpoint(student_ckpt)
        train, val = _load_pair_data(datadir, t_spec, s_spec)
        for p in t_params.values():
            p.requires_grad = False
        hash_before = ckpt.checkpoint_hash(teacher_ckpt)
        log = kd.distill_train(t_spec, t_params, s_spec, s_params, train, cfg, val_set=val)
        if freeze_check and ckpt.checkpoint_hash(teacher_ckpt) != hash_before:
            raise pruning.StructureError("teacher checkpoint changed during distillation")
        out.text("distill_log.csv", format_csv(kd.DISTILL_FIELDS, log))
        ckpt.save_checkpoint(out.path("distilled.ckpt"), s_spec, s_params,
                             meta={"phase": "distilled"})
    if log[-1]["diverged"]:
        raise optim.NumericalError("distillation diverged")
    return out.dir / "distilled.ckpt"


def eval_datasets_from_file(eval_path) -> dict[str, np.ndarray]:
    """The eval records as "all" plus one subset per distortion kind present."""
    items = synthdata.read_eval_dataset(eval_path)
    return {name: items[rows] for name, rows in synthdata.eval_subsets(items).items()}


EVAL_FIELDS = ["model", "dataset", "srocc", "params", "nonzero", "flops"]


def evaluate(cfg: PipelineConfig, eval_path, ckpt_paths: list, outdir) -> str:
    with _stage(cfg, outdir) as out:
        items = synthdata.read_eval_dataset(eval_path)

        def models():
            for path in ckpt_paths:
                spec, params, _ = ckpt.load_checkpoint(path)
                _check_geometry(items, spec, eval_path)
                yield Path(path).stem, spec, params

        reports = stats.evaluate_models(models(), items)
        lines, rows = [], []
        for report in reports:
            lines.append(f"model {report.name}: params={report.params_total} "
                         f"nonzero={report.params_nonzero} flops={report.flops}")
            for ds_name, d in report.datasets.items():
                lines.append(f"  {ds_name}: srocc={d.srocc:.4f}")
                rows.append({"model": report.name, "dataset": ds_name,
                             "srocc": f"{d.srocc:.6f}", "params": report.params_total,
                             "nonzero": report.params_nonzero, "flops": report.flops})
        if len(reports) >= 2:
            comparison = stats.compare_models(reports[0], reports[-1])
            lines.append(stats.format_comparison(comparison))
            out.text("comparison.csv", format_csv(stats.COMPARISON_FIELDS,
                                                  stats.comparison_csv_rows(comparison)))
        else:
            out.remove("comparison.csv")  # it would describe an earlier run's models
        out.text("eval.csv", format_csv(EVAL_FIELDS, rows))
        text = "\n".join(lines)
        out.text("report.txt", text + "\n")
    return text
