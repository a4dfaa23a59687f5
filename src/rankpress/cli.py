"""Command-line entry point for the compression pipeline.

Subcommands cover the full workflow: gen-data, train-teacher, sparsify,
prune, distill, eval. Flags override config-file keys; the effective config
is echoed into every output directory.

Exit codes: 0 success; 1 usage or config error, a bad config value included;
2 data error, an eval set too small to score or a path of the wrong kind included;
3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .checkpoint import CheckpointError
from .nets import ConfigError
from .optim import NumericalError
from .pruning import StructureError
from .stats import StatsError
from .synthdata import DataFormatError

def _overrides(args) -> dict:
    overrides = {}
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key] = value
    return overrides


# subcommand -> (help, pipeline stage, its input flags in the stage's argument order); the
# stage is called as stage(cfg, *inputs, out), eval's --ckpt list after its inputs
STAGES = {
    "gen-data": ("generate train/val/eval containers", pipeline.gen_data, ()),
    "train-teacher": ("phase 0: train the dense teacher", pipeline.train_teacher, ("data",)),
    "sparsify": ("phase 1: L1 sparsity training", pipeline.sparsify, ("data", "teacher")),
    "prune": ("phase 1b: density-driven channel pruning", pipeline.prune, ("sparse",)),
    "distill": ("phase 2: multi-level distillation", pipeline.distill,
                ("data", "teacher", "student")),
    "eval": ("SROCC / F-test evaluation report", pipeline.evaluate, ("eval-data",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankpress", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, inputs) in STAGES.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        for flag in inputs:
            p.add_argument(f"--{flag}", required=True)
    sub.choices["distill"].add_argument("--freeze-check", action="store_true")
    sub.choices["eval"].add_argument(
        "--ckpt", action="append", required=True,
        help="checkpoint to evaluate (repeatable; first vs last compared)")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, stage, flags = STAGES[args.command]
    inputs = [getattr(args, flag.replace("-", "_")) for flag in flags]
    try:
        cfg = pipeline.load_config(args.config, _overrides(args))
        if args.command == "distill":
            stage(cfg, *inputs, args.out, freeze_check=args.freeze_check)
        elif args.command == "eval":
            print(stage(cfg, *inputs, args.ckpt, args.out))
        else:
            stage(cfg, *inputs, args.out)
    except (ConfigError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, CheckpointError, StatsError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
