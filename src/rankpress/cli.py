"""Command-line entry point for the compression pipeline.

Subcommands cover the full workflow: gen-data, train-teacher, sparsify,
prune, distill, eval. Flags override config-file keys; the effective config
is echoed into every output directory.

Exit codes: 0 success; 1 usage or config error, a bad config value included;
2 data error, an eval set too small to score included; 3 numerical failure.
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

def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )


def _overrides(args) -> dict:
    overrides = {}
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key] = value
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankpress", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate train/val/eval containers")
    _add_common(p)

    p = sub.add_parser("train-teacher", help="phase 0: train the dense teacher")
    _add_common(p)
    p.add_argument("--data", required=True)

    p = sub.add_parser("sparsify", help="phase 1: L1 sparsity training")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--teacher", required=True)

    p = sub.add_parser("prune", help="phase 1b: density-driven channel pruning")
    _add_common(p)
    p.add_argument("--sparse", required=True)

    p = sub.add_parser("distill", help="phase 2: multi-level distillation")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--student", required=True)
    p.add_argument("--freeze-check", action="store_true")

    p = sub.add_parser("eval", help="SROCC / F-test evaluation report")
    _add_common(p)
    p.add_argument("--eval-data", required=True)
    p.add_argument("--ckpt", action="append", required=True,
                   help="checkpoint to evaluate (repeatable; first vs last compared)")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = pipeline.load_config(args.config, _overrides(args))
        if args.command == "gen-data":
            pipeline.gen_data(cfg, args.out)
        elif args.command == "train-teacher":
            pipeline.train_teacher(cfg, args.data, args.out)
        elif args.command == "sparsify":
            pipeline.sparsify(cfg, args.data, args.teacher, args.out)
        elif args.command == "prune":
            pipeline.prune(cfg, args.sparse, args.out)
        elif args.command == "distill":
            pipeline.distill(cfg, args.data, args.teacher, args.student, args.out,
                             freeze_check=args.freeze_check)
        elif args.command == "eval":
            print(pipeline.evaluate(cfg, args.eval_data, args.ckpt, args.out))
    except (ConfigError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, CheckpointError, StatsError, FileNotFoundError) as exc:
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
