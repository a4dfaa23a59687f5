"""Benchmark of the rankpress pipeline: three workloads, one process per run.

    python3 perfbench/run.py --workload compress --seed 1 --seconds 25 --trace 0

Run from the repository root (the program is imported from ``src/``). The
last line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` operations (an operation is a pipeline stage or one scoring
pass), and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the program is single-threaded Python, and on a 2-core host
# with steal time multithreaded OpenBLAS made an occasional run 5x slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = ("compress", "score", "small-net")


def import_program():
    """Import the program (and numpy/scipy with it) from the checkout's ``src/``."""
    sys.path.insert(0, str(ROOT / "src"))
    from rankpress import autodiff, checkpoint, distill, nets, optim, pipeline, pruning, stats, synthdata
    return {
        "autodiff": autodiff, "checkpoint": checkpoint, "distill": distill, "nets": nets,
        "optim": optim, "pipeline": pipeline, "pruning": pruning, "stats": stats,
        "synthdata": synthdata,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        mods = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0  # part of set-up: every user of the program pays it
    sys.path.insert(0, str(HERE))
    from workloads import Run, measure, unit

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(mods, args.workload, args.seed, work)
        result = measure(args, run, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        print("perfbench: no round finished", file=sys.stderr)
        return 1
    correct, metrics = result
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
