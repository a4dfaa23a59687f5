"""Time the pipeline stages of this checkout against an earlier commit, in one process.

    python3 bench/ab.py --base REV --label L [--config compress|small-net|acceptance] [--rounds N]

Run from a checkout. ``git archive REV src/rankpress`` writes the base
package to a temporary directory, and it is imported beside the checkout's
``rankpress`` as ``rankpress_base``: each copy resolves its relative imports
inside itself. Each round runs the whole pipeline (gen-data, train-teacher,
sparsify, prune, distill, eval) once with each tree, the base first in odd
rounds and the change first in even ones, so that both see the same machine
state. Timings taken in different processes on a shared host move by more than
most changes do; alternating in one process cancels that drift.

``AB_<label>.json`` holds, per stage and for the ``total``: the median seconds
of the base and of the change (``base_s``, ``change_s``) and the median and
quartiles of the per-round ratio change/base (``ratio``, ``ratio_p25``,
``ratio_p75``). It also records the configuration, the rounds, the base
revision and its commit, the OpenBLAS core and the BLAS threads, and whether
every file the two trees wrote was byte-identical in every round
(``identical``; ``differing`` names the files that were not).

The configurations are the pipeline settings of perfbench's ``compress`` and
``small-net`` workloads, at seed 0, and ``PipelineConfig()`` (``acceptance``). Like
``perfbench``, the harness runs one BLAS thread unless ``OPENBLAS_NUM_THREADS``
says otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib.util
import io
import json
import shutil
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from rankpress import nets, pipeline  # noqa: E402
from record import time_stages  # noqa: E402

CONFIGS = {
    "compress": {"lam": "1.0", "epochs": "2"},
    "small-net": {"conv_widths": "4,8", "dense_widths": "8", "patch": "48", "cross_content": "1",
                  "pairs_per_source": "16", "lam": "1.0", "epochs": "2"},
    "acceptance": {},
}


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def import_base(rev: str, into: Path):
    """The package ``src/rankpress`` of commit ``rev``, written under ``into`` and
    imported as ``rankpress_base``."""
    with zipfile.ZipFile(io.BytesIO(_git("archive", "--format=zip", rev, "src/rankpress"))) as z:
        z.extractall(into)
    package = into / "src" / "rankpress"
    spec = importlib.util.spec_from_file_location(
        "rankpress_base", package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["rankpress_base"] = module
    spec.loader.exec_module(module)
    return importlib.import_module("rankpress_base.pipeline")


def _files(work: Path) -> dict[str, bytes]:
    return {str(f.relative_to(work)): f.read_bytes() for f in sorted(work.rglob("*"))
            if f.is_file()}


def ab(base: str, label: str, config: str = "compress", rounds: int = 10, outdir: Path = ROOT,
       overrides: dict | None = None) -> Path:
    """Write ``AB_<label>.json`` into ``outdir``: ``rounds`` alternating rounds of the
    pipeline at ``config``, the base tree at ``base`` against this checkout.
    ``overrides`` are ``--set`` pairs of the CLI on top of the configuration."""
    settings = {**CONFIGS[config], **(overrides or {})}
    seconds = {"base": [], "change": []}
    differing: set[str] = set()
    with tempfile.TemporaryDirectory(prefix="rankpress-ab-") as tmp:
        trees = {"base": import_base(base, Path(tmp) / "tree"), "change": pipeline}
        cfgs = {name: p.load_config(overrides=settings) for name, p in trees.items()}
        for k in range(rounds):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            written = {}
            for name in order:
                work = Path(tmp) / f"round{k}" / name
                seconds[name].append(time_stages(cfgs[name], work, trees[name])["seconds"])
                written[name] = _files(work)
            shutil.rmtree(Path(tmp) / f"round{k}")
            differing |= {f for f in written["base"].keys() | written["change"].keys()
                          if written["base"].get(f) != written["change"].get(f)}
    stages = {}
    for stage in seconds["base"][0]:
        b = np.array([s[stage] for s in seconds["base"]])
        c = np.array([s[stage] for s in seconds["change"]])
        p25, median, p75 = np.percentile(c / b, (25, 50, 75))
        stages[stage] = {"base_s": float(np.median(b)), "change_s": float(np.median(c)),
                         "ratio": median, "ratio_p25": p25, "ratio_p75": p75}
    result = {
        "label": label,
        "base": base,
        "base_sha": _git("rev-parse", base).decode().strip(),
        "config": config,
        "overrides": settings,
        "rounds": rounds,
        "openblas_core": nets.openblas_core(),
        "blas_threads": nets.blas_threads(),
        "identical": not differing,
        "differing": sorted(differing),
        "stages": stages,
    }
    out = outdir / f"AB_{label}.json"
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
    print(ab(args.base, args.label, args.config, args.rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
