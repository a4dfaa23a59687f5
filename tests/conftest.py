"""Fixtures shared by more than one test module."""

import importlib.util
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the pipeline geometry of the bench smoke recording: two rounds take a few seconds
BENCH_TINY = {"patch": "12", "train_sources": "2", "pairs_per_source": "2", "val_sources": "1",
              "val_pairs_per_source": "2", "eval_sources": "1"}


@pytest.fixture(scope="session")
def bench_recording(tmp_path_factory):
    """One 2-round ``bench/record.py`` recording of this checkout against its own HEAD at
    ``compress`` with ``BENCH_TINY``: the directory it went to (``outdir``), the path
    ``record`` returned (``path``) and the overrides it was given (``overrides``)."""
    try:
        subprocess.run(["git", "rev-parse", "--verify", "HEAD:src/rankpress"], cwd=ROOT,
                       capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("the checkout has no git history")
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    outdir = tmp_path_factory.mktemp("bench")
    return SimpleNamespace(outdir=outdir, overrides=BENCH_TINY,
                           path=module.record("HEAD", "smoke", "compress", 2, outdir, BENCH_TINY))
