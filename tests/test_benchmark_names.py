"""The names the benchmark under perfbench/ looks up in rankpress still exist.

perfbench/tracing.py wraps the functions in its SITES list by name, and
perfbench/workloads.py calls the pipeline stages directly, so deleting or renaming
one of them breaks the benchmark; this test makes the suite say so first.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# what perfbench/workloads.py calls on rankpress.pipeline
PIPELINE_NAMES = ("load_config", "eval_datasets_from_file", "gen_data", "train_teacher",
                  "sparsify", "prune", "distill", "evaluate")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(path: str):
    module, _, rest = path.partition(".")
    obj = importlib.import_module(f"rankpress.{module}")
    for attr in rest.split(".") if rest else ():
        obj = getattr(obj, attr)
    return obj


def test_traced_sites_resolve():
    sites = _tracing().SITES
    assert sites
    missing = [f"{owner}.{attr}" for owner, attr, *_ in sites
               if not callable(getattr(_resolve(owner), attr, None))]
    assert missing == []


def test_pipeline_names_used_by_workloads_resolve():
    assert all(callable(getattr(_resolve("pipeline"), name, None)) for name in PIPELINE_NAMES)
