"""The names the benchmark under perfbench/ looks up in rankpress still exist.

perfbench/tracing.py wraps the functions in its SITES list by name, and
perfbench/workloads.py calls the pipeline stages directly and sets config keys by
name, so deleting or renaming one of them breaks the benchmark; these tests make
the suite say so first.
"""

import ast
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


def _workloads_literal(name: str):
    """A literal assigned at the top of perfbench/workloads.py, read without importing it
    (it imports perfbench's own modules)."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in perfbench/workloads.py")


def test_workload_config_keys_are_fields():
    load_config = _resolve("pipeline").load_config
    pair_data = _workloads_literal("PAIR_DATA")
    for w in _workloads_literal("WORKLOADS").values():
        # as perfbench/workloads.py's Run.__init__ builds its two configs
        load_config(overrides={**w["config"], "seed": 1})
        load_config(overrides={**w["config"], **pair_data, "lam": w["pair_lam"]})


def test_pipeline_names_used_by_workloads_resolve():
    assert all(callable(getattr(_resolve("pipeline"), name, None)) for name in PIPELINE_NAMES)
