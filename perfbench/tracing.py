"""Spans around calls into the program's modules, installed from outside.

Entering a ``Tracer`` replaces the public functions listed in ``SITES`` with
wrappers that record a span (name, start, end, parent span) and the counts
named beside them. A function imported with ``from ... import`` is bound in
the importing module too, so every module where it is looked up is listed.
Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

# (module, attribute, span name, counters). A counter is (metric name, kind):
# "calls"; "rows", the rows of a score_batch; "pairs2", two forward rows per
# pair of a batch; "items", eval items; "mb", the size of the file named by
# the first argument, after the call.
SITES = [
    ("pipeline", "gen_data", "pipeline.gen_data", ()),
    ("pipeline", "train_teacher", "pipeline.train_teacher", ()),
    ("pipeline", "sparsify", "pipeline.sparsify", ()),
    ("pipeline", "prune", "pipeline.prune", ()),
    ("pipeline", "distill", "pipeline.distill", ()),
    ("pipeline", "evaluate", "pipeline.evaluate", ()),
    ("synthdata", "generate_sources", "synthdata.generate", ()),
    ("synthdata", "make_pair_dataset", "synthdata.generate", ()),
    ("synthdata", "make_eval_dataset", "synthdata.generate", ()),
    ("synthdata", "write_dataset", "synthdata.write", (("synthdata.write_mb", "mb"),)),
    ("synthdata", "write_eval_dataset", "synthdata.write", (("synthdata.write_mb", "mb"),)),
    ("synthdata", "read_dataset", "synthdata.read",
     (("synthdata.read_calls", "calls"), ("synthdata.read_mb", "mb"))),
    ("synthdata", "read_eval_dataset", "synthdata.read",
     (("synthdata.read_calls", "calls"), ("synthdata.read_mb", "mb"))),
    ("autodiff", "conv2d", "autodiff.conv2d", (("autodiff.conv2d_calls", "calls"),)),
    ("autodiff", "dense", "autodiff.dense", ()),
    ("autodiff", "backward", "autodiff.backward", (("autodiff.backward_calls", "calls"),)),
    ("optim", "backward", "autodiff.backward", (("autodiff.backward_calls", "calls"),)),
    ("distill", "backward", "autodiff.backward", (("autodiff.backward_calls", "calls"),)),
    ("nets", "score_batch", "nets.forward",
     (("nets.forward_calls", "calls"), ("nets.forward_rows", "rows"))),
    ("optim", "score_batch", "nets.forward",
     (("nets.forward_calls", "calls"), ("nets.forward_rows", "rows"))),
    ("stats", "score_batch", "nets.forward",
     (("nets.forward_calls", "calls"), ("nets.forward_rows", "rows"))),
    ("optim", "predict_batch", "optim.predict", (("optim.predict_calls", "calls"),)),
    ("distill", "predict_batch", "optim.predict", (("optim.predict_calls", "calls"),)),
    ("optim.AdaMax", "step", "optim.step", (("optim.step_calls", "calls"),)),
    ("optim", "prox_l1_step", "optim.sparse_step", ()),
    ("optim", "capture_signs", "optim.sparse_step", ()),
    ("optim", "orthant_step", "optim.sparse_step", ()),
    ("optim", "pair_accuracy", "optim.val", ()),
    ("distill", "pair_accuracy", "optim.val", ()),
    ("distill", "teacher_probabilities", "distill.teacher",
     (("distill.teacher_calls", "calls"), ("distill.teacher_rows", "pairs2"))),
    ("distill", "instance_loss", "distill.loss", ()),
    ("distill", "batch_loss", "distill.loss", ()),
    ("distill", "class_loss", "distill.loss", ()),
    ("distill", "ranking_bce_loss", "distill.loss", ()),
    ("pruning", "compute_density", "pruning.plan", ()),
    ("pruning", "build_pruning_plan", "pruning.plan", ()),
    ("pruning", "prune_network", "pruning.plan", ()),
    ("pruning", "validate_structure", "pruning.plan", ()),
    ("checkpoint", "save_checkpoint", "checkpoint.save",
     (("checkpoint.save_calls", "calls"), ("checkpoint.mb", "mb"))),
    ("checkpoint", "load_checkpoint", "checkpoint.load", ()),
    ("stats", "predict_scores", "stats.predict", (("stats.predict_items", "items"),)),
    ("stats", "logistic_fit", "stats.fit", ()),
    ("stats", "srocc", "stats.srocc", ()),
    ("stats", "f_test", "stats.ftest", ()),
]

SPAN_NAMES = sorted({name for _, _, name, _ in SITES})
COUNTERS = sorted({metric for *_, counts in SITES for metric, _ in counts} | {"autodiff.tensors"})


def _resolve(modules: dict, path: str):
    head, _, attr = path.partition(".")
    obj = modules[head]
    return getattr(obj, attr) if attr else obj


class Tracer:
    """Records spans while installed: ``with tracer:`` installs, leaving uninstalls."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported rankpress module
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name: str, counts: tuple):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                for metric, kind in counts:
                    tracer.counts[metric] += tracer._count(kind, args)

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _count(kind: str, args) -> float:
        if kind == "calls":
            return 1
        if kind == "rows":
            ref = args[2]
            return ref.shape[0] if ref.ndim == 4 else 1
        if kind == "pairs2":
            return 2 * len(args[2])
        if kind == "items":
            return len(args[2])
        return os.path.getsize(args[0]) / 1e6  # "mb"

    def __enter__(self):
        for owner_path, attr, name, counts in SITES:
            owner = _resolve(self.modules, owner_path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counts))
        tensor = self.modules["autodiff"].Tensor
        init = tensor.__init__
        self._saved.append((tensor, "__init__", init))
        tracer = self

        def counting_init(self, *args, **kwargs):
            tracer.counts["autodiff.tensors"] += 1
            init(self, *args, **kwargs)

        tensor.__init__ = counting_init
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def totals(self) -> dict[str, float]:
        """Inclusive and self seconds per span name, plus the counters.

        A span nested in a span of the same name is left out of the inclusive
        sum, so recursion is not counted twice. Self time is a span's
        duration minus that of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {f"{n}_s": 0.0 for n in SPAN_NAMES}
        out.update({f"{n}_self_s": 0.0 for n in SPAN_NAMES})
        out.update({c: 0.0 for c in COUNTERS})
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}_self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}_s"] += end - start
        out.update(self.counts)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
