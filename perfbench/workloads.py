"""The three workloads: set-up, timed rounds of operations, and checks.

An operation is one pipeline stage or one forward-only scoring pass; a round
runs the same operations every time, so every run attempts whole rounds.
"""

from __future__ import annotations

import inspect
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import reference as ref
from tracing import Tracer

HERE = Path(__file__).resolve().parent

MIN_ROUNDS = 2  # round 1 is compared byte for byte with every later round
SETUP_REPEATS = 3

# The scoring pair: a teacher and its compressed student, trained in set-up by
# the pipeline's own stages on a small pair set with a fixed seed. The forward-
# only passes score with it, so their cost is the same for every --seed: the
# student a 2-epoch pipeline run prunes to varies about 2x in size across seeds.
PAIR_DATA = {"seed": 0, "train_sources": 8, "pairs_per_source": 8, "val_sources": 2,
             "val_pairs_per_source": 8, "eval_sources": 1}

# "config" overrides the pipeline defaults for the --seed run; "pair_lam" is the
# L1 weight that gives the scoring pair's student; "evaluations" repeats the
# eval stage per round and "passes" is (teacher, student) forward-only passes
# per round, so that each rate has about a second of samples per round.
WORKLOADS = {
    "compress": {
        "config": {"lam": 1.0, "epochs": 2},
        "pair_lam": 2.5,
        "evaluations": 2,
        "passes": (4, 16),
    },
    "score": {
        "config": {"eval_sources": 64, "train_sources": 1, "pairs_per_source": 1,
                   "val_sources": 1, "val_pairs_per_source": 1, "epochs": 2},
        "pair_lam": 2.5,
        "evaluations": 1,
        "passes": (1, 4),
    },
    "small-net": {
        "config": {"conv_widths": (4, 8), "dense_widths": (8,), "patch": 48,
                   "cross_content": 1, "pairs_per_source": 16, "lam": 1.0, "epochs": 2},
        "pair_lam": 4.0,
        "evaluations": 3,
        "passes": (12, 24),
    },
}


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


class OpFailed(Exception):
    """An operation raised; the rest of its round cannot run."""


class Run:
    """One run of one workload: set-up, timed rounds, checks."""

    def __init__(self, mods: dict, workload: str, seed: int, work: Path):
        self.m = mods
        self.name = workload
        self.w = WORKLOADS[workload]
        load = mods["pipeline"].load_config
        self.cfg = load(overrides={**self.w["config"], "seed": seed})
        self.pair_cfg = load(overrides={**self.w["config"], **PAIR_DATA, "lam": self.w["pair_lam"]})
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = {}  # op kind -> durations
        self.rates: dict[str, list[float]] = {}  # metric -> per-op rates
        self.hashes: list[tuple[str, str]] = []  # teacher sha256 before/after each distill
        self.pass_scores: list[dict] = []  # per round: model -> first pass scores

    def op(self, kind: str, fn, *args, items: int = 0, rate: str | None = None, **kwargs):
        """Time one operation; count it attempted, and failed if it raises."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(kind) from exc
        dt = time.perf_counter() - t0
        self.times.setdefault(kind, []).append(dt)
        if rate:
            self.rates.setdefault(rate, []).append(items / dt)
        return result

    @staticmethod
    def call(kind: str, fn, *args, **kwargs):
        """An untimed operation (set-up)."""
        return fn(*args, **kwargs)

    def stages(self, cfg, out: Path, run) -> tuple[Path, Path]:
        """gen-data -> train-teacher -> sparsify -> prune -> distill into ``out``."""
        p = self.m["pipeline"]
        data = out / "data"
        run("gen_data", p.gen_data, cfg, data)
        teacher = run("train", p.train_teacher, cfg, data, out / "teacher")
        run("train", p.sparsify, cfg, data, teacher, out / "sparse")
        student = run("prune", p.prune, cfg, out / "sparse" / "sparse.ckpt", out / "pruned")
        before = ref.sha256(teacher)
        distilled = run("distill", p.distill, cfg, data, teacher, student, out / "distill",
                        freeze_check=True)
        self.hashes.append((before, ref.sha256(teacher)))
        return teacher, distilled

    def load(self, path):
        """The benchmark's own loads use the unwrapped functions, so no trace counts them."""
        load = inspect.unwrap(self.m["checkpoint"].load_checkpoint)
        return load(path)[:2]

    # -- set-up and rounds ------------------------------------------------------

    def setup(self) -> float:
        """Median time over SETUP_REPEATS identical set-ups.

        A set-up trains the scoring pair; for ``score`` it also generates the
        --seed eval container that every round scores.
        """
        durations = []
        for rep in range(SETUP_REPEATS):
            out = self.work / f"setup{rep}"
            t0 = time.perf_counter()
            if self.name == "score":
                self.m["pipeline"].gen_data(self.cfg, out / "data")
            pair = self.stages(self.pair_cfg, out / "pair", self.call)
            durations.append(time.perf_counter() - t0)
            if rep == 0:
                self.pair = {"teacher": pair[0], "student": pair[1]}
        self.pair_models = {k: self.load(path) for k, path in self.pair.items()}
        return statistics.median(durations)

    def round(self, k: int) -> float:
        """One round: the --seed stages, the eval stage, the scoring passes."""
        out = self.work / f"round{k}"
        t0 = sum(map(sum, self.times.values()))
        if self.name == "score":
            data = self.work / "setup0" / "data"
            evaluated = [self.pair["student"], self.pair["teacher"]]
        else:
            data = out / "data"
            teacher, distilled = self.stages(self.cfg, out, self.op)
            evaluated = [distilled, teacher]
        items = inspect.unwrap(self.m["synthdata"].read_eval_dataset)(data / "eval.rpev")
        for _ in range(self.w["evaluations"]):
            self.op("evaluate", self.m["pipeline"].evaluate, self.cfg, data / "eval.rpev",
                    evaluated, out / "eval", items=2 * len(items), rate="eval_items_per_s")
        first = {}
        for model, n in zip(("teacher", "student"), self.w["passes"]):
            spec, params = self.pair_models[model]
            for _ in range(n):
                s = self.op(f"{model}_pass", self.m["stats"].predict_scores, spec, params, items,
                            items=len(items), rate=f"{model}_items_per_s")
                if model in first and not np.array_equal(s, first[model]):
                    raise checks.CheckError(f"{model} scores differ between passes")
                first.setdefault(model, s)
        self.pass_scores.append(first)
        return sum(map(sum, self.times.values())) - t0

    # -- checks -----------------------------------------------------------------

    def check(self, rounds: int):
        cfg, pcfg, m = self.cfg, self.pair_cfg, self.m
        # the --seed data: made in set-up 0 for score, in round 1 otherwise
        seeded = self.work / ("setup0" if self.name == "score" else "round1")
        pair = self.work / "setup0" / "pair"
        # inputs: labels and counts
        for c, data in ((cfg, seeded / "data"), (pcfg, pair / "data")):
            checks.pairs(data / "train.rpds", c.train_sources * c.pairs_per_source, c.levels,
                         bool(c.cross_content))
            checks.pairs(data / "val.rpds", c.val_sources * c.val_pairs_per_source, c.levels,
                         bool(c.cross_content))
        items = ref.read_eval(seeded / "data" / "eval.rpev")
        checks.eval_items(items, cfg.eval_sources, cfg.levels)
        # training: frozen teacher, no divergence, counts
        for before, after in self.hashes:
            checks.unchanged(before, after, "teacher checkpoint across distill")
        trained = [(pcfg, pair)] + ([] if self.name == "score" else [(cfg, seeded)])
        rows = checks.read_eval_csv(self.work / "round1" / "eval" / "eval.csv")
        for c, d in trained:
            checks.no_divergence(d / "teacher" / "teacher_log.csv", d / "sparse" / "sparse_log.csv",
                                 d / "distill" / "distill_log.csv")
        evaluated_cfg, evaluated = trained[-1]
        checks.counts(pcfg, pair / "pruned")
        checks.counts(evaluated_cfg, evaluated / "pruned", rows, "distilled", "teacher")
        # scores against the float64 reference, SROCC against scipy
        expected = {}
        for model, path in self.pair.items():
            expected[path] = ref.score_items(ref.read_checkpoint(path), items)
            checks.scores(self.pass_scores[0][model], expected[path], f"{model} pass")
        program_sets = m["pipeline"].eval_datasets_from_file(seeded / "data" / "eval.rpev")
        for path in (evaluated / "distill" / "distilled.ckpt", evaluated / "teacher" / "teacher.ckpt"):
            if path not in expected:
                expected[path] = ref.score_items(ref.read_checkpoint(path), items)
            spec, params = self.load(path)
            for ds, idx in checks.eval_subsets(items).items():
                got = m["stats"].predict_scores(spec, params, program_sets[ds])
                checks.scores(got, expected[path][idx], f"{path.stem} on {ds}")
                checks.srocc(rows, path.stem, ds, got, items["mos"][idx])
        # reruns of one seed: byte-identical outputs
        for rep in range(1, SETUP_REPEATS):
            checks.identical(self.work / "setup0", self.work / f"setup{rep}")
        for k in range(2, rounds + 1):
            checks.identical(self.work / "round1", self.work / f"round{k}")
            for model, s in self.pass_scores[k - 1].items():
                if s.tobytes() != self.pass_scores[0][model].tobytes():
                    raise checks.CheckError(f"{model} pass scores differ in round {k}")

    def disk_mb(self) -> float:
        """Bytes one set-up and one round write."""
        return dir_mb(self.work / "setup0") + dir_mb(self.work / "round1")


def measure(args, run: Run, import_s: float):
    """Set up, run rounds until ``--seconds`` are spent, check; (correct, metrics).

    With ``--trace 1`` round 1 runs untraced and later rounds traced, so the
    tracing overhead is the difference of the two within one process.
    """
    tracer = Tracer(run.m)
    t_setup = time.perf_counter()
    setup_s = import_s + run.setup()
    round_s, traced_s = [], []
    correct = True
    start = time.perf_counter()
    try:
        while True:
            k = len(round_s) + 1
            if args.trace and k > 1:
                with tracer:
                    round_s.append(run.round(k))
                traced_s.append(round_s[-1])
            else:
                round_s.append(run.round(k))
            elapsed = time.perf_counter() - start
            if k >= MIN_ROUNDS and elapsed * (k + 1) / k > args.seconds:
                break
        t_check = time.perf_counter()
        run.check(len(round_s))
        print(f"perfbench: set-up {start - t_setup:.1f} s, {len(round_s)} rounds "
              f"{t_check - start:.1f} s, checks {time.perf_counter() - t_check:.1f} s",
              file=sys.stderr)
    except OpFailed:
        correct = False  # the round could not finish; its remaining ops never ran
    except checks.CheckError as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
    if not round_s:
        return None

    if not args.trace:
        return correct, {
            "setup_s": setup_s,
            "total_s": statistics.median(round_s),
            "eval_items_per_s": statistics.median(run.rates["eval_items_per_s"]),
            "teacher_items_per_s": statistics.median(run.rates["teacher_items_per_s"]),
            "student_items_per_s": statistics.median(run.rates["student_items_per_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "disk_mb": run.disk_mb(),
        }
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    tracer.write(results / f"trace-{args.workload}-{args.seed}.json")
    traced = max(len(traced_s), 1)
    metrics = {k: v / traced for k, v in tracer.totals().items()}
    metrics["trace.overhead_s"] = statistics.median(traced_s or [round_s[0]]) - round_s[0]
    # stage rates of round 1, the untraced one
    pairs = run.cfg.train_sources * run.cfg.pairs_per_source * run.cfg.epochs
    train, distill = run.times.get("train", []), run.times.get("distill", [])
    metrics["pipeline.train_pairs_per_s"] = 2 * pairs / sum(train[:2]) if train else 0.0
    metrics["pipeline.distill_pairs_per_s"] = pairs / distill[0] if distill else 0.0
    return correct, metrics


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("mb"):
        return "MB"
    return "count"

