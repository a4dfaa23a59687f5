"""Run one workload on several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workload compress --seeds 1-10 [--trace 0]

Runs the benchmark command once per seed, one run after another, with the run
length from BENCHMARK.json, and prints a markdown table of each metric's
median, first and third quartiles (``statistics.quantiles(values, n=4)``) and
spread (Q3 - Q1) / median. Raw result lines go to ``perfbench/_results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    out = HERE / "_results"
    out.mkdir(exist_ok=True)
    log = out / f"spread-{args.workload}-trace{args.trace}.jsonl"
    with log.open("a") as fh:
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            fh.write(json.dumps(result) + "\n")
            fh.flush()
            results.append(result)
            print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
    print("| metric | unit | median | q1 | q3 | (q3 - q1) / median |")
    print("|---|---|---:|---:|---:|---:|")
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = f"{(q3 - q1) / med:.3f}" if med else "-"
        unit = results[0]["metrics"][name]["unit"]
        print(f"| `{name}` | {unit} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
