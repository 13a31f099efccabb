"""Measure run-to-run spread: sets of runs of every workload, one process per run.

    python3 crdbench/steadiness.py --out crdbench/STEADINESS.json
    python3 crdbench/steadiness.py --judge crdbench/STEADINESS.json

Each of :data:`SETS` sets runs every workload once per seed, seeds
``1 .. SEEDS``, for ``run_seconds`` of ``BENCHMARK.json``.  For
every end-to-end metric a set records the values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``.  Every metric, ``setup_s`` included, is judged
against its bound from ``BENCHMARK.json``:

* each set's spread must be within the bound;
* each later set's median must not be worse than the first set's median by
  more than the bound (in the metric's ``better`` direction).

A spread above a third of the bound is printed as above target.  The exit
status is non-zero when a spread or a median shift exceeds its bound, or a
run reports ``correct: false``.  ``--judge`` re-applies the verdicts to a
recorded file without running anything.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("crd_wind", "served_mix")

#: runs per workload in a set, one per seed
SEEDS = 10

#: sets of runs whose medians must agree
SETS = 2

#: spreads above this share of the bound are reported as above target
TARGET_SHARE = 1.0 / 3.0


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> tuple[dict, list[str]]:
    """One ``run.py`` process; returns its result object and its stdout lines."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def run_set(seeds: list[int], seconds: float) -> tuple[dict, dict | None, list[str]]:
    """Every workload once per seed; (workload summaries, machine record, problems)."""
    workloads, machine, problems = {}, None, []
    for workload in WORKLOADS:
        per_metric: dict[str, list[float]] = {}
        started = time.perf_counter()
        for seed in seeds:
            result, lines = run_once(workload, seed, seconds)
            if machine is None:
                machine = json.loads(next(line for line in lines if line.startswith("machine "))[8:])
            if not result["correct"]:
                problems.append(f"{workload} seed {seed}: correct=false")
            for name, entry in result["metrics"].items():
                per_metric.setdefault(name, []).append(entry["value"])
        workloads[workload] = {"wall_s": time.perf_counter() - started,
                               "metrics": {name: summarize(values) for name, values in per_metric.items()}}
        print(f"  {workload}: {len(seeds)} runs in {workloads[workload]['wall_s']:.0f} s", flush=True)
    return workloads, machine, problems


def judge(report: dict, spec: dict) -> list[str]:
    """Print every set's table and the agreement of medians; returns the problems."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = report["sets"]
    problems = list(report.get("problems", []))
    for number, workloads in enumerate(sets, start=1):
        print(f"set {number}")
        for workload, entry in workloads.items():
            print(f"  {workload}")
            for name, stats in entry["metrics"].items():
                bound = metrics[name]["bound"]
                verdict = ""
                if stats["spread"] > bound:
                    verdict = "  SPREAD ABOVE BOUND"
                    problems.append(f"set {number} {workload} {name}: spread {stats['spread']:.4f} > {bound}")
                elif stats["spread"] > bound * TARGET_SHARE:
                    verdict = "  above target (bound/3)"
                print(f"    {name:<18} median {stats['median']:>11.6g}  q1 {stats['q1']:>11.6g}  "
                      f"q3 {stats['q3']:>11.6g}  spread {stats['spread']:.4f}  bound {bound}{verdict}")
    for number, workloads in enumerate(sets[1:], start=2):
        print(f"set {number} vs set 1: median change, worse direction positive")
        for workload, entry in workloads.items():
            for name, stats in entry["metrics"].items():
                first = sets[0][workload]["metrics"][name]["median"]
                change = (stats["median"] - first) / first if first else 0.0
                worse = change if metrics[name]["better"] == "lower" else -change
                bound = metrics[name]["bound"]
                flag = "  WORSE THAN BOUND" if worse > bound else ""
                if flag:
                    problems.append(f"set {number} {workload} {name}: median worse by {worse:.4f} > {bound}")
                print(f"    {workload:<12} {name:<18} {worse:+.4f}  bound {bound}{flag}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--judge", type=Path, default=None, help="judge a recorded file; run nothing")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.judge is not None:
        report = json.loads(args.judge.read_text())
    else:
        seconds = spec["run_seconds"]
        seeds = list(range(1, SEEDS + 1))
        report = {"seconds": seconds, "seeds": seeds, "sets": [], "problems": []}
        for number in range(1, SETS + 1):
            print(f"running set {number}", flush=True)
            workloads, machine, problems = run_set(seeds, seconds)
            report["sets"].append(workloads)
            report["problems"] += problems
            report.setdefault("machine", machine)
            if args.out is not None:  # keep what is done if a later set is cut
                args.out.write_text(json.dumps(report, indent=1) + "\n")
    problems = judge(report, spec)
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
