"""Run one benchmark workload and print its result as the last stdout line.

    python3 crdbench/run.py --workload crd_wind --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced cycles for half the window, then runs the
per-layer ladder, and reports the per-layer metrics.  Earlier stdout lines carry the machine
record and a human-readable table; the last line is one JSON object with
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

import common

if os.environ.get("PYTHONHASHSEED") != common.HASH_SEED:
    # string hashing is randomized per process, and with it the order of
    # dict/set iteration inside the program; a fixed seed removed most of
    # the process-to-process latency drift (single-box Model.probability
    # p50 191-215 ms with random hashing vs 204-211 ms fixed, same seed,
    # same machine)
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": common.HASH_SEED})

common.pin_threads()  # before anything imports NumPy

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

WORKLOADS = ("crd_wind", "served_mix")


def _source_tree() -> str:
    src = common.ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source under {src} (run from a source checkout)")
    return str(src)


def execute(mod, seconds: float, seed: int, trace: bool) -> common.Outcome:
    import oracles
    from ladder import Ladder

    inputs = mod.make_inputs(seed)
    if trace:
        setup_s, state = None, mod.build(inputs)
    else:
        setup_s, state = common.repeated_setup(lambda: mod.build(inputs), mod.close)
    notes: list[str] = []
    try:
        threads = mod.compute_threads(state)
        if trace:
            # traced and untraced cycles alternate, so drift cancels out of
            # the tracing overhead; half the window leaves time for the ladder
            plain, traced = [], []
            start = time.perf_counter()
            while not plain or time.perf_counter() - start < seconds / 2.0:
                plain.append(mod.timed_loop(state, inputs, 0.0, traced=False))
                traced.append(mod.timed_loop(state, inputs, 0.0, traced=True))
            plain_lat = [lat for part in plain for lat in part.latencies]
            traced_lat = [lat for part in traced for lat in part.latencies]
            answers = [answer for part in plain + traced for answer in part.answers]
            loop = common.LoopResult(plain_lat + traced_lat, time.perf_counter() - start, answers)
        else:
            loop = mod.timed_loop(state, inputs, seconds, traced=False)
        kinds = mod.check(inputs, state, loop.answers)
        notes += mod.self_test(inputs, loop.answers)
        if trace:
            notes += oracles.oracle_self_test()
            tracer = common.Tracer()
            lad = Ladder(tracer)
            op_s, parts_s = mod.ladder(lad, inputs, state, loop.answers)
            notes += [f"ladder parity failed: {name}" for name in lad.parity_failures]
            tracer.dump(common.OUT_DIR / f"trace-{mod.NAME}-{seed}.json")
    finally:
        mod.close(state)

    failures = dict(Counter(kind for kind in kinds if kind is not None))
    unexpected = sorted(set(failures) - mod.EXPECTED_KINDS)
    notes += [f"unexpected failure kind: {kind}" for kind in unexpected]
    failed = sum(failures.values())
    if trace:
        overhead_s = common.percentile(traced_lat, 50) - common.percentile(plain_lat, 50)
        metrics = dict(lad.metrics)
        metrics["unattributed_share"] = (1.0 - parts_s / op_s, "ratio")
        metrics["trace_overhead_ms"] = (overhead_s * 1e3, "ms")
    else:
        metrics = common.end_to_end_metrics(loop, loop.attempted - failed, setup_s)
    return common.Outcome(
        workload=mod.NAME, attempted=loop.attempted, failed=failed, correct=not notes,
        metrics=metrics, notes=notes, failure_kinds=failures, machine=common.machine_record(threads),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, _source_tree())

    mod = importlib.import_module(args.workload)
    outcome = execute(mod, args.seconds, args.seed, bool(args.trace))

    print("machine " + json.dumps(outcome.machine, sort_keys=True))
    print(f"workload {outcome.workload} seed {args.seed} trace {args.trace}: "
          f"{outcome.attempted} ops, one latency sample each, "
          f"{outcome.failed} failed {outcome.failure_kinds or ''}")
    for note in outcome.notes:
        print(f"CHECK FAILED: {note}")
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
