"""One report: every workload's end-to-end metrics, optionally the per-layer table.

    python3 crdbench/report.py [--trace]

Each workload runs in its own ``run.py`` process, seed :data:`SEED`, for
``run_seconds`` of ``BENCHMARK.json``.  The report prints every
end-to-end metric by name with its unit, per workload; with ``--trace`` it
also runs each workload traced and prints the per-layer table, the tracing
overhead and the share of op time no layer accounts for.  It exits non-zero
when any check failed: an op answered wrongly (including the known
underflow defect on the narrow reads of ``served_mix``), a self-test or a
ladder parity check.
"""

from __future__ import annotations

import argparse
import json
import sys

from steadiness import ROOT, WORKLOADS, run_once

#: seed of every report run
SEED = 1


def _table(result: dict) -> list[str]:
    return [f"    {name:<40} {entry['value']:>16.6g} {entry['unit']}"
            for name, entry in sorted(result["metrics"].items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true", help="also run traced and print the per-layer table")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    failed_checks = []
    machine_printed = False
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            result, lines = run_once(workload, SEED, seconds, trace)
            if not machine_printed:
                print(next(line for line in lines if line.startswith("machine ")))
                machine_printed = True
            print(f"{'per-layer (traced)' if trace else 'end-to-end'}, correct={result['correct']}: "
                  + next(line for line in lines if line.startswith("workload ")))
            for line in lines:
                if line.startswith("CHECK FAILED"):
                    print(line)
            print("\n".join(_table(result)))
            if result["failed"] or not result["correct"]:
                failed_checks.append(f"{workload} trace={trace}")
    if failed_checks:
        print(f"failed checks in: {', '.join(failed_checks)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
