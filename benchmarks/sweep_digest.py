"""SHA-256 digest of PMVN sweep answers over a fixed case matrix.

A parity tool, not a timing: it runs :func:`repro.core.pmvn.pmvn_integrate_batch`
over every combination of

* factor: dense and TLR (accuracy 1e-4),
* size: ``n`` in {50, 400, 625} (tile 16 at n=50, the default tile above),
* samples: ``N`` in {1000, 333} (333 is not a multiple of the fused column
  lane, so ``"auto"`` runs it interleaved),
* boxes: batches of three one-sided ``[a, +inf)``, three two-sided, three
  orthant ``(-inf, 0]`` boxes, and one of each kind mixed,
* schedule: ``"interleaved"``, ``"fused"`` and ``"auto"``,
* prefix output on and off (``"fused"`` with prefix output is rejected by
  design and skipped),
* a 1- and a 2-worker runtime,

each batch drawing its QMC shifts from one shared ``Generator`` so the
per-box rng consumption is covered too.  It hashes the raw float64 bytes of
every estimate, error, prefix probability and prefix error, and prints one
line with the case count and the hex digest.

Two trees give the same digest exactly when their sweeps are bit-identical.
To check a change against its parent, run the script from both checkouts on
the same machine and compare the lines::

    git archive <parent> | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python benchmarks/sweep_digest.py
    PYTHONPATH=src python benchmarks/sweep_digest.py

``--cases`` also prints a per-case digest, to locate a mismatch.  A full run
takes about a minute on two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools

import numpy as np

from repro.core.factor import factorize
from repro.core.pmvn import PMVNOptions, pmvn_integrate_batch
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.runtime import Runtime

SIZES = (50, 400, 625)
SAMPLES = (1000, 333)
METHODS = ("dense", "tlr")
SCHEDULES = ("interleaved", "fused", "auto")
WORKERS = (1, 2)
TLR_ACCURACY = 1e-4
SEED = 20240527


def covariance(n: int) -> np.ndarray:
    side = int(np.ceil(np.sqrt(n)))
    locations = Geometry.regular_grid(side, side).locations[:n]
    return build_covariance(ExponentialKernel(1.0, 0.1), locations, nugget=1e-6)


def box_sets(n: int) -> dict[str, list[tuple[np.ndarray, np.ndarray]]]:
    rng = np.random.default_rng(n)

    def one_sided():
        return rng.uniform(-2.0, 0.5, n), np.full(n, np.inf)

    def two_sided():
        lower = rng.uniform(-3.0, -0.5, n)
        return lower, lower + rng.uniform(1.0, 4.0, n)

    def orthant():
        return np.full(n, -np.inf), np.zeros(n)

    return {
        "one-sided": [one_sided() for _ in range(3)],
        "two-sided": [two_sided() for _ in range(3)],
        "orthant": [orthant() for _ in range(3)],
        "mixed": [one_sided(), two_sided(), orthant()],
    }


def case_bytes(results, prefix: bool) -> bytes:
    parts = []
    for result in results:
        parts.append(np.array([result.probability, result.error], dtype=np.float64).tobytes())
        if prefix:
            parts.append(np.asarray(result.details["prefix_probabilities"], dtype=np.float64).tobytes())
            parts.append(np.asarray(result.details["prefix_errors"], dtype=np.float64).tobytes())
    return b"".join(parts)


def run(show_cases: bool = False) -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    runtimes = {w: Runtime(n_workers=w) for w in WORKERS}
    try:
        for n in SIZES:
            sigma = covariance(n)
            tile = 16 if n < 64 else None
            factors = {
                "dense": factorize(sigma, method="dense", tile_size=tile),
                "tlr": factorize(sigma, method="tlr", tile_size=tile, accuracy=TLR_ACCURACY),
            }
            boxes = box_sets(n)
            for method, n_samples, kind, schedule, prefix, workers in itertools.product(
                METHODS, SAMPLES, boxes, SCHEDULES, (False, True), WORKERS
            ):
                if prefix and schedule == "fused":
                    continue
                options = PMVNOptions(
                    n_samples=n_samples, rng=np.random.default_rng(SEED),
                    return_prefix=prefix, fusion=schedule,
                )
                results = pmvn_integrate_batch(boxes[kind], factors[method], options, runtime=runtimes[workers])
                payload = case_bytes(results, prefix)
                digest.update(payload)
                count += 1
                if show_cases:
                    label = f"{method} n={n} N={n_samples} {kind} {schedule} prefix={prefix} workers={workers}"
                    print(f"{hashlib.sha256(payload).hexdigest()[:16]}  {label}")
    finally:
        for rt in runtimes.values():
            rt.close()
    return count, digest.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", action="store_true", help="also print a digest per case")
    args = parser.parse_args(argv)
    count, hexdigest = run(show_cases=args.cases)
    print(f"sweep digest over {count} cases: {hexdigest}")


if __name__ == "__main__":
    main()
