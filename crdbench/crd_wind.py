"""crd_wind: the paper's application, confidence-region detection on wind fields.

One op is a fresh wind field detected with ``Model.confidence_region`` twice,
once with the dense tile Cholesky and once with TLR (accuracy 1e-4), the two
alternating which goes first.  Fields live on ``make_wind_dataset(25, 25)``
(n = 625) with its Matérn kernel, nugget 1e-6 and N = 1000; each is a fixed
base day plus a seeded Matérn anomaly, which keeps TLR ranks in a narrow
band.  The fields of a run are a fixed pool of :data:`POOL` per seed, cycled
in order, so every run checks the same fields and ``ok_frac`` repeats
exactly for a seed.  The solvers' factor caches hold one entry, fewer than
the pool, so a field met again has been evicted: every op has a new mean
for its model and pays for marginals, reordering, both factorizations and
two prefix sweeps.  Factorization (``tile``, ``tlr``), ``runtime``
parallelism and the prefix sweeps do the work here; ``served_mix`` pays
for factorization only on its writes.  Both solvers share one runtime of
``nproc`` workers.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

import ladder as ld
import oracles
from common import closed_loop, nproc

NAME = "crd_wind"
GRID = (25, 25)
N_SAMPLES = 1000
NUGGET = 1e-6
TLR_ACCURACY = 1e-4
ALPHA = 0.05
BASE_DAY_SEED = 2015
ANOMALY_SCALE = 0.5
METHODS = ("dense", "tlr")
#: fields per seed; an even index detects dense first, an odd one TLR first
POOL = 4
#: factor-cache capacity of each solver: below ``POOL``, so no op hits
CACHE_ENTRIES = 1
EXPECTED_KINDS: set[str] = set()


@dataclass
class Field:
    mean: np.ndarray
    qmc_seed: int
    order: tuple[str, str]


@dataclass
class Inputs:
    seed: int
    dataset: object
    threshold: float
    fields: list  # the run's pool of POOL fields


def make_inputs(seed: int) -> Inputs:
    """The base day and the run's pool: each field is the base day plus its
    own seeded Matérn anomaly."""
    from repro.datasets.wind import make_wind_dataset
    from repro.kernels.builder import build_covariance

    dataset = make_wind_dataset(*GRID, rng=BASE_DAY_SEED)
    sigma = build_covariance(dataset.kernel, dataset.geometry.locations, nugget=NUGGET)
    anomaly_factor = np.linalg.cholesky(sigma)
    fields = []
    for index in range(POOL):
        rng = np.random.default_rng([seed, 7, index])
        anomaly = anomaly_factor @ rng.standard_normal(anomaly_factor.shape[0])
        order = METHODS if index % 2 == 0 else METHODS[::-1]
        fields.append(Field(dataset.standardized + ANOMALY_SCALE * anomaly, int(rng.integers(2**31)), order))
    return Inputs(seed, dataset, dataset.standardized_threshold, fields)


@dataclass
class State:
    sigma: np.ndarray
    runtime: object
    solvers: dict


def _solvers(runtime) -> dict:
    from repro import MVNSolver, SolverConfig

    return {method: MVNSolver(SolverConfig(method=method, n_samples=N_SAMPLES, accuracy=TLR_ACCURACY),
                              runtime=runtime, cache_entries=CACHE_ENTRIES)
            for method in METHODS}


def build(inputs: Inputs) -> State:
    from repro import Runtime
    from repro.kernels.builder import build_covariance

    data = inputs.dataset
    sigma = build_covariance(data.kernel, data.geometry.locations, nugget=NUGGET)
    runtime = Runtime(n_workers=nproc())
    solvers = _solvers(runtime)
    for method in METHODS:  # first factorization and warm-up: the base day
        solvers[method].model(sigma, mean=data.standardized).confidence_region(
            inputs.threshold, rng=BASE_DAY_SEED, nugget=NUGGET)
    return State(sigma, runtime, solvers)


def close(state: State) -> None:
    for solver in state.solvers.values():
        solver.close()
    state.runtime.close()


def compute_threads(state: State) -> int:
    return state.runtime.n_workers


def detect(solvers: dict, sigma, threshold: float, fld: Field, timings=None) -> dict:
    return {method: solvers[method].model(sigma, mean=fld.mean).confidence_region(
        threshold, rng=fld.qmc_seed, nugget=NUGGET, timings=timings) for method in fld.order}


def timed_loop(state: State, inputs: Inputs, seconds: float, traced: bool):
    from repro.utils.timers import TimingRegistry

    def op(fld: Field):
        return detect(state.solvers, state.sigma, inputs.threshold, fld,
                      TimingRegistry() if traced else None)

    return closed_loop(inputs.fields, seconds, op)


def check(inputs: Inputs, state: State, answers: list) -> list:
    return ["raised" if isinstance(answer, BaseException)
            else oracles.check_regions(answer["dense"], answer["tlr"], ALPHA) for answer in answers]


def self_test(inputs: Inputs, answers: list) -> list[str]:
    """Flip the border of a correct TLR region; the check must flag it."""
    good = next((a for a in answers if not isinstance(a, BaseException)
                 and oracles.check_regions(a["dense"], a["tlr"], ALPHA) is None), None)
    if good is None:
        return ["no correct detection to corrupt"]
    bad = copy.deepcopy(good["tlr"])
    conf = bad.confidence_function
    image = inputs.dataset.geometry.as_image((conf >= 1.0 - ALPHA).astype(float)) > 0.5
    padded = np.pad(image, 1, constant_values=False)
    interior = padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    border = (image & ~interior).reshape(-1)
    if border.any():
        conf[border] = 0.0  # border cells flipped out of the region
    else:
        conf[np.argmax(conf)] = 1.0  # empty region: its best cell flipped in
    if oracles.check_regions(good["dense"], bad, ALPHA) is None:
        return ["check missed a TLR region with its border flipped"]
    return []


def ladder(lad: ld.Ladder, inputs: Inputs, state: State, answers: list):
    """Per-layer view of the first op; returns (op seconds, parts seconds)."""
    fld = inputs.fields[0]
    dense_op, tlr_op = answers[0]["dense"], answers[0]["tlr"]
    order = dense_op.order
    sigma = state.sigma
    std = np.sqrt(np.diag(sigma))
    # the standardized, reordered problem exactly as Algorithm 1 builds it
    corr = sigma / np.outer(std, std)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    corr_ord = corr[np.ix_(order, order)]
    corr_ord[np.diag_indices_from(corr_ord)] += NUGGET
    a = (inputs.threshold - fld.mean[order]) / std[order]
    b = np.full_like(a, np.inf)
    runtime = state.runtime

    def detect_fresh():
        fresh = _solvers(runtime)  # empty factor caches: every repeat pays every layer
        try:
            return detect(fresh, sigma, inputs.threshold, fld)
        finally:
            for solver in fresh.values():
                solver.close()

    op_s, _ = lad.time("crd.detect_pair", detect_fresh, repeats=3)
    entry = ld.entry_layers(lad, corr_ord, a, b)
    dense, tlr, chol_s, tlr_s = ld.factor_layers(lad, corr_ord, dense_op.details["tile_size"], TLR_ACCURACY, runtime)
    sweeps = ld.sweep_layers(lad, a, b, dense, tlr, fld.qmc_seed, N_SAMPLES, runtime,
                             expect_dense_prefix=dense_op.details["prefix_probabilities"],
                             expect_tlr_prefix=tlr_op.details["prefix_probabilities"])
    lad.put("solver.overhead_ms", (op_s - sum(sweeps[k] for k in ("prefix_dense", "prefix_tlr"))
                                   - chol_s - tlr_s) * 1e3 / 2.0, "ms")
    box = [(a, b)]
    ld.serve_ladder(lad, corr_ord, box * 16, fld.qmc_seed)
    ld.batch_layers(lad, ld.batch_of_mean_size(lad, box), dense, fld.qmc_seed, N_SAMPLES, runtime)
    ld.planner_layer(lad, corr_ord, TLR_ACCURACY)
    ld.update_layer(lad, corr_ord, dense, ld.safe_downdate(corr_ord), chol_s)
    # each detection validates the covariance, fingerprints its correlation,
    # factorizes and sweeps once
    parts = (2 * (entry["check_covariance"] + entry["fingerprint"]) + chol_s + tlr_s
             + sweeps["prefix_dense"] + sweeps["prefix_tlr"])
    return op_s, parts
