"""Per-layer timings, measured from outside through each module's public API.

A workload's traced run hands one of its ops to these functions.  Each call
repeats the work the op did inside one layer, on the op's own inputs, factor
and QMC seed, and :class:`Ladder` records its median time.  Wherever the op
produced the same quantity, the ladder call must reproduce it bit for bit
(``Ladder.parity``); a mismatch fails the traced run, because then the layer
numbers would not time the op's work.
"""

from __future__ import annotations

import time

import numpy as np

from common import Tracer, median, nproc

#: repetitions per ladder call (the median is reported)
REPEATS = 5

#: repetitions of each one-request-at-a-time serving call
SERVE_REPEATS = 9

#: requests kept in flight when a ladder feeds boxes to a broker
SERVE_OUTSTANDING = 8

#: rank of the ladder's downdate, and its size relative to the smallest
#: eigenvalue of the covariance (see :func:`safe_downdate`)
DOWNDATE_RANK = 2
DOWNDATE_SCALE = 0.5


class Ladder:
    """Collects per-layer metrics, parity verdicts and spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.metrics: dict[str, tuple[float, str]] = {}
        self.parity_failures: list[str] = []

    def time(self, name: str, fn, repeats: int | None = None):
        """Run ``fn`` repeatedly under a span each; (median seconds, last result)."""
        times = []
        result = None
        for rep in range(repeats or REPEATS):
            start = time.perf_counter()
            with self.tracer.span(name, request_id=rep):
                result = fn()
            times.append(time.perf_counter() - start)
        return median(times), result

    def paired(self, name_a: str, fn_a, name_b: str, fn_b, repeats: int | None = None):
        """Time two calls in alternating order; returns (median a, median b,
        last a, last b).  Alternating keeps slow drift out of a - b."""
        times_a, times_b = [], []
        out_a = out_b = None
        for rep in range(repeats or REPEATS):
            order = ((name_a, fn_a, times_a), (name_b, fn_b, times_b))
            for name, fn, times in order if rep % 2 == 0 else order[::-1]:
                start = time.perf_counter()
                with self.tracer.span(name, request_id=rep):
                    out = fn()
                times.append(time.perf_counter() - start)
                if times is times_a:
                    out_a = out
                else:
                    out_b = out
        return median(times_a), median(times_b), out_a, out_b

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def parity(self, name: str, got, expected) -> None:
        if not np.array_equal(np.asarray(got), np.asarray(expected)):
            self.parity_failures.append(name)


# -- factorization ------------------------------------------------------------------
def factor_layers(lad: Ladder, sigma, tile_size: int, accuracy: float, runtime):
    """``tile.*`` and ``tlr.*``: dense tile and TLR Cholesky of ``sigma``."""
    from repro.core.factor import DenseTileFactor, TLRFactor
    from repro.tile.cholesky import tiled_cholesky
    from repro.tile.layout import TileMatrix
    from repro.tlr.cholesky import tlr_cholesky
    from repro.tlr.matrix import TLRMatrix

    n = sigma.shape[0]
    chol_s, tiles = lad.time("tile.cholesky", lambda: tiled_cholesky(
        TileMatrix.from_dense(sigma, tile_size, lower_only=True), runtime=runtime, overwrite=True))
    lad.put("tile.cholesky_ms", chol_s * 1e3, "ms")
    # computed, not counted: the n^3/3 flops of a Cholesky over the time
    lad.put("tile.cholesky_gflops", n**3 / 3.0 / chol_s / 1e9, "GFLOP/s")

    compress_s, compressed = lad.time("tlr.compress", lambda: TLRMatrix.from_dense(sigma, tile_size, accuracy=accuracy))
    tlr_s, tlr = lad.time("tlr.cholesky", lambda: tlr_cholesky(compressed.copy(), runtime=runtime, overwrite=True))
    ranks = [tile.rank for tile in tlr.offdiag.values()] or [0]
    lad.put("tlr.compress_ms", compress_s * 1e3, "ms")
    lad.put("tlr.cholesky_ms", tlr_s * 1e3, "ms")
    lad.put("tlr.rank_mean", float(np.mean(ranks)), "rank")
    lad.put("tlr.rank_max", float(np.max(ranks)), "rank")
    lad.put("tlr.memory_ratio", tlr.memory_bytes() / tlr.dense_bytes(), "ratio")
    return DenseTileFactor(tiles), TLRFactor(tlr), chol_s, compress_s + tlr_s


# -- sweeps -------------------------------------------------------------------------
def _options(seed: int, n_samples: int, **extra):
    from repro.core.pmvn import PMVNOptions

    return PMVNOptions(n_samples=n_samples, rng=seed, **extra)


def integrate(a, b, factor, seed: int, n_samples: int, runtime):
    """The op's single-box sweep, called directly."""
    from repro.core.pmvn import pmvn_integrate

    return pmvn_integrate(a, b, factor, _options(seed, n_samples), runtime=runtime)


def integrate_batch(boxes, factor, seed: int, n_samples: int, runtime, **extra):
    """A batched sweep, called directly (``probability_batch`` runs this)."""
    from repro.core.pmvn import pmvn_integrate_batch

    return pmvn_integrate_batch(boxes, factor, _options(seed, n_samples, **extra), runtime=runtime)


def sweep_layers(lad: Ladder, a, b, dense, tlr, seed: int, n_samples: int, runtime,
                 expect=None, expect_tlr_prefix=None, expect_dense_prefix=None) -> dict:
    """``core.pmvn.*``, ``stats.qmc.points_ms`` and ``runtime.*``.

    ``expect`` is the op's single-box answer (``MVNResult``) when the op ran
    one; ``expect_*_prefix`` are the op's prefix probabilities when it ran a
    confidence-region sweep.  Returns the single-sweep seconds.
    """
    from repro.core.pmvn import pmvn_integrate
    from repro.runtime import Runtime
    from repro.stats.qmc import qmc_samples

    n = dense.n
    single_s, batch_s, single, batch = lad.paired(
        "core.pmvn.integrate", lambda: integrate(a, b, dense, seed, n_samples, runtime),
        "core.pmvn.batch1", lambda: integrate_batch([(a, b)], dense, seed, n_samples, runtime)[0])
    lad.put("core.pmvn.integrate_ms", single_s * 1e3, "ms")
    lad.put("core.pmvn.batch1_ms", batch_s * 1e3, "ms")
    lad.put("core.pmvn.single_over_batch1", single_s / batch_s, "ratio")
    lad.parity("core.pmvn.batch1", [batch.probability, batch.error], [single.probability, single.error])
    if expect is not None:
        lad.parity("core.pmvn.integrate", [single.probability, single.error], [expect.probability, expect.error])

    prefix_opts = _options(seed, n_samples, return_prefix=True)
    dense_s, dense_prefix = lad.time("core.pmvn.prefix_sweep_dense", lambda: pmvn_integrate(
        a, b, dense, prefix_opts, runtime=runtime))
    tlr_s, tlr_prefix = lad.time("core.pmvn.prefix_sweep_tlr", lambda: pmvn_integrate(
        a, b, tlr, prefix_opts, runtime=runtime))
    lad.put("core.pmvn.prefix_sweep_dense_ms", dense_s * 1e3, "ms")
    lad.put("core.pmvn.prefix_sweep_tlr_ms", tlr_s * 1e3, "ms")
    lad.parity("core.pmvn.prefix_sweep_dense.final", dense_prefix.probability, single.probability)
    if expect_dense_prefix is not None:
        lad.parity("core.pmvn.prefix_sweep_dense", dense_prefix.details["prefix_probabilities"], expect_dense_prefix)
    if expect_tlr_prefix is not None:
        lad.parity("core.pmvn.prefix_sweep_tlr", tlr_prefix.details["prefix_probabilities"], expect_tlr_prefix)

    points_s, _ = lad.time("stats.qmc.points", lambda: qmc_samples(n, n_samples, rng=seed))
    lad.put("stats.qmc.points_ms", points_s * 1e3, "ms")

    before = runtime.tasks_executed
    integrate(a, b, dense, seed, n_samples, runtime)
    lad.put("runtime.tasks_per_op", runtime.tasks_executed - before, "count")
    wide = nproc()
    with Runtime(n_workers=1) as serial, Runtime(n_workers=wide) as parallel:
        one_s, all_s, one, every = lad.paired(
            "runtime.one_worker", lambda: integrate(a, b, dense, seed, n_samples, serial),
            "runtime.nproc_workers", lambda: integrate(a, b, dense, seed, n_samples, parallel))
    lad.parity("runtime.one_worker", one.probability, single.probability)
    lad.parity("runtime.nproc_workers", every.probability, single.probability)
    lad.put("runtime.speedup_nproc", one_s / all_s, "ratio")
    lad.put("runtime.parallel_efficiency", one_s / all_s / wide, "ratio")
    return {"integrate": single_s, "prefix_dense": dense_s, "prefix_tlr": tlr_s}


def batch_of_mean_size(lad: Ladder, boxes) -> list:
    """The boxes of one micro-batch at the broker's measured mean batch size."""
    size = max(1, int(round(lad.metrics["serve.broker.mean_batch_size"][0])))
    return [boxes[i % len(boxes)] for i in range(size)]


def batch_layers(lad: Ladder, boxes, dense, seed: int, n_samples: int, runtime) -> None:
    """``core.pmvn.batch_ms_per_box`` and fused vs interleaved schedules."""
    def sweep(fusion):
        return integrate_batch(boxes, dense, seed, n_samples, runtime, fusion=fusion)

    auto_s, _ = lad.time("core.pmvn.batch", lambda: sweep("auto"), repeats=3)
    fused_s, inter_s, fused, inter = lad.paired("core.pmvn.batch_fused", lambda: sweep("fused"),
                                                "core.pmvn.batch_interleaved", lambda: sweep("interleaved"),
                                                repeats=3)
    lad.parity("core.pmvn.fused_vs_interleaved",
               [(r.probability, r.error) for r in fused], [(r.probability, r.error) for r in inter])
    lad.put("core.pmvn.batch_ms_per_box", auto_s * 1e3 / len(boxes), "ms")
    lad.put("core.pmvn.batch_boxes", len(boxes), "count")
    lad.put("core.pmvn.fused_over_interleaved", fused_s / inter_s, "ratio")


# -- validation, fingerprints, planner, updates -------------------------------------
def entry_layers(lad: Ladder, sigma, a, b) -> dict:
    """``utils.validation.*`` and ``batch.fingerprint_ms`` on the op's inputs."""
    from repro.batch.cache import sigma_fingerprint
    from repro.utils.validation import check_covariance, check_limits

    n = sigma.shape[0]
    limits_s, _ = lad.time("utils.validation.check_limits", lambda: check_limits(a, b, n), repeats=25)
    cov_s, _ = lad.time("utils.validation.check_covariance", lambda: check_covariance(sigma))
    fp_s, _ = lad.time("batch.fingerprint", lambda: sigma_fingerprint(sigma))
    lad.put("utils.validation.check_limits_ms", limits_s * 1e3, "ms")
    lad.put("utils.validation.check_covariance_ms", cov_s * 1e3, "ms")
    lad.put("batch.fingerprint_ms", fp_s * 1e3, "ms")
    return {"check_limits": limits_s, "check_covariance": cov_s, "fingerprint": fp_s}


def planner_layer(lad: Ladder, sigma, accuracy: float) -> float:
    """``query.planner.plan_ms``: ``Model.plan`` on a never-seen covariance."""
    from repro import MVNSolver, SolverConfig

    with MVNSolver(SolverConfig(method="auto", n_samples=1000, accuracy=accuracy)) as solver:
        # a fresh copy per repeat, so no memoized probe or fingerprint helps
        copies = iter([sigma.copy() for _ in range(REPEATS)])
        plan_s, _ = lad.time("query.planner.plan", lambda: solver.model(next(copies)).plan())
    lad.put("query.planner.plan_ms", plan_s * 1e3, "ms")
    return plan_s


def update_layer(lad: Ladder, sigma, dense, u, refactor_s: float) -> None:
    """``core.update.*``: rank-k downdate of the op's factor vs refactorizing."""
    from repro.core.update import update_factor

    update_s, _ = lad.time("core.update.update", lambda: update_factor(dense, u, downdate=True))
    lad.put("core.update.update_ms", update_s * 1e3, "ms")
    lad.put("core.update.speedup_vs_refactor", refactor_s / update_s, "ratio")


def safe_downdate(sigma) -> np.ndarray:
    """A rank-:data:`DOWNDATE_RANK` downdate along the all-ones direction that
    keeps ``sigma`` positive definite: ``U U^T`` has the single eigenvalue
    ``DOWNDATE_SCALE^2`` times the smallest eigenvalue of ``sigma``
    (equicorrelated stays equicorrelated)."""
    n = sigma.shape[0]
    smallest = float(np.linalg.eigvalsh(sigma)[0])
    return np.full((n, DOWNDATE_RANK), DOWNDATE_SCALE * np.sqrt(smallest / (n * DOWNDATE_RANK)))


# -- serving ------------------------------------------------------------------------
def serve_counters(lad: Ladder, stats) -> None:
    """The broker's counters, as its ``stats()`` snapshot reports them."""
    requests = sum(s.requests for s in stats.shards)
    factorized = sum(s.factorize_count for s in stats.shards)
    lad.put("serve.broker.mean_batch_size", stats.mean_batch_size, "boxes")
    lad.put("serve.broker.batch_fill_ratio", stats.batch_fill_ratio, "ratio")
    lad.put("serve.broker.max_queue_depth", stats.max_queue_depth, "count")
    lad.put("serve.broker.sigma_sends", stats.sigma_sends, "count")
    lad.put("serve.broker.sigma_bytes", stats.sigma_bytes, "bytes")
    lad.put("serve.broker.update_sends", stats.update_sends, "count")
    lad.put("serve.broker.lineage_fallbacks", stats.lineage_fallbacks, "count")
    # requests answered from a warm (already factorized) model, as ShardSnapshot.hit_rate
    lad.put("batch.cache_hit_rate", 1.0 - min(factorized, requests) / requests if requests else 0.0, "ratio")
    lad.put("batch.factorize_count", factorized, "count")


def serve_burst(broker, sigma, boxes, seed: int) -> None:
    """Closed loop with :data:`SERVE_OUTSTANDING` requests in flight; raises what they raise."""
    from concurrent.futures import FIRST_COMPLETED, wait

    pending: set = set()
    for a, b in boxes:
        if len(pending) >= SERVE_OUTSTANDING:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                future.result()
        pending.add(broker.submit(a, b, sigma, rng=seed))
    for future in pending:
        future.result()


def serve_added(lad: Ladder, broker, client, fingerprint: str, sigma, a, b, seed: int,
                solver_config) -> float:
    """``serve.net.added_ms`` and ``serve.broker.added_ms`` on a warm covariance.

    One request at a time: gateway round trip minus direct ``broker.submit``,
    and ``broker.submit`` minus a local ``probability_batch`` of one box with
    the same solver settings.  The three answers must be identical.
    Returns the gateway round-trip seconds.
    """
    from repro import MVNSolver
    from repro.query import MVNQuery

    query = MVNQuery(a, b, rng=seed)
    net_s, broker_s, net_answer, broker_answer = lad.paired(
        "serve.net.round_trip", lambda: client.query(query, fingerprint=fingerprint),
        "serve.broker.submit", lambda: broker.submit(a, b, sigma, rng=seed).result(), SERVE_REPEATS)
    with MVNSolver(solver_config) as solver:
        model = solver.model(sigma)
        model.probability_batch([(a, b)], rng=seed)  # factorize outside the timing
        broker_again_s, local_s, _, local = lad.paired(
            "serve.broker.submit", lambda: broker.submit(a, b, sigma, rng=seed).result(),
            "solver.probability_batch1", lambda: model.probability_batch([(a, b)], rng=seed)[0], SERVE_REPEATS)
    lad.put("serve.net.added_ms", (net_s - broker_s) * 1e3, "ms")
    lad.put("serve.broker.added_ms", (broker_again_s - local_s) * 1e3, "ms")
    lad.parity("serve.net", net_answer.probability, local.probability)
    lad.parity("serve.broker", broker_answer.probability, local.probability)
    return net_s


def serve_ladder(lad: Ladder, sigma, boxes, seed: int) -> float:
    """Serving layers for a workload that does not serve: its boxes sent to a
    broker and gateway configured as in ``served_mix``; returns round-trip s."""
    from repro import QueryBroker, ServeConfig, SolverConfig
    from repro.serve.net import BackgroundGateway, ServeClient

    solver_config = SolverConfig(method="auto", n_samples=1000)
    with QueryBroker(ServeConfig(n_shards=nproc(), worker_mode="thread"), solver_config) as broker, \
            BackgroundGateway(broker) as gateway, ServeClient(*gateway.address) as client:
        fingerprint = client.register(sigma)
        serve_burst(broker, sigma, boxes, seed)
        serve_counters(lad, broker.stats())
        a, b = boxes[0]
        return serve_added(lad, broker, client, fingerprint, sigma, a, b, seed, solver_config)
