"""served_mix: a read/update mix served through the broker and its gateway.

One asyncio generator (the main thread) keeps eight requests outstanding.
Reads travel over one loopback connection to a ``BackgroundGateway`` in
front of ``QueryBroker(ServeConfig(n_shards=nproc, worker_mode="thread"))``
with ``SolverConfig(method="auto", n_samples=1000)``.  Each cycle of 32
requests holds:

* 24 reads of four registered n = 400 covariances (two exponential grids,
  two equicorrelated ones for the oracle), all with one pinned QMC seed so
  that they micro-batch.  Two of them are narrow boxes of the
  equicorrelated covariances whose exact probability is below 1e-308, so
  the answer ``0.0`` is the known underflow defect and is counted as a
  failure;
* 6 ``SigmaUpdate`` requests, two chains of three rank-2 downdates of the
  equicorrelated covariances, sent with ``submit_async`` because the wire
  has no update op;
* 2 cold covariances (diagonal, sent inline over the wire), which force
  ship, plan, factorize and LRU eviction.

Consecutive cycles downdate by different amounts and draw different cold
covariances, from a seeded pool that repeats every :data:`PERIOD` cycles.
By the time a cycle's children and cold covariances come round again the
shards' LRU caches have mostly evicted them: in a 25 s run on two cores
every update was shipped as a write (``update_sends`` equal to the updates
sent) and the shards factorized 23 times for 24 cold requests.  A run ends
on a whole period, so every run of a seed checks the same ops in the same
proportions and ``ok_frac`` repeats exactly.

The cycle is sent in groups of four: the generator waits for four free
slots and sends a group back to back, as a client refreshing several boxes
of one field would.  Reads of one covariance share a group, so they arrive
inside one batching window and micro-batch.

Only this workload runs ``serve.broker``, ``serve.net``, ``batch`` and the
batched sweep schedule.  Updates and cold covariances load the cache and
factorization layers as writes beside the reads, so a gain for reads that
costs writes shows up.  Reads are 75% of a cycle and the slowest class
(queueing behind their micro-batches), so p50 and p90 both fall inside the
read class rather than on a seam between classes.
"""

from __future__ import annotations

import asyncio
import copy
import itertools
import json
import time
from dataclasses import dataclass, field

import numpy as np

import ladder as ld
import oracles
from common import LoopResult, nproc

NAME = "served_mix"
GRID = 20  # 20 x 20 = 400 locations
N_SAMPLES = 1000
OUTSTANDING = 8
#: an answer later than this counts as a failed op
OP_TIMEOUT_S = 60.0
EXP_RANGES = (0.1, 0.3)
EQ_RHOS = (0.5, 0.3)
BOXES_PER_COVARIANCE = 6
CHAIN_LINKS = 3
UPDATE_RANK = 2
COLD_PER_CYCLE = 2
#: cycles after which the update amounts and cold covariances repeat
PERIOD = 3
COLD_POOL = PERIOD * COLD_PER_CYCLE
#: per-dimension (lower, upper) limit pairs of the read boxes
PAIRS = ((-1.5, 2.0), (-1.0, 2.5), (-2.0, 2.0), (-1.0, 3.0))
#: per-dimension pairs of the narrow boxes (exact probability below 1e-370)
NARROW_PAIRS = ((2.0, 2.2), (2.1, 2.3))
#: the box of each equicorrelated covariance that is narrow; the update
#: chains use boxes ``0 .. CHAIN_LINKS - 1``
NARROW_BOX = BOXES_PER_COVARIANCE - 1
EXPECTED_KINDS = {oracles.UNDERFLOW}


@dataclass
class Hot:
    sigma: np.ndarray
    kind: str  # "exp" or "eq"
    rho: float = 0.0
    register_line: bytes = b""


@dataclass
class Spec:
    """One request of a cycle."""

    kind: str  # "read", "update" or "cold"
    index: int  # hot covariance, chain or cold-pool index
    box: int = 0
    link: int = 0


@dataclass
class Inputs:
    seed: int
    qmc_seed: int
    hot: list
    boxes: list  # boxes[hot index][box index] = (a, b)
    cold_variances: list
    cold_boxes: list
    cold_bodies: list  # pre-encoded query bodies with the sigma inline
    cycle: list  # groups of specs
    read_bodies: dict = field(default_factory=dict)
    references: dict | None = None


def _box(rng, n: int, pairs=PAIRS):
    pairs = np.asarray(pairs)[rng.integers(len(pairs), size=n)]
    return pairs[:, 0].copy(), pairs[:, 1].copy()


def _query_body(a, b, qmc_seed: int, **where) -> str:
    from repro.query import MVNQuery

    return json.dumps({"op": "query", **where, "query": MVNQuery(a, b, rng=qmc_seed).to_dict()})


def _cycle() -> list:
    """Eight groups of four requests; a group is sent back to back."""
    def reads(h, *boxes):
        return [Spec("read", h, k) for k in boxes]

    def updates(link):
        return [Spec("update", chain, 0, link) for chain in range(len(EQ_RHOS))]

    return [
        reads(0, 0, 1, 2, 3),
        reads(1, 0, 1, 2, 3),
        updates(0) + reads(2, 0) + reads(3, 0),
        reads(2, 1, 2, 3, 4),
        updates(1) + [Spec("cold", 0)] + reads(0, 4),
        reads(3, 1, 2, 3, 4),
        updates(2) + [Spec("cold", 1)] + reads(1, 4),
        reads(0, 5) + reads(1, 5) + reads(2, 5) + reads(3, 5),
    ]


def make_inputs(seed: int) -> Inputs:
    from repro.kernels.builder import build_covariance
    from repro.kernels.covariance import ExponentialKernel
    from repro.kernels.geometry import Geometry

    rng = np.random.default_rng([seed, 23])
    n = GRID * GRID
    locations = Geometry.regular_grid(GRID, GRID).locations
    hot = [Hot(build_covariance(ExponentialKernel(1.0, r), locations, nugget=1e-6), "exp") for r in EXP_RANGES]
    hot += [Hot((1.0 - rho) * np.eye(n) + rho, "eq", rho) for rho in EQ_RHOS]
    for entry in hot:
        entry.register_line = (json.dumps({"id": 0, "op": "register", "sigma": entry.sigma.tolist()}) + "\n").encode()
    boxes = [[_box(rng, n, NARROW_PAIRS if entry.kind == "eq" and k == NARROW_BOX else PAIRS)
              for k in range(BOXES_PER_COVARIANCE)] for entry in hot]
    qmc_seed = int(rng.integers(2**31))
    cold_variances = [rng.uniform(0.5, 2.0, n) for _ in range(COLD_POOL)]
    cold_boxes = [_box(rng, n) for _ in range(COLD_POOL)]
    cold_bodies = [_query_body(a, b, qmc_seed, sigma=np.diag(var).tolist())
                   for (a, b), var in zip(cold_boxes, cold_variances)]
    return Inputs(seed, qmc_seed, hot, boxes, cold_variances, cold_boxes, cold_bodies, _cycle())


def update_for(inputs: Inputs, phase: int, chain: int, link: int) -> np.ndarray:
    """Downdate ``link`` of ``chain`` in cycles ``phase`` (mod ``PERIOD``):
    columns along the all-ones vector, removing 5-15% of the parent's shared
    variance."""
    rng = np.random.default_rng([inputs.seed, 29, phase, chain, link])
    shrink = EQ_RHOS[chain] * rng.uniform(0.05, 0.15)
    weights = rng.dirichlet(np.ones(UPDATE_RANK))
    n = GRID * GRID
    return np.ones((n, 1)) * np.sqrt(shrink * weights)[None, :]


# -- set-up -------------------------------------------------------------------------
@dataclass
class State:
    broker: object
    gateway: object
    fingerprints: list
    cycles_run: list


async def _connect(address):
    return await asyncio.open_connection(*address, limit=1 << 26)


async def _call(reader, writer, line: bytes) -> dict:
    writer.write(line)
    await writer.drain()
    message = json.loads(await reader.readline())
    if not message.get("ok"):
        raise RuntimeError(f"gateway error: {message.get('error')}")
    return message["result"]


def build(inputs: Inputs) -> State:
    from repro import QueryBroker, ServeConfig, SolverConfig
    from repro.serve.net import BackgroundGateway

    broker = QueryBroker(ServeConfig(n_shards=nproc(), worker_mode="thread"),
                         SolverConfig(method="auto", n_samples=N_SAMPLES))
    gateway = BackgroundGateway(broker).start()

    async def register_and_warm():
        reader, writer = await _connect(gateway.address)
        try:
            fingerprints = []
            for h, entry in enumerate(inputs.hot):
                fingerprint = (await _call(reader, writer, entry.register_line))["fingerprint"]
                fingerprints.append(fingerprint)
                a, b = inputs.boxes[h][0]
                await _call(reader, writer, (_query_body(a, b, inputs.qmc_seed, fingerprint=fingerprint)
                                             + "\n").encode())  # first factorization
        finally:
            writer.close()
            await writer.wait_closed()
        return fingerprints

    fingerprints = asyncio.run(register_and_warm())
    return State(broker, gateway, fingerprints, [0])


def close(state: State) -> None:
    state.gateway.close()
    state.broker.close()


def compute_threads(state: State) -> int:
    return state.broker.n_shards * state.broker.config.n_workers


# -- timed loop ---------------------------------------------------------------------
def _read_body(inputs: Inputs, state: State, h: int, k: int) -> str:
    key = (h, k)
    if key not in inputs.read_bodies:
        a, b = inputs.boxes[h][k]
        inputs.read_bodies[key] = _query_body(a, b, inputs.qmc_seed, fingerprint=state.fingerprints[h])
    return inputs.read_bodies[key]


def _updates(inputs: Inputs, phase: int, chain: int, link: int):
    """The ``SigmaUpdate`` chain up to ``link`` for cycles ``phase``."""
    from repro.serve.broker import SigmaUpdate

    target = inputs.hot[len(EXP_RANGES) + chain].sigma
    for step in range(link + 1):
        target = SigmaUpdate(target, update_for(inputs, phase, chain, step), downdate=True)
    return target


def timed_loop(state: State, inputs: Inputs, seconds: float, traced: bool) -> LoopResult:
    from repro.mvn.result import MVNResult

    # the serving path has no in-program tracing to switch on; a traced cycle
    # runs exactly like an untraced one, so the overhead reads ~0
    async def drive():
        reader, writer = await _connect(state.gateway.address)
        loop = asyncio.get_running_loop()
        waiting: dict[int, asyncio.Future] = {}
        ids = itertools.count(1)

        async def read_replies():
            while True:
                line = await reader.readline()
                if not line:
                    return
                message = json.loads(line)
                future = waiting.pop(message["id"])
                if message.get("ok"):
                    future.set_result(MVNResult.from_dict(message["result"]))
                else:
                    future.set_result(RuntimeError(f"gateway error: {message.get('error')}"))

        async def send(spec: Spec, phase: int, slot: int, out: list):
            if spec.kind == "update":
                a, b = inputs.boxes[len(EXP_RANGES) + spec.index][spec.link % BOXES_PER_COVARIANCE]
                target = _updates(inputs, phase, spec.index, spec.link)
                start = time.perf_counter()
                try:
                    answer = await asyncio.wait_for(state.broker.submit_async(a, b, target, rng=inputs.qmc_seed),
                                                    OP_TIMEOUT_S)
                except Exception as exc:  # noqa: BLE001 - raised or timed out: a failed op
                    answer = exc
            else:
                if spec.kind == "read":
                    body = _read_body(inputs, state, spec.index, spec.box)
                else:
                    body = inputs.cold_bodies[phase * COLD_PER_CYCLE + spec.index]
                rid = next(ids)
                future = loop.create_future()
                waiting[rid] = future
                line = f'{{"id": {rid}, {body[1:]}\n'.encode()
                start = time.perf_counter()
                writer.write(line)
                await writer.drain()
                try:
                    answer = await asyncio.wait_for(future, OP_TIMEOUT_S)
                except asyncio.TimeoutError as exc:
                    answer = exc
            out[slot] = (time.perf_counter() - start, (spec, phase), answer)

        replies = asyncio.create_task(read_replies())
        slots = asyncio.Semaphore(OUTSTANDING)
        tasks, records = [], []
        start = time.perf_counter()
        try:
            while True:
                phase = state.cycles_run[0] % PERIOD
                state.cycles_run[0] += 1
                specs = [spec for group in inputs.cycle for spec in group]
                out = [None] * len(specs)
                records.append(out)
                slot = 0
                for group in inputs.cycle:
                    for _ in group:
                        await slots.acquire()
                    for spec in group:
                        task = asyncio.create_task(send(spec, phase, slot, out))
                        task.add_done_callback(lambda _t: slots.release())
                        tasks.append(task)
                        slot += 1
                if phase == PERIOD - 1 and time.perf_counter() - start >= seconds:
                    break
            await asyncio.gather(*tasks)
            window = time.perf_counter() - start
        finally:
            writer.close()
            await writer.wait_closed()
            replies.cancel()
            try:
                await replies
            except asyncio.CancelledError:
                pass
        flat = [record for out in records for record in out]
        return LoopResult([r[0] for r in flat], window, [(r[1], r[2]) for r in flat])

    return asyncio.run(drive())


# -- checks -------------------------------------------------------------------------
def _references(inputs: Inputs) -> dict:
    """Direct answers for the exponential reads (same solver settings, same seed).

    They check that serving repeats the direct answer; the sweep itself is
    checked against the oracles on the equicorrelated reads and updates.
    """
    from repro import MVNSolver, SolverConfig

    if inputs.references is None:
        inputs.references = {}
        with MVNSolver(SolverConfig(method="auto", n_samples=N_SAMPLES)) as solver:
            for h, entry in enumerate(inputs.hot):
                if entry.kind == "exp":
                    answers = solver.model(entry.sigma).probability_batch(inputs.boxes[h], rng=inputs.qmc_seed)
                    inputs.references.update({(h, k): answer for k, answer in enumerate(answers)})
    return inputs.references


def _log_truth(inputs: Inputs, spec: Spec, phase: int) -> float:
    if spec.kind == "cold":
        pool = phase * COLD_PER_CYCLE + spec.index
        a, b = inputs.cold_boxes[pool]
        return oracles.log_prob_diagonal(a, b, inputs.cold_variances[pool])
    if spec.kind == "update":
        h = len(EXP_RANGES) + spec.index
        removed = sum(float(np.sum(update_for(inputs, phase, spec.index, step)[0] ** 2))
                      for step in range(spec.link + 1))
        a, b = inputs.boxes[h][spec.link % BOXES_PER_COVARIANCE]
        rho = inputs.hot[h].rho
        return oracles.log_prob_equicorrelated(a, b, 1.0 - rho, rho - removed)
    a, b = inputs.boxes[spec.index][spec.box]
    rho = inputs.hot[spec.index].rho
    return oracles.log_prob_equicorrelated(a, b, 1.0 - rho, rho)


def check(inputs: Inputs, state: State, answers: list) -> list:
    refs = _references(inputs)
    kinds = []
    for (spec, phase), answer in answers:
        if spec.kind == "read" and inputs.hot[spec.index].kind == "exp":
            kinds.append(oracles.check_matches(answer, refs[(spec.index, spec.box)]))
        else:
            kinds.append(oracles.check_probability(answer, _log_truth(inputs, spec, phase)))
    return kinds


def self_test(inputs: Inputs, answers: list) -> list[str]:
    """Corrupt correct served answers; each corruption must be flagged."""
    refs = _references(inputs)
    exp_read = checked = None
    for (spec, phase), answer in answers:
        if spec.kind == "read" and inputs.hot[spec.index].kind == "exp":
            if exp_read is None and oracles.check_matches(answer, refs[(spec.index, spec.box)]) is None:
                exp_read = (refs[(spec.index, spec.box)], answer)
        elif checked is None:
            log_true = _log_truth(inputs, spec, phase)
            if oracles.check_probability(answer, log_true) is None:
                checked = (log_true, answer)
    if exp_read is None or checked is None:
        return ["no correct served answers to corrupt"]
    problems = []
    bad = copy.deepcopy(exp_read[1])
    bad.probability *= 1.5
    if oracles.check_matches(bad, exp_read[0]) is None:
        problems.append("check missed a 1.5x served answer")
    corrupted = {"0.0": 0.0, "1.5x": 1.5 * checked[1].probability, "false target_met": 5e-324}
    for label, value in corrupted.items():
        bad = copy.deepcopy(checked[1])
        bad.probability = value
        if label == "false target_met":
            bad.details.setdefault("plan", {})["target_met"] = True
        if oracles.check_probability(bad, checked[0]) is None:
            problems.append(f"check missed a corrupted oracle-checked answer ({label})")
    return problems


# -- ladder -------------------------------------------------------------------------
def ladder(lad: ld.Ladder, inputs: Inputs, state: State, answers: list):
    """Per-layer view of the first exponential read; returns (op s, parts s)."""
    from repro import MVNSolver, Runtime, SolverConfig
    from repro.serve.net import ServeClient

    h, k = 0, 0
    sigma = inputs.hot[h].sigma
    a, b = inputs.boxes[h][k]
    seed = inputs.qmc_seed
    broker = state.broker
    ld.serve_counters(lad, broker.stats())
    entry = ld.entry_layers(lad, sigma, a, b)
    solver_config = SolverConfig(method="auto", n_samples=N_SAMPLES)
    with ServeClient(*state.gateway.address) as client:
        round_trip_s = ld.serve_added(lad, broker, client, state.fingerprints[h], sigma, a, b, seed, solver_config)
    served = next(answer for (spec, _c), answer in answers if spec.kind == "read" and spec.index == h
                  and spec.box == k)
    with Runtime(n_workers=1) as runtime, MVNSolver(solver_config, runtime=runtime) as solver:
        model = solver.model(sigma)
        model.factorize()
        dense, tlr, chol_s, _ = ld.factor_layers(lad, sigma, model.factor.tile_size, solver_config.accuracy, runtime)
        ld.sweep_layers(lad, a, b, dense, tlr, seed, N_SAMPLES, runtime, expect=served)
        op_s, sweep_s, _, _ = lad.paired(
            "solver.probability", lambda: model.probability(a, b, rng=seed),
            "core.pmvn.integrate", lambda: ld.integrate(a, b, model.factor, seed, N_SAMPLES, runtime))
        lad.put("solver.overhead_ms", (op_s - sweep_s) * 1e3, "ms")
        batch_s, _ = lad.time("core.pmvn.batch1", lambda: ld.integrate_batch([(a, b)], model.factor, seed,
                                                                             N_SAMPLES, runtime))
        ld.batch_layers(lad, ld.batch_of_mean_size(lad, inputs.boxes[h]), dense, seed, N_SAMPLES, runtime)
        ld.planner_layer(lad, np.diag(inputs.cold_variances[0]), solver_config.accuracy)
        ld.update_layer(lad, inputs.hot[len(EXP_RANGES)].sigma,
                        solver.model(inputs.hot[len(EXP_RANGES)].sigma).factorize(),
                        update_for(inputs, 0, 0, 0), chol_s)
    # an isolated read is its validation and one batch-of-one sweep; the rest
    # of the round trip is serving and transport
    return round_trip_s, entry["check_limits"] + batch_s
