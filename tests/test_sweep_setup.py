"""Sweep set-up: the memoized Richtmyer lattice, variate sources, shared
infinite limit tiles and the allocation-free pooled sweep.

The set-up must stay bit-identical to the straightforward construction —
materialize ``mod(k * sqrt(p), 1)``, shift it with a second ``mod``, clip,
transpose and copy it into the sweep — so these tests pin the bits against
that literal formula and against loops of single sweeps.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import factorize
from repro.core.pmvn import (
    BATCH_CHAIN_BLOCK,
    PMVNOptions,
    SweepWorkspace,
    default_chain_block,
    pmvn_integrate,
    pmvn_integrate_batch,
)
from repro.distributed.cluster import ClusterSpec
from repro.distributed.pmvn_model import KernelRates, build_pmvn_task_graph
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.runtime import ModelEstimator
from repro.stats import qmc
from repro.stats.qmc import first_primes, qmc_samples, qmc_source

SHAPES = [(1, 1), (7, 50), (64, 333), (400, 1000), (625, 1000)]


def literal_richtmyer(dim: int, n_points: int, rng) -> np.ndarray:
    """The pre-memo construction, spelled out: (dim, n_points) variates."""
    gen = np.random.default_rng(rng)
    alphas = np.sqrt(first_primes(dim).astype(np.float64))
    k = np.arange(1, n_points + 1, dtype=np.float64)[:, None]
    pts = np.mod(k * alphas[None, :], 1.0)
    pts = (pts + gen.random(dim)) % 1.0
    pts = np.clip(pts, np.finfo(np.float64).tiny, 1.0 - 1e-16)
    return np.ascontiguousarray(pts.T)


def bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def field(side: int) -> np.ndarray:
    geom = Geometry.regular_grid(side, side)
    return build_covariance(ExponentialKernel(1.0, 0.1), geom.locations, nugget=1e-6)


class TestLatticeBits:
    @pytest.mark.parametrize("dim,n_points", SHAPES)
    @pytest.mark.parametrize("seed", [0, 17])
    def test_int_seed_matches_literal_formula(self, dim, n_points, seed):
        got = qmc_samples(dim, n_points, method="richtmyer", rng=seed)
        np.testing.assert_array_equal(bits(got), bits(literal_richtmyer(dim, n_points, seed)))

    @pytest.mark.parametrize("dim,n_points", SHAPES)
    def test_shared_generator_matches_literal_formula(self, dim, n_points):
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(3):
            got = qmc_samples(dim, n_points, method="richtmyer", rng=ours)
            np.testing.assert_array_equal(bits(got), bits(literal_richtmyer(dim, n_points, theirs)))

    def test_unshifted_points_match_literal_base(self):
        pts = qmc.RichtmyerLattice(9, shift=False).points(40)
        k = np.arange(1, 41, dtype=np.float64)[:, None]
        want = np.clip(np.mod(k * np.sqrt(first_primes(9).astype(np.float64)), 1.0),
                       np.finfo(np.float64).tiny, 1.0 - 1e-16)
        np.testing.assert_array_equal(bits(pts), bits(want))

    def test_over_budget_blocks_give_the_same_bits(self, monkeypatch):
        dim, n_points = 300, 700
        monkeypatch.setattr(qmc, "_LATTICE_MEMO_BYTES", 1024)
        source = qmc_source(dim, n_points, rng=3)
        assert source._base is None  # computed block by block, never cached
        out = np.full((dim, n_points), np.nan)
        for r0 in range(0, dim, 128):
            for c0 in range(0, n_points, 250):
                r1, c1 = min(r0 + 128, dim), min(c0 + 250, n_points)
                source.fill(out[r0:r1, c0:c1], r0, r1, c0, c1)
        np.testing.assert_array_equal(bits(out), bits(literal_richtmyer(dim, n_points, 3)))
        assert (dim, n_points) not in qmc._lattice_memo

    def test_memo_is_read_only_and_shared(self):
        base = qmc._lattice_base(31, 77)
        assert base is not None and not base.flags.writeable
        assert qmc._lattice_base(31, 77) is base
        with pytest.raises(ValueError):
            base[0, 0] = 0.5

    def test_memo_stays_within_budget(self, monkeypatch):
        monkeypatch.setattr(qmc, "_lattice_memo", type(qmc._lattice_memo)())
        monkeypatch.setattr(qmc, "_lattice_memo_nbytes", 0)
        monkeypatch.setattr(qmc, "_LATTICE_MEMO_BYTES", 8 * 10 * (101 + 102))
        for n_points in (100, 101, 102):
            qmc._lattice_base(10, n_points)
        assert list(qmc._lattice_memo) == [(10, 101), (10, 102)]
        assert qmc._lattice_memo_nbytes == sum(b.nbytes for b in qmc._lattice_memo.values())

    def test_other_sequences_keep_materialized_blocks(self):
        for method in ("halton", "sobol", "random"):
            whole = qmc_samples(6, 64, method=method, rng=2)
            out = np.empty((3, 15))
            qmc_source(6, 64, method=method, rng=2).fill(out, 2, 5, 10, 25)
            np.testing.assert_array_equal(bits(out), bits(whole[2:5, 10:25]))


@pytest.fixture(scope="module")
def factor100():
    return factorize(field(10), method="dense", tile_size=16)


def _boxes(n: int):
    rng = np.random.default_rng(4)
    lower = rng.uniform(-2.0, 0.0, n)
    return [
        (lower, np.full(n, np.inf)),                       # CRD shape: B tiles shared
        (np.full(n, -np.inf), rng.uniform(0.0, 2.0, n)),   # A tiles shared
        (lower, lower + rng.uniform(1.0, 3.0, n)),         # nothing shared
        (np.where(np.arange(n) < 40, -np.inf, -1.0), np.full(n, np.inf)),
    ]


class TestSweepBits:
    @pytest.mark.parametrize("fusion", ["interleaved", "fused"])
    def test_shared_generator_batch_equals_single_loop(self, factor100, fusion):
        boxes = _boxes(factor100.n)
        batch = pmvn_integrate_batch(
            boxes, factor100,
            PMVNOptions(n_samples=256, chain_block=64, rng=np.random.default_rng(8), fusion=fusion),
        )
        assert batch[0].details["fusion"] == fusion
        gen = np.random.default_rng(8)
        for (a, b), got in zip(boxes, batch):
            single = pmvn_integrate(a, b, factor100, PMVNOptions(n_samples=256, chain_block=64, rng=gen))
            assert (got.probability, got.error) == (single.probability, single.error)

    def test_poisoned_pool_changes_nothing(self, factor100):
        """Y tiles are never zeroed: every task must write before it reads."""
        boxes = _boxes(factor100.n)
        options = dict(n_samples=200, rng=3, return_prefix=True)
        fresh = pmvn_integrate_batch(boxes, factor100, PMVNOptions(**options))
        workspace = SweepWorkspace()
        pmvn_integrate_batch(boxes, factor100, PMVNOptions(workspace=workspace, **options))
        for buf in workspace._buffers.values():
            buf.fill(np.nan)
        again = pmvn_integrate_batch(boxes, factor100, PMVNOptions(workspace=workspace, **options))
        for want, got in zip(fresh, again):
            assert (got.probability, got.error) == (want.probability, want.error)
            np.testing.assert_array_equal(
                got.details["prefix_probabilities"], want.details["prefix_probabilities"])

    @pytest.mark.parametrize("fusion", ["interleaved", "fused"])
    def test_shared_infinite_tiles_stay_infinite(self, factor100, fusion):
        workspace = SweepWorkspace()
        # 512 samples: each fused tile holds exactly one box's chains
        pmvn_integrate_batch(
            _boxes(factor100.n), factor100,
            PMVNOptions(n_samples=512, rng=1, workspace=workspace, fusion=fusion),
        )
        assert set(workspace._infinite) == {-np.inf, np.inf}
        assert np.all(np.isneginf(workspace._infinite[-np.inf]))
        assert np.all(np.isposinf(workspace._infinite[np.inf]))
        # CRD shape: one-sided lower limits never fill a pooled B tile
        crd = SweepWorkspace()
        a, b = _boxes(factor100.n)[0]
        pmvn_integrate(a, b, factor100, PMVNOptions(n_samples=128, rng=1, workspace=crd))
        assert not [key for key in crd._buffers if key[0] == "b"]

    def test_infinite_tile_views_are_contiguous(self):
        workspace = SweepWorkspace()
        small = workspace.infinite_tile(np.inf, 3, 5)
        large = workspace.infinite_tile(np.inf, 16, 64)
        again = workspace.infinite_tile(np.inf, 3, 5)
        for tile, shape in ((small, (3, 5)), (large, (16, 64)), (again, (3, 5))):
            assert tile.shape == shape
            assert tile.flags.c_contiguous and tile.flags.writeable
            assert np.all(np.isposinf(tile))


def test_warm_prefix_sweep_allocates_under_one_mib():
    """A warm pooled n=625, N=1000 prefix sweep builds no n x N temporaries."""
    factor = factorize(field(25), method="dense")
    rng = np.random.default_rng(0)
    a, b = rng.uniform(-2.0, 0.5, 625), np.full(625, np.inf)
    options = PMVNOptions(n_samples=1000, rng=1, return_prefix=True, workspace=SweepWorkspace())
    for _ in range(2):
        pmvn_integrate(a, b, factor, options)
    tracemalloc.start()
    try:
        pmvn_integrate(a, b, factor, options)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"warm sweep peaked at {peak / 2**20:.2f} MiB"


class TestChainBlockDefault:
    def test_default_chain_block(self):
        assert default_chain_block(64, 10_000) == BATCH_CHAIN_BLOCK
        assert default_chain_block(64, 333) == 333
        assert default_chain_block(980, 10_000) == 980
        assert default_chain_block(980, 100) == 100

    def test_modelled_sweep_tasks_match_the_real_sweep(self):
        # crd_wind shape: n=625, tile 78 (9 row blocks), N=1000 -> 2 chain blocks
        tasks = build_pmvn_task_graph(625, 1000, 78, ClusterSpec(1), KernelRates(), include_cholesky=False)
        assert len(tasks) == 90

    def test_estimator_assumes_the_sweep_chain_block(self):
        assert ModelEstimator().chain_block == BATCH_CHAIN_BLOCK
