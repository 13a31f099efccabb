"""Quasi-Monte Carlo point sets.

Algorithm 2 fills an ``n x N`` matrix ``R`` with uniform variates; the paper
(following Genz and the tlrmvnmvt package) uses quasi-Monte Carlo sequences
with random shifts rather than plain pseudo-random numbers, which improves
the convergence rate of the probability estimate from ``O(N^{-1/2})`` towards
``O(N^{-1})``.

Three low-discrepancy constructions are provided from scratch plus a plain
pseudo-random fallback:

* :class:`RichtmyerLattice` — the Kronecker/Richtmyer rule based on square
  roots of primes, the generator used by Genz's original Fortran code.
* :class:`HaltonSequence` — radical-inverse sequence in coprime bases.
* :class:`SobolSequence` — digital (t,s)-sequence; thin wrapper over
  ``scipy.stats.qmc.Sobol`` kept behind the same interface.
* :class:`UniformRandom` — i.i.d. uniforms, the plain-MC baseline.

All generators produce points in the open unit cube ``(0, 1)`` (endpoints are
avoided because the SOV recursion feeds them into ``Phi^{-1}``).

Lattice memo and variate sources
--------------------------------
The Richtmyer base ``frac(k * sqrt(p_j))`` depends only on ``(dim, N)``, not
on the random shift, so it is computed once per process and shared: a
lock-guarded, read-only memo in the ``(dim, N)`` orientation the PMVN sweep
consumes, bounded by :data:`_LATTICE_MEMO_BYTES` (least recently used shapes
are evicted first; a shape larger than the whole budget — paper scale, e.g.
``n = 40_000`` with ``N = 10_000`` — is never cached and is computed block by
block instead).  :func:`qmc_source` hands out one box's variates as a
:class:`VariateSource` that writes any ``[r0:r1, c0:c1]`` block of the
``(dim, N)`` matrix straight into a caller's buffer, so the sweep never
materializes a per-box ``n x N`` matrix for the lattice.  Every path yields
the same bits as shifting and wrapping the full matrix.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = [
    "UniformRandom",
    "HaltonSequence",
    "RichtmyerLattice",
    "SobolSequence",
    "VariateSource",
    "qmc_samples",
    "qmc_source",
    "sequence_from_name",
    "first_primes",
]


def first_primes(count: int) -> np.ndarray:
    """Return the first ``count`` prime numbers (simple sieve)."""
    count = check_positive_int(count, "count")
    limit = max(16, int(count * (np.log(count + 1) + np.log(np.log(count + 3)))) + 10)
    while True:
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(limit ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        primes = np.flatnonzero(sieve)
        if primes.size >= count:
            return primes[:count].astype(np.int64)
        limit *= 2


#: byte budget of the process-wide lattice-base memo (least recently used
#: shapes are evicted first; a single shape over the budget is not cached)
_LATTICE_MEMO_BYTES = 32 << 20

#: clip bounds keeping every variate strictly inside (0, 1) for ``Phi^{-1}``
_CLIP_LO = np.finfo(np.float64).tiny
_CLIP_HI = 1.0 - 1e-16

_lattice_lock = threading.Lock()
_lattice_memo: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
_lattice_memo_nbytes = 0


@lru_cache(maxsize=32)
def _lattice_alphas(dim: int) -> np.ndarray:
    """Read-only generator vector ``sqrt(p_j)`` of the first ``dim`` primes."""
    alphas = np.sqrt(first_primes(dim).astype(np.float64))
    alphas.flags.writeable = False
    return alphas


def _lattice_block(alphas: np.ndarray, c0: int, c1: int, out: np.ndarray) -> np.ndarray:
    """Write ``frac(k * alphas[:, None])`` for points ``k = c0+1 .. c1`` into ``out``."""
    k = np.arange(c0 + 1, c1 + 1, dtype=np.float64)
    np.multiply(alphas[:, None], k[None, :], out=out)
    np.mod(out, 1.0, out=out)
    return out


def _lattice_base(dim: int, n_points: int) -> np.ndarray | None:
    """The memoized read-only ``(dim, n_points)`` lattice base, or ``None``.

    ``None`` means the shape alone exceeds :data:`_LATTICE_MEMO_BYTES`; the
    caller then computes the base block by block.
    """
    global _lattice_memo_nbytes
    nbytes = 8 * dim * n_points
    if nbytes > _LATTICE_MEMO_BYTES:
        return None
    key = (dim, n_points)
    with _lattice_lock:
        base = _lattice_memo.get(key)
        if base is not None:
            _lattice_memo.move_to_end(key)
            return base
        base = _lattice_block(_lattice_alphas(dim), 0, n_points, np.empty((dim, n_points)))
        base.flags.writeable = False
        while _lattice_memo and _lattice_memo_nbytes + nbytes > _LATTICE_MEMO_BYTES:
            _, evicted = _lattice_memo.popitem(last=False)
            _lattice_memo_nbytes -= evicted.nbytes
        _lattice_memo[key] = base
        _lattice_memo_nbytes += nbytes
        return base


class VariateSource:
    """One box's ``(dim, N)`` uniform-variate matrix, handed out block by block.

    :meth:`fill` writes rows ``r0:r1`` and columns ``c0:c1`` of the matrix
    into ``out`` (any writeable ``(r1 - r0, c1 - c0)`` float64 view).  The
    randomization is drawn when the source is created, so creating one
    source per box in box order consumes a shared ``Generator`` exactly like
    materializing the boxes' matrices one after another.
    """

    def fill(self, out: np.ndarray, r0: int, r1: int, c0: int, c1: int) -> None:
        raise NotImplementedError


class _MatrixSource(VariateSource):
    """A materialized ``(dim, N)`` matrix, copied out block by block."""

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix

    def fill(self, out: np.ndarray, r0: int, r1: int, c0: int, c1: int) -> None:
        np.copyto(out, self.matrix[r0:r1, c0:c1])


class _LatticeSource(VariateSource):
    """Shifted Richtmyer lattice written straight from the memoized base."""

    def __init__(self, alphas: np.ndarray, n_points: int, offset: np.ndarray | None) -> None:
        self._alphas = alphas
        self._base = _lattice_base(alphas.shape[0], n_points)
        self._offset = offset

    def fill(self, out: np.ndarray, r0: int, r1: int, c0: int, c1: int) -> None:
        if self._base is not None:
            base = self._base[r0:r1, c0:c1]
        else:
            base = _lattice_block(self._alphas[r0:r1], c0, c1, out)
        if self._offset is not None:
            np.add(base, self._offset[r0:r1, None], out=out)
            # base and offset lie in [0, 1), so the sum y lies in [0, 2) where
            # fmod is exact: y - (y >= 1) is bitwise np.mod(y, 1.0)
            np.subtract(out, out >= 1.0, out=out)
        elif base is not out:
            np.copyto(out, base)
        np.clip(out, _CLIP_LO, _CLIP_HI, out=out)


class QMCSequence:
    """Base class: a generator of ``(n_points, dim)`` uniform point sets."""

    def __init__(self, dim: int, rng: np.random.Generator | int | None = None) -> None:
        self.dim = check_positive_int(dim, "dim")
        self.rng = np.random.default_rng(rng)

    def points(self, n_points: int) -> np.ndarray:
        """Return an ``(n_points, dim)`` array of points in the open unit cube."""
        raise NotImplementedError

    def source(self, n_points: int) -> VariateSource:
        """The ``(dim, n_points)`` transpose of :meth:`points` as a :class:`VariateSource`."""
        return _MatrixSource(np.ascontiguousarray(self.points(n_points).T))

    def _randomize(self, pts: np.ndarray, shift: bool) -> np.ndarray:
        if shift:
            offset = self.rng.random(self.dim)
            pts = (pts + offset) % 1.0
        # keep strictly inside (0, 1) for the downstream Phi^{-1}
        return np.clip(pts, _CLIP_LO, _CLIP_HI)


class UniformRandom(QMCSequence):
    """Plain i.i.d. uniform variates (the Monte Carlo baseline)."""

    def points(self, n_points: int) -> np.ndarray:
        n_points = check_positive_int(n_points, "n_points")
        pts = self.rng.random((n_points, self.dim))
        return self._randomize(pts, shift=False)


class RichtmyerLattice(QMCSequence):
    """Richtmyer (Kronecker) lattice rule with a random shift.

    Point ``k`` has coordinates ``frac(k * sqrt(p_j))`` for the ``j``-th prime
    ``p_j``.  This is the rule used in Genz's MVN code and in tlrmvnmvt.
    The unshifted base is memoized per ``(dim, n_points)`` (see the module
    docs); :meth:`points` returns the transpose of a C-ordered
    ``(dim, n_points)`` array.
    """

    def __init__(self, dim: int, rng=None, shift: bool = True) -> None:
        super().__init__(dim, rng)
        self.shift = shift
        self._alphas = _lattice_alphas(self.dim)

    def source(self, n_points: int) -> VariateSource:
        n_points = check_positive_int(n_points, "n_points")
        # the same draw _randomize makes, taken when the source is created
        offset = self.rng.random(self.dim) if self.shift else None
        return _LatticeSource(self._alphas, n_points, offset)

    def points(self, n_points: int) -> np.ndarray:
        n_points = check_positive_int(n_points, "n_points")
        out = np.empty((self.dim, n_points))
        self.source(n_points).fill(out, 0, self.dim, 0, n_points)
        return out.T


class HaltonSequence(QMCSequence):
    """Halton sequence (radical inverse in coprime prime bases)."""

    def __init__(self, dim: int, rng=None, shift: bool = True, skip: int = 20) -> None:
        super().__init__(dim, rng)
        self.shift = shift
        self.skip = int(skip)
        self._bases = first_primes(self.dim)

    @staticmethod
    def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
        result = np.zeros(indices.shape, dtype=np.float64)
        frac = 1.0 / base
        idx = indices.copy()
        while np.any(idx > 0):
            result += frac * (idx % base)
            idx //= base
            frac /= base
        return result

    def points(self, n_points: int) -> np.ndarray:
        n_points = check_positive_int(n_points, "n_points")
        indices = np.arange(self.skip + 1, self.skip + n_points + 1, dtype=np.int64)
        pts = np.empty((n_points, self.dim), dtype=np.float64)
        for j, base in enumerate(self._bases):
            pts[:, j] = self._radical_inverse(indices, int(base))
        return self._randomize(pts, shift=self.shift)


class SobolSequence(QMCSequence):
    """Scrambled Sobol sequence via ``scipy.stats.qmc`` behind the common API."""

    def __init__(self, dim: int, rng=None, shift: bool = False) -> None:
        super().__init__(dim, rng)
        self.shift = shift
        from scipy.stats import qmc as scipy_qmc

        seed = int(self.rng.integers(0, 2**31 - 1))
        self._engine = scipy_qmc.Sobol(d=self.dim, scramble=True, seed=seed)

    def points(self, n_points: int) -> np.ndarray:
        n_points = check_positive_int(n_points, "n_points")
        pts = self._engine.random(n_points)
        return self._randomize(pts, shift=self.shift)


_SEQUENCES = {
    "random": UniformRandom,
    "mc": UniformRandom,
    "richtmyer": RichtmyerLattice,
    "lattice": RichtmyerLattice,
    "halton": HaltonSequence,
    "sobol": SobolSequence,
}


def sequence_from_name(name: str, dim: int, rng=None) -> QMCSequence:
    """Instantiate a sequence generator by name."""
    key = name.lower()
    if key not in _SEQUENCES:
        raise ValueError(f"unknown QMC sequence {name!r}; available: {sorted(set(_SEQUENCES))}")
    return _SEQUENCES[key](dim, rng=rng)


def qmc_source(dim: int, n_samples: int, method: str = "richtmyer", rng=None) -> VariateSource:
    """One box's ``(dim, n_samples)`` variates as a :class:`VariateSource`.

    The Richtmyer lattice writes each requested block straight from the
    memoized base; the other sequences materialize their matrix once and
    copy blocks out of it.
    """
    return sequence_from_name(method, dim, rng=rng).source(n_samples)


def qmc_samples(dim: int, n_samples: int, method: str = "richtmyer", rng=None) -> np.ndarray:
    """Convenience wrapper returning a ``(dim, n_samples)`` uniform matrix.

    This is the orientation Algorithm 2 uses for the ``R`` matrix: one row
    per MVN dimension, one column per QMC sample (MC chain).
    """
    seq = sequence_from_name(method, dim, rng=rng)
    return np.ascontiguousarray(seq.points(n_samples).T)
