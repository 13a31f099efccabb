"""Shared pieces of the benchmark: thread pinning, timing, stats and output.

Every workload module (``crd_wind``, ``served_mix``)
exposes the same functions: ``make_inputs(seed)``, ``build(inputs)`` and
``close(state)`` for set-up, ``timed_loop`` for the closed loop, ``check``
and ``self_test`` for correctness, and ``ladder`` for the per-layer view.
``run.py`` drives them and prints the result line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: BLAS/OpenMP pools are pinned to one thread before NumPy is imported.  The
#: program's own runtime workers and serving shards supply the parallelism
#: (at most ``nproc`` compute threads), as StarPU/Chameleon/HiCMA do with
#: sequential BLAS inside each task.  A spinning 2-thread OpenBLAS pool
#: under 2 runtime workers made latencies swing by ~30% between identical
#: runs on a 2-core machine.
PINNED_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: fixed ``PYTHONHASHSEED`` of every workload process (see run.py)
HASH_SEED = "0"

#: environment variables that would silently change the measured code path
UNSET_ENV = ("REPRO_KERNEL_BACKEND", "REPRO_KERNEL_THREADS")

#: set-ups repeated per run; ``setup_s`` is their median
SETUP_REPEATS = 5

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"


def pin_threads() -> None:
    """Pin the native thread pools; must run before NumPy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    os.environ.update(PINNED_THREAD_ENV)
    for name in UNSET_ENV:
        os.environ.pop(name, None)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


# -- statistics ---------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (same rule as ``numpy.percentile``)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- tracing ------------------------------------------------------------------------
class Tracer:
    """Spans recorded from the benchmark's own calls into the program.

    A span is ``(request_id, name, parent, start, end)`` on the
    ``perf_counter`` clock; spans of one request share its id.  Spans stay in
    memory and are written out once, when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str, request_id):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((request_id, name, parent, start, end))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": rid, "name": name, "parent": parent, "start": start, "end": end}
            for rid, name, parent, start, end in self.spans
        ]
        path.write_text(json.dumps(rows))


# -- closed loop --------------------------------------------------------------------
@dataclass
class LoopResult:
    """Latencies of one closed-loop window, one entry per attempted op."""

    latencies: list[float]
    window_s: float
    answers: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def closed_loop(cycle: list, seconds: float, do_op) -> LoopResult:
    """One caller, one op in flight: whole cycles until ``seconds`` elapse.

    ``do_op(spec)`` runs one op and returns its answer (or the exception it
    raised).  The cycle is the same every time round and a cycle that has
    started is always finished, so failures are counted over whole seeded
    cycles and ``ok_frac`` repeats exactly.
    """
    latencies: list[float] = []
    answers: list = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for spec in cycle:
            t0 = time.perf_counter()
            try:
                answer = do_op(spec)
            except Exception as exc:  # noqa: BLE001 - an op that raises is a counted failure
                answer = exc
            latencies.append(time.perf_counter() - t0)
            answers.append(answer)
        if time.perf_counter() >= deadline:
            break
    return LoopResult(latencies, time.perf_counter() - start, answers)


def repeated_setup(build, close):
    """Run ``build()`` ``SETUP_REPEATS`` times; (median seconds, last state).

    Each earlier set-up is torn down with ``close(state)`` before the next
    starts, so at most one set of program threads is alive at a time.
    """
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            close(state)
        start = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - start)
    return median(times), state


# -- outcome ------------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run reports."""

    workload: str
    attempted: int
    failed: int
    correct: bool
    metrics: dict  # name -> (value, unit)
    notes: list[str] = field(default_factory=list)
    failure_kinds: dict = field(default_factory=dict)
    machine: dict = field(default_factory=dict)


def end_to_end_metrics(loop: LoopResult, ok: int, setup_s: float) -> dict:
    ms = [lat * 1e3 for lat in loop.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "ok_frac": (ok / loop.attempted, "ratio"),
        "latency_p50_ms": (percentile(ms, 50), "ms"),
        "latency_p90_ms": (percentile(ms, 90), "ms"),
        "throughput_per_s": (loop.attempted / loop.window_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


# -- machine record -----------------------------------------------------------------
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def _blas_build(np) -> dict:
    try:
        config = np.show_config(mode="dicts")
    except (TypeError, ValueError):  # older NumPy without mode=
        return {"name": "unknown"}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration") if key in blas}


def _blas_threads_in_force() -> int | None:
    """Ask the loaded OpenBLAS how many threads it will use, if it is found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    paths = (fields[-1] for fields in (line.split() for line in maps) if len(fields) >= 6)
    libs = sorted({path for path in paths if "openblas" in path.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(compute_threads: int) -> dict:
    import numpy as np

    from repro.core.kernel_backend import available_backends

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": _blas_build(np),
        "blas_threads_in_force": _blas_threads_in_force(),
        "thread_env": {name: os.environ.get(name) for name in PINNED_THREAD_ENV},
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "kernel_backends_available": available_backends(),
        "program_compute_threads": compute_threads,
        "git_commit": _git_commit(),
    }
