"""Parallel replication execution primitives.

Replications are embarrassingly parallel — each derives its own RNG
streams from ``(seed, index)`` — so a process pool gives near-linear
speedups for the full-scale figure experiments.  The worker function is a
module-level callable taking only picklable arguments (the scenario
dataclasses are plain frozen dataclasses, so they pickle cleanly), which
makes every start method — including ``spawn`` — safe.

Three layers:

* :func:`mp_context` picks the multiprocessing start method explicitly
  (``fork`` where available for cheap startup, ``spawn`` otherwise;
  overridable via ``REPRO_MP_START_METHOD``) instead of relying on the
  platform default;
* :class:`WorkerPool` is a persistent, lazily created pool that streams
  indexed jobs through chunked ``imap_unordered`` — jobs are generated as
  the pool consumes them, so a large replication matrix is never
  serialized upfront, and completions arrive out of order for the caller
  to reassemble;
* :func:`replicate_scenario_parallel` keeps the original convenience API
  on top, bit-identical to the serial
  :func:`repro.core.simulation.replicate_scenario` in all cases.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from ..obs.metrics import Metrics
from .cache import ResultCache
from .parameters import ScenarioConfig
from .simulation import ReplicationSet, ScenarioResult, run_scenario

#: Environment variable forcing a multiprocessing start method.
START_METHOD_ENV = "REPRO_MP_START_METHOD"

#: One indexed job: (index, config, seed, replication).
IndexedJob = Tuple[int, ScenarioConfig, int, int]

#: Upper bound on imap chunk size; small enough to keep workers balanced.
_MAX_CHUNK = 8

#: Cost model for the dispatch-planning heuristics.  Calibrated
#: conservatively for the fork start method (spawn costs more, which only
#: makes degrading to serial *more* correct when the model says to).
POOL_STARTUP_SECONDS = 0.25
DISPATCH_SECONDS_PER_CHUNK = 0.004


def mp_context():
    """An explicitly chosen multiprocessing context.

    Prefers ``fork`` (cheap worker startup; the workers never mutate
    inherited state) and falls back to ``spawn`` elsewhere; both work
    because the worker is a module-level function with picklable
    arguments.  Set ``REPRO_MP_START_METHOD`` to override.
    """
    method = os.environ.get(START_METHOD_ENV)
    if method:
        return multiprocessing.get_context(method)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def default_process_count() -> int:
    """A conservative default: physical parallelism minus one, at least 1."""
    return max(1, (os.cpu_count() or 2) - 1)


def chunk_size_for(job_count: int, processes: int) -> int:
    """Chunk size balancing dispatch overhead against tail latency.

    Targets about two chunks per worker: small campaigns (a figure's 30
    replications on 4 workers) ship in a handful of pickled batches
    instead of one IPC round-trip per job, while the second wave still
    rebalances a straggling worker.
    """
    if job_count <= 0 or processes <= 1:
        return 1
    per_worker_waves = -(-job_count // (processes * 2))  # ceil
    return max(1, min(_MAX_CHUNK, per_worker_waves))


def effective_parallelism(processes: int, job_count: Optional[int] = None) -> int:
    """Worker slots that can actually run simultaneously.

    Requested workers are capped by physical cores (oversubscribed pools
    time-slice, they don't speed up) and by the job count.
    """
    cap = min(processes, os.cpu_count() or 1)
    if job_count is not None:
        cap = min(cap, job_count)
    return max(1, cap)


def projected_speedup(
    job_count: int,
    processes: int,
    est_job_seconds: float,
    pool_started: bool = False,
) -> float:
    """Estimated serial-wall over parallel-wall ratio for one batch.

    The parallel estimate charges pool startup (waived when the
    persistent pool is already running), one dispatch round-trip per
    chunk, and perfect work division across the effective workers — an
    optimistic parallel model, so a projection below 1.0 is a confident
    "serial wins" signal.
    """
    if job_count <= 0 or processes <= 1:
        return 1.0
    workers = effective_parallelism(processes, job_count)
    serial = job_count * max(est_job_seconds, 0.0)
    chunk = chunk_size_for(job_count, processes)
    chunks = -(-job_count // chunk)
    parallel = (
        (0.0 if pool_started else POOL_STARTUP_SECONDS)
        + chunks * DISPATCH_SECONDS_PER_CHUNK
        + serial / workers
    )
    if parallel <= 0.0:
        return 1.0
    return serial / parallel


def _run_indexed(
    job: IndexedJob, graphs: Optional[ResultCache] = None
) -> Tuple[int, ScenarioResult]:
    """Pool worker: one indexed replication (module-level for picklability).

    ``graphs`` is the executor's result cache, shipped with the job (a
    :class:`ResultCache` pickles as its root path and counters) so xl
    jobs reuse stored contact graphs under every start method; ``None``
    draws every graph afresh.
    """
    index, config, seed, replication = job
    return index, run_scenario(
        config, seed=seed, replication=replication, graphs=graphs
    )


#: Public alias: the supervised pool (:mod:`repro.resilience.supervisor`)
#: executes *exactly* this function per attempt, so supervised results are
#: byte-identical to the plain pool's and the serial path's.
run_indexed_job = _run_indexed


def _run_indexed_timed(
    job: IndexedJob, graphs: Optional[ResultCache] = None
) -> Tuple[int, ScenarioResult, Dict[str, Any]]:
    """Like :func:`_run_indexed`, plus a telemetry sidecar.

    The sidecar carries the worker pid, the job's wall time, and a
    :meth:`~repro.obs.metrics.Metrics.snapshot` of the kernel telemetry —
    the cross-process channel the scheduler aggregates per-worker event
    rates from.  The :class:`ScenarioResult` itself stays byte-identical
    to the untimed path (telemetry never contaminates cached or golden
    results).
    """
    index, config, seed, replication = job
    metrics = Metrics(enabled=True)
    start = time.perf_counter()
    result = run_scenario(
        config, seed=seed, replication=replication, metrics=metrics,
        graphs=graphs,
    )
    sidecar = {
        "pid": os.getpid(),
        "wall_seconds": time.perf_counter() - start,
        "metrics": metrics.snapshot(),
    }
    return index, result, sidecar


class WorkerPool:
    """Persistent process pool streaming indexed replication jobs.

    The underlying pool is created lazily on first use and reused across
    calls (one pool per experiment batch / sweep instead of one per
    replication set).  Use as a context manager or call :meth:`close`.
    With ``processes == 1`` no pool is ever created and jobs execute
    inline, which keeps the serial path allocation-free and identical to
    :func:`repro.core.simulation.replicate_scenario`.  ``graphs`` is the
    result cache every job loads and stores xl contact graphs through
    (see :func:`run_indexed_job`); results are the same without it.
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        graphs: Optional[ResultCache] = None,
    ) -> None:
        count = processes if processes is not None else default_process_count()
        if count < 1:
            raise ValueError(f"processes must be >= 1, got {count}")
        self.processes = count
        self.graphs = graphs
        self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Clean exits drain in-flight work; exceptional exits must not
        # block on it (the results will never be consumed anyway).
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

    def close(self) -> None:
        """Shut the pool down *after* draining all dispatched jobs.

        ``Pool.close()`` + ``join()`` lets every chunk already handed to a
        worker run to completion (a plain ``terminate()`` here used to
        kill in-flight chunked jobs on context-manager exit, silently
        dropping dispatched work).
        """
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def terminate(self) -> None:
        """Kill workers immediately, abandoning in-flight jobs.

        For exception paths only — a clean shutdown is :meth:`close`.
        """
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    @property
    def started(self) -> bool:
        """True once worker processes exist (startup cost already paid)."""
        return self._pool is not None

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = mp_context().Pool(self.processes)
        return self._pool

    def _worker(self, run):
        """``run`` bound to this pool's graph store (picklable).

        Without a store the bare function ships, so cache-less runs
        pickle nothing extra per chunk.
        """
        if self.graphs is None:
            return run
        return functools.partial(run, graphs=self.graphs)

    def imap_indexed(
        self,
        jobs: Iterable[IndexedJob],
        job_count: Optional[int] = None,
    ) -> Iterator[Tuple[int, ScenarioResult]]:
        """Yield ``(index, result)`` as jobs complete (unordered).

        ``jobs`` may be a lazy generator; with more than one process it is
        consumed incrementally in chunks, so huge job matrices never
        materialize in memory at once.
        """
        run = self._worker(_run_indexed)
        if self.processes == 1:
            for job in jobs:
                yield run(job)
            return
        if job_count == 0:
            # A known-empty batch must never pay pool startup.
            return
        count = job_count if job_count is not None else 0
        chunk = chunk_size_for(count, self.processes)
        pool = self._ensure_pool()
        yield from pool.imap_unordered(run, jobs, chunksize=chunk)

    def imap_indexed_timed(
        self,
        jobs: Iterable[IndexedJob],
        job_count: Optional[int] = None,
    ) -> Iterator[Tuple[int, ScenarioResult, Dict[str, Any]]]:
        """Like :meth:`imap_indexed`, yielding ``(index, result, sidecar)``.

        Each sidecar reports the executing worker's pid, the job's wall
        time, and a kernel-telemetry snapshot; the results themselves are
        identical to the untimed path.  The serial ``processes == 1`` path
        produces the same sidecars inline, so telemetry consumers never
        special-case worker counts.
        """
        run = self._worker(_run_indexed_timed)
        if self.processes == 1:
            for job in jobs:
                yield run(job)
            return
        if job_count == 0:
            # A known-empty batch must never pay pool startup.
            return
        count = job_count if job_count is not None else 0
        chunk = chunk_size_for(count, self.processes)
        pool = self._ensure_pool()
        yield from pool.imap_unordered(run, jobs, chunksize=chunk)


def replicate_scenario_parallel(
    config: ScenarioConfig,
    replications: int = 5,
    seed: int = 0,
    processes: Optional[int] = None,
) -> ReplicationSet:
    """Run replications across a process pool.

    Results are identical to the serial
    :func:`~repro.core.simulation.replicate_scenario` (same derived seeds,
    same per-replication streams); only wall-clock time differs.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    worker_count = processes if processes is not None else default_process_count()
    if worker_count < 1:
        raise ValueError(f"processes must be >= 1, got {worker_count}")

    jobs: Iterator[IndexedJob] = (
        (index, config, seed, index) for index in range(replications)
    )
    results: list = [None] * replications
    with WorkerPool(min(worker_count, replications)) as pool:
        for index, result in pool.imap_indexed(jobs, job_count=replications):
            results[index] = result
    return ReplicationSet(config=config, results=results)


__all__ = [
    "DISPATCH_SECONDS_PER_CHUNK",
    "IndexedJob",
    "POOL_STARTUP_SECONDS",
    "START_METHOD_ENV",
    "WorkerPool",
    "chunk_size_for",
    "default_process_count",
    "effective_parallelism",
    "mp_context",
    "projected_speedup",
    "replicate_scenario_parallel",
    "run_indexed_job",
]
