"""Parallel replication execution primitives.

Replications are embarrassingly parallel — each derives its own RNG
streams from ``(seed, index)`` — so a process pool gives near-linear
speedups for the full-scale figure experiments.  The worker function is a
module-level callable taking only picklable arguments (the scenario
dataclasses are plain frozen dataclasses, so they pickle cleanly), which
makes every start method — including ``spawn`` — safe.

This module holds what every dispatch shares; the one process pool is
:class:`~repro.resilience.supervisor.SupervisedWorkerPool`:

* :func:`mp_context` picks the multiprocessing start method explicitly
  (``fork`` where available for cheap startup, ``spawn`` otherwise;
  overridable via ``REPRO_MP_START_METHOD``) instead of relying on the
  platform default;
* :func:`run_indexed_job` is the worker function the pool executes per
  attempt, in a worker process or inline;
* :func:`projected_speedup` is the cost model the scheduler's dispatch
  planner uses to decide whether a batch is worth a pool at all;
* :func:`replicate_scenario_parallel` keeps the original convenience API
  on top of the pool, bit-identical to the serial
  :func:`repro.core.simulation.replicate_scenario` in all cases.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Optional, Tuple

from ..obs.metrics import Metrics
from .cache import ResultCache
from .parameters import ScenarioConfig
from .simulation import ReplicationSet, ScenarioResult, run_scenario

#: Environment variable forcing a multiprocessing start method.
START_METHOD_ENV = "REPRO_MP_START_METHOD"

#: One indexed job: (index, config, seed, replication).
IndexedJob = Tuple[int, ScenarioConfig, int, int]

#: Cost model for the dispatch-planning heuristics.  Calibrated
#: conservatively for the fork start method (spawn costs more, which only
#: makes degrading to serial *more* correct when the model says to).
POOL_STARTUP_SECONDS = 0.25


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
    persistent pool is already running) and perfect work division across
    the effective workers — an optimistic parallel model, so a projection
    below 1.0 is a confident "serial wins" signal.
    """
    if job_count <= 0 or processes <= 1:
        return 1.0
    workers = effective_parallelism(processes, job_count)
    serial = job_count * max(est_job_seconds, 0.0)
    parallel = (0.0 if pool_started else POOL_STARTUP_SECONDS) + serial / workers
    if parallel <= 0.0:
        return 1.0
    return serial / parallel


def _run_indexed(
    job: IndexedJob,
    graphs: Optional[ResultCache] = None,
    metrics: Optional[Metrics] = None,
) -> Tuple[int, ScenarioResult]:
    """Pool worker: one indexed replication (module-level for picklability).

    ``graphs`` is the executor's result cache, shipped with the job (a
    :class:`ResultCache` pickles as its root path and counters) so xl
    jobs reuse stored contact graphs under every start method; ``None``
    draws every graph afresh.  ``metrics`` receives the run's kernel
    telemetry; it never changes the result.
    """
    index, config, seed, replication = job
    return index, run_scenario(
        config, seed=seed, replication=replication, metrics=metrics,
        graphs=graphs,
    )


#: Public alias: the pool (:mod:`repro.resilience.supervisor`) executes
#: *exactly* this function per attempt, in a worker or inline, so pooled
#: results are byte-identical to the serial path's.
run_indexed_job = _run_indexed


def replicate_scenario_parallel(
    config: ScenarioConfig,
    replications: int = 5,
    seed: int = 0,
    processes: Optional[int] = None,
) -> ReplicationSet:
    """Run replications across a process pool.

    Results are identical to the serial
    :func:`~repro.core.simulation.replicate_scenario` (same derived seeds,
    same per-replication streams); only wall-clock time differs.  A
    failed replication is not retried: it raises, naming the replication.
    """
    # Imported here: the pool module imports this one.
    from ..resilience.policy import RetryPolicy
    from ..resilience.supervisor import SupervisedWorkerPool

    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    worker_count = processes if processes is not None else default_process_count()
    if worker_count < 1:
        raise ValueError(f"processes must be >= 1, got {worker_count}")

    jobs = [(index, config, seed, index) for index in range(replications)]
    results: list = [None] * replications
    with SupervisedWorkerPool(
        min(worker_count, replications), RetryPolicy(max_retries=0)
    ) as pool:
        pool.run(jobs, results.__setitem__).raise_for_failures()
    return ReplicationSet(config=config, results=results)


__all__ = [
    "IndexedJob",
    "POOL_STARTUP_SECONDS",
    "START_METHOD_ENV",
    "default_process_count",
    "effective_parallelism",
    "mp_context",
    "projected_speedup",
    "replicate_scenario_parallel",
    "run_indexed_job",
]
