"""Tests for the parallel replication runner."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.core.parallel import (
    START_METHOD_ENV,
    default_process_count,
    replicate_scenario_parallel,
)
from repro.core.simulation import replicate_scenario
from repro.obs.metrics import Metrics
from repro.resilience import RetryPolicy, SupervisedWorkerPool, supervisor

FAIL_FAST = RetryPolicy(max_retries=0)


def test_serial_fallback_matches_reference(small_scenario):
    serial = replicate_scenario(small_scenario, replications=2, seed=9)
    fallback = replicate_scenario_parallel(
        small_scenario, replications=2, seed=9, processes=1
    )
    assert fallback.final_infected() == serial.final_infected()
    assert [r.infection_times for r in fallback.results] == [
        r.infection_times for r in serial.results
    ]


def test_parallel_matches_serial(small_scenario):
    serial = replicate_scenario(small_scenario, replications=3, seed=4)
    parallel = replicate_scenario_parallel(
        small_scenario, replications=3, seed=4, processes=2
    )
    assert parallel.final_infected() == serial.final_infected()
    assert parallel.replications == 3
    # Replication indices preserved in order.
    assert [r.replication for r in parallel.results] == [0, 1, 2]


def test_default_process_count_positive():
    assert default_process_count() >= 1


def test_validation(small_scenario):
    with pytest.raises(ValueError):
        replicate_scenario_parallel(small_scenario, replications=0)
    with pytest.raises(ValueError):
        replicate_scenario_parallel(small_scenario, replications=2, processes=0)


def test_failed_replication_raises_naming_it(small_scenario, monkeypatch):
    def failing(job, graphs=None, metrics=None):
        raise ValueError("bad replication")

    monkeypatch.setattr(supervisor, "run_indexed_job", failing)
    with pytest.raises(RuntimeError, match=r"small-test:s9:r0 \(error: ValueError"):
        replicate_scenario_parallel(
            small_scenario, replications=1, seed=9, processes=1
        )


def _slow_marker_job(job, graphs=None, metrics=None):
    """Substitute worker: records completion on disk (directory via env)."""
    index = job[0]
    time.sleep(0.05)
    marker_dir = os.environ["REPRO_TEST_MARKER_DIR"]
    with open(os.path.join(marker_dir, f"done-{index}"), "w") as handle:
        handle.write(str(index))
    return index, None


def test_close_drains_dispatched_jobs(small_scenario, tmp_path, monkeypatch):
    """Regression: a clean shutdown must not drop dispatched jobs.

    The first pool used to call ``Pool.terminate()`` on clean shutdown,
    which killed workers mid-chunk — jobs that had been handed out but
    not yet yielded were silently dropped.  This runs slow jobs that
    leave marker files through a context-managed pool and requires
    every job to have completed and been delivered, and every worker
    to be reaped, once the clean exit has closed the pool.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method required to inherit the patched worker")
    monkeypatch.setenv(START_METHOD_ENV, "fork")
    monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(tmp_path))
    monkeypatch.setattr(supervisor, "run_indexed_job", _slow_marker_job)

    job_count = 6
    jobs = [(index, small_scenario, 0, index) for index in range(job_count)]
    delivered = {}
    with SupervisedWorkerPool(2, FAIL_FAST) as pool:
        pool.run(jobs, delivered.__setitem__)
    done = sorted(int(p.name.split("-")[1]) for p in tmp_path.glob("done-*"))
    assert done == list(range(job_count))
    assert sorted(delivered) == list(range(job_count))
    assert pool.probe() == [] and not pool.started


def test_exception_exit_terminates_without_draining(small_scenario):
    """The context manager still tears down hard on exception paths."""
    jobs = [(index, small_scenario, 0, index) for index in range(2)]
    with pytest.raises(RuntimeError, match="boom"):
        with SupervisedWorkerPool(2, FAIL_FAST) as pool:
            pool.run(jobs, lambda index, result: None)
            workers = [slot.process for slot in pool._slots]
            raise RuntimeError("boom")
    assert len(workers) == 2
    assert pool.probe() == [] and not pool.started
    assert pool._result_queue is None
    for worker in workers:
        with pytest.raises(ValueError):  # reaped and closed
            worker.is_alive()


class TestTimedDispatch:
    """An enabled registry makes every completion carry its telemetry."""

    def test_serial_sidecars(self, small_scenario):
        jobs = [(i, small_scenario, 3, i) for i in range(2)]
        metrics = Metrics(enabled=True)
        results = {}
        with SupervisedWorkerPool(1, FAIL_FAST, metrics=metrics) as pool:
            report = pool.run(jobs, results.__setitem__)
        assert sorted(results) == [0, 1]
        assert list(report.workers) == [os.getpid()]
        worker = report.workers[os.getpid()]
        assert worker["jobs"] == 2
        assert worker["busy_seconds"] > 0
        assert worker["events"] == metrics.counter_value("des.events_fired") > 0

    def test_results_identical_to_untimed(self, small_scenario):
        jobs = [(i, small_scenario, 7, i) for i in range(3)]
        untimed, timed = {}, {}
        with SupervisedWorkerPool(1, FAIL_FAST) as pool:
            assert pool.run(jobs, untimed.__setitem__).workers == {}
        with SupervisedWorkerPool(
            2, FAIL_FAST, metrics=Metrics(enabled=True)
        ) as pool:
            pool.run(jobs, timed.__setitem__)
        assert set(timed) == set(untimed)
        for index in untimed:
            assert timed[index].counters == untimed[index].counters
            assert (
                timed[index].infection_times == untimed[index].infection_times
            )

    def test_parallel_sidecars_report_worker_pids(self, small_scenario):
        jobs = [(i, small_scenario, 1, i) for i in range(3)]
        with SupervisedWorkerPool(
            2, FAIL_FAST, metrics=Metrics(enabled=True)
        ) as pool:
            report = pool.run(jobs, lambda index, result: None)
        assert sum(worker["jobs"] for worker in report.workers.values()) == 3
        assert report.workers and os.getpid() not in report.workers
