"""Supervised worker pool: retries, timeouts, crash detection, quarantine.

The one process pool every campaign runs on: the scheduler's plain
batches (under a fail-fast ``RetryPolicy(max_retries=0)``), its
``--retries``/``--task-timeout`` batches, and the campaign daemon.  The
pool owns its worker processes directly so the parent can *supervise*
them:

* each worker runs one task at a time off its own queue, so a failure is
  always attributable to exactly one ``(task, attempt)``;
* a worker that dies (segfault, ``os._exit``, OOM-kill) is detected via
  its exit code, its task is retried per the
  :class:`~repro.resilience.policy.RetryPolicy`, and the slot respawns;
* a task that exceeds ``policy.task_timeout`` gets its worker terminated
  (the only way to reclaim a truly hung process) and is retried;
* a task failing ``policy.max_attempts`` times is **quarantined**: the
  campaign continues without it and the failure is reported, never
  silently retried forever;
* when workers keep dying (more than ``policy.max_pool_respawns``
  respawns in one :meth:`~SupervisedWorkerPool.run`) the pool degrades
  gracefully to serial in-process execution of the remaining tasks; the
  next run starts a full pool again.

The pool is persistent: workers start lazily on the first run and serve
every later one until :meth:`~SupervisedWorkerPool.close` (drain) or
:meth:`~SupervisedWorkerPool.terminate` (abort).  Every message carries
its run's sequence number, so a late completion from an abandoned run
can never land in the next one.  Workers exit on their own when their
parent dies (they notice the reparenting), so a SIGKILL'd parent leaves
no orphans.  ``run(jobs, on_result)`` streams each completion to the
caller — after the freed worker has already been handed its next task,
so the caller's per-result work overlaps compute.

Results are byte-identical to the serial path — the supervisor only
decides where/when a task runs.  Task payloads are
:data:`~repro.core.parallel.IndexedJob` tuples, executed by the
module-level :func:`~repro.core.parallel.run_indexed_job`, so every
start method (including ``spawn``) stays safe.  When the pool's
``metrics`` registry is enabled, every completion also carries the
attempt's worker pid, wall seconds and kernel-telemetry snapshot; the
parent folds them into the registry and :attr:`SupervisionReport.workers`.

Fault injection: each task may carry a *fault directive* (any object
with an ``apply(attempt, soft=False)`` method, see :mod:`repro.faults`)
that the worker invokes before simulating — the deterministic harness
the ``faultinject`` test suite and the campaign daemon's ``--crash-task``
drive every recovery path with.
"""

from __future__ import annotations

import heapq
import os
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.cache import ResultCache
from ..core.parallel import IndexedJob, mp_context, run_indexed_job
from ..obs.metrics import NULL_METRICS, Metrics
from .policy import RetryPolicy

#: How long the supervisor blocks on the result queue per loop iteration.
_POLL_SECONDS = 0.05

#: How long an idle worker blocks on its task queue before re-checking
#: that its parent is still alive.
_WORKER_POLL_SECONDS = 0.2

#: Grace period for worker shutdown before escalating to terminate().
_SHUTDOWN_GRACE = 1.0

#: ``on_result(index, result)``: one completed job, by its job index.
ResultCallback = Callable[[int, Any], None]

#: What one attempt ships back: ``(index, result, sidecar)``, where the
#: sidecar is ``(pid, wall_seconds, metrics snapshot)`` or ``None``.
Completion = Tuple[int, Any, Optional[Tuple[int, float, Dict[str, Any]]]]


def task_key(job: IndexedJob) -> str:
    """Human-readable stable identity of one replication task."""
    _, config, seed, replication = job
    return f"{config.name}:s{seed}:r{replication}"


@dataclass(frozen=True)
class FailureEvent:
    """One failed attempt and the supervisor's decision about it."""

    task_id: int
    key: str
    attempt: int
    kind: str  # "crash" | "timeout" | "error"
    action: str  # "retry" | "quarantine"
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        """Manifest-ready view."""
        return {
            "task_id": self.task_id,
            "key": self.key,
            "attempt": self.attempt,
            "kind": self.kind,
            "action": self.action,
            "detail": self.detail,
        }


@dataclass
class SupervisionReport:
    """Outcome of one supervised run (results stream to ``on_result``)."""

    events: List[FailureEvent] = field(default_factory=list)
    quarantined: List[int] = field(default_factory=list)
    quarantined_keys: List[str] = field(default_factory=list)
    retries: int = 0
    respawns: int = 0
    degraded_to_serial: bool = False
    #: Tasks completed in the calling process (serial or degraded).
    completed_inline: int = 0
    #: Per-process telemetry by pid (``jobs``, ``events``,
    #: ``busy_seconds``); filled only when the pool's registry is enabled.
    workers: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def counts(self) -> Dict[str, int]:
        """Failure counts by kind."""
        by_kind: Dict[str, int] = {}
        for event in self.events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        return by_kind

    def raise_for_failures(self) -> None:
        """Fail-fast callers: raise naming every quarantined task."""
        failed = [event for event in self.events if event.action == "quarantine"]
        if failed:
            raise RuntimeError(
                f"{len(failed)} replication(s) failed: "
                + "; ".join(
                    f"{event.key} ({event.kind}: {event.detail})"
                    for event in failed[:3]
                )
                + ("; ..." if len(failed) > 3 else "")
            )


class _TaskState:
    """Supervisor-side bookkeeping for one task."""

    __slots__ = ("task_id", "job", "fault", "key", "failures", "done", "quarantined")

    def __init__(self, task_id: int, job: IndexedJob, fault: Any) -> None:
        self.task_id = task_id
        self.job = job
        self.fault = fault
        self.key = task_key(job)
        self.failures = 0
        self.done = False
        self.quarantined = False

    @property
    def finished(self) -> bool:
        return self.done or self.quarantined


class _WorkerSlot:
    """One supervised worker process plus its private task queue."""

    __slots__ = ("process", "task_queue", "current", "completed", "respawns")

    def __init__(self) -> None:
        self.process = None
        self.task_queue = None
        #: In-flight assignment: (task_id, attempt, started, deadline).
        self.current: Optional[Tuple[int, int, float, float]] = None
        self.completed = 0
        self.respawns = 0


def _execute(
    job: IndexedJob,
    fault: Any,
    attempt: int,
    graphs: Optional[ResultCache],
    telemetry: bool,
    soft: bool = False,
) -> Completion:
    """One attempt of one task, in a worker or inline.

    Applies the task's fault directive, then runs
    :func:`~repro.core.parallel.run_indexed_job`.  With ``telemetry`` the
    run gets its own enabled :class:`Metrics` and the completion carries
    ``(pid, wall_seconds, snapshot)``; the result is the same either way.
    """
    if fault is not None:
        fault.apply(attempt, soft=soft)
    if not telemetry:
        index, result = run_indexed_job(job, graphs)
        return index, result, None
    metrics = Metrics(enabled=True)
    start = time.perf_counter()
    index, result = run_indexed_job(job, graphs, metrics)
    sidecar = (os.getpid(), time.perf_counter() - start, metrics.snapshot())
    return index, result, sidecar


def _worker_main(
    task_queue,
    result_queue,
    graphs: Optional[ResultCache],
    telemetry: bool,
    parent_pid: int,
) -> None:
    """Worker loop: run one task per message until the ``None`` sentinel.

    Module-level (spawn-safe).  Fault directives run *inside* the try so
    injected exceptions surface as ordinary task errors; injected hard
    crashes (``os._exit``) bypass it entirely, which is the point — the
    parent must detect those from the process exit code.  Between tasks
    the worker checks its parent: a SIGKILL'd parent cannot reap its
    children, so a reparented worker exits on its own.
    """
    while True:
        if os.getppid() != parent_pid:
            os._exit(0)  # parent died; don't linger as an orphan
        try:
            message = task_queue.get(timeout=_WORKER_POLL_SECONDS)
        except queue_module.Empty:
            continue
        if message is None:
            return
        run_id, task_id, attempt, job, fault = message
        try:
            completion = _execute(job, fault, attempt, graphs, telemetry)
        except KeyboardInterrupt:  # pragma: no cover - parent-driven teardown
            return
        except BaseException as exc:
            result_queue.put(
                (run_id, task_id, attempt, "error", f"{type(exc).__name__}: {exc}")
            )
        else:
            result_queue.put((run_id, task_id, attempt, "ok", completion))


class SupervisedWorkerPool:
    """Run indexed replication jobs under supervision (see module doc).

    ``faults`` maps task ids (positions in each run's job list) to fault
    directives — a :class:`~repro.faults.FaultPlan` or a plain dict;
    ``metrics`` receives ``resilience.*`` counters for every failure,
    retry, quarantine, and respawn, and — when enabled — every attempt's
    kernel telemetry; ``graphs`` reaches every attempt
    (see :func:`~repro.core.parallel.run_indexed_job`).  With
    ``processes == 1`` and no ``policy.task_timeout`` every task runs
    inline in the calling process; a timeout needs a worker process to
    reclaim, so with one set even a single slot is supervised.
    """

    def __init__(
        self,
        processes: int,
        policy: Optional[RetryPolicy] = None,
        metrics: Optional[Metrics] = None,
        faults: Optional[Mapping[int, Any]] = None,
        graphs: Optional[ResultCache] = None,
    ) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.processes = processes
        self.policy = policy if policy is not None else RetryPolicy()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.faults = faults if faults is not None else {}
        self.graphs = graphs
        self._ctx = mp_context()
        self._result_queue = None
        self._slots: List[_WorkerSlot] = []
        #: Sequence number of the current run; tags every message.
        self._run_id = 0
        #: Guards the slots: the supervising thread and :meth:`probe`.
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "SupervisedWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

    def _start_worker(self, slot: _WorkerSlot) -> None:
        if self._result_queue is None:
            self._result_queue = self._ctx.Queue()
        slot.task_queue = self._ctx.Queue()
        slot.process = self._ctx.Process(
            target=_worker_main,
            args=(
                slot.task_queue,
                self._result_queue,
                self.graphs,
                self.metrics.enabled,
                os.getpid(),
            ),
            daemon=True,
        )
        slot.process.start()
        slot.current = None

    @staticmethod
    def _dispose(slot: _WorkerSlot) -> None:
        """Fully reap one worker: no zombie process, no leaked queue.

        Escalates ``terminate`` → ``kill`` so a worker ignoring SIGTERM
        (stuck in uninterruptible I/O, masked signals) cannot survive as
        a zombie, then releases the ``Process`` object's pipe/sentinel
        resources with ``close()`` — without it every respawn leaks the
        dead worker's file descriptors until garbage collection.
        """
        process = slot.process
        if process is None:
            return
        if process.is_alive():
            process.terminate()
            process.join(timeout=_SHUTDOWN_GRACE)
        if process.is_alive():  # pragma: no cover - SIGTERM ignored
            process.kill()
            process.join(timeout=_SHUTDOWN_GRACE)
        slot.task_queue.cancel_join_thread()
        slot.task_queue.close()
        try:
            process.close()
        except ValueError:  # pragma: no cover - still running after kill
            pass
        slot.process = None
        slot.task_queue = None
        slot.current = None

    def close(self) -> None:
        """Stop every worker after its current task (idempotent)."""
        with self._lock:
            live = [s for s in self._slots if s.process is not None]
            for slot in live:
                try:
                    slot.task_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover - closed
                    pass
            deadline = time.monotonic() + _SHUTDOWN_GRACE
            for slot in live:
                slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
        self.terminate()

    def terminate(self) -> None:
        """Kill every worker now, abandoning in-flight tasks (idempotent)."""
        with self._lock:
            for slot in self._slots:
                self._dispose(slot)
            self._slots = []
            if self._result_queue is not None:
                self._result_queue.cancel_join_thread()
                self._result_queue.close()
                self._result_queue = None

    @property
    def started(self) -> bool:
        """True while worker processes exist (startup cost already paid)."""
        return bool(self._slots)

    def probe(self) -> List[Dict[str, Any]]:
        """Per-worker health snapshot; safe to call from any thread.

        ``busy_seconds`` is the age of the task in flight (0 when idle):
        a long-running replication shows here long before the policy's
        ``task_timeout`` reclaims it.
        """
        now = time.monotonic()
        with self._lock:
            return [
                {
                    "worker": position,
                    "alive": slot.process is not None and slot.process.is_alive(),
                    "completed": slot.completed,
                    "respawns": slot.respawns,
                    "busy_seconds": round(
                        now - slot.current[2] if slot.current else 0.0, 3
                    ),
                }
                for position, slot in enumerate(self._slots)
            ]

    # -- shared failure accounting -----------------------------------------

    def _record_failure(
        self,
        report: SupervisionReport,
        state: _TaskState,
        kind: str,
        detail: str,
    ) -> Optional[float]:
        """Count one failed attempt; return the retry delay or ``None``.

        ``None`` means the task just exhausted its attempt budget and was
        quarantined.
        """
        attempt = state.failures
        state.failures += 1
        self.metrics.inc("resilience.failures")
        self.metrics.inc(
            {"crash": "resilience.crashes", "timeout": "resilience.timeouts"}.get(
                kind, "resilience.task_errors"
            )
        )
        if state.failures >= self.policy.max_attempts:
            state.quarantined = True
            report.quarantined.append(state.task_id)
            report.quarantined_keys.append(state.key)
            report.events.append(
                FailureEvent(state.task_id, state.key, attempt, kind,
                             "quarantine", detail)
            )
            self.metrics.inc("resilience.quarantined")
            return None
        report.retries += 1
        report.events.append(
            FailureEvent(state.task_id, state.key, attempt, kind, "retry", detail)
        )
        self.metrics.inc("resilience.retries")
        return self.policy.backoff_delay(state.key, state.failures)

    def _deliver(
        self,
        report: SupervisionReport,
        completion: Completion,
        on_result: ResultCallback,
    ) -> None:
        """Fold a completion's telemetry in, then hand its result over."""
        index, result, sidecar = completion
        if sidecar is not None:
            pid, wall_seconds, snapshot = sidecar
            self.metrics.merge(snapshot)
            tally = report.workers.setdefault(
                pid, {"jobs": 0, "events": 0, "busy_seconds": 0.0}
            )
            tally["jobs"] += 1
            tally["busy_seconds"] += wall_seconds
            tally["events"] += int(
                snapshot.get("counters", {}).get("des.events_fired", 0)
            )
        on_result(index, result)

    # -- serial execution (one untimed process, and degraded fallback) ------

    def _run_serial(
        self,
        states: Sequence[_TaskState],
        report: SupervisionReport,
        on_result: ResultCallback,
        should_abort: Optional[Callable[[], bool]],
    ) -> None:
        """Run every unfinished task inline, honouring retries/quarantine.

        Fault directives are applied in *soft* mode (crash directives
        raise instead of ``os._exit``, hangs raise instead of sleeping)
        — the parent process must survive its own fallback path.  No
        per-attempt timeout is possible inline; the policy's retry and
        quarantine bounds still apply.
        """
        for state in states:
            while not state.finished:
                if should_abort is not None and should_abort():
                    return
                try:
                    completion = _execute(
                        state.job,
                        state.fault,
                        state.failures,
                        self.graphs,
                        self.metrics.enabled,
                        soft=True,
                    )
                except Exception as exc:
                    delay = self._record_failure(
                        report, state, "error", f"{type(exc).__name__}: {exc}"
                    )
                    if delay is not None and delay > 0:
                        time.sleep(delay)
                else:
                    state.done = True
                    report.completed_inline += 1
                    self._deliver(report, completion, on_result)

    # -- supervised pool execution ------------------------------------------

    def _respawn(self, slot: _WorkerSlot, report: SupervisionReport) -> None:
        self._dispose(slot)
        self._start_worker(slot)
        slot.respawns += 1
        report.respawns += 1
        self.metrics.inc("resilience.pool_respawns")

    def run(
        self,
        jobs: Sequence[IndexedJob],
        on_result: ResultCallback,
        should_abort: Optional[Callable[[], bool]] = None,
    ) -> SupervisionReport:
        """Execute ``jobs`` to completion or quarantine; see module doc.

        Each completion is streamed as ``on_result(index, result)``, in
        completion order.  ``should_abort`` is polled once per
        supervision tick; when it returns true the run stops early and
        abandons its in-flight attempts.
        """
        report = SupervisionReport()
        states = [
            _TaskState(task_id, job, self.faults.get(task_id))
            for task_id, job in enumerate(jobs)
        ]
        if not states:
            return report
        self._run_id += 1
        if self.processes == 1 and self.policy.task_timeout is None:
            self._run_serial(states, report, on_result, should_abort)
            return report

        #: Min-heap of (eligible_at, insertion_seq, task_id).
        ready: List[Tuple[float, int, int]] = [
            (0.0, task_id, task_id) for task_id in range(len(states))
        ]
        sequence = len(states)
        remaining = len(states)

        def fail(state: _TaskState, kind: str, detail: str) -> None:
            nonlocal sequence, remaining
            delay = self._record_failure(report, state, kind, detail)
            if delay is None:
                remaining -= 1
            else:
                sequence += 1
                heapq.heappush(
                    ready, (time.monotonic() + delay, sequence, state.task_id)
                )

        with self._lock:
            while len(self._slots) < min(self.processes, len(states)):
                self._slots.append(_WorkerSlot())
            for slot in self._slots:
                if slot.process is None:
                    self._start_worker(slot)
        try:
            while remaining:
                if should_abort is not None and should_abort():
                    break
                with self._lock:
                    self._supervise(states, report, fail)
                if report.respawns > self.policy.max_pool_respawns:
                    report.degraded_to_serial = True
                    self.metrics.inc("resilience.degraded_to_serial")
                    break
                self._assign(ready, states)
                completed = self._drain(states, fail)
                if completed:
                    # Hand freed workers their next task before the
                    # caller's per-result work (fsyncs) runs.
                    self._assign(ready, states)
                for completion in completed:
                    remaining -= 1
                    self._deliver(report, completion, on_result)
            if report.degraded_to_serial:
                self.terminate()
                self._run_serial(states, report, on_result, should_abort)
        finally:
            # An early exit (abort, a raising callback) abandons the
            # attempts still in flight: recycle their workers so the
            # next run starts on idle ones.
            with self._lock:
                for slot in self._slots:
                    if slot.current is not None:
                        self._dispose(slot)
        return report

    def _supervise(self, states, report, fail) -> None:
        """Reap crashed workers and enforce timeouts (lock held)."""
        now = time.monotonic()
        for slot in self._slots:
            if slot.process.is_alive():
                continue
            if slot.current is not None:
                tid, attempt, _, _ = slot.current
                if not states[tid].finished:
                    fail(
                        states[tid],
                        "crash",
                        f"worker pid {slot.process.pid} exited "
                        f"{slot.process.exitcode} on attempt {attempt}",
                    )
            self._respawn(slot, report)
        timeout = self.policy.task_timeout
        if timeout is None:
            return
        for slot in self._slots:
            if slot.current is None or now <= slot.current[3]:
                continue
            tid, attempt, _, _ = slot.current
            slot.process.terminate()
            if not states[tid].finished:
                fail(
                    states[tid],
                    "timeout",
                    f"attempt {attempt} exceeded {timeout:g}s task timeout",
                )
            self._respawn(slot, report)

    def _assign(self, ready, states) -> None:
        """Give every idle, live worker its next eligible task."""
        now = time.monotonic()
        timeout = self.policy.task_timeout
        with self._lock:
            for slot in self._slots:
                if slot.current is not None or not slot.process.is_alive():
                    continue
                tid = self._pop_ready(ready, states, now)
                if tid is None:
                    return
                state = states[tid]
                attempt = state.failures
                slot.task_queue.put(
                    (self._run_id, tid, attempt, state.job, state.fault)
                )
                deadline = now + timeout if timeout is not None else float("inf")
                slot.current = (tid, attempt, now, deadline)

    @staticmethod
    def _pop_ready(
        ready: List[Tuple[float, int, int]],
        states: Sequence[_TaskState],
        now: float,
    ) -> Optional[int]:
        """Next eligible, unfinished task id (or ``None``)."""
        while ready:
            eligible_at, _, tid = ready[0]
            if states[tid].finished:
                heapq.heappop(ready)
                continue
            if eligible_at > now:
                return None
            heapq.heappop(ready)
            return tid
        return None

    def _drain(self, states, fail) -> List[Completion]:
        """Consume worker messages; block at most one poll interval.

        Returns the newly completed attempts; failed attempts go to
        ``fail``.  Messages from an earlier run are dropped.
        """
        completed: List[Completion] = []
        block = True
        while True:
            try:
                message = self._result_queue.get(
                    timeout=_POLL_SECONDS if block else 0.0
                )
            except queue_module.Empty:
                return completed
            block = False
            run_id, tid, attempt, status, payload = message
            if run_id != self._run_id:
                continue  # a late completion from an abandoned run
            with self._lock:
                for slot in self._slots:
                    if slot.current is not None and slot.current[:2] == (tid, attempt):
                        slot.current = None
                        slot.completed += status == "ok"
                        break
            state = states[tid]
            if state.finished:
                continue  # late completion of a retried/raced attempt
            if status == "ok":
                state.done = True
                completed.append(payload)
            else:
                fail(state, "error", str(payload))


__all__ = [
    "FailureEvent",
    "SupervisedWorkerPool",
    "SupervisionReport",
    "task_key",
]
