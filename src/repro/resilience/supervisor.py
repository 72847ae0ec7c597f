"""Supervised worker pool: retries, timeouts, crash detection, quarantine.

Unlike :class:`~repro.core.parallel.WorkerPool` (a thin wrapper over
``multiprocessing.Pool`` — fast, but a dead or hung worker takes the
whole campaign down with it), this pool owns its worker processes
directly so the parent can *supervise* them:

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
  respawns) the pool degrades gracefully to serial in-process execution
  of the remaining tasks.

Results are byte-identical to the plain pool and the serial path — the
supervisor only decides where/when a task runs.  Task payloads are the
same :data:`~repro.core.parallel.IndexedJob` tuples, executed by the
same module-level worker function, so every start method (including
``spawn``) stays safe.

Fault injection: each task may carry a *fault directive* (any object
with an ``apply(attempt, soft=False)`` method, see :mod:`repro.faults`)
that the worker invokes before simulating — the deterministic harness
the ``faultinject`` test suite drives every recovery path with.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.cache import ResultCache
from ..core.parallel import IndexedJob, mp_context, run_indexed_job
from ..obs.metrics import NULL_METRICS, Metrics
from .policy import RetryPolicy

#: How long the supervisor blocks on the result queue per loop iteration.
_POLL_SECONDS = 0.05

#: Grace period for worker shutdown before escalating to terminate().
_SHUTDOWN_GRACE = 1.0


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
    """Outcome of one supervised batch."""

    #: task_id -> (original result index, ScenarioResult)
    results: Dict[int, Tuple[int, Any]] = field(default_factory=dict)
    events: List[FailureEvent] = field(default_factory=list)
    quarantined: List[int] = field(default_factory=list)
    quarantined_keys: List[str] = field(default_factory=list)
    retries: int = 0
    respawns: int = 0
    degraded_to_serial: bool = False

    def counts(self) -> Dict[str, int]:
        """Failure counts by kind."""
        by_kind: Dict[str, int] = {}
        for event in self.events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        return by_kind


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

    __slots__ = ("process", "task_queue", "current")

    def __init__(self, process, task_queue) -> None:
        self.process = process
        self.task_queue = task_queue
        #: In-flight assignment: (task_id, attempt, deadline) or None.
        self.current: Optional[Tuple[int, int, float]] = None


def _worker_main(
    task_queue, result_queue, graphs: Optional[ResultCache] = None
) -> None:
    """Worker loop: run one task per message until the ``None`` sentinel.

    Module-level (spawn-safe).  Fault directives run *inside* the try so
    injected exceptions surface as ordinary task errors; injected hard
    crashes (``os._exit``) bypass it entirely, which is the point — the
    parent must detect those from the process exit code.
    """
    while True:
        message = task_queue.get()
        if message is None:
            return
        task_id, attempt, job, fault = message
        try:
            if fault is not None:
                fault.apply(attempt)
            index, result = run_indexed_job(job, graphs)
        except KeyboardInterrupt:  # pragma: no cover - parent-driven teardown
            return
        except BaseException as exc:
            result_queue.put(
                (task_id, attempt, "error", f"{type(exc).__name__}: {exc}")
            )
        else:
            result_queue.put((task_id, attempt, "ok", (index, result)))


class SupervisedWorkerPool:
    """Run indexed replication jobs under supervision (see module doc).

    ``faults`` maps task ids to fault directives (test/fault-injection
    use); ``metrics`` receives ``resilience.*`` counters for every
    failure, retry, quarantine, and respawn; ``graphs`` reaches every
    attempt (see :func:`~repro.core.parallel.run_indexed_job`).
    """

    def __init__(
        self,
        processes: int,
        policy: Optional[RetryPolicy] = None,
        metrics: Optional[Metrics] = None,
        faults: Optional[Dict[int, Any]] = None,
        graphs: Optional[ResultCache] = None,
    ) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.processes = processes
        self.policy = policy if policy is not None else RetryPolicy()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.faults = faults or {}
        self.graphs = graphs

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

    # -- serial execution (processes == 1 and degraded fallback) ------------

    def _run_serial(
        self, states: Sequence[_TaskState], report: SupervisionReport
    ) -> None:
        """Run every unfinished task inline, honouring retries/quarantine.

        Fault directives are applied in *soft* mode (crash directives
        raise instead of ``os._exit``, hangs raise instead of sleeping)
        — the parent process must survive its own fallback path.  No
        per-attempt timeout is possible inline; the policy's retry and
        quarantine bounds still apply.
        """
        for state in states:
            if state.finished:
                continue
            while not state.finished:
                attempt = state.failures
                try:
                    if state.fault is not None:
                        state.fault.apply(attempt, soft=True)
                    index, result = run_indexed_job(state.job, self.graphs)
                except Exception as exc:
                    delay = self._record_failure(
                        report, state, "error", f"{type(exc).__name__}: {exc}"
                    )
                    if delay is not None and delay > 0:
                        time.sleep(delay)
                else:
                    state.done = True
                    report.results[state.task_id] = (index, result)

    # -- supervised pool execution ------------------------------------------

    def _spawn_slot(self, ctx, result_queue) -> _WorkerSlot:
        task_queue = ctx.Queue()
        process = ctx.Process(
            target=_worker_main,
            args=(task_queue, result_queue, self.graphs),
            daemon=True,
        )
        process.start()
        return _WorkerSlot(process, task_queue)

    @staticmethod
    def _dispose_slot(slot: _WorkerSlot) -> None:
        """Fully reap one slot: no zombie process, no leaked queue.

        Escalates ``terminate`` → ``kill`` so a worker ignoring SIGTERM
        (stuck in uninterruptible I/O, masked signals) cannot survive as
        a zombie, then releases the ``Process`` object's pipe/sentinel
        resources with ``close()`` — without it every respawn leaks the
        dead worker's file descriptors until garbage collection.
        """
        process = slot.process
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

    def _respawn_slot(
        self, slots: List[_WorkerSlot], position: int, ctx, result_queue,
        report: SupervisionReport,
    ) -> None:
        slot = slots[position]
        slot.process.join(timeout=_SHUTDOWN_GRACE)
        self._dispose_slot(slot)
        slots[position] = self._spawn_slot(ctx, result_queue)
        report.respawns += 1
        self.metrics.inc("resilience.pool_respawns")

    def _shutdown(self, slots: List[_WorkerSlot]) -> None:
        for slot in slots:
            if slot.process.is_alive():
                try:
                    slot.task_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover - closed queue
                    pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        for slot in slots:
            slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
            self._dispose_slot(slot)

    def run(self, jobs: Sequence[IndexedJob]) -> SupervisionReport:
        """Execute ``jobs`` to completion or quarantine; see module doc."""
        report = SupervisionReport()
        states = [
            _TaskState(task_id, job, self.faults.get(task_id))
            for task_id, job in enumerate(jobs)
        ]
        if not states:
            return report
        #: Min-heap of (eligible_at, insertion_seq, task_id).
        ready: List[Tuple[float, int, int]] = [
            (0.0, task_id, task_id) for task_id in range(len(states))
        ]
        heapq.heapify(ready)
        self._seq = len(states)

        if self.processes == 1:
            self._run_serial(states, report)
            return report

        ctx = mp_context()
        result_queue = ctx.Queue()
        slots = [
            self._spawn_slot(ctx, result_queue)
            for _ in range(min(self.processes, len(states)))
        ]
        timeout = self.policy.task_timeout

        def unfinished() -> bool:
            return any(not s.finished for s in states)

        def fail_and_maybe_requeue(state: _TaskState, kind: str, detail: str):
            delay = self._record_failure(report, state, kind, detail)
            if delay is not None:
                self._seq += 1
                heapq.heappush(
                    ready, (time.monotonic() + delay, self._seq, state.task_id)
                )

        try:
            while unfinished():
                now = time.monotonic()

                # 1. Reap crashed workers (dead process = hard crash).
                for position, slot in enumerate(slots):
                    if slot.process.is_alive():
                        continue
                    if slot.current is not None:
                        tid, attempt, _ = slot.current
                        state = states[tid]
                        if not state.finished:
                            fail_and_maybe_requeue(
                                state,
                                "crash",
                                f"worker pid {slot.process.pid} exited "
                                f"{slot.process.exitcode} on attempt {attempt}",
                            )
                        slot.current = None
                    self._respawn_slot(slots, position, ctx, result_queue, report)

                # 2. Enforce per-task timeouts (terminate + respawn).
                if timeout is not None:
                    for position, slot in enumerate(slots):
                        if slot.current is None or now <= slot.current[2]:
                            continue
                        tid, attempt, _ = slot.current
                        state = states[tid]
                        slot.process.terminate()
                        slot.current = None
                        if not state.finished:
                            fail_and_maybe_requeue(
                                state,
                                "timeout",
                                f"attempt {attempt} exceeded "
                                f"{timeout:g}s task timeout",
                            )
                        self._respawn_slot(
                            slots, position, ctx, result_queue, report
                        )

                # 3. Degrade to serial when the pool keeps dying.
                if report.respawns > self.policy.max_pool_respawns:
                    report.degraded_to_serial = True
                    self.metrics.inc("resilience.degraded_to_serial")
                    break

                # 4. Assign eligible ready tasks to idle workers.
                for slot in slots:
                    if slot.current is not None or not slot.process.is_alive():
                        continue
                    tid = self._pop_ready(ready, states, now)
                    if tid is None:
                        break
                    state = states[tid]
                    attempt = state.failures
                    deadline = now + timeout if timeout is not None else float("inf")
                    slot.task_queue.put(
                        (tid, attempt, state.job, state.fault)
                    )
                    slot.current = (tid, attempt, deadline)

                # 5. Drain completions (block briefly for the first one).
                self._drain(result_queue, slots, states, report,
                            fail_and_maybe_requeue)

            if report.degraded_to_serial:
                for slot in slots:
                    if slot.process.is_alive():
                        slot.process.terminate()
                self._run_serial(states, report)
        finally:
            self._shutdown(slots)
            result_queue.cancel_join_thread()
            result_queue.close()
        return report

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

    def _drain(self, result_queue, slots, states, report, fail_cb) -> None:
        """Consume worker messages; block at most one poll interval."""
        import queue as queue_module

        block = True
        while True:
            try:
                message = result_queue.get(
                    timeout=_POLL_SECONDS if block else 0.0
                )
            except queue_module.Empty:
                return
            block = False
            tid, attempt, status, payload = message
            state = states[tid]
            for slot in slots:
                if slot.current is not None and slot.current[0] == tid:
                    slot.current = None
                    break
            if state.finished:
                continue  # late completion of a retried/raced attempt
            if status == "ok":
                state.done = True
                report.results[tid] = payload
            else:
                fail_cb(state, "error", str(payload))


__all__ = [
    "FailureEvent",
    "SupervisedWorkerPool",
    "SupervisionReport",
    "task_key",
]
