"""Sharded execution fleet for the campaign daemon.

The daemon executes campaigns across ``shards`` long-lived worker
processes.  Each shard *owns a partition of the result-cache key space*:
a task routes to shard ``int(key[:8], 16) % shards``, so two shards
never compute (or write) the same cache entry — cache writes stay
race-free without locks, and a shard's warm partition survives its own
respawns.  xl contact graphs are the exception: every shard passes its
cache to :func:`~repro.core.parallel.run_indexed_job` as the graph
store, so two shards may write one graph entry at once; both write the
same bytes through an atomic replace, so the entry stays intact.

Supervision lives in the parent :class:`ShardManager`:

* **health probes** — every shard continuously stamps a shared heartbeat
  (``multiprocessing.Value('d')``); :meth:`ShardManager.probe` reports
  per-shard liveness, heartbeat age, completed-task counts, and respawn
  counts (the daemon serves this as ``status``);
* **heartbeat timeouts** — a shard whose heartbeat goes stale is
  presumed wedged, killed, and respawned;
* **automatic respawn** — a crashed shard (nonzero exit, SIGKILL, the
  fault hook below) is respawned and its unfinished tasks re-enqueued;
  results stay byte-identical because every task derives everything from
  ``(config, seed, replication)``;
* **quarantine** — a shard that dies more than ``max_respawns`` times is
  quarantined: its key partition is re-routed to the surviving shards
  (graceful degradation to fewer shards).  With every shard quarantined
  the manager runs remaining tasks inline in the daemon process — the
  service degrades, it does not fail.

Fault hook: ``kill_after_tasks`` makes a designated shard call
``os._exit`` with :data:`~repro.faults.plan.WORKER_CRASH_EXIT_CODE`
after completing N tasks — the deterministic crash the soak harness and
the ``service`` test tier seed their kill points with.
"""

from __future__ import annotations

import os
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.cache import ResultCache
from ..core.parallel import IndexedJob, mp_context, run_indexed_job
from ..core.simulation import ScenarioResult
from ..faults.plan import WORKER_CRASH_EXIT_CODE

#: How long a shard blocks on its task queue before re-checking its
#: parent and re-stamping the heartbeat.
_POLL_SECONDS = 0.1

#: Grace given to a terminated shard before escalating to SIGKILL.
_SHUTDOWN_GRACE = 5.0


@dataclass
class ShardTask:
    """One routed unit of work (a single replication)."""

    index: int
    key: str
    job: IndexedJob


def route_key(key: str, shards: int) -> int:
    """Stable partition of the cache key space across ``shards``."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return int(key[:8], 16) % shards


def _shard_main(
    shard_id: int,
    task_queue,
    result_queue,
    heartbeat,
    cache_root: Optional[str],
    parent_pid: int,
    kill_after_tasks: Optional[int],
) -> None:
    """Shard process body: pull tasks, run replications, push results.

    Exits when it receives the ``None`` sentinel or when it finds itself
    reparented (``os.getppid() != parent_pid``) — a SIGKILL'd daemon
    cannot clean up its children, so the shards clean up themselves.
    """
    cache = ResultCache(cache_root) if cache_root else None
    completed = 0
    while True:
        heartbeat.value = time.time()
        if os.getppid() != parent_pid:
            os._exit(0)  # daemon died; don't linger as an orphan
        try:
            task = task_queue.get(timeout=_POLL_SECONDS)
        except queue_mod.Empty:
            continue
        if task is None:
            break
        index, config, seed, replication = task
        result = None
        if cache is not None:
            result = cache.get(config, seed, replication)
        cache_hit = result is not None
        if result is None:
            _, result = run_indexed_job(task, cache)
            if cache is not None:
                try:
                    cache.put(result)
                except OSError:
                    pass  # the result still ships; daemon re-counts errors
        result_queue.put((shard_id, index, result, cache_hit))
        completed += 1
        if kill_after_tasks is not None and completed >= kill_after_tasks:
            os._exit(WORKER_CRASH_EXIT_CODE)


@dataclass
class _ShardSlot:
    shard_id: int
    process: Any
    task_queue: Any
    heartbeat: Any
    #: Tasks dispatched to this shard and not yet completed, by index.
    outstanding: Dict[int, ShardTask] = field(default_factory=dict)
    completed: int = 0
    respawns: int = 0
    quarantined: bool = False


@dataclass
class ShardReport:
    """Accounting for one campaign's trip through the fleet."""

    executed: int = 0
    cache_hits: int = 0
    respawns: int = 0
    quarantined_shards: List[int] = field(default_factory=list)
    inline_fallback: int = 0
    reassigned_tasks: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "respawns": self.respawns,
            "quarantined_shards": list(self.quarantined_shards),
            "inline_fallback": self.inline_fallback,
            "reassigned_tasks": self.reassigned_tasks,
        }


class ShardManager:
    """Supervises the shard fleet (see module docstring)."""

    def __init__(
        self,
        shards: int = 2,
        cache_root: Optional[str] = None,
        heartbeat_timeout: float = 30.0,
        max_respawns: int = 3,
        kill_after_tasks: Optional[Dict[int, int]] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.cache_root = cache_root
        self.heartbeat_timeout = heartbeat_timeout
        self.max_respawns = max_respawns
        #: Fault hook: shard id -> crash after that many completed tasks.
        #: Applies to the *first* incarnation of the shard only, so the
        #: respawned shard finishes the work.
        self.kill_after_tasks = dict(kill_after_tasks or {})
        self._ctx = mp_context()
        self._result_queue = self._ctx.Queue()
        self._slots: List[_ShardSlot] = []
        self.total_respawns = 0
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    def start(self) -> None:
        if self._started:
            return
        self._slots = [self._spawn(shard_id) for shard_id in range(self.shards)]
        self._started = True

    def _spawn(self, shard_id: int, respawns: int = 0) -> _ShardSlot:
        task_queue = self._ctx.Queue()
        heartbeat = self._ctx.Value("d", time.time())
        # The fault hook only arms the first incarnation — a respawned
        # shard must be able to finish the campaign.
        kill_after = (
            self.kill_after_tasks.get(shard_id) if respawns == 0 else None
        )
        process = self._ctx.Process(
            target=_shard_main,
            args=(
                shard_id,
                task_queue,
                self._result_queue,
                heartbeat,
                self.cache_root,
                os.getpid(),
                kill_after,
            ),
            daemon=True,
        )
        process.start()
        return _ShardSlot(
            shard_id=shard_id,
            process=process,
            task_queue=task_queue,
            heartbeat=heartbeat,
            respawns=respawns,
        )

    def _dispose(self, slot: _ShardSlot) -> None:
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

    def close(self) -> None:
        """Drain-free shutdown: stop every shard and release its FDs."""
        if not self._started:
            try:
                self._result_queue.close()
            except (OSError, ValueError):  # pragma: no cover
                pass
            return
        for slot in self._slots:
            if not slot.quarantined and slot.process.is_alive():
                try:
                    slot.task_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover - closed
                    pass
        deadline = time.time() + _SHUTDOWN_GRACE
        for slot in self._slots:
            slot.process.join(timeout=max(0.0, deadline - time.time()))
            self._dispose(slot)
        try:
            self._result_queue.cancel_join_thread()
            self._result_queue.close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
        self._slots = []
        self._started = False

    def __enter__(self) -> "ShardManager":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- health --------------------------------------------------------------

    def probe(self) -> List[Dict[str, Any]]:
        """Per-shard health snapshot (served by the daemon's ``status``)."""
        now = time.time()
        report = []
        for slot in self._slots:
            report.append(
                {
                    "shard": slot.shard_id,
                    "alive": (not slot.quarantined) and slot.process.is_alive(),
                    "quarantined": slot.quarantined,
                    "heartbeat_age": round(max(0.0, now - slot.heartbeat.value), 3),
                    "completed": slot.completed,
                    "respawns": slot.respawns,
                    "outstanding": len(slot.outstanding),
                }
            )
        return report

    def healthy_shards(self) -> int:
        return sum(
            1
            for slot in self._slots
            if not slot.quarantined and slot.process.is_alive()
        )

    def _live_slots(self) -> List[_ShardSlot]:
        return [s for s in self._slots if not s.quarantined]

    # -- execution -----------------------------------------------------------

    def _revive_or_quarantine(
        self, slot: _ShardSlot, report: ShardReport
    ) -> List[ShardTask]:
        """Handle one dead/wedged shard; returns its orphaned tasks."""
        orphans = list(slot.outstanding.values())
        slot.outstanding.clear()
        report.reassigned_tasks += len(orphans)
        position = self._slots.index(slot)
        if slot.respawns >= self.max_respawns:
            self._dispose(slot)
            slot.quarantined = True
            report.quarantined_shards.append(slot.shard_id)
            return orphans
        slot.process.join(timeout=_SHUTDOWN_GRACE)
        self._dispose(slot)
        replacement = self._spawn(slot.shard_id, respawns=slot.respawns + 1)
        replacement.completed = slot.completed
        replacement.quarantined = False
        self._slots[position] = replacement
        self.total_respawns += 1
        report.respawns += 1
        return orphans

    def _dispatch(self, task: ShardTask, report: ShardReport) -> bool:
        """Route one task to its owning (or a surviving) shard.

        Returns ``False`` when no live shard exists — the caller runs the
        task inline.
        """
        live = self._live_slots()
        if not live:
            return False
        owner = route_key(task.key, self.shards)
        slot = self._slots[owner]
        if slot.quarantined:
            # Partition re-routing: deterministic pick among survivors so
            # a re-submitted campaign routes identically.
            slot = live[route_key(task.key, len(live))]
        slot.task_queue.put(task.job)
        slot.outstanding[task.index] = task
        return True

    def execute(
        self,
        tasks: List[ShardTask],
        on_result: Callable[[int, ScenarioResult], None],
        should_abort: Optional[Callable[[], bool]] = None,
    ) -> ShardReport:
        """Run one campaign's tasks across the fleet.

        ``on_result(index, result)`` fires as completions drain (possibly
        out of index order — the daemon reassembles).  Dead or wedged
        shards are respawned/quarantined mid-campaign and their orphaned
        tasks re-dispatched; duplicate completions (a shard that died
        *after* reporting) are dropped here, so ``on_result`` sees each
        index exactly once.
        """
        self.start()
        report = ShardReport()
        pending: List[ShardTask] = []
        done: set = set()
        for task in tasks:
            if not self._dispatch(task, report):
                pending.append(task)
        if pending:
            # No live shards at all: inline degradation.
            for task in pending:
                self._run_inline(task, on_result, done, report)
            pending = []
        remaining = len(tasks) - len(done)
        while remaining > 0:
            if should_abort is not None and should_abort():
                break
            try:
                shard_id, index, result, cache_hit = self._result_queue.get(
                    timeout=_POLL_SECONDS
                )
            except queue_mod.Empty:
                remaining -= self._sweep_dead(on_result, done, report)
                continue
            slot = self._slots[shard_id]
            slot.outstanding.pop(index, None)
            slot.completed += 1
            if index in done:
                continue  # duplicate from a shard that died post-report
            done.add(index)
            remaining -= 1
            report.executed += 0 if cache_hit else 1
            report.cache_hits += 1 if cache_hit else 0
            on_result(index, result)
        return report

    def _run_inline(
        self,
        task: ShardTask,
        on_result: Callable[[int, ScenarioResult], None],
        done: set,
        report: ShardReport,
    ) -> None:
        """Graceful degradation: run one task in the daemon process."""
        cache = ResultCache(self.cache_root) if self.cache_root else None
        _, config, seed, replication = task.job
        result = cache.get(config, seed, replication) if cache else None
        hit = result is not None
        if result is None:
            _, result = run_indexed_job(task.job, cache)
            if cache is not None:
                try:
                    cache.put(result)
                except OSError:
                    pass
        done.add(task.index)
        report.inline_fallback += 1
        report.executed += 0 if hit else 1
        report.cache_hits += 1 if hit else 0
        on_result(task.index, result)

    def _sweep_dead(
        self,
        on_result: Callable[[int, ScenarioResult], None],
        done: set,
        report: ShardReport,
    ) -> int:
        """Probe for dead/wedged shards; re-dispatch their orphans.

        Returns how many previously-unfinished tasks completed inline
        (only when every shard is quarantined).
        """
        completed_inline = 0
        now = time.time()
        for slot in list(self._slots):
            if slot.quarantined:
                continue
            dead = not slot.process.is_alive()
            wedged = (
                slot.outstanding
                and now - slot.heartbeat.value > self.heartbeat_timeout
            )
            if not (dead or wedged):
                continue
            orphans = self._revive_or_quarantine(slot, report)
            for task in orphans:
                if task.index in done:
                    continue
                if not self._dispatch(task, report):
                    self._run_inline(task, on_result, done, report)
                    completed_inline += 1
        return completed_inline


__all__ = [
    "ShardManager",
    "ShardReport",
    "ShardTask",
    "route_key",
]
