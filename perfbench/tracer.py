"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each layer from outside the
package: :func:`install` swaps every target in :data:`TARGETS` for a
wrapper that records ``(name, start, end, span id, parent id, attrs)``
and restores the originals on :func:`Tracer.uninstall`.  A module-level
function is replaced under every name a loaded ``repro`` module binds
it to (``run_indexed_job`` aliases ``_run_indexed``; the xl engine
imports ``csr_powerlaw`` by name), so the wrapper is what every caller
reaches.

Spans stay in memory and are appended to ``<dir>/spans-<pid>.jsonl``
whenever a thread's outermost span closes.  Pool workers and daemon
shards are forked after installation, inherit the wrappers, start with
an empty buffer (``os.register_at_fork``), and write their own file
before they hand a result back, so the parent can merge every process's
spans once a campaign ends.  Times are ``time.perf_counter`` readings,
which share one monotonic clock across the processes of a host.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``repro.experiments`` must initialise before ``repro.design``: a cold
#: ``import repro.design`` fails on a circular import inside the package.
IMPORT_ORDER = ("repro.experiments",)

Hook = Callable[[tuple, dict], Optional[Callable[[Any], Dict[str, Any]]]]


def _graph_key(args: tuple, kwargs: dict) -> Callable[[Any], Dict[str, Any]]:
    """Identity of the graph a generator call will draw.

    A graph is a pure function of the size parameters and the generator's
    state on entry, so two calls with equal keys build the same graph.
    """
    rng = next(
        (a for a in list(args) + list(kwargs.values()) if hasattr(a, "bit_generator")),
        None,
    )
    sizes = [a for a in args if isinstance(a, (int, float, str))]
    sizes += sorted(
        (k, v) for k, v in kwargs.items() if isinstance(v, (int, float, str))
    )
    state = rng.bit_generator.state if rng is not None else None
    key = json.dumps([sizes, state], sort_keys=True, default=str)
    return lambda result: {"key": key}


def _xl_run(args: tuple, kwargs: dict) -> Callable[[Any], Dict[str, Any]]:
    engine = args[0]

    def finish(result: Any) -> Dict[str, Any]:
        counters = engine.counters
        return {
            "rounds": int(counters.get("xl_rounds", 0)),
            "events": int(counters.get("events_fired", 0)),
            "bt_encounters": int(counters.get("bluetooth_encounters", 0)),
        }

    return finish


def _des_run(args: tuple, kwargs: dict) -> Callable[[Any], Dict[str, Any]]:
    model = args[0]
    before = model.sim.events_fired
    return lambda result: {"events": int(model.sim.events_fired - before)}


def _run_jobs(args: tuple, kwargs: dict) -> Callable[[Any], Dict[str, Any]]:
    scheduler = args[0]
    executed = scheduler.stats.executed
    hits = scheduler.stats.cache_hits
    decisions = len(scheduler.dispatch_decisions)

    def finish(result: Any) -> Dict[str, Any]:
        modes = [d["mode"] for d in scheduler.dispatch_decisions[decisions:]]
        return {
            "executed": scheduler.stats.executed - executed,
            "cache_hits": scheduler.stats.cache_hits - hits,
            "modes": modes,
        }

    return finish


def _cache_put(args: tuple, kwargs: dict) -> Callable[[Any], Dict[str, Any]]:
    return lambda path: {"bytes": os.stat(path).st_size}


def _compiled(args: tuple, kwargs: dict) -> Callable[[Any], Dict[str, Any]]:
    return lambda compiled: {"unique_jobs": len(compiled.jobs)}


#: (module, qualified name, span name, hook).  A hook runs before the call
#: and returns a function that turns the call's result into span attrs.
TARGETS: Tuple[Tuple[str, str, str, Optional[Hook]], ...] = (
    ("repro.topology.csr", "csr_powerlaw", "topology.csr_powerlaw", _graph_key),
    ("repro.topology.csr", "CSRAdjacency.from_edges", "topology.from_edges", None),
    ("repro.topology.generators", "contact_network", "topology.contact_network", _graph_key),
    ("repro.xl.engine", "XLEngine.__init__", "xl.init", None),
    ("repro.xl.engine", "XLEngine.run", "xl.run", _xl_run),
    ("repro.mobility.grid", "GridWaypointField.snapshot", "mobility.snapshot", None),
    ("repro.mobility.grid", "GridSnapshot.sample_partners", "mobility.sample_partners", None),
    ("repro.core.model", "PhoneNetworkModel.__init__", "core.build", None),
    ("repro.core.model", "PhoneNetworkModel.run", "des.run", _des_run),
    ("repro.experiments.scheduler", "ReplicationScheduler.run_batch", "scheduler.run_batch", None),
    ("repro.experiments.scheduler", "ReplicationScheduler.run_jobs", "scheduler.run_jobs", _run_jobs),
    ("repro.experiments.scheduler", "ReplicationScheduler.replicate", "scheduler.replicate", None),
    ("repro.experiments.scheduler", "ReplicationScheduler.close", "scheduler.close", None),
    ("repro.core.parallel", "_run_indexed", "pool.job", None),
    ("repro.core.cache", "ResultCache.put", "cache.put", _cache_put),
    ("repro.core.cache", "ResultCache.get", "cache.get", None),
    ("repro.resilience.checkpoint", "CampaignCheckpoint.record", "checkpoint.record", None),
    ("repro.resilience.checkpoint", "CampaignCheckpoint.flush", "checkpoint.flush", None),
    ("repro.service.journal", "PersistentQueue.submit", "service.journal.submit", None),
    ("repro.service.journal", "PersistentQueue.claim", "service.journal.claim", None),
    ("repro.service.journal", "PersistentQueue.ack", "service.journal.ack", None),
    ("repro.design.compile", "compile_design", "design.compile", _compiled),
    ("repro.frontier.solver", "FrontierSolver.solve", "frontier.solve", None),
)

#: The tracer whose buffer a forked child must reset (see ``_after_fork``).
_active: Optional["Tracer"] = None
_fork_hook_registered = False


def _after_fork() -> None:
    if _active is not None:
        _active._reset_after_fork()


class Tracer:
    """Records spans around wrapped layer functions for one process tree."""

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._installed: List[Tuple[Any, str, Any]] = []
        self._reset_after_fork()

    def _reset_after_fork(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffer: List[list] = []
        self._pid = os.getpid()
        self._counter = 0

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Tuple[Optional[str], str]:
        stack = self._stack()
        with self._lock:
            self._counter += 1
            span_id = f"{self._pid}:{self._counter}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return parent, span_id

    def _close(
        self,
        name: str,
        start: float,
        end: float,
        span_id: str,
        parent: Optional[str],
        attrs: Optional[Dict[str, Any]],
    ) -> None:
        stack = self._stack()
        stack.pop()
        with self._lock:
            self._buffer.append([name, start, end, span_id, parent, attrs or {}])
            if not stack:
                self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._buffer:
            return
        lines = "".join(json.dumps(span) + "\n" for span in self._buffer)
        self._buffer = []
        with open(self.directory / f"spans-{self._pid}.jsonl", "a") as handle:
            handle.write(lines)

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """A span around benchmark code; the yielded dict becomes its attrs."""
        parent, span_id = self._open()
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            self._close(name, start, time.perf_counter(), span_id, parent, attrs)

    def _wrap(self, fn: Callable, name: str, hook: Optional[Hook]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            finish = hook(args, kwargs) if hook is not None else None
            parent, span_id = tracer._open()
            start = time.perf_counter()
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if finish is not None:
                    attrs = finish(result)
                return result
            finally:
                tracer._close(
                    name, start, time.perf_counter(), span_id, parent, attrs
                )

        wrapper.span_name = name
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; idempotent per tracer."""
        global _active, _fork_hook_registered
        if self._installed:
            return
        # Import everything first: a module imported after a replacement
        # would bind the wrapper under a name uninstall never restores.
        for module_name in IMPORT_ORDER + tuple(t[0] for t in TARGETS):
            importlib.import_module(module_name)
        for module_name, qualname, name, hook in TARGETS:
            module = sys.modules[module_name]
            owner_path, _, attr = qualname.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self._wrap(raw.__func__, name, hook))
                else:
                    wrapped = self._wrap(raw, name, hook)
                self._installed.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, hook)
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro") or loaded is None:
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._installed.append((loaded, binding, original))
                        setattr(loaded, binding, wrapped)
        _active = self
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_after_fork)
            _fork_hook_registered = True

    def uninstall(self) -> None:
        """Restore every original binding and write out buffered spans."""
        global _active
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []
        if _active is self:
            _active = None
        self.flush()


def load_spans(directory: os.PathLike) -> List[list]:
    """Every span every process wrote under ``directory``."""
    spans: List[list] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans
