"""Fault specs and seeded fault plans for worker-level injection.

A :class:`FaultSpec` is the per-task directive the supervised worker
invokes before simulating (``fault.apply(attempt)``); a
:class:`FaultPlan` assigns specs to task ids deterministically from a
seed.  Specs are plain frozen dataclasses, so they pickle cleanly into
worker processes under any start method.
"""

from __future__ import annotations

import os
import random
import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

#: Exit code of an injected hard crash — recognizable in supervisor logs.
WORKER_CRASH_EXIT_CODE = 113


class InjectedTaskError(RuntimeError):
    """Base class of every soft injected failure."""


class InjectedCrashError(InjectedTaskError):
    """Soft stand-in for a hard crash (serial/soft application mode)."""


class InjectedHangError(InjectedTaskError):
    """Soft stand-in for a hang (serial/soft application mode)."""


@dataclass(frozen=True)
class FaultSpec:
    """What goes wrong on which attempts of one task.

    Attempt numbers are 0-based failure counts: ``crash_attempts=(0,)``
    crashes the first attempt and lets the retry succeed.  In *soft*
    mode (serial execution in the parent process) hard crashes raise
    :class:`InjectedCrashError` instead of ``os._exit`` and hangs raise
    :class:`InjectedHangError` instead of sleeping — the parent must
    survive its own fallback path.
    """

    crash_attempts: Tuple[int, ...] = ()
    raise_attempts: Tuple[int, ...] = ()
    hang_attempts: Tuple[int, ...] = ()
    hang_seconds: float = 30.0

    def apply(self, attempt: int, soft: bool = False) -> None:
        """Inject this spec's fault for ``attempt`` (no-op otherwise)."""
        if attempt in self.hang_attempts:
            if soft:
                raise InjectedHangError(
                    f"injected hang on attempt {attempt} (soft mode)"
                )
            time.sleep(self.hang_seconds)
        if attempt in self.crash_attempts:
            if soft:
                raise InjectedCrashError(
                    f"injected crash on attempt {attempt} (soft mode)"
                )
            os._exit(WORKER_CRASH_EXIT_CODE)
        if attempt in self.raise_attempts:
            raise InjectedTaskError(f"injected task error on attempt {attempt}")


class FaultPlan(Mapping):
    """Deterministic assignment of :class:`FaultSpec` to task ids.

    A read-only mapping of task id to spec, so a plan is what the
    supervised pool's ``faults`` argument takes.
    """

    def __init__(self, specs: Mapping) -> None:
        self.specs: Dict[int, FaultSpec] = dict(specs)

    def spec_for(self, task_id: int) -> Optional[FaultSpec]:
        return self.specs.get(task_id)

    def __getitem__(self, task_id: int) -> FaultSpec:
        return self.specs[task_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    @classmethod
    def from_seed(
        cls,
        seed: int,
        task_count: int,
        crash_fraction: float = 0.1,
        hangs: int = 0,
        hang_seconds: float = 30.0,
        crash_kind: str = "exit",
        attempts: Tuple[int, ...] = (0,),
    ) -> "FaultPlan":
        """Seeded plan: ``crash_fraction`` of tasks crash, ``hangs`` hang.

        Victims are drawn with a private ``random.Random(seed)``, so the
        same seed always injures the same tasks.  ``crash_kind`` picks
        hard crashes (``"exit"``, worker dies with
        :data:`WORKER_CRASH_EXIT_CODE`) or soft ones (``"raise"``).
        Every injected fault strikes only on the listed ``attempts``, so
        the default plan is always recoverable within one retry.
        """
        if not 0.0 <= crash_fraction <= 1.0:
            raise ValueError(
                f"crash_fraction must be in [0, 1], got {crash_fraction}"
            )
        if hangs < 0:
            raise ValueError(f"hangs must be >= 0, got {hangs}")
        if crash_kind not in ("exit", "raise"):
            raise ValueError(f"crash_kind must be 'exit' or 'raise', got {crash_kind!r}")
        crash_count = round(task_count * crash_fraction)
        victims_needed = min(task_count, crash_count + hangs)
        rng = random.Random(seed)
        victims = rng.sample(range(task_count), victims_needed)
        hang_victims = victims[:hangs]
        crash_victims = victims[hangs:]
        specs: Dict[int, FaultSpec] = {}
        for task_id in hang_victims:
            specs[task_id] = FaultSpec(
                hang_attempts=tuple(attempts), hang_seconds=hang_seconds
            )
        for task_id in crash_victims:
            if crash_kind == "exit":
                specs[task_id] = FaultSpec(crash_attempts=tuple(attempts))
            else:
                specs[task_id] = FaultSpec(raise_attempts=tuple(attempts))
        return cls(specs)


__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedCrashError",
    "InjectedHangError",
    "InjectedTaskError",
    "WORKER_CRASH_EXIT_CODE",
]
