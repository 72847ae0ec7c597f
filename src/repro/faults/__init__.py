"""Deterministic fault-injection harness.

Everything here exists to *prove* the recovery paths of
:mod:`repro.resilience` and :mod:`repro.core.cache` — from one seed, the
harness decides exactly which tasks crash (hard ``os._exit`` or a raised
exception), which hang past the task timeout, which cache writes fail
with :class:`OSError`, and which cache entries get a byte flipped on
disk.  The ``faultinject`` pytest marker drives each path; the byte-for-
byte identity of faulted campaign results against fault-free runs is the
suite's core assertion.

``python -m repro.faults`` runs a self-checking demo campaign (seeded
crashes + a hang + a corrupted cache entry) and exits non-zero unless
the campaign completes with results identical to a fault-free serial
run — CI's smoke gate for the whole resilience stack.
"""

from .plan import (
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
    InjectedHangError,
    InjectedTaskError,
    WORKER_CRASH_EXIT_CODE,
)
from .cache import FaultInjectingCache, corrupt_cache_entry, flip_byte

__all__ = [
    "FaultInjectingCache",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrashError",
    "InjectedHangError",
    "InjectedTaskError",
    "WORKER_CRASH_EXIT_CODE",
    "corrupt_cache_entry",
    "flip_byte",
]
