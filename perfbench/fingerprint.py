"""The environment a benchmark result was measured in.

Results are only comparable between equal fingerprints: the hybrid
channel's final size already differs between NumPy builds, and the
start method, core count and fsync setting move every timing.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict, List


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(fsync: bool) -> Dict[str, object]:
    """Versions, hardware and process settings of this interpreter."""
    import numpy
    import scipy

    from repro.core.parallel import mp_context

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "start_method": mp_context().get_start_method(),
        "fsync": fsync,
        "platform": sys.platform,
    }


def differences(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """One line per fingerprint key whose values differ."""
    return [
        f"{key}: {a.get(key)!r} vs {b.get(key)!r}"
        for key in sorted(set(a) | set(b))
        if a.get(key) != b.get(key)
    ]
