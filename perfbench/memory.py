"""Resident memory of a process tree over a timed window (Linux /proc).

At the start of a window every live process of the tree has its peak
RSS (``VmHWM``) reset through ``/proc/<pid>/clear_refs``.  A background
thread then polls the tree, keeping each process's latest ``VmHWM``, so
processes that start and exit inside the window (pool workers) are
counted too.  The window's peak is the sum of the per-process peaks: an
upper bound on the tree's simultaneous RSS that does not depend on when
a sample happened to land, and forked pages shared with the parent are
counted in each process, as RSS counts them.  A process seen by fewer
than two polls is left out: it is a fork that exec'd or exited within
one poll interval (``platform`` runs ``uname -p`` that way), whose
pages are the parent's, and whether a poll catches it is chance.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Dict, List, Optional

POLL_SECONDS = 0.02


def tree_pids(root: int) -> List[int]:
    """``root`` and every live descendant."""
    pids, todo = [], [root]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                children = Path(f"/proc/{pid}/task/{tid}/children").read_text()
            except OSError:
                continue
            todo.extend(int(child) for child in children.split())
    return pids


def status_kib(pid: int, field: str) -> Optional[int]:
    """One ``kB`` field of ``/proc/<pid>/status`` (``None`` once exited)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def tree_peak_mib(root: int) -> float:
    """Sum of ``VmHWM`` over the live tree: its peak since the last reset."""
    return sum(status_kib(pid, "VmHWM") or 0 for pid in tree_pids(root)) / 1024.0


class TreeMemory:
    """Peak RSS of the process tree rooted at ``root`` within windows."""

    def __init__(self, root: int) -> None:
        self.root = root
        self._peaks: Dict[int, int] = {}
        self._polls: Dict[int, int] = {}
        self.processes = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _sample(self) -> None:
        for pid in tree_pids(self.root):
            value = status_kib(pid, "VmHWM")
            if value is not None:
                with self._lock:
                    self._peaks[pid] = max(value, self._peaks.get(pid, 0))
                    self._polls[pid] = self._polls.get(pid, 0) + 1

    def _poll(self) -> None:
        while not self._stop.wait(POLL_SECONDS):
            self._sample()

    def start(self) -> None:
        """Open a window: reset every peak and start polling."""
        for pid in tree_pids(self.root):
            try:
                with open(f"/proc/{pid}/clear_refs", "w") as handle:
                    handle.write("5")
            except OSError:
                pass  # exited meanwhile
        with self._lock:
            self._peaks, self._polls = {}, {}
        self._sample()
        self._stop.clear()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def stop(self) -> float:
        """Close the window; its peak in MiB."""
        self._sample()
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        with self._lock:
            counted = [pid for pid, polls in self._polls.items() if polls >= 2]
            self.processes = len(counted)
            return sum(self._peaks[pid] for pid in counted) / 1024.0
