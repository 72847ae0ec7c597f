"""``python -m repro.service`` — run the campaign daemon standalone.

The same entry ``repro-sim serve`` wraps: both take the daemon flags
from :func:`add_daemon_arguments` and run :func:`serve`.  Kept runnable
as a module so the soak harness and CI can spawn a daemon without the
console script installed.  Fault-hook flags (``--crash-task``,
``--fault-kill-after``) exist here for the fault-injection tiers only.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from ..argtypes import positive_int
from ..faults.plan import FaultPlan, FaultSpec
from .daemon import CampaignDaemon


def add_daemon_arguments(parser: argparse.ArgumentParser) -> None:
    """The daemon's flags, shared by ``repro-sim serve`` and this module."""
    parser.add_argument(
        "--spool", required=True,
        help="spool directory (journal, cache, checkpoints, results, logs)",
    )
    parser.add_argument(
        "--socket", default=None,
        help="Unix socket path (default: <spool>/daemon.sock)",
    )
    parser.add_argument(
        "--shards", type=positive_int, default=2,
        help="worker processes (1 runs replications in the daemon process)",
    )
    parser.add_argument(
        "--max-queue-depth", type=int, default=8,
        help="queued campaigns before submissions are shed with retry_after",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=30.0,
        help="per-replication timeout: seconds before a worker running one "
        "replication is killed and the replication retried",
    )


def crash_task_plan(tasks: Sequence[int]) -> Optional[FaultPlan]:
    """``--crash-task`` specs: each pending task crashes its worker once."""
    if not tasks:
        return None
    return FaultPlan({task: FaultSpec(crash_attempts=(0,)) for task in tasks})


def _task_id(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {number}")
    return number


def serve(args: argparse.Namespace) -> int:
    """Build the daemon from parsed flags and serve until ``shutdown``.

    ``repro-sim serve`` parses only the shared flags; the test-only ones
    this module adds are then absent and off.
    """
    daemon = CampaignDaemon(
        spool=args.spool,
        shards=args.shards,
        max_queue_depth=args.max_queue_depth,
        heartbeat_timeout=args.heartbeat_timeout,
        fault_plan=crash_task_plan(getattr(args, "crash_task", ())),
        fault_kill_after_results=getattr(args, "fault_kill_after", None),
    )
    socket_path = args.socket or str(daemon.spool / "daemon.sock")
    print(f"serving on {socket_path} (spool {daemon.spool})")
    sys.stdout.flush()
    daemon.serve(socket_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run the repro campaign daemon.",
    )
    add_daemon_arguments(parser)
    parser.add_argument(
        "--crash-task", action="append", type=_task_id, default=[],
        metavar="N",
        help="fault hook: pending task N of every campaign hard-crashes its "
        "worker on its first attempt (repeatable)",
    )
    parser.add_argument(
        "--fault-kill-after", type=int, default=None, metavar="N",
        help="fault hook: SIGKILL the daemon after recording N results",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    return serve(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
