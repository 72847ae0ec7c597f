"""Self-checking fault-injection demo: ``python -m repro.faults``.

Runs a scaled-down Figure-1-style campaign (all four paper viruses,
several replications each) three times:

1. a fault-free serial **reference** run;
2. a **faulted** run under the supervised pool — a seeded fault plan
   hard-crashes >=10% of the tasks' workers and hangs one past the task
   timeout — which must produce *byte-identical* results;
3. a **resume** run against the same cache after one stored entry has
   been bit-flipped on disk — the corrupted entry must be quarantined
   and recomputed (again byte-identically) while every healthy entry is
   served from cache.

Exits non-zero unless every check passes, so CI can gate on it.  Pass
``--manifest PATH`` to append one run-manifest record per phase (the
``resilience`` section carries every injected failure's retry event);
gate those with ``python -m repro.obs check PATH --kind run``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from ..argtypes import positive_int
from ..core.cache import ResultCache
from ..core.parameters import NetworkParameters
from ..core.scenarios import baseline_scenario
from ..core.serialization import result_to_dict
from ..experiments.scheduler import ReplicationJob, ReplicationScheduler
from ..obs.metrics import Metrics
from ..resilience import CampaignCheckpoint, RetryPolicy, default_checkpoint_path
from .cache import corrupt_cache_entry
from .plan import FaultPlan


def _signatures(results) -> List[str]:
    """Canonical JSON per result — byte-level identity comparison."""
    return [
        json.dumps(result_to_dict(r), sort_keys=True, separators=(",", ":"))
        for r in results
    ]


def _check(passed: bool, label: str, problems: List[str]) -> None:
    print(f"  [{'ok' if passed else 'FAIL'}] {label}")
    if not passed:
        problems.append(label)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="self-checking fault-injection demo campaign",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--processes", type=positive_int, default=4)
    parser.add_argument("--replications", type=int, default=3)
    parser.add_argument("--population", type=int, default=150)
    parser.add_argument("--duration", type=float, default=6.0,
                        help="campaign horizon, hours")
    parser.add_argument("--crash-fraction", type=float, default=0.15,
                        help="fraction of tasks whose worker hard-crashes")
    parser.add_argument("--task-timeout", type=float, default=5.0,
                        help="per-task timeout enforced on the hung worker")
    parser.add_argument("--retries", type=int, default=3)
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="append one run-manifest record per phase")
    parser.add_argument("--cache-dir", default=None,
                        help="cache root (default: a fresh temp directory)")
    args = parser.parse_args(argv)

    network = NetworkParameters(
        population=args.population, mean_contact_list_size=12.0
    )
    scenarios = [
        baseline_scenario(v, network=network, duration=args.duration)
        for v in (1, 2, 3, 4)
    ]
    jobs = [
        ReplicationJob(config, args.seed, replication)
        for config in scenarios
        for replication in range(args.replications)
    ]
    print(
        f"campaign: {len(scenarios)} scenarios x {args.replications} "
        f"replications = {len(jobs)} jobs (seed {args.seed})"
    )

    # Phase 0 — fault-free serial reference.
    with ReplicationScheduler(processes=1) as scheduler:
        reference = _signatures(scheduler.run_jobs(jobs))

    cache_root = Path(
        args.cache_dir
        if args.cache_dir
        else tempfile.mkdtemp(prefix="repro-faults-")
    )
    policy = RetryPolicy(
        max_retries=args.retries,
        task_timeout=args.task_timeout,
        backoff_base=0.01,
        backoff_cap=0.1,
        seed=args.seed,
    )
    plan = FaultPlan.from_seed(
        args.seed,
        task_count=len(jobs),
        crash_fraction=args.crash_fraction,
        hangs=1,
        hang_seconds=max(30.0, 10 * args.task_timeout),
    )
    crash_victims = sum(1 for s in plan.specs.values() if s.crash_attempts)
    hang_victims = sum(1 for s in plan.specs.values() if s.hang_attempts)
    print(
        f"fault plan: {crash_victims} worker crash(es) "
        f"({crash_victims / len(jobs):.0%} of tasks), {hang_victims} hang(s)"
    )

    problems: List[str] = []

    # Phase 1 — faulted supervised run, empty cache.
    print("phase 1: faulted supervised run")
    checkpoint_path = default_checkpoint_path(cache_root, "faults-demo")
    cache = ResultCache(cache_root)
    with ReplicationScheduler(
        processes=args.processes,
        cache=cache,
        metrics=Metrics(enabled=True),
        resilience=policy,
        checkpoint=CampaignCheckpoint(checkpoint_path, label="faults-demo"),
        fault_plan=plan,
    ) as scheduler:
        faulted = _signatures(scheduler.run_jobs(jobs))
    kinds = {e.kind for e in scheduler.failures}
    _check(faulted == reference,
           "faulted results byte-identical to fault-free reference", problems)
    _check("crash" in kinds, "worker crashes were detected and retried",
           problems)
    _check("timeout" in kinds, "the hung worker was timed out and retried",
           problems)
    _check(not scheduler.quarantined,
           "no replication was quarantined (all faults recovered)", problems)
    if args.manifest:
        scheduler.write_manifest(args.manifest, label="faults-demo:injected")

    # Phase 2 — corrupt one cache entry, then resume from the checkpoint.
    print("phase 2: corrupted cache entry + resume")
    victim = jobs[0]
    corrupt_cache_entry(cache, victim.config, victim.seed, victim.replication)
    resumed_cache = ResultCache(cache_root)
    with ReplicationScheduler(
        processes=args.processes,
        cache=resumed_cache,
        metrics=Metrics(enabled=True),
        resilience=policy,
        checkpoint=CampaignCheckpoint(
            checkpoint_path, label="faults-demo", resume=True
        ),
    ) as scheduler:
        resumed = _signatures(scheduler.run_jobs(jobs))
    totals = scheduler.resume_totals or {}
    _check(resumed == reference,
           "resumed results byte-identical to fault-free reference", problems)
    _check(resumed_cache.quarantined == 1,
           "the corrupted entry was quarantined (not served, not crashed on)",
           problems)
    _check(resumed_cache.hits == len(jobs) - 1,
           "every healthy entry was served from cache", problems)
    _check(totals.get("lost_entries") == 1 and totals.get("fresh") == 0,
           "resume reconciliation re-ran exactly the lost replication",
           problems)
    if args.manifest:
        scheduler.write_manifest(args.manifest, label="faults-demo:resume")
        print(f"manifests appended to {args.manifest}")

    if problems:
        print(f"FAILED: {len(problems)} check(s): {'; '.join(problems)}",
              file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
