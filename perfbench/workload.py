"""One workload run in a fresh process; started by ``run.py``.

Setup is everything from process start (``--t0``, a ``time.monotonic``
reading the parent took just before starting this process) to the first
timed iteration.  The timed section then repeats the workload's
campaign until ``--seconds`` are used.  Campaigns run in pairs on one
seed (see :func:`iteration_seed`), and each pair must give identical
results.  With ``--trace 1`` the first campaign of each pair is traced,
so the run measures its own tracing overhead and checks that tracing
leaves every result unchanged.  The traced campaign of the first pair
also carries the process's warm-up, so the overhead errs high.  The result is written as JSON to
``--result``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List

from fingerprint import fingerprint
from layers import run_metrics
from memory import TreeMemory, tree_peak_mib
from tracer import Tracer, load_spans
from workloads import WORKLOADS, Context


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path.cwd()
    ctx = Context(seed=args.seed, workdir=workdir, trace_dir=workdir / "trace")
    workload = WORKLOADS[args.workload]()
    document: Dict[str, Any] = {"workload": args.workload, "seed": args.seed}
    try:
        workload.setup(ctx)
        document["setup_s"] = time.monotonic() - args.t0
        document["setup_rss_mib"] = tree_peak_mib(os.getpid())
        if args.setup_only:
            return 0
        document["fingerprint"] = fingerprint(workload.fsync)
        document.update(timed_section(workload, ctx, args))
        document["run_checks"] += [list(c) for c in workload.verify(ctx)]
        if args.trace:
            iterations = document["iterations"]
            pairs = [
                (iterations[i + 1], it)
                for i, it in enumerate(iterations[:-1])
                if it["traced"]
            ]
            document["layers"] = run_metrics(
                load_spans(ctx.trace_dir), pairs, workload.workers, os.getpid()
            )
        return 0
    except Exception:
        document["error"] = traceback.format_exc()
        return 1
    finally:
        try:
            workload.teardown(ctx)
        finally:
            Path(args.result).write_text(json.dumps(document))


def iteration_seed(seed: int, index: int, vary: bool) -> int:
    """The seed of a run's ``index``-th campaign.

    The first pair runs on ``seed`` itself and later pairs on seeds
    derived from it, so the run's median averages several inputs instead
    of one input's luck, while each pair still shows results repeat.
    """
    pair = index // 2
    if not vary or pair == 0:
        return seed
    return int.from_bytes(hashlib.sha256(f"{seed}/{pair}".encode()).digest()[:4], "big")


def timed_section(workload, ctx, args) -> Dict[str, Any]:
    memory = TreeMemory(os.getpid())
    tracer = Tracer(ctx.trace_dir) if args.trace else None
    iterations: List[Dict[str, Any]] = []
    checks: List[list] = []
    began = time.monotonic()
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 0
        if traced:
            tracer.install()
            ctx.tracer = tracer
        seed = iteration_seed(args.seed, len(iterations), workload.vary_seed)
        workload.prepare(ctx, traced)
        memory.start()
        start = time.perf_counter()
        raw = workload.run(ctx, seed)
        end = time.perf_counter()
        peak = memory.stop()
        workload.finish(ctx)
        if traced:
            tracer.uninstall()
            ctx.tracer = None
        outcome = workload.outcome(ctx, raw)
        iterations.append(
            {
                "traced": traced,
                "seed": seed,
                "start": start,
                "end": end,
                "wall": end - start,
                "peak_rss_mib": peak,
                "processes": memory.processes,
                "digest": outcome.digest,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "client": outcome.client,
                "summary": outcome.summary,
            }
        )
        if not checks:
            checks = [list(c) for c in outcome.checks]
        else:
            checks += [list(c) for c in outcome.checks if not c[1]]
        elapsed = time.monotonic() - began
        typical = statistics.median(it["wall"] for it in iterations)
        if len(iterations) < 2:
            continue  # a run always checks one pair
        if elapsed + typical / 2 >= args.seconds:
            break
    by_seed: Dict[int, set] = {}
    for it in iterations:
        by_seed.setdefault(it["seed"], set()).add(it["digest"])
    repeated = [seed for seed, digests in by_seed.items() if len(digests) > 1]
    identical = [
        "results repeat for a seed" + (", traced or not" if args.trace else ""),
        not repeated,
        f"{len(iterations)} campaigns on {len(by_seed)} seeds"
        + (f"; differing on seeds {repeated}" if repeated else ""),
    ]
    return {"iterations": iterations, "checks": checks, "run_checks": [identical]}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
