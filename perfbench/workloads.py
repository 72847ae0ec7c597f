"""The four benchmark workloads.

Each workload is one campaign a user of this repository runs, repeated
once per timed iteration on inputs generated from the workload seed.
Every iteration starts from a fresh cache root (and, for the daemon, a
fresh spool and daemon), so no iteration or run can reuse another's
results.  Load comes from this one process and at most two workers or
shards.

A workload has these steps; only ``run`` is timed:

``setup``     imports and input generation (part of ``setup_s``)
``prepare``   fresh cache root or daemon for the next iteration
``run``       the campaign
``finish``    stop what ``prepare`` started
``outcome``   digest, operation counts and correctness checks of a run
``verify``    checks made once, after the timed section
``teardown``  release everything
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro.experiments  # noqa: F401  (must precede repro.design)

from layers import percentile

#: Pool workers or daemon shards per campaign.
WORKERS = 2

Check = Tuple[str, bool, str]


def digest(document: Any) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Context:
    seed: int
    workdir: Path
    trace_dir: Path
    #: The tracer while a traced iteration runs, else ``None``.
    tracer: Any = None
    _dirs: int = 0

    def span(self, name: str):
        """A span around benchmark code in traced iterations."""
        return self.tracer.span(name) if self.tracer is not None else nullcontext({})

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{prefix}-{self._dirs}"
        path.mkdir()
        return path


@dataclass
class Outcome:
    digest: str
    attempted: int
    failed: int
    checks: List[Check] = field(default_factory=list)
    client: Dict[str, float] = field(default_factory=dict)
    summary: Dict[str, Any] = field(default_factory=dict)


class Workload:
    name = ""
    workers = WORKERS
    fsync = True
    #: Whether later campaigns of a run use seeds derived from the run's.
    vary_seed = True

    def setup(self, ctx: Context) -> None:
        pass

    def prepare(self, ctx: Context, traced: bool) -> None:
        self.root = ctx.fresh_dir("cache")

    def run(self, ctx: Context, seed: int) -> Any:
        raise NotImplementedError

    def finish(self, ctx: Context) -> None:
        pass

    def outcome(self, ctx: Context, raw: Any) -> Outcome:
        raise NotImplementedError

    def verify(self, ctx: Context) -> List[Check]:
        return []

    def teardown(self, ctx: Context) -> None:
        pass


def _scheduler(root: Path, label: str, processes: int = WORKERS):
    """A scheduler built the way ``repro-sim`` builds one: cache + checkpoint."""
    from repro.core.cache import ResultCache
    from repro.experiments.scheduler import ReplicationScheduler
    from repro.resilience import CampaignCheckpoint, default_checkpoint_path

    cache = ResultCache(root)
    checkpoint = CampaignCheckpoint(
        default_checkpoint_path(cache.root, label), label=label
    )
    return ReplicationScheduler(processes=processes, cache=cache, checkpoint=checkpoint)


def _job_failures(scheduler) -> int:
    return len(scheduler.quarantined) + len(scheduler.failures)


class PaperCampaign(Workload):
    """``repro-sim figure fig5 fig7``: 36 core-DES jobs at N=1000."""

    name = "paper-campaign"
    FIGURES = ("fig5", "fig7")

    def setup(self, ctx: Context) -> None:
        from repro.experiments.registry import get_experiment

        self.specs = [get_experiment(figure) for figure in self.FIGURES]
        self.label = "figure:" + ",".join(self.FIGURES)

    def _campaign(self, root: Path, processes: int = WORKERS):
        with _scheduler(root, self.label, processes) as scheduler:
            results = scheduler.run_batch(self.specs, seed=self.seed)
        return scheduler, results

    def run(self, ctx: Context, seed: int) -> Any:
        self.seed = seed
        return self._campaign(self.root)

    @staticmethod
    def _finals(results) -> Dict[str, Dict[str, List[int]]]:
        return {
            result.spec.experiment_id: {
                label: series.final_infected()
                for label, series in result.series_results.items()
            }
            for result in results
        }

    def outcome(self, ctx: Context, raw: Any) -> Outcome:
        scheduler, results = raw
        checks = [
            (f"{result.spec.experiment_id}: {check.name}", check.passed, check.detail)
            for result in results
            for check in result.run_checks()
        ]
        self.digest = digest(self._finals(results))
        return Outcome(
            digest=self.digest,
            attempted=scheduler.stats.scheduled + len(checks),
            failed=_job_failures(scheduler) + sum(not ok for _, ok, _ in checks),
            checks=checks,
            summary={"jobs": scheduler.stats.executed},
        )

    def verify(self, ctx: Context) -> List[Check]:
        """Replay the last campaign from its warm cache: same finals, no runs."""
        scheduler, results = self._campaign(self.root, processes=1)
        replayed = digest(self._finals(results))
        return [
            (
                "cache replay simulates nothing",
                scheduler.stats.executed == 0,
                scheduler.stats.format(),
            ),
            ("cache replay reproduces the finals", replayed == self.digest, replayed),
        ]


class FrontierXL(Workload):
    """``FrontierSolver.solve`` on the xl engine: virus 1 + blacklist."""

    name = "frontier-xl"
    POPULATION = 30_000
    DURATION = 432.0
    LOW, HIGH = 0.0, 336.0

    def setup(self, ctx: Context) -> None:
        from repro.core.parameters import BlacklistConfig, NetworkParameters
        from repro.core.scenarios import baseline_scenario
        import repro.frontier  # noqa: F401
        import repro.xl.engine  # noqa: F401

        scenario = baseline_scenario(
            1,
            network=NetworkParameters(population=self.POPULATION),
            duration=self.DURATION,
        ).with_engine("xl")
        self.scenario = scenario.with_responses(
            BlacklistConfig(threshold=10), suffix="blacklist"
        )

    def run(self, ctx: Context, seed: int) -> Any:
        from repro.frontier import FrontierSolver

        label = f"frontier:{self.scenario.name}:latency"
        with _scheduler(self.root, label) as scheduler:
            solver = FrontierSolver(
                scheduler, replications=3, seed=seed, fraction=0.25, tolerance=24.0
            )
            result = solver.solve(self.scenario, low=self.LOW, high=self.HIGH)
        return scheduler, result

    def outcome(self, ctx: Context, raw: Any) -> Outcome:
        scheduler, result = raw
        found = result.bisection.converged
        checks = [
            (
                "crossing found",
                found,
                f"status={result.status} critical={result.critical} "
                f"bracket={list(result.interval)}",
            )
        ]
        document = {
            "critical": result.critical,
            "bracket": list(result.interval),
            "confidence": [result.confidence_low, result.confidence_high],
            "probes": [[p.value, list(p.finals)] for p in result.probes],
        }
        return Outcome(
            digest=digest(document),
            attempted=result.jobs_scheduled + len(checks),
            failed=_job_failures(scheduler) + (0 if found else 1),
            checks=checks,
            summary={
                "critical": result.critical,
                "bracket": list(result.interval),
                "probes": len(result.probes),
                "jobs": result.jobs_executed,
            },
        )


class XLHybrid(Workload):
    """One hybrid MMS + Bluetooth replication, grid mobility, 100k phones."""

    name = "xl-hybrid-100k"
    workers = 0
    fsync = False
    POPULATION = 100_000
    DURATION = 96.0

    def setup(self, ctx: Context) -> None:
        from repro.xl.presets import density_matched_mobility, hybrid_scenario
        import repro.mobility.grid  # noqa: F401
        import repro.xl.engine  # noqa: F401

        self.config = hybrid_scenario(
            1,
            "xl-100k",
            duration=self.DURATION,
            bluetooth_rate=1.0,
            mobility=density_matched_mobility(self.POPULATION),
        )

    def prepare(self, ctx: Context, traced: bool) -> None:
        pass

    def run(self, ctx: Context, seed: int) -> Any:
        from repro.des.random import StreamFactory
        from repro.xl.engine import XLEngine

        engine = XLEngine(self.config, StreamFactory(seed).replication(0))
        engine.seed_infection()
        engine.run()
        return engine

    def outcome(self, ctx: Context, raw: Any) -> Outcome:
        engine = raw
        times = np.asarray(engine.infection_times, dtype=np.float64)
        document = {
            "final_infected": int(times.size),
            "infection_times": hashlib.sha256(times.tobytes()).hexdigest(),
            "counters": {k: int(v) for k, v in engine.counters.items()},
        }
        return Outcome(
            digest=digest(document),
            attempted=1,
            failed=0,
            summary={
                "final_infected": int(times.size),
                "events": int(engine.counters["events_fired"]),
            },
        )


#: Four paper viruses x ``REPLICATIONS`` short replications, one design.
BURST_REPLICATIONS = 125
BURST_DESIGN: Dict[str, Any] = {
    "design": {"id": "burst", "title": "daemon burst campaign", "label": "{virus}"},
    "factor": [
        {"name": "virus", "levels": [1, 2, 3, 4]},
        {"name": "population", "levels": [100]},
        {"name": "duration", "levels": [5.0]},
    ],
}


class DaemonBurst(Workload):
    """One client submits one design to ``python -m repro.service``."""

    name = "daemon-burst"
    SOCKET = "daemon.sock"
    # One seed per run: every stream is checked against one in-process
    # reference, and 500 jobs already average the seed out of wall_s.
    vary_seed = False

    def setup(self, ctx: Context) -> None:
        self.process: Optional[subprocess.Popen] = None
        self.respawns = 0
        self.digests: List[str] = []
        self._start(ctx, traced=False)

    def _start(self, ctx: Context, traced: bool) -> None:
        from repro.service.client import ServiceClient

        self.traced = traced
        self.spool = ctx.fresh_dir("spool")
        socket = f"{self.spool.name}/{self.SOCKET}"
        if traced:
            launcher = [str(Path(__file__).with_name("daemon_main.py")), "--trace-dir", str(ctx.trace_dir)]
        else:
            launcher = ["-m", "repro.service"]
        with open(self.spool / "daemon.log", "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, *launcher, "--spool", str(self.spool),
                 "--socket", socket, "--shards", str(WORKERS)],
                cwd=ctx.workdir,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        self.client = ServiceClient(socket, timeout=120.0)
        self.client.wait_ready(timeout=60.0)

    def prepare(self, ctx: Context, traced: bool) -> None:
        if self.process is not None and self.traced != traced:
            self.finish(ctx)  # the set-up daemon is untraced
        if self.process is None:
            self._start(ctx, traced)

    def run(self, ctx: Context, seed: int) -> Any:
        start = time.perf_counter()
        shed = 0
        with ctx.span("service.client.submit"):
            while True:
                response = self.client.submit(
                    BURST_DESIGN, replications=BURST_REPLICATIONS, seed=seed
                )
                if response.get("ok"):
                    break
                shed += 1
                time.sleep(float(response.get("retry_after", 0.1)))
        submitted = time.perf_counter()
        frames, arrivals = [], []
        with ctx.span("service.client.results"):
            for frame in self.client.results(response["id"]):
                arrivals.append(time.perf_counter())
                frames.append(frame)
        return {
            "start": start,
            "submitted": submitted,
            "arrivals": arrivals,
            "frames": frames,
            "shed": shed,
            "jobs": int(response["jobs"]),
        }

    def finish(self, ctx: Context) -> None:
        if self.process is None:
            return
        try:
            self.client.shutdown()
        except OSError:
            pass
        try:
            self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process = None
        self.respawns = 0
        manifest = self.spool / "manifest.jsonl"
        if manifest.exists():
            for line in manifest.read_text().splitlines():
                shards = json.loads(line).get("service", {}).get("shards", {})
                self.respawns += int(shards.get("respawns", 0))

    def outcome(self, ctx: Context, raw: Any) -> Outcome:
        frames = raw["frames"]
        indices = [frame["index"] for frame in frames]
        streamed = indices == list(range(raw["jobs"]))
        self.digests.append(digest([frame["result"] for frame in frames]))
        arrivals = raw["arrivals"]
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        checks = [("every job streamed", streamed, f"{len(frames)}/{raw['jobs']} frames")]
        return Outcome(
            digest=self.digests[-1],
            attempted=raw["jobs"] + 1 + raw["shed"],
            failed=raw["shed"] + (0 if streamed else 1),
            checks=checks,
            client={
                "service.submit_s": raw["submitted"] - raw["start"],
                "service.first_result_s": (arrivals[0] - raw["start"]) if arrivals else 0.0,
                "service.result_gap_p50_s": percentile(gaps, 50) or 0.0,
                "service.result_gap_p99_s": percentile(gaps, 99) or 0.0,
                "service.shed": raw["shed"],
                "service.shard_respawns": self.respawns,
            },
            summary={"jobs": raw["jobs"]},
        )

    def verify(self, ctx: Context) -> List[Check]:
        """Streams must equal an in-process scheduler run byte for byte.

        Both sides are compared as canonical JSON (sorted keys, no
        spaces), the form the daemon writes its result stream in.
        """
        from repro.core.serialization import result_to_dict
        from repro.design.compile import compile_design
        from repro.design.io import design_from_dict
        from repro.experiments.scheduler import ReplicationScheduler

        compiled = compile_design(
            design_from_dict(BURST_DESIGN), BURST_REPLICATIONS, ctx.seed
        )
        with ReplicationScheduler(processes=1) as scheduler:
            results = scheduler.run_jobs(compiled.jobs)
        reference = digest([result_to_dict(r) for r in results])
        same = [d == reference for d in self.digests]
        return [
            (
                "streams byte-identical to in-process reference",
                all(same),
                f"{sum(same)}/{len(same)} campaigns match the {len(results)}-job reference",
            )
        ]

    def teardown(self, ctx: Context) -> None:
        self.finish(ctx)


WORKLOADS = {
    w.name: w for w in (PaperCampaign, FrontierXL, XLHybrid, DaemonBurst)
}
