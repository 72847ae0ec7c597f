"""Per-layer metrics computed from the traced run's spans.

Every metric is per campaign (one timed iteration): spans are assigned
to the iteration whose window holds their start, whichever process
recorded them, and the run reports the median over its traced
iterations.  ``*_s`` metrics sum span durations, so work on two workers
can add up to more than the campaign's wall time.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: name -> unit, in the order ``BENCHMARK.json`` lists them.
LAYER_METRICS: Dict[str, str] = {
    "topology.build_s": "s",
    "topology.draw_s": "s",
    "topology.from_edges_s": "s",
    "topology.calls": "count",
    "topology.distinct_graphs": "count",
    "topology.useful_ratio": "ratio",
    "xl.init_s": "s",
    "xl.run_s": "s",
    "xl.rounds": "count",
    "xl.events": "count",
    "xl.events_per_s": "1/s",
    "xl.bt_encounters": "count",
    "mobility.snapshot_s": "s",
    "mobility.snapshots": "count",
    "mobility.sample_s": "s",
    "core.build_s": "s",
    "des.run_s": "s",
    "des.events": "count",
    "des.events_per_s": "1/s",
    "scheduler.batches": "count",
    "scheduler.serial_batches": "count",
    "scheduler.parallel_batches": "count",
    "scheduler.jobs_executed": "count",
    "scheduler.cache_hits": "count",
    "scheduler.batch_s": "s",
    "pool.jobs": "count",
    "pool.busy_s": "s",
    "pool.efficiency": "ratio",
    "pool.idle_s": "s",
    "cache.put_s": "s",
    "cache.puts": "count",
    "cache.bytes_written": "B",
    "cache.get_s": "s",
    "cache.gets": "count",
    "checkpoint.record_s": "s",
    "checkpoint.records": "count",
    "checkpoint.flush_s": "s",
    "service.submit_s": "s",
    "service.first_result_s": "s",
    "service.result_gap_p50_s": "s",
    "service.result_gap_p99_s": "s",
    "service.journal_s": "s",
    "service.shed": "count",
    "service.shard_respawns": "count",
    "design.compile_s": "s",
    "design.unique_jobs": "count",
    "frontier.probes": "count",
    "frontier.probe_s": "s",
    "trace.spans": "count",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}

#: Measured by the benchmark's client code rather than by spans.
CLIENT_METRICS = (
    "service.submit_s",
    "service.first_result_s",
    "service.result_gap_p50_s",
    "service.result_gap_p99_s",
    "service.shed",
    "service.shard_respawns",
)

TOPOLOGY_BUILDS = ("topology.csr_powerlaw", "topology.contact_network")


class SpanTree:
    """Spans of one iteration with parent links resolved."""

    def __init__(self, spans: Iterable[list]) -> None:
        self.spans = list(spans)
        self.by_id = {span[3]: span for span in self.spans}
        self.children: Dict[str, List[list]] = {}
        for span in self.spans:
            if span[4] is not None:
                self.children.setdefault(span[4], []).append(span)

    def named(self, *names: str) -> List[list]:
        return [span for span in self.spans if span[0] in names]

    def has_ancestor(self, span: list, names: Sequence[str]) -> bool:
        parent = self.by_id.get(span[4]) if span[4] is not None else None
        while parent is not None:
            if parent[0] in names:
                return True
            parent = self.by_id.get(parent[4]) if parent[4] is not None else None
        return False

    def covered(self, span: list, names: Sequence[str]) -> float:
        """Seconds of ``span`` spent in its outermost descendants in ``names``."""
        total = 0.0
        for child in self.children.get(span[3], ()):
            if child[0] in names:
                total += duration(child)
            else:
                total += self.covered(child, names)
        return total


def duration(span: list) -> float:
    return span[2] - span[1]


def total(spans: Iterable[list]) -> float:
    return sum(duration(span) for span in spans)


def attr_sum(spans: Iterable[list], key: str) -> float:
    return sum(span[5].get(key, 0) for span in spans)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def iteration_metrics(
    spans: Iterable[list],
    wall: float,
    workers: int,
    main_pid: int,
    client: Dict[str, float],
) -> Dict[str, float]:
    """Every span-derived layer metric of one traced campaign."""
    tree = SpanTree(spans)
    m: Dict[str, float] = {}

    builds = [s for s in tree.named(*TOPOLOGY_BUILDS) if not tree.has_ancestor(s, TOPOLOGY_BUILDS)]
    from_edges = tree.named("topology.from_edges")
    nested_edges = sum(tree.covered(s, ("topology.from_edges",)) for s in builds)
    m["topology.build_s"] = total(builds)
    m["topology.draw_s"] = total(builds) - nested_edges
    m["topology.from_edges_s"] = total(from_edges)
    m["topology.calls"] = len(builds)
    m["topology.distinct_graphs"] = len({s[5].get("key") for s in builds})
    m["topology.useful_ratio"] = ratio(m["topology.distinct_graphs"], m["topology.calls"])

    topology_names = TOPOLOGY_BUILDS + ("topology.from_edges",)
    xl_init = tree.named("xl.init")
    xl_run = tree.named("xl.run")
    m["xl.init_s"] = total(xl_init) - sum(tree.covered(s, topology_names) for s in xl_init)
    m["xl.run_s"] = total(xl_run)
    m["xl.rounds"] = attr_sum(xl_run, "rounds")
    m["xl.events"] = attr_sum(xl_run, "events")
    m["xl.events_per_s"] = ratio(m["xl.events"], m["xl.run_s"])
    m["xl.bt_encounters"] = attr_sum(xl_run, "bt_encounters")

    snapshots = tree.named("mobility.snapshot")
    m["mobility.snapshot_s"] = total(snapshots)
    m["mobility.snapshots"] = len(snapshots)
    m["mobility.sample_s"] = total(tree.named("mobility.sample_partners"))

    core_build = tree.named("core.build")
    des_run = tree.named("des.run")
    m["core.build_s"] = total(core_build) - sum(tree.covered(s, topology_names) for s in core_build)
    m["des.run_s"] = total(des_run)
    m["des.events"] = attr_sum(des_run, "events")
    m["des.events_per_s"] = ratio(m["des.events"], m["des.run_s"])

    batches = tree.named("scheduler.run_jobs")
    modes = [mode for s in batches for mode in s[5].get("modes", ())]
    m["scheduler.batches"] = len(batches)
    m["scheduler.serial_batches"] = modes.count("serial")
    m["scheduler.parallel_batches"] = modes.count("parallel")
    m["scheduler.jobs_executed"] = attr_sum(batches, "executed")
    m["scheduler.cache_hits"] = attr_sum(batches, "cache_hits")
    m["scheduler.batch_s"] = total(batches)

    jobs = tree.named("pool.job")
    busy = total(jobs)
    m["pool.jobs"] = len(jobs)
    m["pool.busy_s"] = busy
    m["pool.efficiency"] = ratio(busy, workers * wall) if jobs else 0.0
    m["pool.idle_s"] = max(0.0, workers * wall - busy) if jobs else 0.0

    puts = tree.named("cache.put")
    gets = tree.named("cache.get")
    m["cache.put_s"] = total(puts)
    m["cache.puts"] = len(puts)
    m["cache.bytes_written"] = attr_sum(puts, "bytes")
    m["cache.get_s"] = total(gets)
    m["cache.gets"] = len(gets)

    records = tree.named("checkpoint.record")
    m["checkpoint.record_s"] = total(records)
    m["checkpoint.records"] = len(records)
    m["checkpoint.flush_s"] = total(tree.named("checkpoint.flush"))

    for name in CLIENT_METRICS:
        m[name] = float(client.get(name, 0.0))
    m["service.journal_s"] = total(
        tree.named("service.journal.submit", "service.journal.claim", "service.journal.ack")
    )

    compiles = tree.named("design.compile")
    m["design.compile_s"] = total(compiles)
    m["design.unique_jobs"] = max((s[5].get("unique_jobs", 0) for s in compiles), default=0)

    probes = [s for s in tree.named("scheduler.replicate") if tree.has_ancestor(s, ("frontier.solve",))]
    m["frontier.probes"] = len(probes)
    m["frontier.probe_s"] = total(probes)

    roots = [s for s in tree.spans if s[4] is None and s[3].split(":")[0] == str(main_pid)]
    m["trace.spans"] = len(tree.spans)
    m["trace.coverage_pct"] = 100.0 * ratio(total(roots), wall)
    return m


def spans_in(spans: Iterable[list], start: float, end: float) -> List[list]:
    return [span for span in spans if start <= span[1] <= end]


def run_metrics(
    spans: List[list],
    pairs: List[Tuple[Dict[str, Any], Dict[str, Any]]],
    workers: int,
    main_pid: int,
) -> Dict[str, float]:
    """Median over traced iterations, plus the tracing overhead.

    ``pairs`` holds (untraced, traced) iterations of one seed each; the
    overhead is the median ratio of their wall times.
    """
    per_iteration = [
        iteration_metrics(
            spans_in(spans, it["start"], it["end"]),
            it["wall"],
            workers,
            main_pid,
            it["client"],
        )
        for _, it in pairs
    ]
    result = {
        name: statistics.median(m[name] for m in per_iteration)
        for name in LAYER_METRICS
        if name != "trace.overhead_pct"
    }
    ratio_median = statistics.median(t["wall"] / u["wall"] for u, t in pairs)
    result["trace.overhead_pct"] = 100.0 * (ratio_median - 1.0)
    return {name: result[name] for name in LAYER_METRICS}


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile; ``None`` for no values."""
    if not values:
        return None
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]
