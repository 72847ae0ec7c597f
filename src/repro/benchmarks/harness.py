"""Benchmark workload definitions, runner, and regression comparison.

Workloads fall into two kinds:

* *single-replication* workloads drive :class:`~repro.core.model.PhoneNetworkModel`
  directly and report raw event-loop throughput (events fired per second);
* *experiment* workloads run a registered figure through
  :func:`repro.experiments.run_experiment` and report end-to-end wall
  clock plus aggregate event throughput (every
  :class:`~repro.core.simulation.ScenarioResult` carries an
  ``events_fired`` counter).

``run_workloads`` produces a JSON-serializable document;
``compare_to_baseline`` flags workloads whose wall clock regressed past a
factor against a previously committed ``BENCH_<label>.json``.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..argtypes import positive_int
from ..core.model import PhoneNetworkModel
from ..core.parameters import NetworkParameters
from ..core.scenarios import baseline_scenario
from ..des.random import StreamFactory
from ..experiments import get_experiment
from ..obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    append_manifest,
    build_manifest,
    host_info,
)

#: Format version of the BENCH_*.json documents.  Version 2 adds the run
#: -manifest host section (``host``, ``manifest_schema``) so bench docs
#: and run manifests share one provenance schema.  Version 3 splits
#: one-off setup (model construction, topology generation) from the
#: event-loop phase for single-replication workloads: ``build_seconds``
#: and ``run_seconds`` appear alongside ``wall_seconds``, and
#: ``events_per_second`` is computed over the *run* phase — the harness's
#: documented "raw event-loop throughput" — instead of diluting it with
#: setup cost that scales with population, not with events.
BENCH_SCHEMA_VERSION = 3

#: Master seed for every benchmark workload (the paper's year, matching
#: the figure benchmarks in benchmarks/conftest.py).
BENCH_SEED = 2007


@dataclass
class WorkloadResult:
    """Measured outcome of one workload.

    ``wall_seconds`` is always the end-to-end time.  Workloads that can
    separate one-off setup from event processing also report
    ``build_seconds``/``run_seconds`` (summing to the wall), and their
    ``events_per_second`` is computed over the run phase alone.
    """

    name: str
    wall_seconds: float
    events: int
    detail: Dict[str, object] = field(default_factory=dict)
    build_seconds: Optional[float] = None
    run_seconds: Optional[float] = None

    @property
    def events_per_second(self) -> float:
        """Event-loop throughput (0 when the workload reports no events)."""
        window = self.run_seconds if self.run_seconds is not None else self.wall_seconds
        if window <= 0 or self.events <= 0:
            return 0.0
        return self.events / window

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form."""
        document: Dict[str, object] = {
            "wall_seconds": round(self.wall_seconds, 4),
            "events": self.events,
            "events_per_second": round(self.events_per_second, 1),
            "detail": self.detail,
        }
        if self.build_seconds is not None:
            document["build_seconds"] = round(self.build_seconds, 4)
        if self.run_seconds is not None:
            document["run_seconds"] = round(self.run_seconds, 4)
        return document


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    description: str
    #: Included in the quick ``smoke`` suite (<60 s total).
    smoke: bool
    runner: Callable[[int], WorkloadResult]

    def run(self, processes: int = 1) -> WorkloadResult:
        """Execute the workload and return its measurement."""
        return self.runner(processes)


def _single_replication(
    name: str,
    virus: int,
    population: Optional[int] = None,
) -> Callable[[int], WorkloadResult]:
    def runner(processes: int) -> WorkloadResult:
        network = NetworkParameters(population=population) if population else None
        config = baseline_scenario(virus, network=network)
        start = time.perf_counter()
        model = PhoneNetworkModel(config, StreamFactory(BENCH_SEED).replication(0))
        built = time.perf_counter()
        model.seed_infection()
        model.run()
        finished = time.perf_counter()
        return WorkloadResult(
            name=name,
            wall_seconds=finished - start,
            build_seconds=built - start,
            run_seconds=finished - built,
            events=model.sim.events_fired,
            detail={
                "kind": "single_replication",
                "virus": virus,
                "population": config.network.population,
                "duration_hours": config.duration,
                "final_infected": model.total_infected,
            },
        )

    return runner


def _xl_replication(
    name: str,
    virus: int,
    preset: str,
    duration: Optional[float] = None,
    bluetooth_rate: float = 0.0,
    mobility: bool = False,
) -> Callable[[int], WorkloadResult]:
    """One seeded replication on the array-backed xl engine.

    Drives :class:`~repro.xl.engine.XLEngine` directly (the same calls
    :func:`~repro.xl.engine.run_scenario_xl` makes, so results are
    identical) to time topology/state construction separately from the
    round loop, and records the process's peak RSS after the run — the
    memory-ceiling evidence for the large presets.  ``bluetooth_rate``
    (plus optionally density-matched waypoint ``mobility``) switches to
    the hybrid MMS + Bluetooth scenario.
    """

    def runner(processes: int) -> WorkloadResult:
        import resource

        from ..xl.engine import XLEngine
        from ..xl.presets import (
            density_matched_mobility,
            hybrid_scenario,
            xl_network,
            xl_scenario,
        )

        if bluetooth_rate > 0:
            waypoints = (
                density_matched_mobility(xl_network(preset).population)
                if mobility
                else None
            )
            config = hybrid_scenario(
                virus,
                preset,
                duration=duration,
                bluetooth_rate=bluetooth_rate,
                mobility=waypoints,
            )
        else:
            config = xl_scenario(virus, preset, duration=duration)
        start = time.perf_counter()
        engine = XLEngine(config, StreamFactory(BENCH_SEED).replication(0))
        built = time.perf_counter()
        engine.seed_infection()
        engine.run()
        finished = time.perf_counter()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail = {
            "kind": "xl_replication",
            "virus": virus,
            "preset": preset,
            "population": config.network.population,
            "duration_hours": config.duration,
            "final_infected": len(engine.infection_times),
            "rounds": int(engine.counters["xl_rounds"]),
            "peak_rss_mib": round(peak_rss_mib, 1),
        }
        if bluetooth_rate > 0:
            detail["bluetooth_rate"] = bluetooth_rate
            detail["bluetooth_encounters"] = int(
                engine.counters["bluetooth_encounters"]
            )
            detail["mobility"] = mobility
        return WorkloadResult(
            name=name,
            wall_seconds=finished - start,
            build_seconds=built - start,
            run_seconds=finished - built,
            events=int(engine.counters["events_fired"]),
            detail=detail,
        )

    return runner


def _experiment(
    name: str,
    experiment_id: str,
    replications: Optional[int] = None,
    use_processes: bool = False,
) -> Callable[[int], WorkloadResult]:
    def runner(processes: int) -> WorkloadResult:
        from ..experiments.scheduler import ReplicationScheduler

        spec = get_experiment(experiment_id)
        reps = replications if replications is not None else spec.default_replications
        workers = processes if use_processes else 1
        start = time.perf_counter()
        # Drive the scheduler directly (run_experiment does exactly this)
        # so the dispatch-planning decisions — did the cost model keep the
        # pool or degrade to serial? — land in the bench document.
        with ReplicationScheduler(processes=workers) as scheduler:
            result = scheduler.run_experiment(spec, replications=reps, seed=BENCH_SEED)
            decisions = list(scheduler.dispatch_decisions)
        wall = time.perf_counter() - start
        events = sum(
            rs.counter_total("events_fired") for rs in result.series_results.values()
        )
        detail = {
            "kind": "experiment",
            "experiment_id": experiment_id,
            "series": len(spec.series),
            "replications": reps,
            "processes": workers,
        }
        if decisions:
            detail["dispatch_decisions"] = decisions
        return WorkloadResult(
            name=name,
            wall_seconds=wall,
            events=events,
            detail=detail,
        )

    return runner


#: The benchmark suite, in execution order.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig1-v1-single",
            description="One replication of the Virus 1 baseline (1000 phones, 432 h)",
            smoke=True,
            runner=_single_replication("fig1-v1-single", virus=1),
        ),
        Workload(
            name="fig1-v3-single",
            description="One replication of the Virus 3 baseline (1000 phones, 24 h)",
            smoke=True,
            runner=_single_replication("fig1-v3-single", virus=3),
        ),
        Workload(
            name="fig3-experiment",
            description="Full fig3 experiment (6 series x default replications)",
            smoke=True,
            runner=_experiment("fig3-experiment", "fig3"),
        ),
        Workload(
            name="fig3-experiment-p4",
            description="Full fig3 experiment dispatched across 4 workers",
            smoke=False,
            runner=_experiment(
                "fig3-experiment-p4", "fig3", use_processes=True
            ),
        ),
        Workload(
            name="scaling-2000",
            description="One replication of the Virus 1 baseline at 2000 phones",
            smoke=False,
            runner=_single_replication("scaling-2000", virus=1, population=2000),
        ),
        # xl workloads are smoke=False: the smoke gate compares against
        # BENCH_pr1.json, which predates the xl engine.
        Workload(
            name="xl-10k-v1",
            description="Virus 1 baseline on the xl engine at 10k phones (432 h)",
            smoke=False,
            runner=_xl_replication("xl-10k-v1", virus=1, preset="xl-10k"),
        ),
        Workload(
            name="xl-100k-v1",
            description="Virus 1 baseline on the xl engine at 100k phones (96 h)",
            smoke=False,
            runner=_xl_replication(
                "xl-100k-v1", virus=1, preset="xl-100k", duration=96.0
            ),
        ),
        Workload(
            name="xl-hybrid-100k",
            description=(
                "Virus 1 hybrid MMS + Bluetooth on the xl engine at 100k "
                "phones (96 h), waypoint-grid partner sampling"
            ),
            smoke=False,
            runner=_xl_replication(
                "xl-hybrid-100k",
                virus=1,
                preset="xl-100k",
                duration=96.0,
                bluetooth_rate=1.0,
                mobility=True,
            ),
        ),
        Workload(
            name="xl-1M-v1",
            description=(
                "Virus 1 baseline on the xl engine at 1,000,000 phones (96 h); "
                "topology-build dominated, records peak RSS"
            ),
            smoke=False,
            runner=_xl_replication(
                "xl-1M-v1", virus=1, preset="xl-1m", duration=96.0
            ),
        ),
    )
}


def workload_names(smoke_only: bool = False) -> List[str]:
    """Names of the registered workloads, optionally just the smoke set."""
    return [n for n, w in WORKLOADS.items() if w.smoke or not smoke_only]


def run_workloads(
    names: Optional[Sequence[str]] = None,
    label: str = "local",
    processes: int = 4,
    echo: Optional[Callable[[str], None]] = None,
    manifest_path: Optional[Union[str, Path]] = None,
) -> Dict[str, object]:
    """Run the named workloads (all, by default) and build a bench document.

    ``manifest_path`` additionally appends one schema-valid run-manifest
    record per workload (kind ``benchmark``) to the given JSONL file —
    the same telemetry schema the CLI's ``--metrics`` emits, so bench
    results and ordinary runs land in one analyzable stream.
    """
    selected = list(names) if names is not None else workload_names()
    unknown = [n for n in selected if n not in WORKLOADS]
    if unknown:
        raise KeyError(f"unknown workloads {unknown}; known: {list(WORKLOADS)}")
    results: Dict[str, Dict[str, object]] = {}
    for name in selected:
        measured = WORKLOADS[name].run(processes=processes)
        results[name] = measured.to_dict()
        if manifest_path is not None:
            append_manifest(
                manifest_path,
                build_manifest(
                    "benchmark",
                    f"{label}:{name}",
                    wall_seconds=measured.wall_seconds,
                    events_executed=measured.events,
                    seed=BENCH_SEED,
                    extra={"detail": dict(measured.detail)},
                ),
            )
        if echo is not None:
            echo(
                f"{name}: {measured.wall_seconds:.2f}s, "
                f"{measured.events} events, "
                f"{measured.events_per_second:,.0f} ev/s"
            )
    return {
        "label": label,
        "schema": BENCH_SCHEMA_VERSION,
        "manifest_schema": MANIFEST_SCHEMA_VERSION,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "host": host_info(),
        "seed": BENCH_SEED,
        "workloads": results,
    }


def bench_path(label: str, directory: Union[str, Path] = ".") -> Path:
    """Conventional location of a bench document: ``BENCH_<label>.json``."""
    return Path(directory) / f"BENCH_{label}.json"


def write_bench(document: Dict[str, object], directory: Union[str, Path] = ".") -> Path:
    """Write a bench document to ``BENCH_<label>.json`` and return the path."""
    path = bench_path(str(document["label"]), directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: Union[str, Path]) -> Dict[str, object]:
    """Load a previously written bench document."""
    return json.loads(Path(path).read_text())


def compare_to_baseline(
    current: Dict[str, object],
    baseline: Dict[str, object],
    factor: float = 2.0,
) -> List[Dict[str, object]]:
    """Workloads in ``current`` that regressed past ``factor`` vs ``baseline``.

    Only workloads present in both documents are compared; each returned
    entry carries the name, both wall clocks, and the slowdown ratio.
    """
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor}")
    regressions: List[Dict[str, object]] = []
    base_workloads = baseline.get("workloads", {})
    for name, measured in current.get("workloads", {}).items():
        reference = base_workloads.get(name)
        if reference is None:
            continue
        base_wall = float(reference["wall_seconds"])
        cur_wall = float(measured["wall_seconds"])
        if base_wall <= 0:
            continue
        ratio = cur_wall / base_wall
        if ratio > factor:
            regressions.append(
                {
                    "name": name,
                    "baseline_wall_seconds": base_wall,
                    "current_wall_seconds": cur_wall,
                    "ratio": round(ratio, 3),
                }
            )
    return regressions


def compare_documents(
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold_pct: float = 10.0,
) -> List[Dict[str, object]]:
    """Per-workload deltas between two bench documents.

    One row per workload in either document.  Workloads present in both
    get wall-clock and throughput deltas and a status: ``regressed`` when
    the current wall clock exceeds the baseline by more than
    ``threshold_pct`` percent, ``ok`` otherwise.  Workloads only in one
    document get status ``added``/``removed`` (never a failure — the
    suite is allowed to grow).
    """
    if threshold_pct < 0:
        raise ValueError(f"threshold_pct must be >= 0, got {threshold_pct}")
    base_workloads = baseline.get("workloads", {})
    cur_workloads = current.get("workloads", {})
    rows: List[Dict[str, object]] = []
    for name, measured in cur_workloads.items():
        reference = base_workloads.get(name)
        if reference is None:
            rows.append(
                {
                    "name": name,
                    "status": "added",
                    "current_wall_seconds": float(measured["wall_seconds"]),
                    "current_events_per_second": float(
                        measured.get("events_per_second", 0.0)
                    ),
                }
            )
            continue
        base_wall = float(reference["wall_seconds"])
        cur_wall = float(measured["wall_seconds"])
        delta_pct = (cur_wall / base_wall - 1.0) * 100.0 if base_wall > 0 else 0.0
        regressed = base_wall > 0 and delta_pct > threshold_pct
        rows.append(
            {
                "name": name,
                "status": "regressed" if regressed else "ok",
                "baseline_wall_seconds": base_wall,
                "current_wall_seconds": cur_wall,
                "delta_pct": round(delta_pct, 1),
                "baseline_events_per_second": float(
                    reference.get("events_per_second", 0.0)
                ),
                "current_events_per_second": float(
                    measured.get("events_per_second", 0.0)
                ),
            }
        )
    for name in base_workloads:
        if name not in cur_workloads:
            rows.append({"name": name, "status": "removed"})
    return rows


def format_comparison(rows: List[Dict[str, object]]) -> str:
    """Render :func:`compare_documents` rows as an aligned delta table."""
    headers = ("workload", "old wall", "new wall", "delta", "old ev/s", "new ev/s", "status")
    table: List[Tuple[str, ...]] = [headers]
    for row in rows:
        if row["status"] in ("added", "removed"):
            table.append(
                (
                    str(row["name"]),
                    "-",
                    f"{row['current_wall_seconds']:.2f}s"
                    if "current_wall_seconds" in row
                    else "-",
                    "-",
                    "-",
                    f"{row['current_events_per_second']:,.0f}"
                    if "current_events_per_second" in row
                    else "-",
                    str(row["status"]),
                )
            )
            continue
        table.append(
            (
                str(row["name"]),
                f"{row['baseline_wall_seconds']:.2f}s",
                f"{row['current_wall_seconds']:.2f}s",
                f"{row['delta_pct']:+.1f}%",
                f"{row['baseline_events_per_second']:,.0f}",
                f"{row['current_events_per_second']:,.0f}",
                str(row["status"]),
            )
        )
    widths = [max(len(entry[i]) for entry in table) for i in range(len(headers))]
    lines = []
    for entry in table:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(entry)).rstrip()
        )
    return "\n".join(lines)


def check_floors(
    document: Dict[str, object], floors: Sequence[str]
) -> List[str]:
    """Evaluate ``NAME:EVPS`` throughput floors against a bench document.

    Returns one failure line per violated (or unmeasured) floor; an empty
    list means every floor held.
    """
    failures: List[str] = []
    workloads = document.get("workloads", {})
    for floor in floors:
        name, _, raw = floor.partition(":")
        try:
            minimum = float(raw)
        except ValueError:
            raise ValueError(
                f"invalid floor {floor!r}: expected NAME:EVENTS_PER_SECOND"
            ) from None
        measured = workloads.get(name)
        if measured is None:
            failures.append(f"{name}: not present in the bench document")
            continue
        rate = float(measured.get("events_per_second", 0.0))
        if rate < minimum:
            failures.append(
                f"{name}: {rate:,.0f} ev/s below the {minimum:,.0f} ev/s floor"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    """CLI for the harness: ``run``, ``compare`` (delta gate), ``smoke``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.benchmarks",
        description="Performance benchmark harness (writes BENCH_<label>.json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run workloads and write BENCH_<label>.json")
    run_parser.add_argument("--label", default="local", help="BENCH_<label>.json label")
    run_parser.add_argument(
        "--workloads", nargs="*", default=None, choices=list(WORKLOADS),
        help=f"subset to run (default: all of {list(WORKLOADS)})",
    )
    run_parser.add_argument("--smoke-only", action="store_true",
                            help="run only the smoke subset")
    run_parser.add_argument("--processes", type=positive_int, default=4,
                            help="worker count for parallel workloads")
    run_parser.add_argument("--out-dir", default=".", help="output directory")
    run_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="append one run-manifest JSONL record per workload to PATH",
    )

    compare_parser = sub.add_parser(
        "compare",
        help="diff two BENCH documents; non-zero exit on regression",
    )
    compare_parser.add_argument("baseline", help="older BENCH_<label>.json")
    compare_parser.add_argument("current", help="newer BENCH_<label>.json")
    compare_parser.add_argument(
        "--threshold", type=float, default=10.0, metavar="PCT",
        help="allowed wall-clock growth per workload, in percent "
        "(default 10; CI uses a generous 40 to ride out VM noise)",
    )
    compare_parser.add_argument(
        "--floor", action="append", default=[], metavar="NAME:EVPS",
        help="additionally fail unless workload NAME reports at least "
        "EVPS events per second (repeatable)",
    )

    smoke_parser = sub.add_parser(
        "smoke", help="run the smoke subset and fail on >FACTOR regression"
    )
    smoke_parser.add_argument(
        "--baseline", default="BENCH_pr1.json",
        help="committed baseline document to compare against",
    )
    smoke_parser.add_argument("--factor", type=float, default=2.0,
                              help="allowed slowdown factor")
    smoke_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="append one run-manifest JSONL record per workload to PATH",
    )

    args = parser.parse_args(argv)

    if args.command == "run":
        names = args.workloads
        if names is None and args.smoke_only:
            names = workload_names(smoke_only=True)
        document = run_workloads(
            names, label=args.label, processes=args.processes, echo=print,
            manifest_path=args.metrics,
        )
        path = write_bench(document, args.out_dir)
        print(f"wrote {path}")
        return 0

    if args.command == "compare":
        for path in (args.baseline, args.current):
            if not Path(path).exists():
                print(f"bench document {path} not found", file=sys.stderr)
                return 2
        baseline = load_bench(args.baseline)
        document = load_bench(args.current)
        rows = compare_documents(baseline, document, threshold_pct=args.threshold)
        print(format_comparison(rows))
        failures = [row for row in rows if row["status"] == "regressed"]
        floor_failures = check_floors(document, args.floor)
        for row in failures:
            print(
                f"REGRESSION {row['name']}: {row['current_wall_seconds']:.2f}s vs "
                f"{row['baseline_wall_seconds']:.2f}s "
                f"({row['delta_pct']:+.1f}% > +{args.threshold:g}%)",
                file=sys.stderr,
            )
        for line in floor_failures:
            print(f"FLOOR {line}", file=sys.stderr)
        if failures or floor_failures:
            return 1
        print(
            f"compare ok: no workload regressed past +{args.threshold:g}%"
            + (f", {len(args.floor)} floor(s) held" if args.floor else "")
        )
        return 0

    if args.command == "smoke":
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"baseline {baseline_path} not found", file=sys.stderr)
            return 2
        baseline = load_bench(baseline_path)
        document = run_workloads(
            workload_names(smoke_only=True), label="smoke", processes=1, echo=print,
            manifest_path=args.metrics,
        )
        regressions = compare_to_baseline(document, baseline, factor=args.factor)
        if regressions:
            for entry in regressions:
                print(
                    f"REGRESSION {entry['name']}: "
                    f"{entry['current_wall_seconds']:.2f}s vs baseline "
                    f"{entry['baseline_wall_seconds']:.2f}s "
                    f"({entry['ratio']:.2f}x > {args.factor:g}x)",
                    file=sys.stderr,
                )
            return 1
        print(f"smoke ok: no workload regressed past {args.factor:g}x")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCH_SEED",
    "Workload",
    "WorkloadResult",
    "WORKLOADS",
    "bench_path",
    "check_floors",
    "compare_documents",
    "compare_to_baseline",
    "format_comparison",
    "load_bench",
    "main",
    "run_workloads",
    "workload_names",
    "write_bench",
]
