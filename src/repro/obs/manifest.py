"""Per-run JSONL run manifests.

A *run manifest* is the durable record of one execution — a CLI run, a
figure batch, a sweep, one benchmark workload, or a profile pass.  Every
record is a single JSON object on its own line (JSONL, append-only), so
thousands of Monte-Carlo campaign runs accumulate in one greppable file
and any record can be schema-checked in isolation.

The schema (version :data:`MANIFEST_SCHEMA_VERSION`) has a small required
core plus optional sections:

required
    ``manifest_schema``, ``kind`` (one of :data:`MANIFEST_KINDS`),
    ``label``, ``created`` (UTC ISO-8601), ``wall_seconds``,
    ``events_executed``, ``events_per_second``, ``host``.
optional sections
    ``seed``/``seeds``, ``replications``, ``scenarios`` (name + config
    hash + job count each), ``scheduler`` (scheduled/executed/cache-hit
    job counts), ``cache`` (hits/misses/writes/hit_ratio, the stored xl
    graphs' ``graph_entries``/``graph_bytes``, and the
    *resolved* cache directory — see
    :func:`repro.core.cache.default_cache_dir` on why the directory
    matters), ``workers`` (per-worker jobs/events/busy-seconds/rates),
    ``kernel`` (events fired/cancelled, heap peak), ``resilience``
    (retry/quarantine counts, pool respawns, every failure event, and
    the checkpoint resume reconciliation — the durable record that a
    campaign survived faults), ``design`` (one record per design-backed
    experiment: the factor grid, point count, Latin-square subsample
    seed, and — on the compiled path — requested/unique job counts and
    the dedup ratio), ``service`` (required for ``kind == "service"``
    records: the campaign id, the journal recovery report, the worker
    pool accounting, and per-op request counts from the daemon's
    request log), ``frontier`` (a solved response-time frontier: the
    containment-predicate configuration, the bisection bracket trace,
    every probe's per-replication finals, the scheduler's cache-dedup
    accounting, and — when the analytic gate ran — the mean-field
    cross-check verdict; see :mod:`repro.frontier`), ``metrics`` (a full
    :meth:`repro.obs.metrics.Metrics.snapshot`), ``extra``.

:func:`validate_manifest` returns a list of problems (empty = valid);
:func:`append_manifest` refuses to write an invalid record, so a manifest
file can only ever contain schema-valid lines.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
import socket
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from ..core.parameters import ScenarioConfig
from ..core.serialization import scenario_to_dict

#: Bump when the required core or the meaning of a section changes.
MANIFEST_SCHEMA_VERSION = 1

#: The record kinds a manifest file may contain.  ``service`` records
#: are appended by the campaign daemon (:mod:`repro.service`) — one per
#: finished campaign, carrying the queue recovery report, the worker
#: pool accounting, and the request-log counters.
MANIFEST_KINDS = ("run", "benchmark", "profile", "service")

#: Required integer fields in the ``service`` section's sub-objects.
_SERVICE_QUEUE_FIELDS = (
    "pending",
    "in_flight",
    "torn_lines",
    "segments_swept",
)
_SERVICE_SHARD_FIELDS = (
    "executed",
    "cache_hits",
    "respawns",
    "inline_fallback",
    "reassigned_tasks",
)

#: Required top-level fields and their accepted types.
_REQUIRED_FIELDS: Dict[str, tuple] = {
    "manifest_schema": (int,),
    "kind": (str,),
    "label": (str,),
    "created": (str,),
    "wall_seconds": (int, float),
    "events_executed": (int,),
    "events_per_second": (int, float),
    "host": (dict,),
}

#: Required per-worker fields in the ``workers`` section.
_WORKER_FIELDS: Dict[str, tuple] = {
    "pid": (int,),
    "jobs": (int,),
    "events": (int,),
    "busy_seconds": (int, float),
    "events_per_second": (int, float),
}

#: The frontier axes a ``frontier`` record may declare.
_FRONTIER_AXES = ("latency", "rollout")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _frontier_record_problems(
    record: Any, prefix: str
) -> List[str]:
    """Schema-check one solved-frontier record (see ``FrontierResult``).

    A frontier record must carry its full evidence trail: the predicate
    configuration, the bisection bracket trace, every probe's
    per-replication finals, and the scheduler's cache-dedup accounting.
    """
    problems: List[str] = []
    if not isinstance(record, Mapping):
        return [f"{prefix} is not an object"]
    for field in ("scenario", "engine", "status"):
        if not isinstance(record.get(field), str):
            problems.append(f"{prefix}.{field} missing or not a string")
    if record.get("axis") not in _FRONTIER_AXES:
        problems.append(f"{prefix}.axis not in {_FRONTIER_AXES}")
    predicate = record.get("predicate")
    if not isinstance(predicate, Mapping):
        problems.append(f"{prefix}.predicate missing or not an object")
    else:
        for field in ("plateau", "fraction", "threshold"):
            if not _is_number(predicate.get(field)):
                problems.append(
                    f"{prefix}.predicate.{field} missing or not a number"
                )
    if not _is_number(record.get("critical")):
        problems.append(f"{prefix}.critical missing or not a number")
    interval = record.get("interval")
    if (
        not isinstance(interval, Sequence)
        or isinstance(interval, (str, bytes))
        or len(interval) != 2
        or not all(_is_number(v) for v in interval)
    ):
        problems.append(f"{prefix}.interval is not [low, high]")
    confidence = record.get("confidence")
    if not isinstance(confidence, Mapping) or not all(
        _is_number(confidence.get(field)) for field in ("low", "high")
    ):
        problems.append(f"{prefix}.confidence lacks numeric low/high")
    bracket = record.get("bracket")
    if not isinstance(bracket, Sequence) or isinstance(bracket, (str, bytes)):
        problems.append(f"{prefix}.bracket missing or not a list")
    else:
        for position, step in enumerate(bracket):
            if (
                not isinstance(step, Mapping)
                or not all(
                    _is_number(step.get(field))
                    for field in ("low", "high", "probe")
                )
                or not isinstance(step.get("contained"), bool)
            ):
                problems.append(
                    f"{prefix}.bracket[{position}] lacks "
                    "low/high/probe/contained"
                )
    probes = record.get("probes")
    if (
        not isinstance(probes, Sequence)
        or isinstance(probes, (str, bytes))
        or not probes
    ):
        problems.append(f"{prefix}.probes missing or empty")
    else:
        for position, probe in enumerate(probes):
            if not isinstance(probe, Mapping):
                problems.append(f"{prefix}.probes[{position}] is not an object")
                continue
            finals = probe.get("finals")
            if (
                not _is_number(probe.get("value"))
                or not isinstance(probe.get("contained"), bool)
                or not isinstance(finals, Sequence)
                or isinstance(finals, (str, bytes))
                or not finals
                or not all(_is_number(v) for v in finals)
            ):
                problems.append(
                    f"{prefix}.probes[{position}] lacks "
                    "value/finals/contained"
                )
    for field in ("replications", "seed"):
        value = record.get(field)
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{prefix}.{field} missing or not an int")
    cache = record.get("cache")
    if not isinstance(cache, Mapping):
        problems.append(f"{prefix}.cache missing or not an object")
    else:
        for field in ("scheduled", "executed", "cache_hits"):
            value = cache.get(field)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                problems.append(
                    f"{prefix}.cache.{field} missing or not a non-negative int"
                )
    return problems


def scenario_hash(config: ScenarioConfig) -> str:
    """Content hash of a scenario's canonical JSON.

    The same canonicalization the result cache keys on, so a manifest's
    scenario hash identifies exactly which configuration produced a run.
    """
    canonical = json.dumps(
        scenario_to_dict(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def host_info() -> Dict[str, Any]:
    """Host/interpreter identity recorded with every manifest."""
    try:
        hostname = socket.gethostname()
    except OSError:  # pragma: no cover - exotic environments
        hostname = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "hostname": hostname,
        "cpu_count": os.cpu_count(),
        "pid": os.getpid(),
    }


def utc_timestamp() -> str:
    """UTC creation timestamp in ISO-8601 (second resolution)."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )


def build_manifest(
    kind: str,
    label: str,
    *,
    wall_seconds: float,
    events_executed: int = 0,
    events_total: Optional[int] = None,
    seed: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    replications: Optional[int] = None,
    scenarios: Optional[Sequence[Mapping[str, Any]]] = None,
    scheduler: Optional[Mapping[str, Any]] = None,
    design: Optional[Sequence[Mapping[str, Any]]] = None,
    cache: Optional[Mapping[str, Any]] = None,
    workers: Optional[Sequence[Mapping[str, Any]]] = None,
    kernel: Optional[Mapping[str, Any]] = None,
    resilience: Optional[Mapping[str, Any]] = None,
    service: Optional[Mapping[str, Any]] = None,
    frontier: Optional[Mapping[str, Any]] = None,
    metrics: Optional[Mapping[str, Any]] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one schema-valid manifest record.

    ``events_per_second`` is derived from ``events_executed`` over
    ``wall_seconds`` (0.0 when either is zero — e.g. a fully cached run
    executes nothing).  Optional sections are included only when given.
    """
    rate = (
        events_executed / wall_seconds
        if wall_seconds > 0 and events_executed > 0
        else 0.0
    )
    document: Dict[str, Any] = {
        "manifest_schema": MANIFEST_SCHEMA_VERSION,
        "kind": kind,
        "label": label,
        "created": utc_timestamp(),
        "wall_seconds": round(float(wall_seconds), 6),
        "events_executed": int(events_executed),
        "events_per_second": round(rate, 1),
        "host": host_info(),
    }
    if events_total is not None:
        document["events_total"] = int(events_total)
    if seed is not None:
        document["seed"] = int(seed)
    if seeds is not None:
        document["seeds"] = [int(s) for s in seeds]
    if replications is not None:
        document["replications"] = int(replications)
    if scenarios is not None:
        document["scenarios"] = [dict(s) for s in scenarios]
    if scheduler is not None:
        document["scheduler"] = dict(scheduler)
    if design is not None:
        document["design"] = [dict(d) for d in design]
    if cache is not None:
        document["cache"] = dict(cache)
    if workers is not None:
        document["workers"] = [dict(w) for w in workers]
    if kernel is not None:
        document["kernel"] = dict(kernel)
    if resilience is not None:
        document["resilience"] = dict(resilience)
    if service is not None:
        document["service"] = dict(service)
    if frontier is not None:
        document["frontier"] = dict(frontier)
    if metrics is not None:
        document["metrics"] = dict(metrics)
    if extra is not None:
        document["extra"] = dict(extra)
    return document


def validate_manifest(document: Mapping[str, Any]) -> List[str]:
    """Schema-check one record; returns problems (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(document, Mapping):
        return [f"record is {type(document).__name__}, not an object"]
    for name, types in _REQUIRED_FIELDS.items():
        if name not in document:
            problems.append(f"missing required field {name!r}")
        elif not isinstance(document[name], types) or isinstance(
            document[name], bool
        ):
            problems.append(
                f"field {name!r} has type {type(document[name]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    if not problems:
        if document["manifest_schema"] != MANIFEST_SCHEMA_VERSION:
            problems.append(
                f"manifest_schema {document['manifest_schema']} != "
                f"{MANIFEST_SCHEMA_VERSION}"
            )
        if document["kind"] not in MANIFEST_KINDS:
            problems.append(
                f"kind {document['kind']!r} not in {MANIFEST_KINDS}"
            )
        if document["wall_seconds"] < 0:
            problems.append("wall_seconds is negative")
        if document["events_executed"] < 0:
            problems.append("events_executed is negative")

    cache = document.get("cache")
    if cache is not None:
        if not isinstance(cache, Mapping):
            problems.append("cache section is not an object")
        else:
            for field in ("hits", "misses", "writes"):
                if not isinstance(cache.get(field), int):
                    problems.append(f"cache.{field} missing or not an int")
            ratio = cache.get("hit_ratio")
            if not isinstance(ratio, (int, float)) or not 0.0 <= ratio <= 1.0:
                problems.append("cache.hit_ratio missing or outside [0, 1]")
            if not isinstance(cache.get("dir"), str):
                problems.append("cache.dir missing or not a string")
            # Stored xl graphs: optional, so older manifests stay valid.
            for field in ("graph_entries", "graph_bytes"):
                value = cache.get(field, 0)
                if not isinstance(value, int) or value < 0:
                    problems.append(f"cache.{field} not a non-negative int")

    workers = document.get("workers")
    if workers is not None:
        if not isinstance(workers, Sequence) or isinstance(workers, (str, bytes)):
            problems.append("workers section is not a list")
        else:
            for position, worker in enumerate(workers):
                if not isinstance(worker, Mapping):
                    problems.append(f"workers[{position}] is not an object")
                    continue
                for field, types in _WORKER_FIELDS.items():
                    if not isinstance(worker.get(field), types):
                        problems.append(
                            f"workers[{position}].{field} missing or mistyped"
                        )

    resilience = document.get("resilience")
    if resilience is not None:
        if not isinstance(resilience, Mapping):
            problems.append("resilience section is not an object")
        else:
            for field in ("retries", "quarantined", "pool_respawns"):
                value = resilience.get(field)
                if not isinstance(value, int) or isinstance(value, bool):
                    problems.append(
                        f"resilience.{field} missing or not an int"
                    )
            if not isinstance(resilience.get("degraded_to_serial"), bool):
                problems.append(
                    "resilience.degraded_to_serial missing or not a bool"
                )
            events = resilience.get("events")
            if not isinstance(events, Sequence) or isinstance(
                events, (str, bytes)
            ):
                problems.append("resilience.events missing or not a list")
            else:
                for position, event in enumerate(events):
                    if not isinstance(event, Mapping) or not isinstance(
                        event.get("kind"), str
                    ) or not isinstance(event.get("action"), str):
                        problems.append(
                            f"resilience.events[{position}] lacks kind/action"
                        )

    service = document.get("service")
    if service is None and document.get("kind") == "service":
        problems.append("kind 'service' requires a service section")
    if service is not None:
        if not isinstance(service, Mapping):
            problems.append("service section is not an object")
        else:
            if not isinstance(service.get("campaign"), str):
                problems.append("service.campaign missing or not a string")
            queue = service.get("queue")
            if not isinstance(queue, Mapping):
                problems.append("service.queue missing or not an object")
            else:
                for field in _SERVICE_QUEUE_FIELDS:
                    value = queue.get(field)
                    if not isinstance(value, int) or isinstance(value, bool):
                        problems.append(
                            f"service.queue.{field} missing or not an int"
                        )
            shards = service.get("shards")
            if not isinstance(shards, Mapping):
                problems.append("service.shards missing or not an object")
            else:
                for field in _SERVICE_SHARD_FIELDS:
                    value = shards.get(field)
                    if not isinstance(value, int) or isinstance(value, bool):
                        problems.append(
                            f"service.shards.{field} missing or not an int"
                        )
            requests = service.get("requests")
            if not isinstance(requests, Mapping):
                problems.append("service.requests missing or not an object")
            else:
                for op, count in requests.items():
                    if not isinstance(count, int) or isinstance(count, bool):
                        problems.append(
                            f"service.requests[{op!r}] is not an int"
                        )

    design = document.get("design")
    if design is not None:
        if not isinstance(design, Sequence) or isinstance(design, (str, bytes)):
            problems.append("design section is not a list")
        else:
            for position, record in enumerate(design):
                if not isinstance(record, Mapping):
                    problems.append(f"design[{position}] is not an object")
                    continue
                if not isinstance(record.get("experiment"), str):
                    problems.append(f"design[{position}] lacks an experiment id")
                factors = record.get("factors")
                if not isinstance(factors, Sequence) or isinstance(
                    factors, (str, bytes)
                ):
                    problems.append(
                        f"design[{position}].factors missing or not a list"
                    )
                else:
                    for fpos, factor in enumerate(factors):
                        if not isinstance(factor, Mapping) or not isinstance(
                            factor.get("name"), str
                        ) or not isinstance(factor.get("levels"), int):
                            problems.append(
                                f"design[{position}].factors[{fpos}] lacks "
                                "name/levels"
                            )
                if not isinstance(record.get("points"), int):
                    problems.append(
                        f"design[{position}].points missing or not an int"
                    )
                ratio = record.get("dedup_ratio")
                if ratio is not None and (
                    not isinstance(ratio, (int, float))
                    or isinstance(ratio, bool)
                    or not 0.0 < ratio <= 1.0
                ):
                    problems.append(
                        f"design[{position}].dedup_ratio outside (0, 1]"
                    )

    frontier = document.get("frontier")
    if frontier is not None:
        if not isinstance(frontier, Mapping):
            problems.append("frontier section is not an object")
        else:
            production = frontier.get("production")
            if production is None:
                problems.append("frontier.production missing")
            else:
                problems.extend(
                    _frontier_record_problems(production, "frontier.production")
                )
            crosscheck = frontier.get("crosscheck")
            if crosscheck is not None:
                if not isinstance(crosscheck, Mapping):
                    problems.append("frontier.crosscheck is not an object")
                else:
                    simulated = crosscheck.get("simulated")
                    if simulated is None:
                        problems.append("frontier.crosscheck.simulated missing")
                    else:
                        problems.extend(
                            _frontier_record_problems(
                                simulated, "frontier.crosscheck.simulated"
                            )
                        )
                    analytic = crosscheck.get("analytic")
                    if not isinstance(analytic, Mapping) or not _is_number(
                        analytic.get("critical")
                    ):
                        problems.append(
                            "frontier.crosscheck.analytic lacks a numeric "
                            "critical"
                        )
                    if not isinstance(crosscheck.get("passed"), bool):
                        problems.append(
                            "frontier.crosscheck.passed missing or not a bool"
                        )
                    if not _is_number(crosscheck.get("slack")):
                        problems.append(
                            "frontier.crosscheck.slack missing or not a number"
                        )

    scenarios = document.get("scenarios")
    if scenarios is not None:
        if not isinstance(scenarios, Sequence) or isinstance(
            scenarios, (str, bytes)
        ):
            problems.append("scenarios section is not a list")
        else:
            for position, scenario in enumerate(scenarios):
                if not isinstance(scenario, Mapping) or not isinstance(
                    scenario.get("name"), str
                ):
                    problems.append(f"scenarios[{position}] lacks a name")
                elif not isinstance(scenario.get("hash"), str):
                    problems.append(f"scenarios[{position}] lacks a config hash")
    return problems


def append_manifest(
    path: Union[str, Path], document: Mapping[str, Any]
) -> Path:
    """Validate ``document`` and append it as one JSONL line.

    Raises :class:`ValueError` listing the problems when the record is
    not schema-valid — manifest files never accumulate junk lines.
    """
    problems = validate_manifest(document)
    if problems:
        raise ValueError(
            "refusing to append invalid manifest record: " + "; ".join(problems)
        )
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(document, sort_keys=True, separators=(",", ":"))
    with target.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    return target


def read_manifests(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse every record of a manifest file (blank lines are skipped)."""
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{number}: not valid JSON: {exc}") from exc
    return records


__all__ = [
    "MANIFEST_KINDS",
    "MANIFEST_SCHEMA_VERSION",
    "append_manifest",
    "build_manifest",
    "host_info",
    "read_manifests",
    "scenario_hash",
    "utc_timestamp",
    "validate_manifest",
]
