"""``python -m repro.validation`` — run | record | check.

``run``
    Cross-engine differential campaign (core vs SAN vs mean-field) over
    the four matched baseline virus scenarios, with statistical
    acceptance gates.  Exit 1 when any gate fails.
``record``
    (Re)record the golden fixtures under ``tests/golden/`` from
    deterministic seeded runs.  Byte-identical across re-runs with the
    same seed.
``check``
    Replay every golden fixture and report semantic drift.  Exit 1 when
    any signature diverges.  Never satisfied from the result cache.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..argtypes import positive_int
from ..experiments.scheduler import ReplicationScheduler
from .differential import Tolerances, run_campaign
from .golden import (
    DEFAULT_GOLDEN_DIR,
    check_golden,
    golden_paths,
    load_golden,
    record_golden,
    save_golden,
)
from .scenarios import (
    VALIDATION_SEED,
    golden_scenarios,
    matched_scenario,
)

#: Default replications recorded per golden scenario.
GOLDEN_REPLICATIONS = 2


def build_parser() -> argparse.ArgumentParser:
    """Construct the validation CLI parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.validation",
        description="Differential validation: golden-trace replay and "
        "cross-engine statistical campaigns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", help="cross-engine differential campaign with acceptance gates"
    )
    run_parser.add_argument(
        "--virus", type=int, nargs="*", choices=(1, 2, 3, 4), default=None,
        help="subset of paper viruses to validate (default: all four)",
    )
    run_parser.add_argument("--replications", type=int, default=None,
                            help="replications per engine (default: 10)")
    run_parser.add_argument("--seed", type=int, default=VALIDATION_SEED)
    run_parser.add_argument("--population", type=int, default=40,
                            help="matched-scenario population")
    run_parser.add_argument("--json", default=None,
                            help="also write the full campaign result as JSON")
    run_parser.add_argument("--quiet", action="store_true",
                            help="suppress per-scenario progress lines")

    record_parser = sub.add_parser(
        "record", help="(re)record golden fixtures from seeded runs"
    )
    record_parser.add_argument("--dir", default=str(DEFAULT_GOLDEN_DIR),
                               help="fixture directory")
    record_parser.add_argument("--seed", type=int, default=VALIDATION_SEED)
    record_parser.add_argument("--replications", type=int,
                               default=GOLDEN_REPLICATIONS)
    record_parser.add_argument(
        "--scenarios", nargs="*", default=None,
        help=f"subset to record (default: all of {sorted(golden_scenarios())})",
    )
    record_parser.add_argument("--processes", type=positive_int, default=1,
                               help="worker processes (results are identical)")

    check_parser = sub.add_parser(
        "check", help="replay golden fixtures and report semantic drift"
    )
    check_parser.add_argument("--dir", default=str(DEFAULT_GOLDEN_DIR),
                              help="fixture directory")
    check_parser.add_argument("--processes", type=positive_int, default=1,
                              help="worker processes (results are identical)")
    return parser


def _command_run(args: argparse.Namespace) -> int:
    viruses = args.virus if args.virus else (1, 2, 3, 4)
    scenarios = [
        matched_scenario(number, population=args.population) for number in viruses
    ]
    campaign = run_campaign(
        scenarios,
        seed=args.seed,
        replications=args.replications,
        tolerances=Tolerances(),
        echo=None if args.quiet else print,
    )
    print(campaign.format_report())
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(campaign.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"campaign result written to {path}")
    return 0 if campaign.passed else 1


def _select_golden(names: Optional[List[str]]):
    registry = golden_scenarios()
    if names is None:
        return registry
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise KeyError(f"unknown golden scenarios {unknown}; known: {sorted(registry)}")
    return {name: registry[name] for name in names}


def _command_record(args: argparse.Namespace) -> int:
    try:
        selected = _select_golden(args.scenarios)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    with ReplicationScheduler(processes=args.processes, cache=None) as scheduler:
        for name, config in selected.items():
            document = record_golden(
                config,
                name=name,
                seed=args.seed,
                replications=args.replications,
                scheduler=scheduler,
            )
            path = save_golden(document, args.dir)
            print(f"recorded {path} ({args.replications} replications)")
    return 0


def _command_check(args: argparse.Namespace) -> int:
    paths = golden_paths(args.dir)
    if not paths:
        print(f"no golden fixtures under {args.dir}; run 'record' first",
              file=sys.stderr)
        return 2
    total_drifts = 0
    with ReplicationScheduler(processes=args.processes, cache=None) as scheduler:
        for path in paths:
            document = load_golden(path)
            drifts = check_golden(document, scheduler=scheduler)
            if drifts:
                total_drifts += len(drifts)
                print(f"{path.name}: {len(drifts)} drift(s)")
                for drift in drifts:
                    print(f"  {drift.format()}")
            else:
                print(f"{path.name}: ok")
    if total_drifts:
        print(
            f"\n{total_drifts} drift(s) detected — the simulation semantics "
            "changed. If intentional, re-record with "
            "'python -m repro.validation record' and commit the diff "
            "(see TESTING.md).",
            file=sys.stderr,
        )
        return 1
    print("no semantic drift detected")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Validation CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "record":
        return _command_record(args)
    if args.command == "check":
        return _command_check(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
