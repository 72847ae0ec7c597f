"""Campaign benchmark of this repository (see ``perfbench/README.md``).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one table

Each run starts fresh processes under ``.perfbench-tmp/`` in the
checkout: ``SETUP_REPEATS - 1`` that only set up (their setup times
join the median ``setup_s``), then one that sets up, runs the timed
section and checks the results.  The last line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  ``--out FILE`` appends the full
record (fingerprint, iterations, checks) for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3
#: A run must end within this many seconds, whatever ``--seconds`` says.
RUN_LIMIT_SECONDS = 170.0
DEFAULT_SEED = 2007
#: The end-to-end metrics ``measure`` reports, with their units.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "setup_rss_mib": "MiB"}


def child(
    args: argparse.Namespace, workdir: Path, setup_only: bool, deadline: float
) -> Dict[str, Any]:
    """Run ``workload.py`` in a fresh process; its result document."""
    workdir.mkdir()
    result = workdir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result),
    ] + (["--setup-only"] if setup_only else [])
    with open(workdir / "stdout.log", "wb") as log:
        t0 = time.monotonic()
        process = subprocess.Popen(
            command + ["--t0", repr(t0)],
            cwd=workdir, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)  # stray workers or daemon
            except ProcessLookupError:
                pass
            process.wait()
    document = json.loads(result.read_text()) if result.exists() else {}
    if code != 0:
        log_text = (workdir / "stdout.log").read_text(errors="replace")
        reason = "timed out" if code is None else f"exited with {code}"
        raise RuntimeError(
            f"{args.workload}: workload process {reason}\n"
            + document.get("error", "") + log_text[-2000:]
        )
    return document


def measure(args: argparse.Namespace, spec: Dict[str, Any]) -> Dict[str, Any]:
    """One benchmark run: repeated setups, then the timed workload process."""
    deadline = time.monotonic() + RUN_LIMIT_SECONDS
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setups = [
            child(args, rundir / f"setup-{i}", True, deadline)
            for i in range(SETUP_REPEATS - 1)
        ]
        record = child(args, rundir / "run", False, deadline)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    setups.append(record)
    iterations = record["iterations"]
    untraced = [it for it in iterations if not it["traced"]]
    checks = record["checks"] + record["run_checks"]
    attempted = sum(it["attempted"] for it in iterations) + len(record["run_checks"])
    failed = sum(it["failed"] for it in iterations) + sum(
        not ok for _, ok, _ in record["run_checks"]
    )
    e2e = {
        "wall_s": statistics.median(it["wall"] for it in untraced),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mib": statistics.median(it["peak_rss_mib"] for it in untraced),
        "setup_rss_mib": statistics.median(s["setup_rss_mib"] for s in setups),
    }
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    values = record["layers"] if args.trace else e2e
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": record["fingerprint"],
        "correct": all(ok for _, ok, _ in checks) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted if attempted else 1.0,
        "checks": checks,
        "end_to_end": e2e,
        "iterations": iterations,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }


def report(result: Dict[str, Any]) -> None:
    """Human-readable lines; the JSON line comes last, from ``main``."""
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print("env " + json.dumps(result["fingerprint"], sort_keys=True))
    walls = [round(it["wall"], 3) for it in result["iterations"]]
    print(f"iterations {len(walls)}: wall {walls}")
    for name, ok, detail in result["checks"]:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
    print(
        f"  failed_fraction {result['failed_fraction']:.4f} "
        f"({result['failed']}/{result['attempted']} operations)"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:>14.6g} {metric['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the full record here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not SPEC.is_file():
        print(f"perfbench: no repro sources under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    selected = names if args.workload == "all" else [args.workload]
    if not set(selected) <= set(names):
        print(f"perfbench: unknown workload {args.workload!r}; known: {names}", file=sys.stderr)
        return 2

    results = []
    for name in selected:
        args.workload = name
        try:
            result = measure(args, spec)
        except (RuntimeError, KeyError, ValueError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        report(result)
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(result) + "\n")
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": metric
            for r in results
            for name, metric in r["metrics"].items()
        }
    correct = all(r["correct"] for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
