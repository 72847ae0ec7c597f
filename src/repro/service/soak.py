"""Kill -9 soak for the campaign daemon (``python -m repro.service.soak``).

Three phases prove the service's headline invariant — *a SIGKILL'd
daemon resumes byte-identically*:

0. **Reference** — a fresh daemon runs the soak campaign fault-free;
   its result stream (canonical JSONL, job-index order) is the golden
   bytes.
1. **Kill** — a second fresh daemon runs the same campaign armed with
   ``--fault-kill-after K`` (0 < K < jobs): after durably recording K
   results it SIGKILLs its own process — a real ``kill -9`` at a
   deterministic, seeded point mid-campaign.  Then a plain daemon
   restarts on the same spool: journal replay re-queues the in-flight
   campaign as *recovered*, the checkpoint reconciles against the warm
   cache, and the regenerated result stream must equal the reference
   **byte for byte**.  The campaign's ``service`` manifest record must
   show the queue recovery (``in_flight >= 1``) and a resume split with
   both resumed and fresh work (proof the kill landed mid-campaign).
2. **Worker death** — a second campaign runs on a restarted daemon whose
   first pending task hard-crashes its worker (``--crash-task 0``); the
   campaign must complete and its manifest record must show
   ``pool_respawns >= 1`` and the crash event.

Exit code 0 = every check passed; 1 = failures (listed on stderr).
CI runs this in the ``service`` job.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..obs.manifest import read_manifests, validate_manifest
from .client import ServiceClient, ServiceError

#: The soak campaign: two paper viruses, three replications each, at a
#: small population/horizon so the whole soak stays in CI budget.
SOAK_DESIGN: Dict[str, Any] = {
    "design": {
        "id": "soak",
        "title": "service soak campaign",
        "label": "{virus}-{population}",
        "replications": 3,
    },
    "factor": [
        {"name": "virus", "levels": [1, 2]},
        {"name": "population", "levels": [100]},
        {"name": "duration", "levels": [5.0]},
    ],
}
SOAK_SEED = 2007
SOAK_JOBS = 6  # 2 viruses x 3 replications
KILL_AFTER = 3  # SIGKILL the daemon after 3 of 6 results


def _spawn_daemon(
    spool: Path,
    socket_path: Path,
    extra_args: Optional[List[str]] = None,
) -> subprocess.Popen:
    command = [
        sys.executable,
        "-m",
        "repro.service",
        "--spool",
        str(spool),
        "--socket",
        str(socket_path),
        "--shards",
        "2",
    ] + (extra_args or [])
    return subprocess.Popen(
        command,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=dict(os.environ),
    )


def _stop_daemon(process: subprocess.Popen, client: ServiceClient) -> None:
    try:
        client.shutdown()
    except (OSError, ServiceError):
        pass
    try:
        process.wait(timeout=30.0)
    except subprocess.TimeoutExpired:  # pragma: no cover - wedged daemon
        process.kill()
        process.wait()


def _wait_for_state(
    client: ServiceClient, campaign_id: str, state: str, timeout: float = 120.0
) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            record = client.status(campaign_id)["campaign"]
        except (OSError, ServiceError):
            time.sleep(0.1)
            continue
        if record["state"] == state:
            return
        if record["state"] in ("failed", "cancelled"):
            raise RuntimeError(
                f"campaign {campaign_id} reached {record['state']}: "
                f"{record.get('error')}"
            )
        time.sleep(0.1)
    raise RuntimeError(f"campaign {campaign_id} never reached {state!r}")


def _result_bytes(spool: Path, campaign_id: str) -> bytes:
    return (spool / "results" / f"{campaign_id}.jsonl").read_bytes()


def _check(passed: bool, label: str, problems: List[str]) -> None:
    marker = "ok" if passed else "FAIL"
    print(f"  [{marker}] {label}")
    if not passed:
        problems.append(label)


def run_soak(root: Path, keep: bool = False) -> int:
    problems: List[str] = []
    root.mkdir(parents=True, exist_ok=True)

    # -- phase 0: fault-free reference ------------------------------------
    print("phase 0: fault-free reference run")
    ref_spool = root / "ref"
    ref_socket = root / "ref.sock"
    daemon = _spawn_daemon(ref_spool, ref_socket)
    client = ServiceClient(ref_socket)
    try:
        client.wait_ready()
        submitted = client.submit(SOAK_DESIGN, seed=SOAK_SEED)
        campaign_id = submitted["id"]
        _check(
            submitted.get("jobs") == SOAK_JOBS,
            f"submission admitted with {SOAK_JOBS} jobs",
            problems,
        )
        reference_frames = list(client.results(campaign_id))
        _wait_for_state(client, campaign_id, "done")
    finally:
        _stop_daemon(daemon, client)
    reference = _result_bytes(ref_spool, campaign_id)
    _check(
        len(reference_frames) == SOAK_JOBS,
        f"reference streamed all {SOAK_JOBS} results",
        problems,
    )

    # -- phase 1: SIGKILL mid-campaign, restart, byte-identical resume ----
    print(f"phase 1: SIGKILL after {KILL_AFTER} results, then restart")
    kill_spool = root / "kill"
    kill_socket = root / "kill.sock"
    daemon = _spawn_daemon(
        kill_spool, kill_socket, ["--fault-kill-after", str(KILL_AFTER)]
    )
    client = ServiceClient(kill_socket)
    killed_id = None
    try:
        client.wait_ready()
        killed_id = client.submit(SOAK_DESIGN, seed=SOAK_SEED)["id"]
        daemon.wait(timeout=120.0)
    except subprocess.TimeoutExpired:
        _stop_daemon(daemon, client)
        _check(False, "armed daemon died of its seeded SIGKILL", problems)
    else:
        _check(
            daemon.returncode == -signal.SIGKILL,
            f"daemon exit signal is SIGKILL (got {daemon.returncode})",
            problems,
        )

    restarted = _spawn_daemon(kill_spool, kill_socket)
    client = ServiceClient(kill_socket)
    second_id = None
    try:
        client.wait_ready()
        status = client.status()
        _check(
            status["queue"]["recovery"]["in_flight"] >= 1,
            "journal replay recovered the in-flight campaign",
            problems,
        )
        replayed_frames = list(client.results(killed_id))
        _wait_for_state(client, killed_id, "done")
        resumed = _result_bytes(kill_spool, killed_id)
        _check(
            resumed == reference,
            "resumed result stream is byte-identical to the reference",
            problems,
        )
        _check(
            [f["result"] for f in replayed_frames]
            == [f["result"] for f in reference_frames],
            "streamed frames match the reference stream",
            problems,
        )

        # -- phase 2: worker death on the same spool ----------------------
        # (different seed so the work is not already cached)
        print("phase 2: worker crash mid-campaign on the restarted daemon")
        _stop_daemon(restarted, client)
        restarted = _spawn_daemon(
            kill_spool, kill_socket, ["--crash-task", "0"]
        )
        client = ServiceClient(kill_socket)
        client.wait_ready()
        second_id = client.submit(SOAK_DESIGN, seed=SOAK_SEED + 1)["id"]
        second_frames = list(client.results(second_id))
        _wait_for_state(client, second_id, "done")
        _check(
            len(second_frames) == SOAK_JOBS,
            "campaign survived the worker crash",
            problems,
        )
    finally:
        _stop_daemon(restarted, client)

    # -- manifest checks ---------------------------------------------------
    print("manifest checks")
    records = read_manifests(kill_spool / "manifest.jsonl")
    for record in records:
        issues = validate_manifest(record)
        _check(
            not issues,
            f"manifest record {record.get('label')!r} schema-valid "
            + ("" if not issues else f"({'; '.join(issues)})"),
            problems,
        )
    by_campaign = {r["service"]["campaign"]: r for r in records}
    recovered = by_campaign.get(killed_id)
    _check(recovered is not None, "recovered campaign wrote a manifest", problems)
    if recovered is not None:
        resume = recovered["resilience"].get("resume", {})
        _check(
            recovered["service"]["recovered"] is True
            and recovered["service"]["queue"]["in_flight"] >= 1,
            "manifest records the queue recovery",
            problems,
        )
        _check(
            resume.get("previously_completed", 0) >= KILL_AFTER
            and resume.get("fresh", 0) >= 1,
            f"resume split proves a mid-campaign kill ({resume})",
            problems,
        )
    crashed = by_campaign.get(second_id)
    _check(crashed is not None, "worker-crash campaign wrote a manifest", problems)
    if crashed is not None:
        _check(
            crashed["resilience"]["pool_respawns"] >= 1,
            "manifest records the worker respawn",
            problems,
        )
        _check(
            any(
                event["kind"] == "crash"
                for event in crashed["resilience"]["events"]
            ),
            "manifest records the crash event",
            problems,
        )
    request_log = kill_spool / "requests.jsonl"
    _check(request_log.exists(), "request log exists", problems)
    if request_log.exists():
        ops = {
            json.loads(line)["op"]
            for line in request_log.read_text(encoding="utf-8").splitlines()
            if line.strip()
        }
        _check(
            {"submit", "status", "results"} <= ops,
            f"request log covers the exercised ops ({sorted(ops)})",
            problems,
        )

    if problems:
        print(
            f"soak FAILED: {len(problems)} check(s):\n  - "
            + "\n  - ".join(problems),
            file=sys.stderr,
        )
        return 1
    print("soak passed: SIGKILL'd daemon resumed byte-identically")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.soak",
        description="Fault-injection soak: kill -9 the campaign daemon "
        "mid-campaign and prove byte-identical resume.",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="working directory (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)
    if args.root:
        return run_soak(Path(args.root))
    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        return run_soak(Path(tmp))


if __name__ == "__main__":  # pragma: no cover - CI entry
    raise SystemExit(main())
