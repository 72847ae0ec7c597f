"""Supervised worker pool: crash/hang/corruption recovery, byte-identically.

The fast serial-path and lifecycle tests run in tier-1; everything that
injures real worker processes carries the ``faultinject`` marker
(deselected by default, run with ``-m faultinject``).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.core import (
    NetworkParameters,
    ResultCache,
    ScenarioConfig,
    UserParameters,
    VirusParameters,
)
from repro.core.simulation import replicate_scenario
from repro.experiments import ReplicationScheduler
from repro.faults import FaultPlan, FaultSpec
from repro.obs.manifest import read_manifests, validate_manifest
from repro.resilience import RetryPolicy, SupervisedWorkerPool


@pytest.fixture
def mini_scenario() -> ScenarioConfig:
    return ScenarioConfig(
        name="sup-mini",
        virus=VirusParameters(
            name="sup-virus", min_send_interval=0.05, extra_send_delay_mean=0.05
        ),
        network=NetworkParameters(population=80, mean_contact_list_size=10.0),
        user=UserParameters(read_delay_mean=0.1),
        duration=6.0,
    )


FAST_POLICY = RetryPolicy(max_retries=2, backoff_base=0.01, backoff_cap=0.05)


def _times(result_set):
    return [r.infection_times for r in result_set.results]


class TestSerialSupervised:
    """processes=1 supervised dispatch is the plain serial path plus
    bookkeeping — results must be bit-identical, and soft faults must be
    retried in-process."""

    def test_identical_to_unsupervised(self, mini_scenario):
        expected = replicate_scenario(mini_scenario, replications=3, seed=9)
        with ReplicationScheduler(resilience=FAST_POLICY) as scheduler:
            got = scheduler.replicate(mini_scenario, replications=3, seed=9)
        assert _times(got) == _times(expected)
        assert not scheduler.failures

    def test_soft_fault_retried(self, mini_scenario):
        expected = replicate_scenario(mini_scenario, replications=3, seed=9)
        plan = FaultPlan({1: FaultSpec(raise_attempts=(0,))})
        with ReplicationScheduler(
            resilience=FAST_POLICY, fault_plan=plan
        ) as scheduler:
            got = scheduler.replicate(mini_scenario, replications=3, seed=9)
        assert _times(got) == _times(expected)
        assert [(e.kind, e.action) for e in scheduler.failures] == [
            ("error", "retry")
        ]
        assert not scheduler.has_failures

    def test_quarantine_reported_not_raised(self, mini_scenario):
        plan = FaultPlan({2: FaultSpec(raise_attempts=tuple(range(10)))})
        with ReplicationScheduler(
            resilience=FAST_POLICY, fault_plan=plan
        ) as scheduler:
            got = scheduler.replicate(mini_scenario, replications=4, seed=9)
        assert got.replications == 3  # survivors only
        assert scheduler.has_failures
        assert scheduler.quarantined == [
            {
                "scenario": "sup-mini",
                "seed": 9,
                "replication": 2,
                "failures": FAST_POLICY.max_attempts,
            }
        ]
        summary = scheduler.failure_summary()
        assert summary and "sup-mini" in summary[0]


class TestPersistentPool:
    """One pool serves many runs: workers are reused, completions stream,
    and nothing from an earlier run leaks into a later one."""

    def test_workers_persist_across_runs_and_results_stream(self, mini_scenario):
        expected = replicate_scenario(mini_scenario, replications=4, seed=9)
        jobs = [(i, mini_scenario, 9, i) for i in range(4)]
        first, second = {}, {}
        with SupervisedWorkerPool(2, policy=FAST_POLICY) as pool:
            pool.run(jobs, first.__setitem__)
            pids = [slot.process.pid for slot in pool._slots]
            pool.run(jobs, second.__setitem__)
            assert [slot.process.pid for slot in pool._slots] == pids
            probe = pool.probe()
        assert pool.probe() == []  # closed: every worker reaped
        assert [first[i].infection_times for i in range(4)] == _times(expected)
        assert [second[i].infection_times for i in range(4)] == _times(expected)
        assert [w["worker"] for w in probe] == [0, 1]
        assert all(w["alive"] and w["busy_seconds"] == 0.0 for w in probe)
        assert sum(w["completed"] for w in probe) == 8

    def test_stale_message_from_an_earlier_run_is_dropped(self, mini_scenario):
        expected = replicate_scenario(mini_scenario, replications=2, seed=9)
        jobs = [(i, mini_scenario, 9, i) for i in range(2)]
        with SupervisedWorkerPool(2, policy=FAST_POLICY) as pool:
            pool.run(jobs, lambda index, result: None)
            # A completion of task 0 tagged with the finished run, as a
            # terminated attempt could leave behind in the result queue.
            pool._result_queue.put((pool._run_id, 0, 0, "ok", (0, "stale")))
            time.sleep(0.1)  # let the queue's feeder thread flush it
            results = {}
            pool.run(jobs, results.__setitem__)
        assert [results[i].infection_times for i in range(2)] == _times(expected)


@pytest.mark.faultinject
class TestFaultInjection:
    """Real worker processes get crashed, hung, and corrupted."""

    def test_hard_crash_detected_and_retried(self, mini_scenario):
        expected = replicate_scenario(mini_scenario, replications=4, seed=9)
        plan = FaultPlan({0: FaultSpec(crash_attempts=(0,))})
        with ReplicationScheduler(
            processes=2, resilience=FAST_POLICY, fault_plan=plan
        ) as scheduler:
            got = scheduler.replicate(mini_scenario, replications=4, seed=9)
        assert _times(got) == _times(expected)
        kinds = [(e.kind, e.action) for e in scheduler.failures]
        assert ("crash", "retry") in kinds
        assert scheduler.pool_respawns >= 1

    @pytest.mark.parametrize(
        "spec",
        [FaultSpec(crash_attempts=(0,)), FaultSpec(raise_attempts=(0,))],
        ids=["crash", "raise"],
    )
    def test_failed_job_without_policy_raises_promptly(self, mini_scenario, spec):
        """Without a policy a failed job raises, naming it; never a hang.

        The planner is off so the batch really runs in two worker
        processes: a worker that dies mid-job used to leave the plain
        pool waiting forever for its result.
        """
        outcome = {}

        def campaign() -> None:
            try:
                with ReplicationScheduler(
                    processes=2,
                    auto_degrade=False,
                    fault_plan=FaultPlan({1: spec}),
                ) as scheduler:
                    scheduler.replicate(mini_scenario, replications=4, seed=9)
            except Exception as exc:  # the assertion below inspects it
                outcome["error"] = exc

        start = time.monotonic()
        runner = threading.Thread(target=campaign, daemon=True)
        runner.start()
        runner.join(timeout=30.0)
        assert not runner.is_alive(), "campaign hung on a failed job"
        assert time.monotonic() - start < 10.0
        error = outcome.get("error")
        assert isinstance(error, RuntimeError)
        assert "sup-mini:s9:r1" in str(error)
        kind = "crash" if spec.crash_attempts else "error"
        assert f"({kind}: " in str(error)

    def test_hang_timed_out_and_retried(self, mini_scenario):
        expected = replicate_scenario(mini_scenario, replications=4, seed=9)
        policy = RetryPolicy(
            max_retries=2, backoff_base=0.01, backoff_cap=0.05, task_timeout=2.0
        )
        plan = FaultPlan({1: FaultSpec(hang_attempts=(0,), hang_seconds=60.0)})
        with ReplicationScheduler(
            processes=2, resilience=policy, fault_plan=plan
        ) as scheduler:
            got = scheduler.replicate(mini_scenario, replications=4, seed=9)
        assert _times(got) == _times(expected)
        assert ("timeout", "retry") in [
            (e.kind, e.action) for e in scheduler.failures
        ]

    def test_no_zombies_or_fd_leaks_after_repeated_respawns(self, mini_scenario):
        """Shutdown hygiene: 3 forced respawns leak nothing.

        After a campaign whose fault plan hard-crashes three workers
        (three respawn cycles), the parent must be left with zero live
        child processes and the same number of open file descriptors it
        had after a clean warm-up run — a dead worker's Process object
        and its task queue both hold pipe FDs until explicitly closed.
        """
        import multiprocessing
        import os

        def open_fds() -> int:
            fd_dir = "/proc/self/fd"
            if not os.path.isdir(fd_dir):  # pragma: no cover - non-Linux
                pytest.skip("needs /proc to count file descriptors")
            return len(os.listdir(fd_dir))

        def reap_stragglers() -> None:
            for child in multiprocessing.active_children():
                child.join(timeout=5.0)

        # Warm-up run: pays one-time interpreter costs (resource tracker,
        # mp context) so the baseline FD count is stable.
        with ReplicationScheduler(processes=2, resilience=FAST_POLICY) as s:
            s.replicate(mini_scenario, replications=4, seed=9)
        reap_stragglers()
        assert multiprocessing.active_children() == []
        baseline = open_fds()

        plan = FaultPlan(
            {
                0: FaultSpec(crash_attempts=(0,)),
                1: FaultSpec(crash_attempts=(0,)),
                2: FaultSpec(crash_attempts=(0,)),
            }
        )
        with ReplicationScheduler(
            processes=2, resilience=FAST_POLICY, fault_plan=plan
        ) as scheduler:
            scheduler.replicate(mini_scenario, replications=4, seed=9)
        assert scheduler.pool_respawns >= 3
        reap_stragglers()
        assert multiprocessing.active_children() == []
        assert open_fds() <= baseline

    def test_repeated_pool_death_degrades_to_serial(self, mini_scenario):
        expected = replicate_scenario(mini_scenario, replications=4, seed=9)
        policy = RetryPolicy(
            max_retries=4,
            backoff_base=0.005,
            backoff_cap=0.01,
            max_pool_respawns=1,
        )
        always = tuple(range(10))
        plan = FaultPlan(
            {
                0: FaultSpec(crash_attempts=always),
                1: FaultSpec(crash_attempts=always),
            }
        )
        with ReplicationScheduler(
            processes=2, resilience=policy, fault_plan=plan
        ) as scheduler:
            got = scheduler.replicate(mini_scenario, replications=4, seed=9)
        assert scheduler.degraded_to_serial
        # The poisoned tasks fail in serial soft mode too -> quarantined;
        # the healthy replications still match the reference exactly.
        assert {q["replication"] for q in scheduler.quarantined} == {0, 1}
        expected_times = _times(expected)
        for result in got.results:
            assert result.infection_times == expected_times[result.replication]


    def test_no_orphaned_workers_after_parent_sigkill(self, tmp_path):
        """A SIGKILL'd parent cannot reap its workers: they must notice
        the reparenting and exit on their own, mid-campaign."""
        if not os.path.isdir("/proc"):  # pragma: no cover - non-Linux
            pytest.skip("needs /proc to inspect the workers")
        script = tmp_path / "parent.py"
        script.write_text(textwrap.dedent(
            """
            import multiprocessing

            from repro.core import NetworkParameters
            from repro.core.scenarios import baseline_scenario
            from repro.resilience import SupervisedWorkerPool

            config = baseline_scenario(
                3, network=NetworkParameters(population=150), duration=12.0
            )
            pool = SupervisedWorkerPool(2)
            announced = []

            def announce(index, result):
                if not announced:
                    pids = [p.pid for p in multiprocessing.active_children()]
                    print(*pids, flush=True)
                    announced.append(pids)

            pool.run([(i, config, 1, i) for i in range(100)], announce)
            """
        ))
        src = Path(__file__).resolve().parents[1] / "src"
        parent = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
            text=True,
        )
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait()
            parent.stdout.close()
        assert len(pids) == 2

        def running(pid: int) -> bool:
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    state = handle.read().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                return False
            return state not in ("Z", "X")  # a zombie has already exited

        deadline = time.monotonic() + 2.0
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        alive = [pid for pid in pids if running(pid)]
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
        assert alive == [], "workers outlived their SIGKILL'd parent"


@pytest.mark.faultinject
class TestFig1CampaignUnderFaults:
    """The acceptance campaign: a scaled-down Figure-1 run (all four
    viruses) under >=10% worker crashes, one hang, and one corrupted
    cache entry — byte-identical results, a manifest recording every
    retry, and a resume that re-executes only the lost replication."""

    def test_demo_campaign_self_check_passes(self, tmp_path):
        from repro.faults.__main__ import main as faults_main

        manifest_path = tmp_path / "faults-manifest.jsonl"
        code = faults_main(
            [
                "--manifest", str(manifest_path),
                "--cache-dir", str(tmp_path / "cache"),
                "--population", "100",
                "--duration", "5.0",
                "--task-timeout", "2.0",
            ]
        )
        assert code == 0

        records = read_manifests(manifest_path)
        assert len(records) == 2  # injected phase + resume phase
        for record in records:
            assert validate_manifest(record) == []

        injected, resumed = records
        section = injected["resilience"]
        kinds = {event["kind"] for event in section["events"]}
        assert "crash" in kinds and "timeout" in kinds
        assert section["retries"] == len(
            [e for e in section["events"] if e["action"] == "retry"]
        )
        assert section["retries"] >= 3  # 2 crashes + 1 hang, each retried
        assert section["quarantined"] == 0
        assert section["degraded_to_serial"] is False
        assert section["policy"]["task_timeout"] == 2.0

        # Resume phase: cache hit stats prove only the corrupted entry
        # was re-executed.
        assert resumed["resilience"]["resume"] == {
            "previously_completed": 12,
            "resumed_from_cache": 11,
            "lost_entries": 1,
            "fresh": 0,
        }
        assert resumed["cache"]["hits"] == 11
        assert resumed["scheduler"]["executed"] == 1
