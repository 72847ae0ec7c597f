"""Campaign checkpoint/resume: atomic snapshots and cache reconciliation."""

from __future__ import annotations

import json

import pytest

from repro.core import (
    NetworkParameters,
    ResultCache,
    ScenarioConfig,
    UserParameters,
    VirusParameters,
    result_key,
)
from repro.experiments import ReplicationScheduler
from repro.resilience import (
    CHECKPOINT_SCHEMA_VERSION,
    CampaignCheckpoint,
    default_checkpoint_path,
    load_checkpoint,
    load_checkpoint_report,
)


@pytest.fixture
def mini_scenario() -> ScenarioConfig:
    return ScenarioConfig(
        name="ckpt-mini",
        virus=VirusParameters(
            name="ckpt-virus", min_send_interval=0.05, extra_send_delay_mean=0.05
        ),
        network=NetworkParameters(population=60, mean_contact_list_size=8.0),
        user=UserParameters(read_delay_mean=0.1),
        duration=4.0,
    )


class TestCheckpointFile:
    def test_flush_and_load_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path, label="demo")
        for key in ("a", "b", "c"):
            checkpoint.record(key)
        checkpoint.flush()
        assert load_checkpoint(path) == ["a", "b", "c"]
        header = json.loads(path.read_text().splitlines()[0])
        assert header["checkpoint_schema"] == CHECKPOINT_SCHEMA_VERSION
        assert header["label"] == "demo"

    def test_later_flushes_append_batches(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path, label="demo")
        checkpoint.record("a")
        checkpoint.flush()
        checkpoint.record("b")
        checkpoint.record("c")
        checkpoint.flush()
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + first batch + appended batch
        assert json.loads(lines[2])["completed"] == ["b", "c"]
        assert load_checkpoint(path) == ["a", "b", "c"]

    def test_v1_snapshot_reads_unusable(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(
            json.dumps({"checkpoint_schema": 1, "label": "old",
                        "completed": ["a", "b"]})
        )
        assert load_checkpoint(path) is None
        # Resuming only re-checks the cache; the first flush rewrites
        # the file in the current format.
        resumed = CampaignCheckpoint(path, label="old", resume=True)
        assert resumed.previously_completed == frozenset()
        resumed.record("c")
        resumed.flush()
        assert load_checkpoint(path) == ["c"]

    def test_torn_trailing_line_skipped_and_reported(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path)
        checkpoint.record("a")
        checkpoint.flush()
        checkpoint.record("b")
        checkpoint.flush()
        # Crash mid-append: the final batch line is truncated.
        torn = path.read_text()[:-5]
        path.write_text(torn)
        report = load_checkpoint_report(path)
        assert report.torn_line
        assert report.keys == ["a"]  # everything before the tear survives
        resumed = CampaignCheckpoint(path, resume=True)
        assert resumed.load_torn_line
        assert resumed.previously_completed == {"a"}
        # The resumed campaign must not append after the torn tail — the
        # next flush rewrites the file whole, healing it.
        resumed.record("c")
        resumed.flush()
        healed = load_checkpoint_report(path)
        assert not healed.torn_line
        assert set(healed.keys) == {"a", "c"}

    def test_lost_final_newline_heals_before_next_append(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path, interval=1)
        for key in ("a", "b"):
            checkpoint.record(key)
        # Crash mid-append after the batch but before its newline.
        text = path.read_text()
        assert text.endswith("\n")
        path.write_text(text[:-1])

        resumed = CampaignCheckpoint(path, interval=1, resume=True)
        assert resumed.previously_completed == {"a", "b"}
        resumed.record("c")
        resumed.record("d")
        # The next append must not land on the unterminated line.
        reloaded = load_checkpoint_report(path)
        assert reloaded.keys == ["a", "b", "c", "d"]
        assert not reloaded.torn_line
        assert resumed.load_torn_line

    def test_mid_file_garbage_is_unusable(self, tmp_path):
        path = tmp_path / "ck.json"
        header = json.dumps(
            {"checkpoint_schema": CHECKPOINT_SCHEMA_VERSION, "label": ""}
        )
        path.write_text(
            header + "\n" + '{"completed": ["a"'
            + "\n" + json.dumps({"completed": ["b"]}) + "\n"
        )
        # The damaged line is NOT the tail, so the file is untrustworthy.
        assert load_checkpoint(path) is None

    def test_interval_flushes_periodically(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path, interval=3)
        checkpoint.record("a")
        checkpoint.record("b")
        assert not path.exists()  # below the interval, nothing on disk yet
        checkpoint.record("c")
        assert path.exists()
        assert checkpoint.flushes == 1
        # Duplicate records are idempotent and don't dirty the snapshot.
        checkpoint.record("a")
        assert checkpoint.flush() is None

    def test_damaged_checkpoint_treated_as_empty(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text('{"checkpoint_schema": 1, "completed": ["a", "b"')
        assert load_checkpoint(path) is None
        resumed = CampaignCheckpoint(path, resume=True)
        assert resumed.previously_completed == frozenset()

    def test_wrong_schema_and_shape_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"checkpoint_schema": 99, "completed": []}))
        assert load_checkpoint(path) is None
        path.write_text(json.dumps({"checkpoint_schema": 1, "completed": [1]}))
        assert load_checkpoint(path) is None
        assert load_checkpoint(tmp_path / "missing.json") is None

    def test_resume_loads_previous_progress(self, tmp_path):
        path = tmp_path / "ck.json"
        first = CampaignCheckpoint(path, label="demo")
        first.record("a")
        first.flush()
        resumed = CampaignCheckpoint(path, label="demo", resume=True)
        assert resumed.previously_completed == {"a"}
        resumed.record("b")
        resumed.flush()
        assert load_checkpoint(path) == ["a", "b"]

    def test_reconcile_splits_resumed_lost_fresh(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path, interval=1)
        for key in ("a", "b"):
            checkpoint.record(key)
        checkpoint.flush()
        resumed = CampaignCheckpoint(path, resume=True)
        report = resumed.reconcile(["a", "b", "c"], [True, False, False])
        assert report.previously_completed == 2
        assert report.resumed_from_cache == 1
        assert report.lost_entries == 1  # recorded done but gone from cache
        assert report.fresh == 1
        assert "1 lost" in report.format()
        with pytest.raises(ValueError):
            resumed.reconcile(["a"], [True, False])

    def test_reconcile_empty_cache_marks_everything_lost(self, tmp_path):
        """Every checkpointed key whose cache entry vanished is 'lost'."""
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path, interval=1)
        for key in ("a", "b", "c"):
            checkpoint.record(key)
        checkpoint.flush()
        resumed = CampaignCheckpoint(path, resume=True)
        report = resumed.reconcile(["a", "b", "c"], [False, False, False])
        assert report.previously_completed == 3
        assert report.resumed_from_cache == 0
        assert report.lost_entries == 3
        assert report.fresh == 0

    def test_reconcile_duplicate_job_keys_counted_per_occurrence(self, tmp_path):
        """A key requested twice (shared-config series) counts twice."""
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path, interval=1)
        checkpoint.record("a")
        checkpoint.flush()
        resumed = CampaignCheckpoint(path, resume=True)
        report = resumed.reconcile(
            ["a", "a", "b", "b"], [True, True, False, False]
        )
        assert report.previously_completed == 2
        assert report.resumed_from_cache == 2
        assert report.lost_entries == 0
        assert report.fresh == 2

    def test_reconcile_swept_entries_split_exactly(self, tmp_path):
        """A mixed sweep: some entries present, some gone, some fresh."""
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path, interval=1)
        for key in ("a", "b", "c", "d"):
            checkpoint.record(key)
        checkpoint.flush()
        resumed = CampaignCheckpoint(path, resume=True)
        # b and d were swept from the cache; e/f were never completed.
        report = resumed.reconcile(
            ["a", "b", "c", "d", "e", "f"],
            [True, False, True, False, False, False],
        )
        assert report.previously_completed == 4
        assert report.resumed_from_cache == 2
        assert report.lost_entries == 2
        assert report.fresh == 2
        assert report.to_dict() == {
            "previously_completed": 4,
            "resumed_from_cache": 2,
            "lost_entries": 2,
            "fresh": 2,
        }

    def test_reconcile_empty_job_list(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path, interval=1)
        checkpoint.record("a")
        checkpoint.flush()
        resumed = CampaignCheckpoint(path, resume=True)
        report = resumed.reconcile([], [])
        assert report.to_dict() == {
            "previously_completed": 0,
            "resumed_from_cache": 0,
            "lost_entries": 0,
            "fresh": 0,
        }

    def test_default_path_sanitizes_label(self, tmp_path):
        path = default_checkpoint_path(tmp_path, "figure:fig1,fig2")
        assert path.parent == tmp_path / "checkpoints"
        assert path.name == "figure-fig1-fig2.json"
        assert default_checkpoint_path(tmp_path, "").name == "campaign.json"


class TestSchedulerResume:
    """Kill-and-resume: a second scheduler re-executes only the missing
    replications, verified through the cache hit statistics."""

    def test_resume_runs_only_missing_work(self, mini_scenario, tmp_path):
        cache_root = tmp_path / "cache"
        ck_path = default_checkpoint_path(cache_root, "resume-test")

        # First campaign "dies" after 2 of 4 replications: simulate by
        # running only the first two jobs, then abandoning the scheduler.
        cache = ResultCache(cache_root)
        with ReplicationScheduler(
            cache=cache,
            checkpoint=CampaignCheckpoint(ck_path, label="resume-test"),
        ) as scheduler:
            partial = scheduler.replicate(mini_scenario, replications=2, seed=5)
        assert partial.replications == 2
        assert load_checkpoint(ck_path) is not None

        # Resumed campaign asks for all 4.
        resumed_cache = ResultCache(cache_root)
        with ReplicationScheduler(
            cache=resumed_cache,
            checkpoint=CampaignCheckpoint(
                ck_path, label="resume-test", resume=True
            ),
        ) as scheduler:
            full = scheduler.replicate(mini_scenario, replications=4, seed=5)
            totals = scheduler.resume_totals
        assert full.replications == 4
        # Cache hit stats prove only the 2 missing replications executed.
        assert resumed_cache.hits == 2
        assert resumed_cache.misses == 2
        assert scheduler.stats.executed == 2
        assert totals == {
            "previously_completed": 2,
            "resumed_from_cache": 2,
            "lost_entries": 0,
            "fresh": 2,
        }
        # And the resume split lands in the manifest telemetry.
        section = scheduler.resilience_telemetry()
        assert section is not None
        assert section["resume"] == totals

    def test_lost_cache_entry_is_rerun(self, mini_scenario, tmp_path):
        cache_root = tmp_path / "cache"
        ck_path = default_checkpoint_path(cache_root, "lost-test")
        cache = ResultCache(cache_root)
        with ReplicationScheduler(
            cache=cache,
            checkpoint=CampaignCheckpoint(ck_path, label="lost-test"),
        ) as scheduler:
            first = scheduler.replicate(mini_scenario, replications=3, seed=5)
        # One entry vanishes (disk cleanup, corruption, ...).
        victim = cache._path_for(result_key(mini_scenario, 5, 1))
        victim.unlink()
        resumed_cache = ResultCache(cache_root)
        with ReplicationScheduler(
            cache=resumed_cache,
            checkpoint=CampaignCheckpoint(
                ck_path, label="lost-test", resume=True
            ),
        ) as scheduler:
            again = scheduler.replicate(mini_scenario, replications=3, seed=5)
            totals = scheduler.resume_totals
        assert totals == {
            "previously_completed": 3,
            "resumed_from_cache": 2,
            "lost_entries": 1,
            "fresh": 0,
        }
        # The re-run replication is bit-identical to the original.
        assert [r.infection_times for r in again.results] == [
            r.infection_times for r in first.results
        ]
