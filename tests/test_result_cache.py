"""Tests for ScenarioResult serialization and the disk-backed result cache."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core import (
    NetworkParameters,
    ResultCache,
    ScenarioConfig,
    UserParameters,
    VirusParameters,
    result_from_dict,
    result_key,
    result_to_dict,
    run_scenario,
)
from repro.core.serialization import SerializationError


@pytest.fixture
def tiny_config() -> ScenarioConfig:
    return ScenarioConfig(
        name="cache-test",
        virus=VirusParameters(
            name="cache-virus", min_send_interval=0.05, extra_send_delay_mean=0.05
        ),
        network=NetworkParameters(population=60, mean_contact_list_size=8.0),
        user=UserParameters(read_delay_mean=0.1),
        duration=4.0,
    )


@pytest.fixture
def tiny_result(tiny_config):
    return run_scenario(tiny_config, seed=3, replication=1)


class TestResultSerialization:
    def test_round_trip_is_exact(self, tiny_result):
        restored = result_from_dict(result_to_dict(tiny_result))
        assert restored.config == tiny_result.config
        assert restored.seed == tiny_result.seed
        assert restored.replication == tiny_result.replication
        assert restored.final_time == tiny_result.final_time
        assert restored.infection_times == tiny_result.infection_times
        assert restored.counters == tiny_result.counters
        assert restored.response_stats == tiny_result.response_stats
        assert restored.detection_time == tiny_result.detection_time
        assert restored.patient_zero == tiny_result.patient_zero
        assert restored.susceptible_count == tiny_result.susceptible_count
        assert restored.population == tiny_result.population

    def test_round_trip_through_json_text(self, tiny_result):
        text = json.dumps(result_to_dict(tiny_result))
        restored = result_from_dict(json.loads(text))
        assert restored.infection_times == tiny_result.infection_times
        assert restored.final_time == tiny_result.final_time

    def test_bad_version_rejected(self, tiny_result):
        document = result_to_dict(tiny_result)
        document["format_version"] = 99
        with pytest.raises(SerializationError, match="format_version"):
            result_from_dict(document)

    def test_missing_keys_rejected(self, tiny_result):
        document = result_to_dict(tiny_result)
        del document["infection_times"]
        with pytest.raises(SerializationError, match="missing"):
            result_from_dict(document)

    def test_non_dict_rejected(self):
        with pytest.raises(SerializationError):
            result_from_dict([1, 2, 3])


class TestResultKey:
    def test_stable(self, tiny_config):
        assert result_key(tiny_config, 3, 1) == result_key(tiny_config, 3, 1)

    def test_varies_with_inputs(self, tiny_config):
        base = result_key(tiny_config, 3, 1)
        assert result_key(tiny_config, 4, 1) != base
        assert result_key(tiny_config, 3, 2) != base
        changed = dataclasses.replace(tiny_config, duration=5.0)
        assert result_key(changed, 3, 1) != base

    def test_varies_with_schema_version(self, tiny_config):
        assert result_key(tiny_config, 3, 1, schema_version=1) != result_key(
            tiny_config, 3, 1, schema_version=2
        )

    def test_response_config_changes_key(self, tiny_config):
        from repro.core import UserEducationConfig

        with_response = tiny_config.with_responses(
            UserEducationConfig(acceptance_scale=0.5), suffix="edu"
        )
        assert result_key(with_response, 3, 1) != result_key(tiny_config, 3, 1)


class TestResultCache:
    def test_miss_then_hit(self, tiny_config, tiny_result, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.get(tiny_config, 3, 1) is None
        assert cache.misses == 1
        cache.put(tiny_result)
        assert cache.writes == 1
        restored = cache.get(tiny_config, 3, 1)
        assert restored is not None
        assert cache.hits == 1
        assert restored.infection_times == tiny_result.infection_times
        assert restored.counters == tiny_result.counters

    def test_len_and_clear(self, tiny_result, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert len(cache) == 0
        cache.put(tiny_result)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_corrupt_entry_is_miss_and_healed(
        self, tiny_config, tiny_result, tmp_path
    ):
        cache = ResultCache(tmp_path / "c")
        path = cache.put(tiny_result)
        path.write_text("{ this is not json")
        assert cache.get(tiny_config, 3, 1) is None
        assert cache.misses == 1
        assert not path.exists()  # corrupt entry quarantined away
        assert cache.quarantined == 1
        cache.put(tiny_result)
        assert cache.get(tiny_config, 3, 1) is not None

    def test_bit_flip_is_quarantined_not_served(
        self, tiny_config, tiny_result, tmp_path
    ):
        # A flipped byte inside the payload still parses as JSON — only
        # the embedded checksum catches it.
        from repro.faults import corrupt_cache_entry

        cache = ResultCache(tmp_path / "c")
        cache.put(tiny_result)
        path = corrupt_cache_entry(cache, tiny_config, 3, 1)
        assert cache.get(tiny_config, 3, 1) is None
        assert cache.misses == 1
        assert not path.exists()
        quarantined = list(cache.quarantine_paths())
        assert len(quarantined) == 1
        assert quarantined[0].name == path.name  # bytes kept for forensics
        # The slot heals on the next put; quarantined bytes never count
        # as entries.
        cache.put(tiny_result)
        assert cache.get(tiny_config, 3, 1) is not None
        assert len(cache) == 1

    def test_checksum_mismatch_detected(self, tiny_config, tiny_result, tmp_path):
        cache = ResultCache(tmp_path / "c")
        path = cache.put(tiny_result)
        document = json.loads(path.read_text())
        document["result"]["final_time"] = document["result"]["final_time"] + 1.0
        path.write_text(json.dumps(document))  # valid JSON, tampered payload
        assert cache.get(tiny_config, 3, 1) is None
        assert cache.quarantined == 1

    def test_wrong_schema_inside_document_is_miss(
        self, tiny_config, tiny_result, tmp_path
    ):
        cache = ResultCache(tmp_path / "c")
        path = cache.put(tiny_result)
        document = json.loads(path.read_text())
        document["result"]["format_version"] = 99
        path.write_text(json.dumps(document))
        assert cache.get(tiny_config, 3, 1) is None

    def test_stats(self, tiny_config, tiny_result, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.get(tiny_config, 3, 1)
        cache.put(tiny_result)
        cache.get(tiny_config, 3, 1)
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "writes": 1,
            "quarantined": 0,
            "entries": 1,
            "tmp_files": 0,
            "quarantine_files": 0,
            "graph_entries": 0,
            "graph_bytes": 0,
        }

    def test_missing_root_dir_is_empty(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert len(cache) == 0
        assert cache.clear() == 0


class TestTmpHygiene:
    """Regression: orphaned ``.tmp-*.json`` files from interrupted atomic
    writes used to be counted as cache entries (pathlib globs match
    dot-prefixed names, unlike shell globs)."""

    @staticmethod
    def _plant_orphan(cache, tiny_result):
        entry = cache.put(tiny_result)
        orphan = entry.parent / ".tmp-interrupted0.json"
        orphan.write_text("{partial write")
        return entry, orphan

    def test_orphans_excluded_from_len_and_entries(self, tiny_result, tmp_path):
        cache = ResultCache(tmp_path / "c")
        self._plant_orphan(cache, tiny_result)
        assert len(cache) == 1
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["tmp_files"] == 1

    def test_sweep_removes_only_orphans(
        self, tiny_config, tiny_result, tmp_path
    ):
        cache = ResultCache(tmp_path / "c")
        entry, orphan = self._plant_orphan(cache, tiny_result)
        assert cache.sweep() == 1
        assert not orphan.exists()
        assert entry.exists()
        assert cache.get(tiny_config, 3, 1) is not None  # entry still readable
        assert cache.sweep() == 0

    def test_clear_counts_entries_not_orphans(self, tiny_result, tmp_path):
        cache = ResultCache(tmp_path / "c")
        _, orphan = self._plant_orphan(cache, tiny_result)
        assert cache.clear() == 1  # one real entry; the orphan is uncounted
        assert not orphan.exists()
        assert cache.stats()["tmp_files"] == 0

    def test_sweep_on_missing_root(self, tmp_path):
        assert ResultCache(tmp_path / "never-created").sweep() == 0


class TestDefaultCacheDir:
    """Regression: the default cache dir resolved relative to whatever the
    CWD happened to be; it is now always returned absolute, and the env
    override expands ``~`` and ``$VARS``."""

    def test_default_is_absolute_and_cwd_anchored(self, tmp_path, monkeypatch):
        from repro.core.cache import CACHE_DIR_ENV, default_cache_dir

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        resolved = default_cache_dir()
        assert resolved.is_absolute()
        assert resolved == (tmp_path / ".repro-cache").resolve()

    def test_env_override_expands_vars_and_user(self, tmp_path, monkeypatch):
        from repro.core.cache import CACHE_DIR_ENV, default_cache_dir

        monkeypatch.setenv("REPRO_TEST_BASE", str(tmp_path))
        monkeypatch.setenv(CACHE_DIR_ENV, "$REPRO_TEST_BASE/cache-here")
        assert default_cache_dir() == (tmp_path / "cache-here").resolve()
