"""The crash-safe append log under checkpoints, the queue journal and the
daemon's result streams: framing, torn tails, bad lines, the order of an
atomic rewrite, and the ``.tmp-*`` orphan sweep.  Pure filesystem."""

from __future__ import annotations

import json
import os
import stat

import pytest

from repro.resilience import log
from repro.resilience.log import (
    append_log,
    encode_record,
    read_log,
    replace_log,
    sweep_tmp,
)


@pytest.fixture
def durability_events(monkeypatch):
    """Record every ``os.fsync`` and ``os.replace`` the log makes, in order."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        events.append("fsync-dir" if is_dir else "fsync")
        return real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        return real_replace(src, dst)

    monkeypatch.setattr(log.os, "fsync", fsync)
    monkeypatch.setattr(log.os, "replace", replace)
    return events


def test_records_are_canonical_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    append_log(path, [{"b": 1, "a": [1, 2]}, {"z": "é"}])
    assert path.read_bytes() == b'{"a":[1,2],"b":1}\n{"z":"\\u00e9"}\n'
    assert encode_record({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'
    assert read_log(path) == ([{"a": [1, 2], "b": 1}, {"z": "é"}], 0, False)


def test_missing_file_reads_empty(tmp_path):
    assert read_log(tmp_path / "absent.jsonl") == ([], 0, False)


def test_bad_and_blank_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a":1}\n\nnot json\n[1,2]\n{"b":2}\n', encoding="utf-8")
    assert read_log(path) == ([{"a": 1}, {"b": 2}], 2, False)


def test_torn_fragment_dropped_unless_whole(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a":1}\n{"b":', encoding="utf-8")
    assert read_log(path) == ([{"a": 1}], 0, True)
    # Only the newline was lost: the record is whole and kept.
    path.write_text('{"a":1}\n{"b":2}', encoding="utf-8")
    assert read_log(path) == ([{"a": 1}, {"b": 2}], 0, True)


def test_append_fsyncs_before_returning(tmp_path, durability_events):
    path = tmp_path / "log.jsonl"
    append_log(path, [{"a": 1}])
    append_log(path, [{"b": 2}, {"c": 3}])
    assert durability_events == ["fsync", "fsync"]
    assert read_log(path) == ([{"a": 1}, {"b": 2}, {"c": 3}], 0, False)


def test_replace_order_and_no_leftovers(tmp_path, durability_events):
    path = tmp_path / "log.jsonl"
    path.write_text('{"old":1}\n{"torn":', encoding="utf-8")
    replace_log(path, [{"new": 1}, {"new": 2}])
    assert durability_events == ["fsync", "replace", "fsync-dir"]
    assert read_log(path) == ([{"new": 1}, {"new": 2}], 0, False)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl"]


def test_failed_replace_keeps_old_log_and_removes_tmp(tmp_path):
    path = tmp_path / "log.jsonl"
    append_log(path, [{"old": 1}])
    with pytest.raises(TypeError):
        replace_log(path, [{"bad": object()}])
    assert read_log(path) == ([{"old": 1}], 0, False)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl"]


def test_replace_creates_parent_directory(tmp_path):
    path = tmp_path / "deep" / "log.jsonl"
    replace_log(path, [])
    assert path.read_bytes() == b""


def test_sweep_tmp_removes_only_orphans(tmp_path):
    (tmp_path / ".tmp-abc.jsonl").write_text("half", encoding="utf-8")
    (tmp_path / ".tmp-def").write_text("half", encoding="utf-8")
    (tmp_path / "keep.jsonl").write_text(json.dumps({"a": 1}) + "\n")
    assert sweep_tmp(tmp_path) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.jsonl"]
    assert sweep_tmp(tmp_path / "absent") == 0
