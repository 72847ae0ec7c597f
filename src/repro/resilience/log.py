"""The crash-safe append log every durable JSONL file is written through.

Campaign checkpoints, the daemon's queue journal and its per-campaign
result streams all share this on-disk format and its durability rules;
each user keeps only its record schema and its own policy for bad lines.

Framing: a log is a sequence of records, each one canonical JSON object
(``sort_keys``, no spaces) on its own ``\\n``-terminated line.

Durability: :func:`append_log` writes, flushes and fsyncs before it
returns.  :func:`replace_log` writes a ``.tmp-*`` sibling, fsyncs it,
renames it over the log and fsyncs the directory, so the log is either
the old file or the complete new one after any crash.  A crash can still
leave a ``.tmp-*`` orphan, which :func:`sweep_tmp` removes.

Torn tails: a crash mid-append leaves at most one trailing fragment with
no newline.  :func:`read_log` reports it as ``torn`` and keeps it only if
it still parses as a whole record (only the newline was lost).  The
writer must heal a torn log with :func:`replace_log` before its next
append, or the appended record would share a line with the fragment.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

#: Name prefix of :func:`replace_log`'s temp siblings.
TMP_PREFIX = ".tmp-"

Record = Dict[str, Any]


def encode_record(record: Record) -> str:
    """One record as its canonical, newline-terminated log line."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _parse(line: bytes) -> Optional[Record]:
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def read_log(path: Union[str, Path]) -> Tuple[List[Record], int, bool]:
    """``(records, bad_lines, torn)`` of the log at ``path``.

    A missing file reads as an empty log.  ``bad_lines`` counts complete
    lines that are not a JSON object; blank lines are skipped.  ``torn``
    says the file ends in a fragment with no newline.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return [], 0, False
    lines = data.split(b"\n")
    tail = lines.pop()
    records: List[Record] = []
    bad_lines = 0
    for line in lines:
        if not line.strip():
            continue
        record = _parse(line)
        if record is None:
            bad_lines += 1
        else:
            records.append(record)
    torn = bool(tail.strip())
    if torn:
        record = _parse(tail)
        if record is not None:
            records.append(record)
    return records, bad_lines, torn


def fsync_directory(path: Union[str, Path]) -> None:
    """fsync a directory so a rename/create inside it is durable.

    ``os.replace`` makes a write atomic but not durable — the directory
    entry itself lives in the parent, which must be fsync'd separately
    for the rename to survive a power cut.  Best-effort: platforms that
    cannot open directories (or refuse to fsync them) are skipped.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic platforms
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. some network filesystems
        pass
    finally:
        os.close(fd)


def append_log(path: Union[str, Path], records: Iterable[Record]) -> None:
    """Durably append ``records``: write, flush, fsync.

    The file's directory entry must already be durable (made by
    :func:`replace_log`, or created and followed by
    :func:`fsync_directory`).
    """
    with Path(path).open("a", encoding="utf-8") as handle:
        handle.write("".join(encode_record(record) for record in records))
        handle.flush()
        os.fsync(handle.fileno())


def replace_log(path: Union[str, Path], records: Iterable[Record]) -> None:
    """Atomically and durably replace the log with exactly ``records``.

    Order: write a ``.tmp-*`` sibling, fsync it, ``os.replace`` it over
    ``path``, fsync the directory.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=TMP_PREFIX, suffix=path.suffix
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as tmp:
            tmp.write("".join(encode_record(record) for record in records))
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_directory(path.parent)


def sweep_tmp(directory: Union[str, Path]) -> int:
    """Remove ``.tmp-*`` orphans of crashed rewrites; returns how many.

    Only safe while no :func:`replace_log` into ``directory`` is running.
    """
    removed = 0
    for path in Path(directory).glob(f"{TMP_PREFIX}*"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


__all__ = [
    "TMP_PREFIX",
    "append_log",
    "encode_record",
    "fsync_directory",
    "read_log",
    "replace_log",
    "sweep_tmp",
]
