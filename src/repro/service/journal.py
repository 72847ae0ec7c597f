"""Crash-safe persistent priority queue for the campaign daemon.

The queue is an append-only JSONL *journal*: one record per line, four
record kinds —

``submit``
    A new campaign enters the queue (payload, priority, id).  fsync'd
    before the daemon acknowledges the submission to the client, so an
    accepted campaign survives any crash.
``claim``
    The executor started a campaign.  A ``claim`` without a matching
    ``ack`` marks the campaign *in-flight*; startup recovery re-queues it
    ahead of everything else and flags it ``recovered`` so the rerun is
    reconciled against the result cache and its
    :class:`~repro.resilience.CampaignCheckpoint` instead of recomputed.
``ack``
    The campaign completed and its results are durably stored.  fsync'd —
    an acked campaign is never replayed.
``cancel``
    A queued campaign was withdrawn before execution.

The journal is one :mod:`repro.resilience.log`, ``journal.jsonl``.
Dead records (acked/cancelled) accumulate; once they outnumber
``rotate_dead_records`` the journal is compacted: one
:func:`~repro.resilience.log.replace_log` rewrites it with the live
records only, so a crash leaves either the old journal or the compacted
one.

Replay tolerates exactly the damage a crash can cause: a torn trailing
line (the write that was in flight) is counted and healed by a
compaction before the next append.  Malformed lines *before* the tail
are counted as ``bad_lines`` and skipped — losing an ``ack`` only means
one campaign re-runs against a warm cache, never wrong results.

A spool written in the older numbered-segment layout still recovers:
when ``journal.jsonl`` is absent, the highest-numbered
``journal-*.jsonl`` segment is replayed and compacted into it; then
every segment is removed, and the ones not adopted count as
``segments_swept``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..resilience.log import (
    append_log,
    fsync_directory,
    read_log,
    replace_log,
    sweep_tmp,
)

#: Journal format version, embedded in every record.
JOURNAL_SCHEMA_VERSION = 1

#: Valid record kinds.
RECORD_KINDS = ("submit", "claim", "ack", "cancel")

#: The journal file inside the queue's root directory.
_JOURNAL_FILE = "journal.jsonl"

#: Numbered segments of the older layout; adopted once, then swept.
_SEGMENT_GLOB = "journal-*.jsonl"


class JournalError(RuntimeError):
    """The journal directory is unusable (not a crash footprint)."""


@dataclass
class QueuedCampaign:
    """One submitted campaign as the queue tracks it."""

    campaign_id: str
    priority: int
    payload: Dict[str, Any]
    seq: int
    claimed: bool = False
    #: True when this campaign was claimed by a previous daemon process
    #: that died before acking — replay must reconcile, not recompute.
    recovered: bool = False

    def sort_key(self) -> Tuple[int, int]:
        """Lower priority number first; FIFO within a priority."""
        return (self.priority, self.seq)


@dataclass
class RecoveryReport:
    """What startup replay found — recorded in the daemon's manifests."""

    pending: int = 0
    in_flight: int = 0
    torn_lines: int = 0
    bad_lines: int = 0
    segments_swept: int = 0
    replayed_records: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "pending": self.pending,
            "in_flight": self.in_flight,
            "torn_lines": self.torn_lines,
            "bad_lines": self.bad_lines,
            "segments_swept": self.segments_swept,
            "replayed_records": self.replayed_records,
        }


@dataclass
class _QueueState:
    """In-memory view rebuilt from replay."""

    campaigns: Dict[str, QueuedCampaign] = field(default_factory=dict)
    next_seq: int = 0


def _record(kind: str, campaign_id: str, **fields: Any) -> Dict[str, Any]:
    """One journal record of ``kind`` for ``campaign_id``."""
    return {
        "journal_schema": JOURNAL_SCHEMA_VERSION,
        "record": kind,
        "id": campaign_id,
        **fields,
    }


def _submit_record(campaign: QueuedCampaign) -> Dict[str, Any]:
    return _record(
        "submit",
        campaign.campaign_id,
        seq=campaign.seq,
        priority=campaign.priority,
        payload=campaign.payload,
    )


class PersistentQueue:
    """Crash-safe priority queue of campaign submissions (see module doc).

    Not thread-safe by itself — the daemon serializes access behind its
    own lock (submissions arrive on socket threads, claims/acks on the
    executor thread).
    """

    def __init__(
        self,
        root: Union[str, Path],
        rotate_dead_records: int = 128,
    ) -> None:
        if rotate_dead_records < 1:
            raise ValueError(
                f"rotate_dead_records must be >= 1, got {rotate_dead_records}"
            )
        self.root = Path(root)
        self.path = self.root / _JOURNAL_FILE
        self.rotate_dead_records = rotate_dead_records
        self.recovery = RecoveryReport()
        self._state = _QueueState()
        self._dead_records = 0
        #: Min-heap of (priority, seq, campaign_id) over unclaimed work.
        self._ready: List[Tuple[int, int, str]] = []
        self._open()

    # -- startup / recovery --------------------------------------------------

    def _open(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self.recovery.segments_swept += sweep_tmp(self.root)
        # Zero-padded sequence numbers: name order is sequence order.
        segments = sorted(self.root.glob(_SEGMENT_GLOB))
        adopt = bool(segments) and not self.path.exists()
        records, bad_lines, torn = read_log(
            segments[-1] if adopt else self.path
        )
        self.recovery.bad_lines += bad_lines
        self.recovery.torn_lines += int(torn)
        self.recovery.replayed_records += len(records)
        for record in records:
            self._apply(record)
        if adopt or torn:
            # Heal the torn tail (or adopt the newest segment) before the
            # next append can land on a shared line.
            self.rotate()
        for stale in segments:
            stale.unlink(missing_ok=True)
        self.recovery.segments_swept += len(segments) - int(adopt)
        if not self.path.exists():
            # Name the journal durably once; appends then fsync the file only.
            self.path.touch()
            fsync_directory(self.root)
        for campaign in self._state.campaigns.values():
            if campaign.claimed:
                campaign.recovered = True
                self.recovery.in_flight += 1
            self.recovery.pending += 0 if campaign.claimed else 1
        # Recovered in-flight campaigns re-enter the ready heap FIRST
        # (they were already started once) by keeping their original
        # priority/seq; claimed state is cleared so claim() re-issues.
        for campaign in self._state.campaigns.values():
            campaign.claimed = False
            heapq.heappush(
                self._ready,
                (campaign.priority, campaign.seq, campaign.campaign_id),
            )

    def _apply(self, record: Dict[str, Any]) -> None:
        kind = record.get("record")
        campaign_id = record.get("id")
        if kind not in RECORD_KINDS or not isinstance(campaign_id, str):
            self.recovery.bad_lines += 1
            return
        campaigns = self._state.campaigns
        if kind == "submit":
            payload = record.get("payload")
            priority = record.get("priority", 0)
            seq = record.get("seq")
            if not isinstance(payload, dict) or not isinstance(seq, int):
                self.recovery.bad_lines += 1
                return
            campaigns[campaign_id] = QueuedCampaign(
                campaign_id=campaign_id,
                priority=int(priority),
                payload=payload,
                seq=seq,
            )
            self._state.next_seq = max(self._state.next_seq, seq + 1)
        elif kind == "claim":
            if campaign_id in campaigns:
                campaigns[campaign_id].claimed = True
        elif kind in ("ack", "cancel"):
            campaigns.pop(campaign_id, None)
            self._dead_records += 1

    # -- append path ---------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (fsync'd before this returns)."""
        append_log(self.path, [record])

    # -- queue API -----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Campaigns waiting or running (submitted, not yet acked)."""
        return len(self._state.campaigns)

    @property
    def pending(self) -> int:
        """Campaigns waiting to be claimed."""
        return sum(
            1 for c in self._state.campaigns.values() if not c.claimed
        )

    def pending_campaigns(self) -> List[QueuedCampaign]:
        """Unclaimed campaigns in claim order."""
        return sorted(
            (c for c in self._state.campaigns.values() if not c.claimed),
            key=QueuedCampaign.sort_key,
        )

    def get(self, campaign_id: str) -> Optional[QueuedCampaign]:
        return self._state.campaigns.get(campaign_id)

    def submit(
        self,
        payload: Dict[str, Any],
        priority: int = 0,
        campaign_id: Optional[str] = None,
    ) -> QueuedCampaign:
        """Durably enqueue one campaign; returns its queue record."""
        seq = self._state.next_seq
        self._state.next_seq += 1
        if campaign_id is None:
            campaign_id = f"c{seq:06d}"
        if campaign_id in self._state.campaigns:
            raise JournalError(f"campaign id {campaign_id!r} already queued")
        campaign = QueuedCampaign(
            campaign_id=campaign_id,
            priority=priority,
            payload=payload,
            seq=seq,
        )
        self._append(_submit_record(campaign))
        self._state.campaigns[campaign_id] = campaign
        heapq.heappush(self._ready, (priority, seq, campaign_id))
        return campaign

    def claim(self) -> Optional[QueuedCampaign]:
        """Highest-priority unclaimed campaign (marks it in-flight)."""
        while self._ready:
            _, _, campaign_id = heapq.heappop(self._ready)
            campaign = self._state.campaigns.get(campaign_id)
            if campaign is None or campaign.claimed:
                continue  # acked/cancelled/claimed since push
            self._append(_record("claim", campaign_id))
            campaign.claimed = True
            return campaign
        return None

    def ack(self, campaign_id: str) -> None:
        """Durably mark one campaign complete; it will never replay."""
        if campaign_id not in self._state.campaigns:
            raise JournalError(f"unknown campaign {campaign_id!r}")
        self._append(_record("ack", campaign_id))
        self._state.campaigns.pop(campaign_id, None)
        self._dead_records += 1
        self._maybe_rotate()

    def cancel(self, campaign_id: str) -> bool:
        """Withdraw a queued campaign; ``False`` when running/unknown."""
        campaign = self._state.campaigns.get(campaign_id)
        if campaign is None or campaign.claimed:
            return False
        self._append(_record("cancel", campaign_id))
        self._state.campaigns.pop(campaign_id, None)
        self._dead_records += 1
        self._maybe_rotate()
        return True

    # -- compaction ----------------------------------------------------------

    def _maybe_rotate(self) -> None:
        if self._dead_records >= self.rotate_dead_records:
            self.rotate()

    def rotate(self) -> Path:
        """Compact the journal to its live records with one atomic rewrite."""
        live = sorted(self._state.campaigns.values(), key=lambda c: c.seq)
        replace_log(
            self.path,
            [_submit_record(campaign) for campaign in live]
            + [
                _record("claim", campaign.campaign_id)
                for campaign in live
                if campaign.claimed
            ],
        )
        self._dead_records = 0
        return self.path

    def close(self) -> None:
        """Nothing to release: every append opens and closes the journal."""

    def __enter__(self) -> "PersistentQueue":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "PersistentQueue",
    "QueuedCampaign",
    "RecoveryReport",
    "RECORD_KINDS",
]
