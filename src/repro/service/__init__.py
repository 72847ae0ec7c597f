"""Long-running campaign service (``repro.service``).

The one-shot CLI runs a campaign and exits; this package keeps the
execution stack resident as a *daemon* so many campaigns share warm
workers and one result cache, and so a crash — of a worker **or of the
daemon itself** — costs a cache-hot replay instead of lost work:

* :mod:`repro.service.journal` — the crash-safe persistent priority
  queue (one fsync'd append log, atomic compaction, torn-line-tolerant
  replay);
* :mod:`repro.service.daemon` — the service core: admission control
  with ``retry_after`` load shedding, campaign execution on one
  persistent :class:`~repro.resilience.SupervisedWorkerPool` (per-task
  retry, timeout, and quarantine) with per-campaign checkpoints,
  byte-identical result streams, and one ``service`` manifest record
  per campaign;
* :mod:`repro.service.protocol` / :mod:`repro.service.client` — the
  JSON-line Unix-socket job API (``submit``/``status``/``results``/
  ``cancel``/``drain``) and its client;
* :mod:`repro.service.soak` — the kill -9 fault-injection soak proving
  a SIGKILL'd daemon resumes byte-identically (CI's ``service`` job).

Entry points: ``repro-sim serve|submit|status`` or
``python -m repro.service``.
"""

from .client import ServiceClient, ServiceError
from .daemon import CampaignDaemon, CampaignState
from .journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalError,
    PersistentQueue,
    QueuedCampaign,
    RecoveryReport,
)
from .protocol import PROTOCOL_VERSION, ProtocolError

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "PROTOCOL_VERSION",
    "CampaignDaemon",
    "CampaignState",
    "JournalError",
    "PersistentQueue",
    "ProtocolError",
    "QueuedCampaign",
    "RecoveryReport",
    "ServiceClient",
    "ServiceError",
]
