"""Wire protocol for the campaign daemon's local job API.

Transport: a Unix domain socket.  Framing: JSON lines (one JSON object
per ``\\n``-terminated line, UTF-8).  Each connection carries exactly one
request; the response is one line for every op except ``results``, which
streams:

``{"op": "submit", "design": {...}, "replications": N, "seed": S,
   "priority": P}``
    → ``{"ok": true, "id": "...", "position": k}`` on admission, or
    ``{"ok": false, "error": "queue-full", "retry_after": seconds}``
    when the daemon sheds load (bounded queue depth) — ``retry_after``
    is the daemon's backlog-drain estimate, the client's back-off hint.
    ``design`` is a :mod:`repro.design` document (the same dict
    ``load_design`` reads); the daemon compiles it on admission so a
    malformed design is rejected at submit time, not at execution time.

``{"op": "status"}`` / ``{"op": "status", "id": "..."}``
    → daemon-wide state (queue depth, worker health probes, campaign
    table) or one campaign's record.

``{"op": "results", "id": "..."}``
    → header line ``{"ok": true, "id": ..., "state": ...}``, then one
    ``{"index": i, "result": {...}}`` line per completed replication in
    job-index order (``result`` is a
    :func:`~repro.core.serialization.result_to_dict` document — the
    byte-identity canonical form), then ``{"done": true, "count": n}``.
    Streaming is incremental: for a running campaign the daemon keeps
    the connection open and ships each replication as it completes.

``{"op": "cancel", "id": "..."}``
    → ``{"ok": true}`` if the campaign was still queued, else
    ``{"ok": false, "error": "not-cancellable"}``.

``{"op": "drain"}``
    → stops admission, waits for the queue to empty, then
    ``{"ok": true, "drained": n}``.

``{"op": "shutdown"}``
    → ``{"ok": true}``; the daemon stops after the in-flight campaign.

Every request (op, campaign id, outcome) is appended to the daemon's
:mod:`repro.obs` request log, which the ``service`` manifest section
summarizes.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Iterator, Optional

#: Protocol version, echoed in status responses.
PROTOCOL_VERSION = 1

#: Requests larger than this are rejected (malformed-client guard).
MAX_REQUEST_BYTES = 8 * 1024 * 1024

#: Valid request ops.
OPS = ("submit", "status", "results", "cancel", "drain", "shutdown")


class ProtocolError(RuntimeError):
    """Malformed frame or oversized request."""


def encode(message: Dict[str, Any]) -> bytes:
    """One canonical JSON line (sorted keys — byte-stable framing)."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def read_line(sock: socket.socket, buffer: bytearray) -> Optional[Dict[str, Any]]:
    """Read one JSON line from ``sock``; ``None`` on clean EOF.

    ``buffer`` carries partial data between calls on the same
    connection.
    """
    while b"\n" not in buffer:
        if len(buffer) > MAX_REQUEST_BYTES:
            raise ProtocolError(
                f"request exceeds {MAX_REQUEST_BYTES} bytes"
            )
        chunk = sock.recv(65536)
        if not chunk:
            if buffer:
                raise ProtocolError("connection closed mid-frame")
            return None
        buffer.extend(chunk)
    line, _, rest = bytes(buffer).partition(b"\n")
    buffer.clear()
    buffer.extend(rest)
    if not line.strip():
        return {}
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad JSON frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame must be a JSON object")
    return message


def read_lines(sock: socket.socket) -> Iterator[Dict[str, Any]]:
    """Iterate JSON lines until EOF (client side of ``results``)."""
    buffer = bytearray()
    while True:
        message = read_line(sock, buffer)
        if message is None:
            return
        yield message


__all__ = [
    "MAX_REQUEST_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode",
    "read_line",
    "read_lines",
]
