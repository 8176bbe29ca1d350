"""Client <-> server wire messages.

All are slots dataclasses. The per-operation pair, :class:`OpRequest`
and :class:`OpReply`, is mutable and unhashable; the rest are frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.record import frozen_record
from repro.zk.records import WatchEvent

__all__ = [
    "ConnectReply",
    "ConnectRequest",
    "HeartbeatAck",
    "OpReply",
    "OpRequest",
    "SessionExpiredNotice",
    "SessionHeartbeat",
    "WatchNotify",
]


@frozen_record
class ConnectRequest:
    client: Any  # NodeAddress of the client
    timeout_ms: float


@frozen_record
class ConnectReply:
    session_id: str
    timeout_ms: float


@dataclass(slots=True)
class OpRequest:
    """Client -> server: one operation.

    Not frozen: the fleet driver recycles request objects through a
    freelist and rewrites their fields in place.
    """

    session_id: str
    cxid: int
    op: Any


@dataclass(slots=True)
class OpReply:
    session_id: str
    cxid: int
    ok: bool
    value: Any = None
    error_code: Optional[str] = None
    error_path: str = ""


@frozen_record
class WatchNotify:
    session_id: str
    event: WatchEvent


@frozen_record
class SessionHeartbeat:
    session_id: str


@frozen_record
class HeartbeatAck:
    session_id: str


@frozen_record
class SessionExpiredNotice:
    session_id: str
