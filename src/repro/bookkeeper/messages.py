"""Bookie wire messages."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["AddAck", "AddEntry", "FenceAck", "FenceLedger", "ReadEntry", "ReadReply"]


@dataclass(frozen=True, slots=True)
class AddEntry:
    sender: Any  # NodeAddress of the client
    ledger_id: int
    entry_id: int
    payload: bytes


@dataclass(frozen=True, slots=True)
class AddAck:
    ledger_id: int
    entry_id: int
    ok: bool = True


@dataclass(frozen=True, slots=True)
class ReadEntry:
    sender: Any
    ledger_id: int
    entry_id: int


@dataclass(frozen=True, slots=True)
class ReadReply:
    ledger_id: int
    entry_id: int
    payload: Optional[bytes]  # None = not stored here


@dataclass(frozen=True, slots=True)
class FenceLedger:
    """Recovery-opener -> bookie: reject all further adds to this ledger.

    BookKeeper's fencing protocol: a reader recovering a ledger fences it
    on a quorum of bookies so the (possibly still alive) old writer cannot
    append after recovery has decided the last entry.
    """

    sender: Any
    ledger_id: int


@dataclass(frozen=True, slots=True)
class FenceAck:
    ledger_id: int
    last_entry: int  # highest entry id this bookie stores (-1 = none)
