"""In-memory transaction log with snapshot support.

Each peer keeps an ordered log of accepted transactions. The log supports
the three synchronization modes Zab uses to catch a follower up:

* ``DIFF``  — send the suffix of entries the follower is missing;
* ``TRUNC`` — tell the follower to drop entries the new leader never saw;
* ``SNAP``  — ship a full state snapshot when the follower is too far back.

Entries are strictly increasing in zxid, so lookups and range queries are
binary searches (the apply path runs once per commit per replica and must
not be linear in history length).
"""

from __future__ import annotations

import bisect
from typing import Any, List, Optional

from repro.record import frozen_record
from repro.zab.zxid import Zxid

__all__ = ["LogEntry", "TxnLog"]


@frozen_record
class LogEntry:
    """A single accepted transaction."""

    zxid: Zxid
    txn: Any


class TxnLog:
    """Ordered, strictly-increasing-zxid transaction log."""

    def __init__(self):
        self._entries: List[LogEntry] = []
        # Parallel packed-zxid keys for binary search.
        self._keys: List[int] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def last_zxid(self) -> Zxid:
        return self._entries[-1].zxid if self._entries else Zxid.ZERO

    def append(self, zxid: Zxid, txn: Any) -> LogEntry:
        """Append a transaction; zxids must be strictly increasing."""
        if self._entries and zxid <= self._entries[-1].zxid:
            raise ValueError(
                f"zxid {zxid} not after log tail {self._entries[-1].zxid}"
            )
        entry = LogEntry(zxid, txn)
        self._entries.append(entry)
        self._keys.append(zxid.packed())
        return entry

    def entries_after(self, zxid: Zxid) -> List[LogEntry]:
        """All entries with zxid strictly greater than ``zxid``."""
        start = bisect.bisect_right(self._keys, zxid.packed())
        return self._entries[start:]

    def entries_range(self, after: Zxid, upto: Zxid) -> List[LogEntry]:
        """Entries with ``after < zxid <= upto``."""
        start = bisect.bisect_right(self._keys, after.packed())
        end = bisect.bisect_right(self._keys, upto.packed())
        return self._entries[start:end]

    def contains(self, zxid: Zxid) -> bool:
        index = bisect.bisect_left(self._keys, zxid.packed())
        return index < len(self._keys) and self._keys[index] == zxid.packed()

    def truncate_after(self, zxid: Zxid) -> List[LogEntry]:
        """Drop entries after ``zxid``; returns what was dropped."""
        cut = bisect.bisect_right(self._keys, zxid.packed())
        dropped = self._entries[cut:]
        del self._entries[cut:]
        del self._keys[cut:]
        return dropped

    def get(self, zxid: Zxid) -> Optional[LogEntry]:
        index = bisect.bisect_left(self._keys, zxid.packed())
        if index < len(self._keys) and self._keys[index] == zxid.packed():
            return self._entries[index]
        return None

    def replace_all(self, entries: List[LogEntry]) -> None:
        """Install a snapshot: replace the whole log."""
        for previous, current in zip(entries, entries[1:]):
            if current.zxid <= previous.zxid:
                raise ValueError("snapshot entries not strictly increasing")
        self._entries = list(entries)
        self._keys = [entry.zxid.packed() for entry in self._entries]

    def tail(self, count: int) -> List[LogEntry]:
        return self._entries[-count:] if count > 0 else []

    def snapshot(self) -> List[LogEntry]:
        """A copy of the full log (entries are immutable)."""
        return list(self._entries)
