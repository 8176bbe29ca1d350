"""Fractional read/write tokens (paper §VI, future work).

The paper proposes K read-tokens per record (one per site): a site holding
a read-token serves strongly consistent reads locally; a write requires all
K read-tokens at one site, otherwise it is forwarded to the level-2 broker
— which must first invalidate outstanding read-tokens so no site serves a
stale value after the write commits.

The implementation here realizes that design as *read leases*:

* a server lacking a lease (and whose site lacks the write token) forwards
  the read to the hub; the grant carries the hub's current result and a
  lease, cached at the server;
* reads under a valid lease are served from the lease cache — coherent
  because the hub invalidates all leases on a record *before* committing
  any write to it, and write-token grants are withheld while foreign
  leases exist;
* leases expire after ``read_lease_ms`` as a liveness backstop (an
  unreachable leaseholder cannot block writers forever — the lease is the
  paper's token lease, §II-B).

Three read modes compose the ablation (A4): ``local`` (the paper's default
causal reads), ``forward`` (every read pays a WAN trip to the hub —
linearizable but slow), and ``fractional`` (leases amortize the WAN trip
across repeated reads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.net.topology import NodeAddress
from repro.record import frozen_record

__all__ = [
    "ReadInvalidate",
    "ReadInvalidateAck",
    "ReadLeaseGrant",
    "ReadLeaseRequest",
    "LeaseEntry",
]


@frozen_record
class ReadLeaseRequest:
    """Server -> hub: strong read of ``path`` (token key ``key``).

    ``lease`` False = one-shot forwarded read (the "forward" mode);
    True = also grant a read lease (the "fractional" mode).
    """

    sender: NodeAddress
    site: str
    path: str
    key: str
    op_kind: str  # "data" | "exists" | "children"
    request_id: int
    lease: bool = True


@frozen_record
class ReadLeaseGrant:
    """Hub -> server: the read result (+ lease when requested)."""

    request_id: int
    path: str
    key: str
    ok: bool
    payload: Any = None  # (data, stat) | stat|None | [children]
    error_code: Optional[str] = None
    lease_until: float = 0.0  # 0 = no lease granted


@frozen_record
class ReadInvalidate:
    """Hub -> leaseholder: drop your lease on ``keys`` (a write is coming)."""

    keys: Tuple[str, ...]


@frozen_record
class ReadInvalidateAck:
    sender: NodeAddress
    keys: Tuple[str, ...]


@dataclass
class LeaseEntry:
    """A server-side cached read lease for one data path."""

    path: str
    key: str
    payload: Any
    expires: float
