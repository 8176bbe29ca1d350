"""WAN-layer messages and replicated transaction wrappers.

Two kinds of definitions live here:

* **control messages** exchanged between level-1 site leaders and the
  level-2 broker over the WAN (submit, replicate, recall, heartbeat);
* **replicated payloads** committed inside site/hub ensembles: the
  :class:`WanTxn` wrapper around a client transaction (with its origin and
  piggybacked token grants, per protocol Fig. 2) and the token marker ops
  that make token state recoverable from the log (§II-D fault tolerance).

All classes are hand-written ``__slots__`` records (same pattern as
:mod:`repro.net.message` and :mod:`repro.zab.messages`): every committed
write allocates a WanTxn plus one or more control messages, and the frozen
dataclass ``__init__`` showed up in profiles. Equality and hash match the
frozen dataclasses they replaced (field-tuple semantics), so container
iteration orders are unchanged.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.topology import NodeAddress
from repro.zk.ops import Txn

__all__ = [
    "L2Promoted",
    "L2PromotionRequest",
    "L2PromotionVote",
    "RelayNoopOp",
    "RemoteApply",
    "SiteReplicate",
    "TokenAcceptOp",
    "TokenGrant",
    "TokenRecall",
    "TokenReleaseOp",
    "TokenReturn",
    "TokenSyncOp",
    "WanAck",
    "WanEpochOp",
    "WanHeartbeat",
    "WanHeartbeatAck",
    "WanHello",
    "WanSubmit",
    "WanTxn",
    "WanWelcome",
    "wan_id_of",
]


def wan_id_of(txn: Txn) -> Tuple[str, int]:
    """Globally unique id of a client transaction (session ids are unique)."""
    return (txn.session_id, txn.cxid)


# -- replicated payloads -------------------------------------------------------


class TokenGrant:
    """Hub -> site token migration, piggybacked on a committed WanTxn."""

    __slots__ = ('key', 'site')

    def __init__(self, key: str, site: str):
        self.key = key
        self.site = site

    def _astuple(self) -> tuple:
        return (self.key, self.site)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TokenGrant:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"TokenGrant(key={self.key!r}, site={self.site!r})"


class WanTxn:
    """A client transaction wrapped for WanKeeper replication.

    ``serialized_at`` is either a site name (local commit under a held
    token) or ``"l2"`` (hub serialization). ``grants`` are the token
    migrations decided when the hub serialized this txn — applying the
    commit applies the grant on every replica, which is what makes grants
    recoverable after leader failures.
    """

    __slots__ = ('txn', 'origin_site', 'serialized_at', 'grants')

    def __init__(
        self,
        txn: Txn,
        origin_site: str,
        serialized_at: str,
        grants: Tuple[TokenGrant, ...] = (),
    ):
        self.txn = txn
        self.origin_site = origin_site
        self.serialized_at = serialized_at
        self.grants = grants

    @property
    def wan_id(self) -> Tuple[str, int]:
        return wan_id_of(self.txn)

    def _astuple(self) -> tuple:
        return (self.txn, self.origin_site, self.serialized_at, self.grants)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not WanTxn:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"WanTxn(txn={self.txn!r}, origin_site={self.origin_site!r}, "
            f"serialized_at={self.serialized_at!r}, grants={self.grants!r})"
        )


class TokenReleaseOp:
    """Marker committed in a *site* ensemble: this site gives up ``keys``.

    Committed locally before the TokenReturn control message is sent, so a
    new site leader never believes it still holds a returned token.
    """

    __slots__ = ('keys',)

    def __init__(self, keys: Tuple[str, ...]):
        self.keys = keys

    def _astuple(self) -> tuple:
        return (self.keys,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TokenReleaseOp:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"TokenReleaseOp(keys={self.keys!r})"


class TokenAcceptOp:
    """Marker committed in the *hub* ensemble: returns from ``site`` landed.

    Once applied, the hub may serialize transactions on ``keys`` again.
    """

    __slots__ = ('keys', 'site')

    def __init__(self, keys: Tuple[str, ...], site: str):
        self.keys = keys
        self.site = site

    def _astuple(self) -> tuple:
        return (self.keys, self.site)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TokenAcceptOp:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"TokenAcceptOp(keys={self.keys!r}, site={self.site!r})"


# -- WAN control messages -----------------------------------------------------


class WanHello:
    """Site server -> hub-site servers: who is the level-2 leader?

    ``is_site_leader`` distinguishes the site's broker (whose address the
    hub records as the relay target) from followers probing only for the
    strong-read path.
    """

    __slots__ = ('site', 'sender', 'is_site_leader')

    def __init__(
        self, site: str, sender: NodeAddress, is_site_leader: bool = True
    ):
        self.site = site
        self.sender = sender
        self.is_site_leader = is_site_leader

    def _astuple(self) -> tuple:
        return (self.site, self.sender, self.is_site_leader)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not WanHello:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"WanHello(site={self.site!r}, sender={self.sender!r}, "
            f"is_site_leader={self.is_site_leader!r})"
        )


class WanWelcome:
    """Hub leader -> site leader: I'm the level-2 broker."""

    __slots__ = ('l2_addr',)

    def __init__(self, l2_addr: NodeAddress):
        self.l2_addr = l2_addr

    def _astuple(self) -> tuple:
        return (self.l2_addr,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not WanWelcome:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"WanWelcome(l2_addr={self.l2_addr!r})"


class WanSubmit:
    """Site -> hub: serialize this transaction (tokens missing at site)."""

    __slots__ = ('site', 'sender', 'txn')

    def __init__(self, site: str, sender: NodeAddress, txn: Txn):
        self.site = site
        self.sender = sender
        self.txn = txn

    def _astuple(self) -> tuple:
        return (self.site, self.sender, self.txn)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not WanSubmit:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"WanSubmit(site={self.site!r}, sender={self.sender!r}, "
            f"txn={self.txn!r})"
        )


class SiteReplicate:
    """Site -> hub: a locally committed transaction, for global visibility.

    ``seq`` is the site's WAN replication sequence number (dedup + FIFO
    check); retried until the hub acks.
    """

    __slots__ = ('site', 'sender', 'seq', 'wan_txn')

    def __init__(
        self, site: str, sender: NodeAddress, seq: int, wan_txn: WanTxn
    ):
        self.site = site
        self.sender = sender
        self.seq = seq
        self.wan_txn = wan_txn

    def _astuple(self) -> tuple:
        return (self.site, self.sender, self.seq, self.wan_txn)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SiteReplicate:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"SiteReplicate(site={self.site!r}, sender={self.sender!r}, "
            f"seq={self.seq!r}, wan_txn={self.wan_txn!r})"
        )


class RemoteApply:
    """Hub -> site: a hub-ensemble commit to apply in the site ensemble.

    Carries hub commit order in ``seq``; ``to_origin`` marks the copy going
    back to the transaction's origin site (whose accepting server replies
    to the client once the site ensemble applies it).
    """

    __slots__ = ('seq', 'wan_txn', 'to_origin')

    def __init__(self, seq: int, wan_txn: WanTxn, to_origin: bool = False):
        self.seq = seq
        self.wan_txn = wan_txn
        self.to_origin = to_origin

    def _astuple(self) -> tuple:
        return (self.seq, self.wan_txn, self.to_origin)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RemoteApply:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"RemoteApply(seq={self.seq!r}, wan_txn={self.wan_txn!r}, "
            f"to_origin={self.to_origin!r})"
        )


class WanAck:
    """Apply-level ack for SiteReplicate / RemoteApply retry loops."""

    __slots__ = ('site', 'seq')

    def __init__(self, site: str, seq: int):
        self.site = site
        self.seq = seq

    def _astuple(self) -> tuple:
        return (self.site, self.seq)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not WanAck:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"WanAck(site={self.site!r}, seq={self.seq!r})"


class TokenRecall:
    """Hub -> site: terminate the lease on ``keys``; return them.

    ``grant_counts`` carries, per key, how many grants to this site the hub
    has committed. A recall can overtake the granting WanTxn on the relay
    stream (the recall is a direct message, the grant is replicated); the
    count lets the site tell "grant still in flight" apart from "already
    released" instead of wrongly re-acking a token it is about to receive.
    """

    __slots__ = ('keys', 'grant_counts')

    def __init__(
        self,
        keys: Tuple[str, ...],
        grant_counts: Optional[Tuple[int, ...]] = None,
    ):
        self.keys = keys
        self.grant_counts = grant_counts

    def _astuple(self) -> tuple:
        return (self.keys, self.grant_counts)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TokenRecall:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"TokenRecall(keys={self.keys!r}, grant_counts={self.grant_counts!r})"


class TokenReturn:
    """Site -> hub: ``keys`` released (after the local release marker).

    ``seq`` is the releasing site's replicate-stream length at the release
    commit — every local commit the site made while holding the keys sits
    at or below it. The hub must absorb the site's stream up to ``seq``
    before accepting the return: the return travels outside the go-back-N
    stream, so under loss it can overtake the very commits (e.g. the
    create of a returned key) the next hub-serialized write depends on.
    """

    __slots__ = ('site', 'sender', 'keys', 'seq')

    def __init__(
        self,
        site: str,
        sender: NodeAddress,
        keys: Tuple[str, ...],
        seq: int = 0,
    ):
        self.site = site
        self.sender = sender
        self.keys = keys
        self.seq = seq

    def _astuple(self) -> tuple:
        return (self.site, self.sender, self.keys, self.seq)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TokenReturn:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"TokenReturn(site={self.site!r}, sender={self.sender!r}, "
            f"keys={self.keys!r}, seq={self.seq})"
        )


class WanHeartbeat:
    """Site leader -> hub leader: liveness + live client sessions.

    Live-session piggybacking maintains cross-site ephemeral znodes (paper
    §III-B, "WAN Heartbeater"). ``applied_relay_seq`` reports the site's
    cumulative relay watermark so a newly elected hub leader can resume the
    relay stream from the right position. ``owned_tokens`` is the site's
    full token inventory, included when the hub requested it (a freshly
    promoted level-2 site rebuilding its location map).
    """

    __slots__ = (
        'site',
        'sender',
        'live_sessions',
        'applied_relay_seq',
        'owned_tokens',
    )

    def __init__(
        self,
        site: str,
        sender: NodeAddress,
        live_sessions: Tuple[str, ...] = (),
        applied_relay_seq: int = 0,
        owned_tokens: Optional[Tuple[str, ...]] = None,
    ):
        self.site = site
        self.sender = sender
        self.live_sessions = live_sessions
        self.applied_relay_seq = applied_relay_seq
        self.owned_tokens = owned_tokens

    def _astuple(self) -> tuple:
        return (
            self.site,
            self.sender,
            self.live_sessions,
            self.applied_relay_seq,
            self.owned_tokens,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not WanHeartbeat:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"WanHeartbeat(site={self.site!r}, sender={self.sender!r}, "
            f"live_sessions={self.live_sessions!r}, "
            f"applied_relay_seq={self.applied_relay_seq!r}, "
            f"owned_tokens={self.owned_tokens!r})"
        )


class WanHeartbeatAck:
    """Hub leader -> site leader: ack + the hub's absorbed-replicate count
    (lets a newly elected site leader resume its replicate stream).
    ``need_inventory`` asks the site to include its token inventory in the
    next heartbeat (level-2 promotion recovery)."""

    __slots__ = ('l2_addr', 'known_sites', 'absorbed', 'need_inventory')

    def __init__(
        self,
        l2_addr: NodeAddress,
        known_sites: Tuple[str, ...] = (),
        absorbed: int = 0,
        need_inventory: bool = False,
    ):
        self.l2_addr = l2_addr
        self.known_sites = known_sites
        self.absorbed = absorbed
        self.need_inventory = need_inventory

    def _astuple(self) -> tuple:
        return (self.l2_addr, self.known_sites, self.absorbed, self.need_inventory)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not WanHeartbeatAck:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"WanHeartbeatAck(l2_addr={self.l2_addr!r}, "
            f"known_sites={self.known_sites!r}, absorbed={self.absorbed!r}, "
            f"need_inventory={self.need_inventory!r})"
        )


# -- level-2 failover (paper §II-D: "flexible level-2 site") -------------------


class L2PromotionRequest:
    """Successor-site leader -> all site servers: the level-2 site looks
    dead; vote for me as the new level-2 for ``epoch``."""

    __slots__ = ('candidate_site', 'sender', 'epoch')

    def __init__(self, candidate_site: str, sender: NodeAddress, epoch: int):
        self.candidate_site = candidate_site
        self.sender = sender
        self.epoch = epoch

    def _astuple(self) -> tuple:
        return (self.candidate_site, self.sender, self.epoch)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not L2PromotionRequest:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"L2PromotionRequest(candidate_site={self.candidate_site!r}, "
            f"sender={self.sender!r}, epoch={self.epoch!r})"
        )


class L2PromotionVote:
    __slots__ = ('voter_site', 'sender', 'epoch', 'agree')

    def __init__(
        self, voter_site: str, sender: NodeAddress, epoch: int, agree: bool
    ):
        self.voter_site = voter_site
        self.sender = sender
        self.epoch = epoch
        self.agree = agree

    def _astuple(self) -> tuple:
        return (self.voter_site, self.sender, self.epoch, self.agree)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not L2PromotionVote:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"L2PromotionVote(voter_site={self.voter_site!r}, "
            f"sender={self.sender!r}, epoch={self.epoch!r}, "
            f"agree={self.agree!r})"
        )


class L2Promoted:
    """New hub leader -> all servers everywhere: epoch/new hub announcement.

    Rebroadcast periodically so a partitioned-away old hub site demotes
    itself when it reconnects."""

    __slots__ = ('new_l2_site', 'epoch', 'sender')

    def __init__(self, new_l2_site: str, epoch: int, sender: NodeAddress):
        self.new_l2_site = new_l2_site
        self.epoch = epoch
        self.sender = sender

    def _astuple(self) -> tuple:
        return (self.new_l2_site, self.epoch, self.sender)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not L2Promoted:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"L2Promoted(new_l2_site={self.new_l2_site!r}, "
            f"epoch={self.epoch!r}, sender={self.sender!r})"
        )


# -- replicated markers supporting failover ------------------------------------


class WanEpochOp:
    """Marker committed in a *site* ensemble: adopt a new WAN epoch with
    ``l2_site`` as the hub. Applying it resets the site's relay watermark
    (the new hub replays its filtered history; duplicates become
    RelayNoopOp markers)."""

    __slots__ = ('epoch', 'l2_site')

    def __init__(self, epoch: int, l2_site: str):
        self.epoch = epoch
        self.l2_site = l2_site

    def _astuple(self) -> tuple:
        return (self.epoch, self.l2_site)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not WanEpochOp:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"WanEpochOp(epoch={self.epoch!r}, l2_site={self.l2_site!r})"


class RelayNoopOp:
    """Marker committed in a *site* ensemble: a replayed relay entry the
    site had already applied. Advances the derived relay watermark without
    touching the tree."""

    __slots__ = ('wan_id',)

    def __init__(self, wan_id: Tuple[str, int]):
        self.wan_id = wan_id

    def _astuple(self) -> tuple:
        return (self.wan_id,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RelayNoopOp:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"RelayNoopOp(wan_id={self.wan_id!r})"


class TokenSyncOp:
    """Marker committed in the *hub* ensemble after promotion: ``site``'s
    token holdings are exactly ``keys`` (inventory reconciliation)."""

    __slots__ = ('site', 'keys')

    def __init__(self, site: str, keys: Tuple[str, ...]):
        self.site = site
        self.keys = keys

    def _astuple(self) -> tuple:
        return (self.site, self.keys)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TokenSyncOp:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"TokenSyncOp(site={self.site!r}, keys={self.keys!r})"
