"""WPaxos steal contention: a stealer yields to a higher bid.

Regression for a liveness bug seen under the fleet's rotating hotspot:
voters at na00a, sa00a and sa00b of the seed-42 fleet topology stole one
object from each other until the horizon. Every phase-1 round needs a
promise from every zone, including oc00a, more than 200 ms away, and
each steal was pre-empted by the next before its round trip completed.
Now a stealer that learns of a higher bid drops its steal and forwards
its queued writes to the bidder.
"""

from repro.fleet import build_fleet_topology, fleet_sites
from repro.net import Network
from repro.sim import Environment, seeded_rng
from repro.substrate import create_peer
from repro.zab import EnsembleConfig

#: The eight sites of the seed-42 fleet topology, one voter each (the
#: flat ZooKeeper-on-WPaxos fleet shape).
SITES = ("na00a", "sa00a", "eu00a", "af00a", "as00a", "oc00a", "na01a",
         "sa00b")
WRITERS = ("na00a", "sa00a", "sa00b")
OBJECT = "/fleet/na00a/k00"


class _Op:
    __slots__ = ("path",)

    def __init__(self, path):
        self.path = path


class Txn:
    """A client write: ``(session_id, cxid)`` is its dedup identity."""

    __slots__ = ("op", "session_id", "cxid")

    def __init__(self, path, session_id, cxid):
        self.op = _Op(path)
        self.session_id = session_id
        self.cxid = cxid

    def __repr__(self):
        return f"Txn({self.op.path}, {self.session_id}, {self.cxid})"


def build():
    sites = fleet_sites(len(SITES), 42)
    assert tuple(site.name for site in sites) == SITES
    topology = build_fleet_topology(sites, seed=42)
    env = Environment()
    net = Network(env, topology, rng=seeded_rng(1, "net"))
    voters = [topology.site(name).address("v") for name in SITES]
    config = EnsembleConfig(voters=voters, observers=[])
    peers = {
        addr.site: create_peer("wpaxos", env, net, addr, config,
                               name=addr.site)
        for addr in voters
    }
    for peer in peers.values():
        peer.start()
    env.run(until=1000.0)
    committed = {}
    for peer in peers.values():
        peer.on_commit = lambda _zxid, txn: committed.setdefault(
            (txn.session_id, txn.cxid), env.now
        )
    return env, peers, committed


def submit_at(env, peer, when, txn):
    env.call_at(when, lambda _arg: peer.submit(txn))


def steals(peers):
    return sum(peer.steals_started for peer in peers.values())


def test_dueling_writers_all_commit():
    env, peers, committed = build()
    t0 = env.now
    for k, site in enumerate(WRITERS):
        submit_at(env, peers[site], t0 + k, Txn(OBJECT, site, 1))
    env.run(until=t0 + 1000.0)
    assert sorted(committed) == sorted((site, 1) for site in WRITERS)
    # One round trip to the farthest zone, not a duel to the horizon.
    assert max(committed.values()) - t0 < 500.0
    assert steals(peers) <= 2 * len(WRITERS)


def test_sustained_contention_drains():
    """A write from each of the three sites every 25 ms for one second:
    every write commits soon after the stream stops."""
    env, peers, committed = build()
    t0 = env.now
    submitted = []
    for r in range(40):
        for k, site in enumerate(WRITERS):
            txn = Txn(OBJECT, site, r + 1)
            submitted.append((site, r + 1))
            submit_at(env, peers[site], t0 + 25.0 * r + k, txn)
    env.run(until=t0 + 3000.0)
    assert sorted(committed) == sorted(submitted)
    assert max(committed.values()) - t0 < 1000.0 + 500.0
    assert steals(peers) <= 40


def test_forwarded_txn_is_not_swallowed_by_a_retransmit():
    """A txn queued behind a steal and then handed to a higher bidder
    leaves the yielder's duplicate table: the origin server's later
    retransmit is forwarded again, and the bidder drops the duplicate."""
    env, peers, committed = build()
    t0 = env.now
    low, high = peers["na00a"], peers["sa00a"]
    txn = Txn(OBJECT, "client", 7)
    submit_at(env, low, t0, txn)
    submit_at(env, high, t0 + 1.0, Txn(OBJECT, "other", 1))
    env.run(until=t0 + 100.0)
    assert low.steals_yielded == 1
    assert OBJECT not in low._stealing
    low.submit(txn)  # the origin server's inflight retransmit
    env.run(until=t0 + 1000.0)
    assert low.duplicate_submits_dropped == 0
    assert high.duplicate_submits_dropped == 1
    assert ("client", 7) in committed


def test_rebid_goes_above_a_dead_bidder():
    """A stealer rejected in favour of a bidder that then crashed bids
    above that bidder's ballot next time, not one ballot at a time."""
    from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, wan_topology

    env = Environment()
    topology = wan_topology()
    net = Network(env, topology, rng=seeded_rng(1, "net"))
    sites = (VIRGINIA,) * 3 + (CALIFORNIA,) * 3 + (FRANKFURT,) * 3
    voters = [topology.site(site).address(f"v{i}")
              for i, site in enumerate(sites)]
    config = EnsembleConfig(voters=voters, observers=[])
    peers = [create_peer("wpaxos", env, net, addr, config, name=addr.name)
             for addr in voters]
    for peer in peers:
        peer.start()
    env.run(until=1000.0)
    committed = []
    for peer in peers:
        peer.on_commit = lambda _zxid, txn: committed.append(txn.cxid)
    doomed, stealer = peers[3], peers[0]
    # A California voter bids high while cut off from Virginia, so only
    # California and Frankfurt promise it; then it dies.
    net.partition(CALIFORNIA, VIRGINIA)
    doomed._promised[OBJECT] = (7, str(doomed.addr))
    doomed.submit(Txn(OBJECT, "doomed", 1))
    env.run(until=env.now + 500.0)
    doomed.crash()
    net.heal_all()
    stealer.submit(Txn(OBJECT, "client", 1))
    env.run(until=env.now + 500.0)
    assert stealer.steals_yielded == 1  # to the dead bidder
    stealer.submit(Txn(OBJECT, "client", 2))
    env.run(until=env.now + 1000.0)
    assert 2 in committed
    assert stealer.steals_started == 2
