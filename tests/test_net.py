"""Unit tests for the simulated network layer."""

import pytest

from repro.net import (
    CALIFORNIA,
    FRANKFURT,
    VIRGINIA,
    LinkProfile,
    Network,
    NodeAddress,
    Topology,
    wan_topology,
)
from repro.sim import Environment, StoreClosed, seeded_rng


def make_net(jitter=0.0):
    env = Environment()
    topo = wan_topology(jitter_fraction=jitter)
    net = Network(env, topo, rng=seeded_rng(1, "net"))
    return env, topo, net


def test_wan_topology_sites():
    topo = wan_topology()
    assert set(topo.site_names()) == {VIRGINIA, CALIFORNIA, FRANKFURT}


def test_wan_rtts_match_paper_regions():
    topo = wan_topology()
    assert topo.rtt(VIRGINIA, CALIFORNIA) == pytest.approx(70.0)
    assert topo.rtt(VIRGINIA, FRANKFURT) == pytest.approx(90.0)
    assert topo.rtt(CALIFORNIA, FRANKFURT) == pytest.approx(150.0)


def test_intra_site_latency_small():
    topo = wan_topology()
    a = topo.site(VIRGINIA).address("a")
    b = topo.site(VIRGINIA).address("b")
    assert topo.one_way(a, b) < 1.0


def test_topology_missing_latency_rejected():
    with pytest.raises(ValueError):
        Topology(["x", "y"], one_way_ms={})


def test_topology_unknown_site_rejected():
    with pytest.raises(ValueError):
        Topology(["x"], one_way_ms={frozenset({"x", "zz"}): 10.0})


def test_topology_non_positive_latency_rejected():
    with pytest.raises(ValueError):
        Topology(["x", "y"], one_way_ms={frozenset({"x", "y"}): 0.0})


def test_set_one_way_override():
    topo = wan_topology()
    topo.set_one_way(VIRGINIA, CALIFORNIA, 10.0)
    assert topo.rtt(VIRGINIA, CALIFORNIA) == pytest.approx(20.0)


def test_message_delivery_with_wan_delay():
    env, topo, net = make_net()
    src = topo.site(VIRGINIA).address("src")
    dst = topo.site(CALIFORNIA).address("dst")
    net.register(src)
    inbox = net.register(dst)
    arrivals = []

    def receiver(env, inbox):
        envelope = yield inbox.get()
        arrivals.append((env.now, envelope.body))

    env.process(receiver(env, inbox))
    net.send(src, dst, "hello")
    env.run()
    assert arrivals == [(35.0, "hello")]


def test_local_delivery_fast():
    env, topo, net = make_net()
    src = topo.site(VIRGINIA).address("a")
    dst = topo.site(VIRGINIA).address("b")
    net.register(src)
    inbox = net.register(dst)
    arrivals = []

    def receiver(env, inbox):
        envelope = yield inbox.get()
        arrivals.append(env.now)

    env.process(receiver(env, inbox))
    net.send(src, dst, "x")
    env.run()
    assert arrivals[0] < 1.0


def test_fifo_per_pair_even_with_jitter():
    env, topo, net = make_net(jitter=0.5)
    src = topo.site(VIRGINIA).address("src")
    dst = topo.site(FRANKFURT).address("dst")
    net.register(src)
    inbox = net.register(dst)
    received = []

    def receiver(env, inbox):
        while True:
            envelope = yield inbox.get()
            received.append(envelope.body)

    env.process(receiver(env, inbox))
    for i in range(100):
        net.send(src, dst, i)
    env.run(until=10000.0)
    assert received == list(range(100))


def _jittered_stream(force_slow, partition=None):
    """Send one seeded two-way stream on virginia<->california at 5% jitter.

    ``force_slow`` installs a no-op profile on a link that carries no
    traffic, which keeps every send on the fully checked path.
    ``partition`` is a site pair severed at 150 ms and healed at 300 ms.
    Returns the network, every sent envelope, and the delivered ones.
    """
    env, topo, net = make_net(jitter=0.05)
    v = topo.site(VIRGINIA).address("v")
    c = topo.site(CALIFORNIA).address("c")
    delivered = []
    for addr in (v, c):
        net.register(addr).consume(delivered.append)
    if force_slow:
        net.degrade(CALIFORNIA, FRANKFURT, LinkProfile())
    sent = []
    net.tap(sent.append)
    gaps = seeded_rng(5, "stream")

    def sender(env):
        for i in range(400):
            yield env.timeout(gaps.uniform(0.0, 1.0))
            src, dst = (v, c) if gaps.random() < 0.5 else (c, v)
            net.send(src, dst, i)

    def faults(env):
        yield env.timeout(150.0)
        net.partition(*partition)
        yield env.timeout(150.0)
        net.heal(*partition)

    env.process(sender(env))
    if partition is not None:
        env.process(faults(env))
    env.run()
    return net, sent, delivered


def _by_pair(envelopes):
    pairs = {}
    for envelope in envelopes:
        pairs.setdefault((envelope.src, envelope.dst), []).append(envelope)
    assert len(pairs) == 2
    return pairs.values()


def _assert_fifo_per_pair(sent):
    # Scheduled delivery times never fall behind on one connection, across
    # every switch between the fast and the checked path. Messages dropped
    # at send were never scheduled.
    for envelopes in _by_pair(e for e in sent if e.deliver_time):
        times = [e.deliver_time for e in envelopes]
        assert times == sorted(times)


@pytest.mark.parametrize(
    "partition",
    [None, (VIRGINIA, FRANKFURT), (VIRGINIA, CALIFORNIA)],
    ids=["fault-free", "partition-elsewhere", "partition-on-stream"],
)
def test_jittered_fast_path_matches_checked_path(partition):
    fast_net, fast_sent, fast_delivered = _jittered_stream(False, partition)
    slow_net, slow_sent, slow_delivered = _jittered_stream(True, partition)
    assert fast_net._fast and not slow_net._fast
    assert len(fast_sent) == len(slow_sent) == 400
    assert [e.deliver_time for e in fast_sent] == [
        e.deliver_time for e in slow_sent
    ]
    assert [e.body for e in fast_delivered] == [
        e.body for e in slow_delivered
    ]
    assert fast_net.rng.getstate() == slow_net.rng.getstate()
    assert fast_net.env._seq == slow_net.env._seq
    assert fast_net.drops_by_reason == slow_net.drops_by_reason
    _assert_fifo_per_pair(fast_sent)
    # The stream is dense enough that jitter would reorder it: the FIFO
    # clamp fires, giving some scheduled messages equal delivery times.
    times = [e.deliver_time for e in fast_sent if e.deliver_time]
    assert len(set(times)) < len(times)
    if partition == (VIRGINIA, CALIFORNIA):
        assert 0 < fast_net.drops_by_reason["partition"] < 400
    else:
        assert len(fast_delivered) == 400


@pytest.mark.xfail(
    strict=True,
    reason="a clamped delivery is put on the heap at now + (deliver_at - "
    "now), which for a send made earlier than one link delay into the run "
    "can round one ULP below its predecessor's heap time and overtake it",
)
def test_jittered_deliveries_keep_send_order_per_pair():
    _, _, delivered = _jittered_stream(False)
    for envelopes in _by_pair(delivered):
        bodies = [e.body for e in envelopes]
        assert bodies == sorted(bodies)


def test_unknown_destination_rejected():
    env, topo, net = make_net()
    src = topo.site(VIRGINIA).address("src")
    dst = topo.site(CALIFORNIA).address("ghost")
    net.register(src)
    with pytest.raises(ValueError):
        net.send(src, dst, "x")


def test_double_registration_rejected():
    env, topo, net = make_net()
    addr = topo.site(VIRGINIA).address("a")
    net.register(addr)
    with pytest.raises(ValueError):
        net.register(addr)


def test_crash_drops_messages():
    env, topo, net = make_net()
    src = topo.site(VIRGINIA).address("src")
    dst = topo.site(CALIFORNIA).address("dst")
    net.register(src)
    net.register(dst)
    net.crash(dst)
    net.send(src, dst, "lost")
    env.run()
    assert net.messages_dropped == 1


def test_crash_closes_inbox():
    env, topo, net = make_net()
    addr = topo.site(VIRGINIA).address("n")
    inbox = net.register(addr)
    failures = []

    def receiver(env, inbox):
        try:
            yield inbox.get()
        except StoreClosed:
            failures.append(env.now)

    env.process(receiver(env, inbox))
    env.run(until=1.0)
    net.crash(addr)
    env.run()
    assert failures == [1.0]


def test_crash_mid_flight_drops():
    env, topo, net = make_net()
    src = topo.site(VIRGINIA).address("src")
    dst = topo.site(CALIFORNIA).address("dst")
    net.register(src)
    net.register(dst)
    net.send(src, dst, "in-flight")
    env.run(until=10.0)  # message still in flight (needs 35 ms)
    net.crash(dst)
    env.run()
    assert net.messages_dropped == 1


def test_restart_allows_delivery_again():
    env, topo, net = make_net()
    src = topo.site(VIRGINIA).address("src")
    dst = topo.site(CALIFORNIA).address("dst")
    net.register(src)
    inbox = net.register(dst)
    net.crash(dst)
    net.send(src, dst, "lost")
    env.run()
    net.restart(dst)
    got = []

    def receiver(env, inbox):
        envelope = yield inbox.get()
        got.append(envelope.body)

    env.process(receiver(env, inbox))
    net.send(src, dst, "after-restart")
    env.run()
    assert got == ["after-restart"]


def test_partition_blocks_both_directions():
    env, topo, net = make_net()
    va = topo.site(VIRGINIA).address("va")
    ca = topo.site(CALIFORNIA).address("ca")
    net.register(va)
    net.register(ca)
    net.partition(VIRGINIA, CALIFORNIA)
    net.send(va, ca, "x")
    net.send(ca, va, "y")
    env.run()
    assert net.messages_dropped == 2


def test_partition_does_not_affect_other_pairs():
    env, topo, net = make_net()
    va = topo.site(VIRGINIA).address("va")
    fr = topo.site(FRANKFURT).address("fr")
    net.register(va)
    inbox = net.register(fr)
    net.partition(VIRGINIA, CALIFORNIA)
    got = []

    def receiver(env, inbox):
        envelope = yield inbox.get()
        got.append(envelope.body)

    env.process(receiver(env, inbox))
    net.send(va, fr, "ok")
    env.run()
    assert got == ["ok"]


def test_heal_restores_connectivity():
    env, topo, net = make_net()
    va = topo.site(VIRGINIA).address("va")
    ca = topo.site(CALIFORNIA).address("ca")
    net.register(va)
    inbox = net.register(ca)
    net.partition(VIRGINIA, CALIFORNIA)
    net.send(va, ca, "lost")
    env.run()
    net.heal(VIRGINIA, CALIFORNIA)
    got = []

    def receiver(env, inbox):
        envelope = yield inbox.get()
        got.append(envelope.body)

    env.process(receiver(env, inbox))
    net.send(va, ca, "found")
    env.run()
    assert got == ["found"]


def test_partition_mid_flight_drops():
    env, topo, net = make_net()
    va = topo.site(VIRGINIA).address("va")
    ca = topo.site(CALIFORNIA).address("ca")
    net.register(va)
    net.register(ca)
    net.send(va, ca, "in-flight")
    env.run(until=5.0)
    net.partition(VIRGINIA, CALIFORNIA)
    env.run()
    assert net.messages_dropped == 1


def test_tap_sees_all_sends():
    env, topo, net = make_net()
    va = topo.site(VIRGINIA).address("va")
    ca = topo.site(CALIFORNIA).address("ca")
    net.register(va)
    net.register(ca)
    seen = []
    net.tap(lambda envelope: seen.append(envelope.body))
    net.send(va, ca, "one")
    net.send(va, ca, "two")
    assert seen == ["one", "two"]


def test_message_counters():
    env, topo, net = make_net()
    va = topo.site(VIRGINIA).address("va")
    ca = topo.site(CALIFORNIA).address("ca")
    net.register(va)
    net.register(ca)
    net.send(va, ca, "x", size_bytes=100)
    assert net.messages_sent == 1
    assert net.bytes_sent == 100
