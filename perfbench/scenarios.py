"""The benchmark's workloads, driven through the program's public API.

Each workload function builds a fresh deployment, runs its set-up, calls
``mark()`` at the instants the measured phase starts and ends, and returns an :class:`Episode`: the per-operation log, the layer
counters read from the program's own attributes, and any output-check
violations. Everything simulated is a pure function of the seed, so two
episodes with one seed must agree exactly; the runner checks that.

Why these workloads (see NOTES.md for the full table):

* ``paper_ycsb`` -- the paper's own evaluation: three closed-loop YCSB
  clients, one per AWS site, against cold WanKeeper. Exercises the token
  and hub paths, Zab and the ZK client; no fleet, no WPaxos.
* ``fleet_diurnal`` -- the open-loop fleet driver with follow-the-sun
  load and a rotating hotspot against flat ZooKeeper on WPaxos with 10^4
  real sessions. The only workload that loads WPaxos and the per-session
  ZK bookkeeping; WanKeeper and the YCSB driver are idle.
* ``fleet_sparse`` -- the same driver at 2 ops/s in total on a 0.1 ms
  tick grid against WanKeeper. Arrival generation dominates; a per-tick
  saving shows here and barely moves ``fleet_diurnal``.
* ``wan_faults`` -- WanKeeper on the paper sites with loss, duplication,
  jitter and a fault schedule; per-site open-loop arrivals, retrying
  clients. The only workload that runs elections, retransmits, client
  retries and the reply cache.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.consistency import HistoryRecorder, check_linearizable_per_key
from repro.experiments.common import build_world
from repro.fleet import full as fleet_full
from repro.fleet.full import FleetFullSpec, FleetStation
from repro.nemesis import ScheduleNemesis
from repro.net import (CALIFORNIA, FRANKFURT, VIRGINIA, LinkProfile, Network,
                       wan_topology)
from repro.sim import Environment, seeded_rng
from repro.wankeeper import build_wankeeper_deployment
from repro.workloads.driver import YcsbSpec, load_records, ycsb_client
from repro.workloads.stats import LatencyRecorder
from repro.zk import ConnectionLossError, SessionExpiredError
from repro.zk.errors import ZkError

from refclock import CLOCK

PAPER_SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)

#: Every link's delay is stretched by up to this fraction (uniform), the
#: default of ``repro.net.wan_topology``. Without it a local read takes
#: the same simulated time on every seed; the mean delays stay the AWS
#: and generated RTT matrices.
JITTER = 0.05

#: paper_ycsb: ops per client. 3 clients x 1200 ops at 50% writes gives
#: about 1800 writes and 1800 reads, so each p99 has 18 samples beyond it.
YCSB_OPS_PER_CLIENT = 1200

#: The generated fleet topology is part of the workload, like the paper's
#: three AWS sites: sites and RTTs come from this fixed seed, and only the
#: arrival streams come from the benchmark's ``--seed``.
FLEET_TOPOLOGY_SEED = 42

#: fleet_diurnal: the default FleetFullSpec on ZK/WPaxos (8 sites x 1250
#: sessions, 40 ops/s per site, follow-the-sun amplitude 0.6, 15% rotating
#: hotspot), run one simulated day (20 s) with 30% writes, in
#: ``INSTANCES`` episodes per run.
FLEET_DIURNAL = dict(
    system="zk", substrate="wpaxos", duration_ms=20000.0, write_fraction=0.3,
)

#: fleet_sparse: the committed sparse cell (repro.bench's
#: FLEET_FULL_SPARSE_PARAMS: 8 sites x 64 sessions, 0.1 ms ticks, one
#: simulated minute, WanKeeper on Zab) at 2 ops/s per site instead of
#: 0.25, with no hotspot. About 120 Poisson arrivals per run made every
#: per-op figure swing by 17% from seed to seed; about 960 still leave one
#: arrival per 5000 site-ticks, so drawing arrivals stays the dominant
#: cost. Without the hotspot no token migrates, so the write tail is not
#: set by a handful of migrations.
FLEET_SPARSE = dict(
    n_sites=8, sessions_per_site=64, duration_ms=60000.0, tick_ms=0.1,
    site_ops_per_sec=2.0, diurnal_amplitude=0.0, hotspot_fraction=0.0,
)

#: wan_faults: per-site Poisson rate, measured window and drain.
FAULTS_RATE_PER_S = 10.0
FAULTS_WINDOW_MS = 100_000.0
FAULTS_DRAIN_MS = 60_000.0
FAULTS_SESSIONS_PER_SITE = 16
FAULTS_HOME_KEYS = 16
FAULTS_SHARED_KEYS = 8
FAULTS_SHARED_FRACTION = 0.2


#: Simulated quiet time after the measured phase, before the replica
#: checks: writes still propagating at the horizon must not read as
#: divergence. Untimed, and after the counters are read.
SETTLE_MS = 5000.0


#: One operation of the measured phase: (site index, is write, due ms,
#: end ms or None while still unanswered, ok).
Op = Tuple[int, bool, float, Optional[float], bool]


@dataclass
class Episode:
    """What one run of a workload produced."""

    setup_cpu_s: float
    run_cpu_s: float
    ops: List[Op]
    #: Simulated interval the throughput is taken over.
    window_ms: float
    #: Simulated instant the run ended; unanswered ops wait until here.
    horizon_ms: float
    #: Layer counters, deltas over the measured phase.
    counters: Dict[str, int]
    problems: List[str] = field(default_factory=list)


class _Phases:
    """CPU clock for the set-up / measured split of one episode, in
    reference-speed seconds (see ``refclock``); calls ``mark()`` as the
    measured phase starts and again as it ends."""

    def __init__(self, mark: Callable[[], None]):
        self._mark = mark
        CLOCK.start()
        self._t1 = 0.0

    def measure(self) -> None:
        self._t1 = CLOCK.read()
        self._mark()

    def done(self) -> Tuple[float, float]:
        t2 = CLOCK.read()
        CLOCK.stop()
        self._mark()
        return self._t1, t2 - self._t1


def read_counters(env, net, servers, clients) -> Dict[str, int]:
    """The program's own counters, summed over servers and clients."""
    c: Dict[str, int] = {
        "sim.events": env._seq,
        "net.messages": net.messages_sent,
        "net.bytes": net.bytes_sent,
        "net.drops": net.messages_dropped,
    }

    def add(key: str, value: int) -> None:
        c[key] = c.get(key, 0) + value

    for server in servers:
        peer = server.peer
        kind = "wpaxos" if type(peer).__name__ == "WPaxosPeer" else "zab"
        add(f"{kind}.commits", peer.commits_delivered)
        add(f"{kind}.retransmits", peer.proposals_retransmitted)
        if kind == "zab":
            add("zab.elections", peer.elections_completed)
        else:
            add("wpaxos.steals_started", peer.steals_started)
            add("wpaxos.steals_won", peer.steals_won)
            add("wpaxos.steals_rejected", peer.steals_rejected)
        add("zk.commits_applied", server.commits_applied)
        add("zk.reads_served", server.reads_served)
        add("zk.writes_accepted", server.writes_accepted)
        add("zk.replies_from_cache", server.replies_from_cache)
        if hasattr(server, "local_commits"):
            add("wankeeper.local_commits", server.local_commits)
            add("wankeeper.remote_commits", server.remote_commits)
            add("wankeeper.tokens_granted", server.tokens_granted)
            add("wankeeper.tokens_recalled", server.tokens_recalled)
    for client in clients:
        add("zk.client_retries", client.retries_performed)
    return c


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in sorted(after)}


def replica_checks(env, servers, deployment) -> List[str]:
    """Let the deployment settle, then check convergence, at-most-once
    apply, token exclusivity and the sentinel's end-of-run invariants."""
    env.run(until=env.now + SETTLE_MS)
    problems = []
    live = [server for server in servers if server.is_alive]
    prints = {server.tree.fingerprint() for server in live}
    if len(prints) != 1:
        problems.append(
            f"replicas diverged: {len(prints)} distinct tree fingerprints "
            f"over {len(live)} live servers"
        )
    most = max(
        (max(server.apply_counts.values(), default=0) for server in live),
        default=0,
    )
    if most > 1:
        problems.append(f"a write was applied {most} times at one replica")
    owners: Dict[str, List[str]] = {}
    for server in live:
        tokens = getattr(server, "site_tokens", None)
        if tokens is not None and server.is_leader:
            for key in tokens.owned:
                owners.setdefault(key, []).append(server.site)
    shared = sorted(key for key, sites in owners.items() if len(sites) > 1)
    if shared:
        problems.append(f"tokens owned by two sites at once: {shared[:5]}")
    sentinel = getattr(deployment, "sentinel", None)
    if sentinel is not None:
        sentinel.final_check()
    return problems


def _run_until(env, done: Callable[[], bool], budget_ms: float,
               step_ms: float = 1000.0) -> None:
    """Advance the clock in steps until ``done()`` or the budget is spent."""
    deadline = env.now + budget_ms
    while not done() and env.now < deadline:
        env.run(until=min(deadline, env.now + step_ms))


# -- paper_ycsb ----------------------------------------------------------------


def paper_ycsb(seed: int, mark: Callable[[], None]) -> Episode:
    phases = _Phases(mark)
    world = build_world("wk", seed=seed, jitter=JITTER)
    env = world.env
    spec = YcsbSpec(
        record_count=1000,
        operation_count=YCSB_OPS_PER_CLIENT,
        write_fraction=0.5,
    )
    clients = [world.client(site) for site in PAPER_SITES]

    def setup():
        yield clients[0].connect()
        yield env.process(load_records(clients[0], spec))
        yield env.timeout(500.0)
        for client in clients[1:]:
            yield client.connect()

    ready = env.process(setup())
    _run_until(env, lambda: ready.triggered, 600_000.0)
    if not (ready.triggered and ready.ok):
        raise RuntimeError("paper_ycsb set-up did not complete")
    servers = world.deployment.servers
    before = read_counters(env, world.net, servers, clients)
    phases.measure()
    start = env.now
    recorders = [LatencyRecorder(site) for site in PAPER_SITES]
    procs = [
        env.process(
            ycsb_client(env, client, spec, seeded_rng(seed, f"client{i}"),
                        recorders[i])
        )
        for i, client in enumerate(clients)
    ]
    _run_until(env, lambda: all(p.triggered for p in procs), 3_600_000.0)
    setup_s, run_s = phases.done()
    problems = []
    if not all(p.triggered and p.ok for p in procs):
        problems.append("a YCSB client did not finish")
    ops: List[Op] = []
    for i, recorder in enumerate(recorders):
        for s in recorder.samples:
            ops.append(
                (i, s.kind == "write", s.start, s.start + s.latency, s.ok)
            )
    last = max((op[3] for op in ops), default=start)
    counters = _delta(read_counters(env, world.net, servers, clients), before)
    horizon = env.now
    problems += replica_checks(env, servers, world.deployment)
    return Episode(setup_s, run_s, ops, last - start, horizon, counters,
                   problems)


# -- fleet_diurnal / fleet_sparse ----------------------------------------------


@contextmanager
def _jittered_fleet_topology() -> Iterator[None]:
    """Build the fleet engine's topology with :data:`JITTER`."""
    original = fleet_full.build_fleet_topology

    def build(sites, seed=42, **kw):
        return original(sites, seed=seed, jitter_fraction=JITTER, **kw)

    fleet_full.build_fleet_topology = build
    try:
        yield
    finally:
        fleet_full.build_fleet_topology = original


def fleet(seed: int, mark: Callable[[], None], params: Dict) -> Episode:
    """One full-stack fleet cell, phase by phase.

    Follows ``_FleetFullEngine.run`` step for step, so set-up (deployment,
    bootstrap, session connects) and the measured open-loop phase can be
    timed apart, and gives each station an exact recorder so every op's
    due time is kept.
    """
    phases = _Phases(mark)
    spec = FleetFullSpec(seed=FLEET_TOPOLOGY_SEED, **params)
    with _jittered_fleet_topology():
        engine = fleet_full._FleetFullEngine(spec)
    engine.rngs = [
        seeded_rng(seed, f"fleet-full-site-{i:04d}")
        for i in range(spec.n_sites)
    ]
    engine.net.rng = seeded_rng(seed, "net")
    env = engine.env
    deployment = engine.deployment
    deployment.start()
    deployment.stabilize()
    env.run(until=env.process(engine._bootstrap(), name="fleet-bootstrap"))
    t_connect = 50.0 * math.ceil(env.now / 50.0)
    if t_connect > env.now:
        env.run(until=t_connect)
    for i, name in enumerate(engine.names):
        station = FleetStation(
            env, engine.net, spec, i, name,
            deployment.server_at(name).client_addr,
            engine.read_ops, engine.write_ops, engine.key_paths,
        )
        station.recorder = LatencyRecorder(name, mode="exact")
        engine.stations.append(station)
        station.connect_from(t_connect)
    env.run(until=t_connect + spec.connect_window_ms + spec.settle_ms)
    connected = sum(station.connected for station in engine.stations)
    if connected != spec.total_sessions:
        raise RuntimeError(
            f"only {connected}/{spec.total_sessions} sessions connected"
        )
    servers = deployment.servers
    before = read_counters(env, engine.net, servers, ())
    engine._t0 = env.now
    phases.measure()
    env.call_soon(engine._scan_cb, 0)
    window = engine._ticks * spec.tick_ms
    env.run(until=engine._t0 + window + spec.drain_ms)
    setup_s, run_s = phases.done()

    ops: List[Op] = []
    issued = 0
    problems = []
    for i, station in enumerate(engine.stations):
        issued += station.ops_issued
        for s in station.recorder.samples:
            ops.append(
                (i, s.kind == "write", s.start, s.start + s.latency, s.ok)
            )
        for stamp in station.inflight.values():
            ops.append((i, stamp < 0.0, abs(stamp), None, False))
        if station.not_connected_drops or station.unexpected_messages:
            problems.append(
                f"station {station.addr}: {station.not_connected_drops} "
                f"arrivals without a session, {station.unexpected_messages} "
                "unexpected messages"
            )
    if issued != len(ops):
        problems.append(
            f"fleet accounting: {issued} issued but {len(ops)} completed, "
            "failed or unanswered"
        )
    counters = _delta(read_counters(env, engine.net, servers, ()), before)
    counters["fleet.arrivals"] = issued
    horizon = env.now
    problems += replica_checks(env, servers, deployment)
    return Episode(setup_s, run_s, ops, window, horizon, counters, problems)


# -- wan_faults ----------------------------------------------------------------


def _fault_schedule(rng: random.Random, window_ms: float) -> List[Dict]:
    """One fault of each kind, in a fixed order and on fixed targets, at
    seeded times: every seed exercises the same recovery paths."""
    slot = window_ms / 5.0
    jitter = lambda: rng.uniform(-0.1 * slot, 0.1 * slot)  # noqa: E731
    return [
        # Site indices resolve against the sorted site names:
        # 0 california, 1 frankfurt, 2 virginia (the hub).
        {"at": 1 * slot + jitter(), "kind": "partition", "a": 0, "b": 1,
         "dwell": 2500.0},
        {"at": 2 * slot + jitter(), "kind": "oneway-partition", "a": 1,
         "b": 2, "dwell": 2500.0},
        {"at": 3 * slot + jitter(), "kind": "gray-degrade", "a": 2, "b": 0,
         "dwell": 3000.0, "factor": 8.0},
    ]


def wan_faults(seed: int, mark: Callable[[], None]) -> Episode:
    phases = _Phases(mark)
    env = Environment()
    topology = wan_topology(jitter_fraction=0.1)
    net = Network(env, topology, rng=seeded_rng(seed, "net"))
    deployment = build_wankeeper_deployment(env, net, topology)
    deployment.start()
    deployment.stabilize()
    ambient = LinkProfile(loss=0.02, duplicate=0.02)
    for site_a, site_b in itertools.combinations(PAPER_SITES, 2):
        net.degrade(site_a, site_b, ambient)
    home = [
        [f"/wf/{site}-{k:02d}" for k in range(FAULTS_HOME_KEYS)]
        for site in PAPER_SITES
    ]
    shared = [f"/wf/shared-{k:02d}" for k in range(FAULTS_SHARED_KEYS)]
    keys = [key for group in home for key in group] + shared
    clients: Dict[Tuple[int, int], object] = {}
    all_clients: List[object] = []

    def site_client(site: str):
        client = deployment.client(
            site, session_timeout_ms=30000.0, request_timeout_ms=3000.0
        )
        leader = deployment.site_leader(site)
        if leader is not None:
            client.server_addr = leader.client_addr
        all_clients.append(client)
        return client

    def setup():
        admin = site_client(VIRGINIA)
        yield admin.connect_retrying(max_retries=10)
        yield admin.create_retrying("/wf", b"", max_retries=10)
        for key in keys:
            yield admin.create_retrying(key, b"", max_retries=10)
        for i, site in enumerate(PAPER_SITES):
            for j in range(FAULTS_SESSIONS_PER_SITE):
                client = site_client(site)
                yield client.connect_retrying(max_retries=10)
                clients[i, j] = client

    ready = env.process(setup())
    _run_until(env, lambda: ready.triggered, 600_000.0)
    if not (ready.triggered and ready.ok):
        raise RuntimeError("wan_faults set-up did not complete")

    plan = []
    for i in range(len(PAPER_SITES)):
        rng = seeded_rng(seed, f"wan-faults-site-{i}")
        t = 0.0
        while True:
            t += rng.expovariate(FAULTS_RATE_PER_S / 1000.0)
            if t >= FAULTS_WINDOW_MS:
                break
            if rng.random() < FAULTS_SHARED_FRACTION:
                key = shared[rng.randrange(len(shared))]
            else:
                key = home[i][rng.randrange(FAULTS_HOME_KEYS)]
            plan.append((t, i, key, rng.random() < 0.5,
                         rng.randrange(FAULTS_SESSIONS_PER_SITE)))
    plan.sort()
    fault_rng = seeded_rng(seed, "wan-faults-schedule")
    nemesis = ScheduleNemesis(
        env, net, deployment, _fault_schedule(fault_rng, FAULTS_WINDOW_MS)
    )
    crash_at = 4 * FAULTS_WINDOW_MS / 5.0 + fault_rng.uniform(-2000, 2000)

    servers = deployment.servers
    before = read_counters(env, net, servers, all_clients)
    phases.measure()
    start = env.now
    history = HistoryRecorder()
    ops: List[Op] = []
    pending: Dict[int, Tuple[int, bool, float]] = {}
    indeterminate = set()
    reconnecting = set()
    values = itertools.count(1)

    def op(n: int, due: float, i: int, key: str, is_write: bool, j: int):
        site = PAPER_SITES[i]
        client = clients[i, j]
        pending[n] = (i, is_write, due)
        lost = failed = False
        try:
            if is_write:
                value = next(values)
                yield client.set_data_retrying(key, str(value).encode(),
                                               max_retries=6)
                history.record(site, "write", key, value, due, env.now)
            else:
                yield client.get_data_retrying(key, max_retries=6)
        except (ConnectionLossError, SessionExpiredError):
            lost = failed = True
        except ZkError:
            failed = True
        if lost and is_write:
            indeterminate.add(key)
        del pending[n]
        ops.append((i, is_write, due, env.now, not failed))
        if lost and clients[i, j] is client and (i, j) not in reconnecting:
            # Like a real client: open a new session on a live server of
            # the site, and move the slot to it once it is up.
            reconnecting.add((i, j))
            fresh = site_client(site)
            try:
                yield fresh.connect_retrying(max_retries=10)
                clients[i, j] = fresh
            except (ConnectionLossError, SessionExpiredError):
                pass
            reconnecting.discard((i, j))

    def driver():
        for n, (at, i, key, is_write, j) in enumerate(plan):
            due = start + at
            if due > env.now:
                yield env.timeout(due - env.now)
            env.process(op(n, due, i, key, is_write, j))

    def crash_site_leader():
        yield env.timeout(crash_at)
        leader = deployment.site_leader(CALIFORNIA)
        if leader is not None:
            leader.crash()
            yield env.timeout(2500.0)
            leader.restart()

    nemesis.start()
    env.process(driver())
    env.process(crash_site_leader())
    env.run(until=start + FAULTS_WINDOW_MS)
    nemesis.stop_and_repair()
    net.restore_all()
    net.heal_all()
    env.run(until=start + FAULTS_WINDOW_MS + FAULTS_DRAIN_MS)
    setup_s, run_s = phases.done()

    for i, is_write, due in pending.values():
        ops.append((i, is_write, due, None, False))
    problems = []
    if len(ops) != len(plan):
        problems.append(f"{len(plan)} ops due but {len(ops)} accounted for")
    tree = next(s for s in servers if s.is_alive).tree
    now = env.now
    for key in keys:
        if key in indeterminate:
            continue
        data, _stat = tree.get_data(key)
        history.record("final-check", "read", key,
                       int(data) if data else None, now, now + 1.0)
    checked = [
        o for o in history.operations
        if o.key not in indeterminate
        and (o.kind == "write" or o.client == "final-check")
    ]
    violations = check_linearizable_per_key(checked, initial=None)
    if violations:
        problems.append(
            f"per-key linearizability violated on {len(violations)} keys"
        )
    counters = _delta(read_counters(env, net, servers, all_clients), before)
    horizon = env.now
    problems += replica_checks(env, servers, deployment)
    return Episode(setup_s, run_s, ops, FAULTS_WINDOW_MS, horizon, counters,
                   problems)


WORKLOADS: Dict[str, Callable[[int, Callable[[], None]], Episode]] = {
    "paper_ycsb": paper_ycsb,
    "fleet_diurnal": lambda seed, mark: fleet(seed, mark, FLEET_DIURNAL),
    "fleet_sparse": lambda seed, mark: fleet(seed, mark, FLEET_SPARSE),
    "wan_faults": wan_faults,
}

#: Episodes a run draws from its seed, where one is not enough; the
#: run's sim figures pool them and its CPU figures take them in whole
#: rounds.
#:
#: * fleet_diurnal: how many WPaxos steals duel in a day swings from seed
#:   to seed (250 to 2250 rejected), and with it the events and CPU per
#:   op: 14% apart (quartiles) for one episode. Longer episodes do not
#:   settle it, as the duels pile up over simulated time; the mean of
#:   eight days is about 5% apart.
#: * fleet_sparse: 960 arrivals make completed ops, and with them the CPU
#:   per op and the simulated throughput, 7-8% apart from seed to seed;
#:   the heap the logs grow to is 12% apart.
#: * paper_ycsb: the CPU per op was 8.8% apart over ten runs of one
#:   episode, most of it the host; a second episode halves the seed's
#:   share and costs nothing, as the timed repetitions were four anyway.
INSTANCES: Dict[str, int] = {
    "paper_ycsb": 2, "fleet_diurnal": 8, "fleet_sparse": 4,
}

#: How many of a run's instances get a heap-measured episode (5x slower
#: than a plain one) for ``peak_mb``; one where the heap barely moves
#: with the seed (about 1% apart). Four on fleet_sparse made it 4% apart
#: over ten runs; two keep the runs within the benchmark's time budget.
HEAP_INSTANCES: Dict[str, int] = {"fleet_sparse": 2}


@contextmanager
def sentinel_on() -> Iterator[None]:
    """Deployments built inside the block get the invariant sentinel."""
    saved = os.environ.get("REPRO_SENTINEL")
    os.environ["REPRO_SENTINEL"] = "1"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_SENTINEL"]
        else:
            os.environ["REPRO_SENTINEL"] = saved
