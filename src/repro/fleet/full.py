"""Full-stack fleet cells: the open-loop driver against the real servers.

The mesoscale engine (:mod:`repro.fleet.engine`) models queueing with
array columns and never sends a message. This module keeps the same
open-loop arrival machinery (:mod:`repro.fleet.arrivals`: per-site
Poisson arrivals, follow-the-sun diurnal modulation, a rotating hotspot)
but injects every operation into a real
:class:`~repro.zk.server.ZkServer` or WanKeeper deployment over the
simulated network, on either broadcast substrate. Three mechanisms make
10^4+ concurrent *real* sessions affordable:

* **Event-driven arrivals** — each arrival is one kernel callback that
  issues the op and re-arms itself at the site's next arrival, so the
  driver costs O(arrivals) and simulated time jumps straight from one
  arrival to the next, however sparse the load.

* **Flyweight sessions** — one :class:`FleetStation` per site owns a
  single physical inbox shared by all of the site's sessions through
  :meth:`~repro.net.transport.Network.register_alias`. Every session
  still has its own :class:`~repro.net.topology.NodeAddress` (servers
  key connect-dedup, watches, and expiry notices by client address) and
  is a real ``Session`` object server-side, but client-side state is
  array columns indexed by the reply envelope's destination alias: no
  per-session coroutines, no per-session inbox stores, no heartbeater
  generators. Session timeouts are set far past the run horizon, so
  liveness costs nothing while the server's expiry watermark keeps the
  ticker O(1).

* **Allocation-free messaging** — read and write ops are immutable
  records precomputed once per key and shared by every request that
  touches the key; ``OpRequest`` shells are recycled through a per-site
  freelist when their reply arrives (safe: the server never retains the
  request object past the handler that answers or enqueues it — reads
  drop it after replying, writes copy its fields into the ``Txn``). The
  per-op kind/latency bookkeeping lives in an int-keyed dict with the
  sign bit of the issue timestamp encoding read-vs-write, so the steady
  state allocates nothing but the envelopes themselves. ``recycle
  _messages=False`` rebuilds every record per op for before/after
  profiling; payloads are bit-identical either way.

Determinism: all stochastic choices draw from per-site named
``seeded_rng`` streams consumed in arrival order, and no unordered
collection is ever iterated. Payloads are pure functions of the spec
(``recycle_messages`` excluded), bit-identical across PYTHONHASHSEED
values and executors.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional

from repro.fleet.arrivals import ArrivalSource
from repro.fleet.topology import build_fleet_topology, fleet_sites
from repro.net.topology import NodeAddress
from repro.net.transport import Network
from repro.sim.kernel import Environment, SimulationError
from repro.sim.rng import seeded_rng
from repro.workloads.stats import LatencyRecorder
from repro.zk.ops import GetDataOp, SetDataOp
from repro.zk.protocol import ConnectReply, ConnectRequest, OpRequest, OpReply

__all__ = ["FleetFullSpec", "FleetStation", "run_fleet_full"]

#: Per-session cxid space inside the int-keyed inflight table
#: (key = session_index * _CXID_SPAN + cxid). A session would need to
#: issue two million ops in one run to overflow.
_CXID_SPAN = 1 << 21


@dataclass
class FleetFullSpec:
    """Parameters of one full-stack fleet cell (all JSON scalars)."""

    n_sites: int = 8
    sessions_per_site: int = 1250
    duration_ms: float = 15000.0
    #: Rounds the arrival window up to a whole number of ticks; arrivals
    #: themselves are continuous-time.
    tick_ms: float = 10.0
    #: Offered load per site at load_multiplier 1.0 and diurnal peak 1.0.
    site_ops_per_sec: float = 40.0
    load_multiplier: float = 1.0
    arrival: str = "poisson"  # "poisson" | "deterministic"
    write_fraction: float = 0.2
    keys_per_site: int = 16
    hotspot_fraction: float = 0.15
    diurnal_amplitude: float = 0.6
    diurnal_period_ms: float = 20000.0  # one simulated "day"
    #: Which real system serves the ops: "wankeeper" (one ensemble per
    #: site, hub at hub_index) or "zk" (observers under zab; one voter
    #: per site under wpaxos, its natural multileader shape).
    system: str = "wankeeper"
    substrate: str = "zab"  # "zab" | "wpaxos"
    hub_index: int = 0
    voters_per_site: int = 1  # wankeeper ensembles (zk uses 3 at the hub)
    #: Far past the horizon: sessions are real server-side objects but
    #: never heartbeat, so the expiry watermark keeps tickers O(1).
    session_timeout_ms: float = 3_600_000.0
    connect_window_ms: float = 500.0
    settle_ms: float = 500.0
    drain_ms: float = 2000.0
    payload_bytes: int = 16
    recycle_messages: bool = True
    reservoir_size: int = 1024
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValueError("n_sites must be >= 2")
        if self.sessions_per_site < 1:
            raise ValueError("sessions_per_site must be positive")
        if self.arrival not in ("poisson", "deterministic"):
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        if self.system not in ("wankeeper", "zk"):
            raise ValueError(f"unknown system {self.system!r}")
        if self.substrate not in ("zab", "wpaxos"):
            raise ValueError(f"unknown substrate {self.substrate!r}")
        if self.system == "wankeeper" and self.substrate != "zab":
            # WanKeeper requires a single-leader substrate (its site
            # ensembles relay through an elected leader); wpaxos pairs
            # with the flat ZK deployment instead.
            raise ValueError("wankeeper runs on the zab substrate only")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1]")
        if self.site_ops_per_sec * self.load_multiplier <= 0:
            raise ValueError("offered load must be positive")
        if self.keys_per_site < 1:
            raise ValueError("keys_per_site must be positive")
        if not 0 <= self.hub_index < self.n_sites:
            raise ValueError("hub_index out of range")
        if self.tick_ms <= 0 or self.duration_ms <= 0:
            raise ValueError("durations must be positive")

    @property
    def total_sessions(self) -> int:
        return self.n_sites * self.sessions_per_site

    def as_params(self) -> Dict[str, Any]:
        """Flat kwargs dict (for Scenario specs)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FleetStation:
    """Flyweight client layer for one site's sessions.

    All sessions share one inbox store and one consumer; per-session
    state is three array columns plus the shared inflight table. Replies
    are routed back to their session by the envelope's destination
    alias, so no session-id reverse map is needed.
    """

    __slots__ = (
        "env", "net", "spec", "site_index", "server_addr", "recorder",
        "addr", "inbox", "aliases", "_idx_of", "session_ids", "cxids",
        "connected", "ops_issued", "ops_completed", "ops_failed",
        "not_connected_drops", "unexpected_messages", "inflight",
        "_inflight_reqs", "_req_free", "_read_ops", "_write_ops",
        "_key_paths", "_write_data", "_recycle", "_connect_batch_cb",
    )

    #: Sessions per connect batch; batches spread over connect_window_ms.
    CONNECT_BATCH = 64

    def __init__(
        self,
        env: Environment,
        net: Network,
        spec: FleetFullSpec,
        site_index: int,
        site_name: str,
        server_addr: NodeAddress,
        read_ops: List[GetDataOp],
        write_ops: List[SetDataOp],
        key_paths: List[str],
    ):
        self.env = env
        self.net = net
        self.spec = spec
        self.site_index = site_index
        self.server_addr = server_addr
        self.recorder = LatencyRecorder(
            site_name, mode="sketch", reservoir_size=spec.reservoir_size
        )
        per_site = spec.sessions_per_site
        # One physical inbox; every session is an alias onto it. The
        # aliases bypass Site.address (whose membership list is O(n) per
        # registration) — nothing routes by site membership.
        self.addr = NodeAddress(site_name, "fleet-station")
        self.inbox = net.register(self.addr)
        self.inbox.consume(self._on_envelope)
        self.aliases = [
            NodeAddress(site_name, f"fs{k}") for k in range(per_site)
        ]
        register_alias = net.register_alias
        inbox = self.inbox
        for alias in self.aliases:
            register_alias(alias, inbox)
        # Lookups only (never iterated): hash-seed safe.
        self._idx_of = {alias: k for k, alias in enumerate(self.aliases)}
        self.session_ids: List[Optional[str]] = [None] * per_site
        self.cxids = array("I", bytes(4 * per_site))
        self.connected = 0
        self.ops_issued = 0
        self.ops_completed = 0
        self.ops_failed = 0
        self.not_connected_drops = 0
        self.unexpected_messages = 0
        #: key -> issue time; negative timestamps mark writes, so the
        #: steady state allocates no per-op tuples.
        self.inflight: Dict[int, float] = {}
        self._inflight_reqs: Dict[int, OpRequest] = {}
        self._req_free: List[OpRequest] = []
        self._read_ops = read_ops
        self._write_ops = write_ops
        self._key_paths = key_paths
        self._write_data = b"w" * spec.payload_bytes
        self._recycle = spec.recycle_messages
        self._connect_batch_cb = self._connect_batch

    # -- connect phase -------------------------------------------------------

    def connect_from(self, t_start: float) -> None:
        """Schedule all sessions' ConnectRequests over the connect window."""
        per_site = self.spec.sessions_per_site
        batch = self.CONNECT_BATCH
        n_batches = (per_site + batch - 1) // batch
        spacing = self.spec.connect_window_ms / n_batches
        call_at = self.env.call_at
        for b in range(n_batches):
            call_at(t_start + b * spacing, self._connect_batch_cb, b * batch)

    def _connect_batch(self, start: int) -> None:
        spec = self.spec
        end = min(start + self.CONNECT_BATCH, spec.sessions_per_site)
        send = self.net.send
        server = self.server_addr
        timeout = spec.session_timeout_ms
        aliases = self.aliases
        for k in range(start, end):
            alias = aliases[k]
            send(alias, server, ConnectRequest(alias, timeout))

    # -- op issue (called by the fleet driver at each arrival instant) -------

    def issue(self, sess: int, key_index: int, is_write: bool) -> None:
        session_id = self.session_ids[sess]
        if session_id is None:
            self.not_connected_drops += 1
            return
        cxid = self.cxids[sess] + 1
        self.cxids[sess] = cxid
        recycle = self._recycle
        if recycle:
            op = (
                self._write_ops[key_index]
                if is_write
                else self._read_ops[key_index]
            )
            free = self._req_free
            if free:
                req = free.pop()
                req.session_id = session_id
                req.cxid = cxid
                req.op = op
            else:
                req = OpRequest(session_id, cxid, op)
        else:
            # Unoptimized comparison path: fresh records per op, exactly
            # what a naive per-session client would allocate.
            path = self._key_paths[key_index]
            op = (
                SetDataOp(path, self._write_data)
                if is_write
                else GetDataOp(path)
            )
            req = OpRequest(session_id, cxid, op)
        key = sess * _CXID_SPAN + cxid
        now = self.env._now
        self.inflight[key] = -now if is_write else now
        if recycle:
            self._inflight_reqs[key] = req
        self.ops_issued += 1
        self.net.send(self.aliases[sess], self.server_addr, req)

    # -- replies -------------------------------------------------------------

    def _on_envelope(self, envelope) -> None:
        body = envelope.body
        cls = body.__class__
        if cls is OpReply:
            idx = self._idx_of[envelope.dst]
            key = idx * _CXID_SPAN + body.cxid
            issued = self.inflight.pop(key, None)
            if issued is None:
                self.unexpected_messages += 1
                return
            if self._recycle:
                req = self._inflight_reqs.pop(key, None)
                if req is not None:
                    # The server never retains the request shell past the
                    # handler that answered it: safe to reuse.
                    req.op = None
                    self._req_free.append(req)
            now = self.env._now
            if body.ok:
                self.ops_completed += 1
            else:
                self.ops_failed += 1
            if issued < 0.0:
                self.recorder.record("write", -issued, now + issued, body.ok)
            else:
                self.recorder.record("read", issued, now - issued, body.ok)
        elif cls is ConnectReply:
            idx = self._idx_of[envelope.dst]
            if self.session_ids[idx] is None:
                self.session_ids[idx] = body.session_id
                self.connected += 1
        else:
            # Watch / expiry / heartbeat traffic the stations don't use.
            self.unexpected_messages += 1


class _FleetFullEngine:
    """All run state for one full-stack fleet cell (built fresh per run)."""

    def __init__(self, spec: FleetFullSpec):
        self.spec = spec
        self.sites = fleet_sites(spec.n_sites, spec.seed)
        # The fleet topology defaults to jitter_fraction=0.0: delays are
        # per-pair constants, so fault-free sends draw no RNG and keep no
        # per-pair FIFO entry. (Jitter alone no longer leaves the fast
        # path; it adds one draw and one FIFO entry per send.)
        self.topology = build_fleet_topology(self.sites, seed=spec.seed)
        self.env = Environment()
        self.net = Network(self.env, self.topology)
        self.names = [site.name for site in self.sites]
        self.hub_site = self.names[spec.hub_index]
        self.phase = [site.longitude / 360.0 for site in self.sites]
        self.rngs = [
            seeded_rng(spec.seed, f"fleet-full-site-{i:04d}")
            for i in range(spec.n_sites)
        ]
        self.offered = [0] * spec.n_sites

        # Shared immutable op records, one per key, site-major.
        self.key_paths: List[str] = []
        for name in self.names:
            for j in range(spec.keys_per_site):
                self.key_paths.append(f"/fleet/{name}/k{j:02d}")
        self.read_ops = [GetDataOp(path) for path in self.key_paths]
        write_data = b"w" * spec.payload_bytes
        self.write_ops = [SetDataOp(path, write_data) for path in self.key_paths]

        self.deployment = self._build_deployment()
        self.stations: List[FleetStation] = []
        self._ticks = int(math.ceil(spec.duration_ms / spec.tick_ms))
        self._t0 = 0.0
        self.arrivals = ArrivalSource(
            self.env, spec, self.phase, self._ticks * spec.tick_ms,
            self._arrive,
        )
        #: Starts every site's arrivals at ``_t0`` when called from the
        #: kernel (``env.call_soon(engine._scan_cb, 0)``); ``perfbench``
        #: drives a cell phase by phase through this seam.
        self._scan_cb = self._start_arrivals
        self.bootstrap_ms = 0.0

    def _build_deployment(self):
        spec = self.spec
        if spec.system == "wankeeper":
            from repro.wankeeper.deployment import build_wankeeper_deployment

            # Key tokens start at their home site; structural parents
            # stay at the hub, where the bootstrap client creates them.
            tokens: Dict[str, str] = {"/": self.hub_site, "/fleet": self.hub_site}
            for name in self.names:
                tokens[f"/fleet/{name}"] = self.hub_site
            for index, path in enumerate(self.key_paths):
                tokens[path] = self.names[index // spec.keys_per_site]
            return build_wankeeper_deployment(
                self.env,
                self.net,
                self.topology,
                sites=self.names,
                l2_site=self.hub_site,
                voters_per_site=spec.voters_per_site,
                initial_tokens=tokens,
                substrate=spec.substrate,
            )
        from repro.zk.deployment import build_zk_deployment

        if spec.substrate == "wpaxos":
            # WPaxos's natural shape: one proposing voter per site.
            return build_zk_deployment(
                self.env,
                self.net,
                self.topology,
                leader_site=self.hub_site,
                voting_sites=self.names,
                substrate="wpaxos",
            )
        return build_zk_deployment(
            self.env,
            self.net,
            self.topology,
            leader_site=self.hub_site,
            voters_in_leader_site=3,
            observer_sites=[n for n in self.names if n != self.hub_site],
            substrate="zab",
        )

    # -- arrivals ------------------------------------------------------------

    def _start_arrivals(self, _arg: Any = None) -> None:
        # ``rngs`` is read here and ``stations`` at each arrival, not at
        # construction: a caller may replace or fill them in between.
        self.arrivals.start(self._t0, self.rngs)

    def _arrive(self, site: int, rel: float, rng) -> None:
        """One arrival at ``site``: pick its session, key and kind, and
        issue it. The hotspot is the site whose keys the rotating window
        covers at this instant."""
        spec = self.spec
        keys_per_site = spec.keys_per_site
        self.offered[site] += 1
        sess = rng.randrange(spec.sessions_per_site)
        if rng.random() < spec.hotspot_fraction:
            n_sites = spec.n_sites
            hot = int(rel / spec.diurnal_period_ms % 1.0 * n_sites) % n_sites
            key_index = hot * keys_per_site + rng.randrange(keys_per_site)
        else:
            key_index = site * keys_per_site + rng.randrange(keys_per_site)
        is_write = rng.random() < spec.write_fraction
        self.stations[site].issue(sess, key_index, is_write)

    # -- run -----------------------------------------------------------------

    def _bootstrap(self):
        """Create the key tree through one real client at the hub."""
        client = self.deployment.client(
            self.hub_site,
            name="fleet-bootstrap",
            session_timeout_ms=self.spec.session_timeout_ms,
        )
        yield client.connect()
        yield client.create("/fleet", b"")
        for name in self.names:
            yield client.create(f"/fleet/{name}", b"")
        for path in self.key_paths:
            yield client.create(path, b"")

    def run(self) -> Dict[str, Any]:
        spec = self.spec
        env = self.env
        self.deployment.start()
        self.deployment.stabilize()
        boot_start = env.now
        env.run(until=env.process(self._bootstrap(), name="fleet-bootstrap"))
        self.bootstrap_ms = env.now - boot_start
        # Quantize the connect phase start so every later phase boundary
        # is a pure function of the spec.
        t_connect = 50.0 * math.ceil(env.now / 50.0)
        if t_connect > env.now:
            env.run(until=t_connect)
        for i in range(spec.n_sites):
            station = FleetStation(
                env, self.net, spec, i, self.names[i],
                self.deployment.server_at(self.names[i]).client_addr,
                self.read_ops, self.write_ops, self.key_paths,
            )
            self.stations.append(station)
            station.connect_from(t_connect)
        env.run(until=t_connect + spec.connect_window_ms + spec.settle_ms)
        connected = sum(station.connected for station in self.stations)
        if connected < spec.total_sessions:
            raise SimulationError(
                f"only {connected}/{spec.total_sessions} sessions connected"
            )
        self._t0 = env.now
        env.call_soon(self._scan_cb, 0)
        env.run(until=self._t0 + self._ticks * spec.tick_ms + spec.drain_ms)
        return self.payload()

    # -- result payload ------------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        spec = self.spec
        duration_s = self._ticks * spec.tick_ms / 1000.0
        offered = sum(self.offered)
        issued = sum(station.ops_issued for station in self.stations)
        completed = sum(station.ops_completed for station in self.stations)
        failed = sum(station.ops_failed for station in self.stations)
        merged = self.stations[0].recorder
        for station in self.stations[1:]:
            merged = merged.merged(station.recorder)

        def maybe(fn, *args):
            try:
                return fn(*args)
            except ValueError:
                return None

        servers = self.deployment.servers
        tokens_granted = sum(
            getattr(server, "tokens_granted", 0) for server in servers
        )
        per_site_completed = {
            self.names[i]: self.stations[i].ops_completed
            for i in range(spec.n_sites)
        }
        return {
            "system": spec.system,
            "substrate": spec.substrate,
            "n_sites": spec.n_sites,
            "sessions": sum(st.connected for st in self.stations),
            "offered_ops": offered,
            "issued_ops": issued,
            "completed_ops": completed,
            "failed_ops": failed,
            "in_flight_at_horizon": issued - completed - failed,
            "offered_ops_per_sec": round(offered / duration_s, 3),
            "throughput_ops_per_sec": round(completed / duration_s, 3),
            "reads_served": sum(s.reads_served for s in servers),
            "writes_accepted": sum(s.writes_accepted for s in servers),
            "commits_applied": sum(s.commits_applied for s in servers),
            "token_migrations": tokens_granted,
            "messages_sent": self.net.messages_sent,
            "bootstrap_ms": round(self.bootstrap_ms, 3),
            "read_p50_ms": maybe(merged.percentile_latency, 50, "read"),
            "read_p99_ms": maybe(merged.percentile_latency, 99, "read"),
            "write_p50_ms": maybe(merged.percentile_latency, 50, "write"),
            "write_p99_ms": maybe(merged.percentile_latency, 99, "write"),
            "write_mean_ms": maybe(merged.mean_latency, "write"),
            "unexpected_messages": sum(
                st.unexpected_messages for st in self.stations
            ),
            "not_connected_drops": sum(
                st.not_connected_drops for st in self.stations
            ),
            "per_site_completed": per_site_completed,
        }


def run_fleet_full(spec: FleetFullSpec) -> Dict[str, Any]:
    """Run one full-stack fleet cell to completion and return its payload."""
    return _FleetFullEngine(spec).run()
