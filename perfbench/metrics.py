"""Metric extraction: from episodes and spans to named numbers.

Everything here is a pure function of its arguments, so the self-tests
can pin it on hand-made inputs.
"""

from __future__ import annotations

import math
from statistics import median
from typing import Dict, List, Sequence, Tuple

from spans import LAYERS

#: Each end-to-end metric: (name, unit, clock). ``host`` is what the
#: simulator costs to run; ``sim`` is what the modelled deployment shows.
END_TO_END = (
    ("ops_per_cpu_s", "1/s", "host"),
    ("setup_s", "s", "host"),
    ("peak_mb", "MB", "host"),
    ("write_p50_ms", "ms", "sim"),
    ("write_p99_ms", "ms", "sim"),
    ("read_p50_ms", "ms", "sim"),
    ("read_p99_ms", "ms", "sim"),
    ("sim_ops_per_s", "1/s", "sim"),
    ("completed_op_ratio", "ratio", "sim"),
)

#: Per-layer metrics of a traced run: (name, unit).
PER_LAYER = tuple(
    (f"{layer}.self_s", "s") for layer in LAYERS
) + (
    ("sim.events_per_op", "count/op"),
    ("fleet.calls_per_arrival", "count"),
    ("fleet.arrivals", "count"),
    ("net.msgs_per_op", "count/op"),
    ("net.wan_msgs_per_op", "count/op"),
    ("net.bytes_per_op", "B/op"),
    ("net.drops_per_op", "count/op"),
    ("zab.commits_per_write", "count"),
    ("zab.elections", "count"),
    ("zab.retransmits", "count"),
    ("wpaxos.steal_win_ratio", "ratio"),
    ("wpaxos.steals_rejected", "count"),
    ("wpaxos.retransmits", "count"),
    ("zk.calls_per_op", "count/op"),
    ("zk.commits_per_write", "count"),
    ("zk.replies_from_cache", "count"),
    ("zk.client_retries_per_op", "count/op"),
    ("wankeeper.local_commit_ratio", "ratio"),
    ("wankeeper.token_migrations", "count"),
    ("wankeeper.tokens_recalled", "count"),
    ("trace.overhead", "ratio"),
)

#: Samples a percentile needs beyond it before it is reported as supported.
MIN_BEYOND = 10

#: Latency percentiles: metric -> (sample-count key of sim_metrics, p).
PERCENTILES = {
    "write_p50_ms": ("writes", 50.0),
    "write_p99_ms": ("writes", 99.0),
    "read_p50_ms": ("reads", 50.0),
    "read_p99_ms": ("reads", 99.0),
}


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The smallest sample with at least ``p`` percent of samples at or
    below it. ``values`` must be sorted and non-empty."""
    return values[max(0, math.ceil(p / 100.0 * len(values)) - 1)]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the ``p``-th nearest rank."""
    return n - max(1, math.ceil(p / 100.0 * n)) if n else 0


def unavailable_ms(ops, horizon_ms: float) -> float:
    """The longest stretch during which one site had ops due and completed
    none. A stretch ends at the site's next successful completion, or when
    nothing is due any more; ops never answered keep it open until the
    horizon. On a fault-free run this is about the slowest op at a site.
    """
    by_site: Dict[int, List[Tuple[float, int]]] = {}
    for site, _is_write, due, end, ok in ops:
        events = by_site.setdefault(site, [])
        events.append((due, 2))
        if end is not None:
            events.append((end, 0 if ok else 1))
    worst = 0.0
    for events in by_site.values():
        # At one instant: completions (0), then failures (1), then arrivals.
        events.sort()
        due = 0
        since = 0.0
        for t, kind in events:
            if kind == 2:
                if due == 0:
                    since = t
                due += 1
            elif kind == 0:
                worst = max(worst, t - since)
                due -= 1
                since = t
            else:
                due -= 1
                if due == 0:
                    worst = max(worst, t - since)
        if due > 0:
            worst = max(worst, horizon_ms - since)
    return worst


def sim_metrics(ops, window_ms: float, horizon_ms: float) -> Dict[str, float]:
    """Simulated-clock results of one episode, with their sample counts."""
    return pooled_sim_metrics([(ops, window_ms, horizon_ms)])


def pooled_sim_metrics(parts) -> Dict[str, float]:
    """Simulated-clock results of several episodes, each given as
    ``(ops, window_ms, horizon_ms)``: latencies pooled, counts and windows
    summed, ``unavailable_ms`` the longest of any one episode."""
    writes: List[float] = []
    reads: List[float] = []
    issued = unanswered = 0
    window_ms = worst = 0.0
    for ops, window, horizon in parts:
        writes += [end - due for _s, w, due, end, ok in ops if ok and w]
        reads += [end - due for _s, w, due, end, ok in ops if ok and not w]
        issued += len(ops)
        unanswered += sum(1 for op in ops if op[3] is None)
        window_ms += window
        worst = max(worst, unavailable_ms(ops, horizon))
    writes.sort()
    reads.sort()
    completed = len(writes) + len(reads)
    out: Dict[str, float] = {
        "issued": issued,
        "completed": completed,
        "writes": len(writes),
        "reads": len(reads),
        "failed": issued - completed - unanswered,
        "unanswered": unanswered,
        "sim_ops_per_s": completed / (window_ms / 1000.0),
        "completed_op_ratio": completed / issued if issued else 0.0,
        "failed_op_ratio": (issued - completed) / issued if issued else 0.0,
        "unavailable_ms": worst,
    }
    for name, (samples, p) in PERCENTILES.items():
        values = writes if samples == "writes" else reads
        out[name] = nearest_rank(values, p) if values else float("nan")
    return out


def end_to_end(
    reference: Dict[str, float],
    timed: Sequence[Tuple[float, float, int]],
    peak_bytes: float,
) -> Dict[str, float]:
    """The end-to-end metrics: sim figures from the (deterministic)
    reference episodes, host figures from ``timed`` (setup CPU seconds,
    measured CPU seconds, completed ops) rows, CPU in reference-speed
    seconds (see ``refclock``).

    ``ops_per_cpu_s`` is every repetition's ops over all their measured
    CPU: with the host's speed changes taken out by the clock, the
    pooled ratio spreads a little less from run to run than the median
    of the repetitions.
    """
    out = {
        "ops_per_cpu_s": (
            sum(ops for _s, _r, ops in timed) / sum(r for _s, r, _o in timed)
        ),
        "setup_s": median(setup for setup, _run, _ops in timed),
        "peak_mb": peak_bytes / 1e6,
    }
    for name, _unit, clock in END_TO_END:
        if clock == "sim":
            out[name] = reference[name]
    return out


def per_layer(
    counters: Dict[str, int],
    sim: Dict[str, float],
    layer_self_s: Dict[str, float],
    layer_spans: Dict[str, int],
    wan_messages: int,
    overhead: float,
) -> Dict[str, float]:
    """The per-layer metrics of a traced run."""
    ops = sim["completed"] or 1
    writes = sim["writes"] or 1
    c = counters.get
    fleet_arrivals = c("fleet.arrivals", 0)
    out = {f"{layer}.self_s": layer_self_s.get(layer, 0.0) for layer in LAYERS}
    steals = c("wpaxos.steals_started", 0)
    local = c("wankeeper.local_commits", 0)
    remote = c("wankeeper.remote_commits", 0)
    out.update({
        "sim.events_per_op": c("sim.events", 0) / ops,
        "fleet.calls_per_arrival": (
            layer_spans.get("fleet", 0) / fleet_arrivals
            if fleet_arrivals else 0.0
        ),
        "fleet.arrivals": fleet_arrivals,
        "net.msgs_per_op": c("net.messages", 0) / ops,
        "net.wan_msgs_per_op": wan_messages / ops,
        "net.bytes_per_op": c("net.bytes", 0) / ops,
        "net.drops_per_op": c("net.drops", 0) / ops,
        "zab.commits_per_write": c("zab.commits", 0) / writes,
        "zab.elections": c("zab.elections", 0),
        "zab.retransmits": c("zab.retransmits", 0),
        "wpaxos.steal_win_ratio": (
            c("wpaxos.steals_won", 0) / steals if steals else 0.0
        ),
        "wpaxos.steals_rejected": c("wpaxos.steals_rejected", 0),
        "wpaxos.retransmits": c("wpaxos.retransmits", 0),
        "zk.calls_per_op": layer_spans.get("zk", 0) / ops,
        "zk.commits_per_write": c("zk.commits_applied", 0) / writes,
        "zk.replies_from_cache": c("zk.replies_from_cache", 0),
        "zk.client_retries_per_op": c("zk.client_retries", 0) / ops,
        "wankeeper.local_commit_ratio": (
            local / (local + remote) if local + remote else 0.0
        ),
        "wankeeper.token_migrations": c("wankeeper.tokens_granted", 0),
        "wankeeper.tokens_recalled": c("wankeeper.tokens_recalled", 0),
        "trace.overhead": overhead,
    })
    return out


def mismatches(
    expected: Dict[str, float], actual: Dict[str, float]
) -> List[str]:
    """Keys whose values differ (NaN equals NaN): the bit-invisibility and
    determinism gate."""
    out = []
    for key in sorted(set(expected) | set(actual)):
        a, b = expected.get(key), actual.get(key)
        same = a == b or (
            isinstance(a, float) and isinstance(b, float)
            and math.isnan(a) and math.isnan(b)
        )
        if not same:
            out.append(f"{key}: {a!r} != {b!r}")
    return out

