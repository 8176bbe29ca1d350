"""Full-stack fleet cells: determinism, message recycling, liveness on
every stack, flyweight sessions, and the kernel/session primitives they
lean on. The arrival source itself is tested in test_fleet_arrivals.py."""

import hashlib
import json

import pytest

from repro.fleet import FleetFullSpec, run_fleet_full
from repro.sim.kernel import Environment, SimulationError
from repro.zk.sessions import SessionTracker

# Small cell used by most tests: three sites, real WanKeeper stack,
# diurnal modulation on, so arrivals are thinned.
_SMALL = dict(
    n_sites=3,
    sessions_per_site=16,
    duration_ms=2000.0,
    site_ops_per_sec=30.0,
    keys_per_site=4,
    seed=7,
)

# Contended hotspot on ZK/WPaxos: half of all ops, half of them writes,
# go to the keys of whichever site the rotating hotspot covers, so
# voters at eight sites keep stealing the same objects from each other.
_CONTENDED = dict(
    n_sites=8,
    sessions_per_site=16,
    duration_ms=4000.0,
    site_ops_per_sec=30.0,
    keys_per_site=4,
    hotspot_fraction=0.5,
    write_fraction=0.5,
    system="zk",
    substrate="wpaxos",
)


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _run(base, **overrides):
    return run_fleet_full(FleetFullSpec(**{**base, **overrides}))


# -- determinism ---------------------------------------------------------------


def test_repeat_runs_bit_identical():
    assert _canon(_run(_SMALL)) == _canon(_run(_SMALL))


def test_recycled_messages_match_fresh_allocations():
    assert _canon(_run(_SMALL, recycle_messages=True)) == _canon(
        _run(_SMALL, recycle_messages=False)
    )


def test_seed_changes_payload():
    assert _canon(_run(_SMALL)) != _canon(_run(_SMALL, seed=8))


def test_golden_digest_pinned():
    """The small cell's payload is a pure function of the spec: any
    change to arrival draws, scheduling order, message routing, or the
    protocol stack shows up here. Update deliberately, never to make
    CI pass."""
    digest = hashlib.sha256(_canon(_run(_SMALL)).encode()).hexdigest()
    assert digest == (
        "6ae7a037ec4d197012a72cdba8cf3503dcef9b0352d9adea273079cd5a365696"
    )


# -- cells across systems and substrates --------------------------------------


def test_zk_zab_cell_completes_ops():
    payload = _run(_SMALL, system="zk", substrate="zab")
    assert payload["system"] == "zk"
    assert payload["completed_ops"] > 0
    assert payload["failed_ops"] == 0


def test_zk_wpaxos_cell_completes_ops():
    for seed in (1, 2, 3, 7):
        payload = _run(_SMALL, system="zk", substrate="wpaxos", seed=seed)
        assert payload["substrate"] == "wpaxos"
        assert payload["completed_ops"] > 0
        assert payload["failed_ops"] == 0
        assert payload["in_flight_at_horizon"] == 0, seed


@pytest.mark.parametrize("seed", [1, 2])
def test_zk_wpaxos_contended_hotspot_drains(seed):
    """Under the rotating hotspot every write still commits before the
    horizon: competing stealers yield to the higher bid instead of
    pre-empting each other (hundreds of writes stayed unanswered when
    each stealer rebid on rejection)."""
    payload = _run(_CONTENDED, seed=seed)
    assert payload["issued_ops"] > 1000
    assert payload["failed_ops"] == 0
    assert payload["in_flight_at_horizon"] == 0


def test_wankeeper_requires_zab():
    with pytest.raises(ValueError):
        FleetFullSpec(**{**_SMALL, "system": "wankeeper", "substrate": "wpaxos"})


def test_all_sessions_connect_and_ops_flow():
    payload = _run(_SMALL)
    spec = FleetFullSpec(**_SMALL)
    assert payload["sessions"] == spec.total_sessions
    assert payload["not_connected_drops"] == 0
    assert payload["unexpected_messages"] == 0
    assert payload["completed_ops"] > 0
    assert (
        payload["completed_ops"] + payload["failed_ops"]
        + payload["in_flight_at_horizon"] == payload["issued_ops"]
    )
    # WanKeeper migrates key tokens toward the rotating hotspot.
    assert payload["token_migrations"] > 0


def test_payload_is_json_plain_and_excludes_perf_toggles():
    payload = _run(_SMALL)
    assert json.loads(_canon(payload)) == json.loads(_canon(payload))
    assert "fast_forward" not in payload
    assert "recycle_messages" not in payload


# -- kernel: call_at ----------------------------------------------------------


def test_call_at_orders_by_time_then_fifo():
    env = Environment()
    log = []
    env.call_at(5.0, log.append, "b")
    env.call_at(2.0, log.append, "a")
    env.call_at(5.0, log.append, "c")
    env.run()
    assert log == ["a", "b", "c"]
    assert env.now == 5.0


def test_call_at_current_instant_runs_before_later_events():
    env = Environment()
    log = []

    def now_cb(_):
        env.call_at(env.now, log.append, "same-instant")

    env.call_at(1.0, now_cb, None)
    env.call_at(1.0, log.append, "later-seq")
    env.run()
    # The same-instant call_at lands in the current batch, after the
    # already-queued same-time event — identical to call_soon ordering.
    assert log == ["later-seq", "same-instant"]


def test_call_at_rejects_past_times():
    env = Environment()
    env.call_at(3.0, lambda _arg: None)
    env.run()
    with pytest.raises(SimulationError):
        env.call_at(1.0, lambda _arg: None)


# -- session tracker: watermark, client index, live snapshot ------------------


def test_expiry_watermark_skips_scan_until_first_deadline():
    tracker = SessionTracker("s")
    tracker.create("c1", timeout_ms=100.0, now=0.0)
    tracker.create("c2", timeout_ms=500.0, now=0.0)
    assert tracker.expired_sessions(50.0) == []
    assert tracker.expired_sessions(100.0) == []  # inclusive bound holds
    due = tracker.expired_sessions(150.0)
    assert [s.client for s in due] == ["c1"]
    # Unmarked overdue sessions are re-reported on every later call.
    assert [s.client for s in tracker.expired_sessions(160.0)] == ["c1"]
    tracker.mark_expired(due[0].session_id)
    assert tracker.expired_sessions(400.0) == []
    assert [s.client for s in tracker.expired_sessions(501.0)] == ["c2"]


def test_watermark_tracks_touch_and_new_sessions():
    tracker = SessionTracker("s")
    first = tracker.create("c1", timeout_ms=100.0, now=0.0)
    # A scan re-tightens the bound; touching afterwards moves the real
    # deadline later and the next scans must still respect it.
    assert tracker.expired_sessions(90.0) == []
    tracker.touch(first.session_id, 90.0)
    assert tracker.expired_sessions(150.0) == []
    assert [s.session_id for s in tracker.expired_sessions(191.0)] == [
        first.session_id
    ]


def test_find_by_client_uses_index_and_falls_back():
    tracker = SessionTracker("s")
    assert tracker.find_by_client("nobody") is None
    first = tracker.create("c1", timeout_ms=100.0, now=0.0)
    second = tracker.create("c1", timeout_ms=100.0, now=1.0)
    assert tracker.find_by_client("c1") is second
    # Indexed (newest) session dies: the creation-order fallback must
    # still surface the older live session.
    tracker.mark_expired(second.session_id)
    assert tracker.find_by_client("c1") is first
    tracker.mark_expired(first.session_id)
    assert tracker.find_by_client("c1") is None


def test_live_ids_snapshot_tracks_membership():
    tracker = SessionTracker("s")
    a = tracker.create("c1", timeout_ms=100.0, now=0.0)
    b = tracker.create("c2", timeout_ms=100.0, now=0.0)
    snap = tracker.live_ids_snapshot()
    assert snap == tuple(tracker.live_session_ids())
    assert tracker.live_ids_snapshot() is snap  # cached between changes
    tracker.mark_expired(a.session_id)
    assert tracker.live_ids_snapshot() == (b.session_id,)
    tracker.remove(b.session_id)
    assert tracker.live_ids_snapshot() == ()
    c = tracker.create("c3", timeout_ms=100.0, now=0.0)
    assert tracker.live_ids_snapshot() == (c.session_id,)
