"""The transport microbench reports a jitter-free and a jittered leg."""

import json

from repro.bench import _format_suite, _write_payload, bench_transport


def test_transport_bench_runs_both_legs_with_one_message_count():
    result = bench_transport(quick=True)
    jittered = result["jittered"]
    assert result["messages"] == 10000
    # Same stream, same kernel work: only the per-send path differs.
    assert jittered["events"] == result["events"]
    assert result["msgs_per_sec"] > 0 and jittered["msgs_per_sec"] > 0


def test_history_point_records_both_transport_rates(tmp_path):
    transport = {
        "messages": 10,
        "msgs_per_sec": 200.0,
        "events": 20,
        "events_per_sec": 400.0,
        "jittered": {"msgs_per_sec": 150.0, "events_per_sec": 300.0},
    }
    results = {
        "quick": True,
        "calibration_events_per_sec": 1.0,
        "kernel": {"events": 1, "events_per_sec": 1.0},
        "transport": transport,
        "ycsb": {"events": 1, "events_per_sec": 1.0, "ops_per_wall_sec": 1.0},
    }
    out = tmp_path / "BENCH_kernel.json"
    _write_payload(str(out), {}, results, "bench_kernel/v1",
                   ("kernel", "transport", "ycsb"), "events_per_sec", None)
    point = json.loads(out.read_text())["history"][-1]
    assert point["transport_msgs_per_sec"] == {
        "jitter_free": 200.0, "jittered": 150.0,
    }
    assert "200 msgs/s (150 jittered)" in _format_suite(results)
