"""Self-tests for the benchmark, at tiny sizes (a few seconds in all).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from metrics import (mismatches, nearest_rank, per_layer,  # noqa: E402
                     samples_beyond, sim_metrics, unavailable_ms)
from spans import (SpanLog, Tracer, layer_of_module, layer_totals,  # noqa: E402
                   name_totals, self_times)

TINY_FLEET = dict(n_sites=2, sessions_per_site=4, duration_ms=400.0,
                  tick_ms=5.0, site_ops_per_sec=50.0, write_fraction=0.5)


def _log(spans):
    """A SpanLog from (name, start, end, parent) rows."""
    log = SpanLog()
    for name, start, end, parent in spans:
        log.name_id.append(log.intern(name))
        log.start.append(start)
        log.end.append(end)
        log.parent.append(parent)
    return log


# -- span math -----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # run [0,100] > send [10,40] > apply [20,30]; run > deliver [50,60]
    assert self_times([0, 10, 20, 50], [100, 40, 30, 60], [-1, 0, 1, 0]) == [
        60, 20, 10, 10,
    ]


def test_layer_totals_leave_the_kernel_remainder_in_sim():
    log = _log([
        ("sim:Environment.run", 0, 100, -1),
        ("net:Network.send", 10, 40, 0),
        ("zk:DataTree.apply", 20, 30, 1),
        ("net:Network._deliver", 50, 60, 0),
    ])
    totals = layer_totals(log)
    assert totals == {"sim": (1, 60), "net": (2, 30), "zk": (1, 10)}
    # Every nanosecond of the root span is charged to exactly one layer.
    assert sum(ns for _n, ns in totals.values()) == 100


def test_layer_totals_between_marks_ignore_other_spans():
    log = _log([
        ("net:Network.send", 0, 5, -1),          # set-up, before the mark
        ("sim:Environment.run", 10, 50, -1),
        ("fleet:FleetStation._issue", 20, 30, 1),
    ])
    log.name_id.append(log.intern("sim:Environment.run"))  # after the end mark
    log.start.append(60)
    log.end.append(70)
    log.parent.append(-1)
    assert layer_totals(log, 1, 3) == {"sim": (1, 30), "fleet": (1, 10)}
    assert name_totals(log, 1, 3)[0] == ("sim:Environment.run", 1, 30)


def test_modules_map_to_layers():
    assert layer_of_module("repro.zab.peer") == "zab"
    assert layer_of_module("repro.sim") == "sim"
    assert layer_of_module("repro.simulation") == "other"
    assert layer_of_module("repro.nemesis") == "nemesis"
    assert layer_of_module("scenarios") == "bench"


def test_tracer_spans_callbacks_and_processes_under_run_and_restores():
    from repro.sim import Environment
    from repro.sim.kernel import Environment as KernelEnvironment

    original = KernelEnvironment.__dict__["call_in"]
    seen = []

    def tick(arg):
        seen.append(arg)

    def proc(env):
        yield env.timeout(1.0)
        env.call_in(1.0, tick, "b")

    with Tracer() as tracer:
        env = Environment()
        env.call_in(0.5, tick, "a")
        env.process(proc(env))
        env.run()
    assert KernelEnvironment.__dict__["call_in"] is original
    assert seen == ["a", "b"]
    log = tracer.log
    names = [log.names[nid] for nid in log.name_id]
    assert names.count("sim:Environment.run") == 1
    assert names.count("bench:test_tracer_spans_callbacks_and_processes_"
                       "under_run_and_restores.<locals>.tick") == 2
    run = names.index("sim:Environment.run")
    # Everything the kernel dispatched nests under the run span.
    assert all(log.parent[i] == run for i in range(len(names)) if i != run)


# -- metric extraction -----------------------------------------------------------


def test_nearest_rank_and_support():
    values = list(range(1, 1001))
    assert nearest_rank(values, 50) == 500
    assert nearest_rank(values, 99) == 990
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(100, 99) == 1


def test_unavailable_is_the_longest_stretch_without_a_completion():
    ops = [
        (0, True, 0.0, 10.0, True),
        (0, True, 5.0, 40.0, True),      # due while the first is open
        (1, False, 0.0, 1.0, True),
        (1, False, 100.0, None, False),  # never answered
    ]
    # Site 0: due from 0, completions at 10 and 40 -> longest gap 30.
    # Site 1: one op open from 100 to the horizon at 150 -> 50.
    assert unavailable_ms(ops, 150.0) == 50.0
    assert unavailable_ms(ops[:3], 150.0) == 30.0


def test_a_failure_closes_the_stretch_only_when_nothing_is_due():
    ops = [(0, True, 0.0, 20.0, False), (0, True, 10.0, 50.0, True)]
    assert unavailable_ms(ops, 60.0) == 50.0
    assert unavailable_ms(ops[:1], 60.0) == 20.0


def test_sim_metrics_account_for_every_op():
    ops = [
        (0, True, 0.0, 10.0, True),
        (0, False, 0.0, 1.0, True),
        (1, True, 0.0, 30.0, False),
        (1, True, 5.0, None, False),
    ]
    sim = sim_metrics(ops, window_ms=2000.0, horizon_ms=100.0)
    assert (sim["issued"], sim["completed"], sim["failed"],
            sim["unanswered"]) == (4, 2, 1, 1)
    assert sim["sim_ops_per_s"] == 1.0
    assert sim["completed_op_ratio"] == 0.5
    assert sim["write_p99_ms"] == 10.0
    assert sim["read_p50_ms"] == 1.0
    assert math.isnan(sim_metrics(ops[:1], 1000.0, 10.0)["read_p50_ms"])


def test_pooled_sim_metrics_pool_latencies_and_sum_windows():
    from metrics import pooled_sim_metrics

    a = [(0, True, 0.0, 10.0, True), (0, False, 0.0, None, False)]
    b = [(0, True, 5.0, 7.0, True), (1, False, 1.0, 2.0, True)]
    sim = pooled_sim_metrics([(a, 1000.0, 50.0), (b, 1000.0, 9.0)])
    assert (sim["issued"], sim["completed"], sim["unanswered"]) == (4, 3, 1)
    assert sim["write_p50_ms"] == 2.0 and sim["write_p99_ms"] == 10.0
    assert sim["sim_ops_per_s"] == 1.5
    assert sim["unavailable_ms"] == 40.0  # a: last completion to its horizon


def test_runs_of_a_multi_instance_workload_draw_distinct_seeds():
    from run import _Run
    from scenarios import INSTANCES

    count = INSTANCES["fleet_diurnal"]
    one, two = _Run("fleet_diurnal", 1), _Run("fleet_diurnal", 2)
    assert len(one.seeds) == count and not set(one.seeds) & set(two.seeds)
    assert _Run("wan_faults", 7).seeds == [7]


def test_the_clock_counts_program_cpu_at_the_reference_speed():
    from refclock import RefClock, _calibration_slice

    clock = RefClock()
    clock.start()
    try:
        for _ in range(200):
            _calibration_slice()
        # 200 slices of program work, plus one sample per read.
        first = clock.read()
        for _ in range(200):
            _calibration_slice()
        second = clock.read()
    finally:
        clock.stop()
    from refclock import REF_SLICE_S

    assert 100 * REF_SLICE_S < first < 400 * REF_SLICE_S
    assert 100 * REF_SLICE_S < second - first < 400 * REF_SLICE_S


def test_end_to_end_pools_cpu_and_takes_the_setup_median():
    from metrics import end_to_end

    reference = sim_metrics([(0, True, 0.0, 1.0, True)] * 6, 1000.0, 2.0)
    out = end_to_end(
        reference, [(0.2, 1.0, 6), (0.1, 2.0, 6), (0.9, 3.0, 6)], 5e6
    )
    assert out["ops_per_cpu_s"] == 3.0  # 3 x 6 ops over 6 CPU seconds
    assert out["setup_s"] == 0.2
    assert out["peak_mb"] == 5.0
    assert out["completed_op_ratio"] == 1.0


def test_per_layer_ratios_have_their_bases():
    counters = {"sim.events": 400, "net.messages": 200, "zab.commits": 90,
                "wankeeper.local_commits": 3, "wankeeper.remote_commits": 1}
    sim = {"completed": 20, "writes": 10}
    out = per_layer(counters, sim, {"sim": 0.5}, {"fleet": 0, "zk": 40},
                    wan_messages=50, overhead=1.2)
    assert out["sim.events_per_op"] == 20.0
    assert out["net.wan_msgs_per_op"] == 2.5
    assert out["zab.commits_per_write"] == 9.0
    assert out["wankeeper.local_commit_ratio"] == 0.75
    assert out["fleet.calls_per_arrival"] == 0.0
    fleet = per_layer({"fleet.arrivals": 8}, sim, {}, {"fleet": 24}, 0, 1.0)
    assert fleet["fleet.calls_per_arrival"] == 3.0
    assert fleet["fleet.arrivals"] == 8
    assert out["wpaxos.steal_win_ratio"] == 0.0
    assert out["zk.calls_per_op"] == 2.0
    assert out["sim.self_s"] == 0.5 and out["net.self_s"] == 0.0


# -- the bit-invisibility gate -----------------------------------------------------


def test_mismatches_find_differences_and_treat_nan_as_equal():
    nan = float("nan")
    assert mismatches({"a": 1.0, "b": nan}, {"a": 1.0, "b": nan}) == []
    assert mismatches({"a": 1.0}, {"a": 1.5}) == ["a: 1.0 != 1.5"]
    assert mismatches({"a": 1}, {}) == ["a: 1 != None"]


def test_traced_fleet_episode_matches_untraced_exactly():
    from scenarios import fleet

    plain = fleet(3, lambda: None, TINY_FLEET)
    assert plain.problems == []
    marks = []
    with Tracer() as tracer:
        traced = fleet(3, lambda: marks.append(len(tracer.log)), TINY_FLEET)
    sim = sim_metrics(plain.ops, plain.window_ms, plain.horizon_ms)
    assert sim["issued"] > 0
    assert mismatches(
        sim, sim_metrics(traced.ops, traced.window_ms, traced.horizon_ms)
    ) == []
    assert mismatches(plain.counters, traced.counters) == []
    assert len(marks) == 2
    totals = layer_totals(tracer.log, *marks)
    assert totals["fleet"][0] > 0 and totals["sim"][0] >= 1


def test_the_gate_reports_a_run_that_differs():
    from run import _Run

    run = _Run("fleet_sparse", 1)
    run.refs[1] = (
        sim_metrics([(0, True, 0.0, 1.0, True)], 1000.0, 2.0),
        {"net.messages": 5},
    )

    class Fake:
        ops = [(0, True, 0.0, 2.0, True)]
        window_ms = 1000.0
        horizon_ms = 2.0
        counters = {"net.messages": 5}

    run.agree(Fake, 1, "traced run")
    assert len(run.problems) == 1
    assert run.problems[0].startswith("traced run differs: ")


def test_benchmark_json_names_what_the_runner_reports():
    import json

    from metrics import END_TO_END, PER_LAYER
    from scenarios import WORKLOADS

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [m[1] for m in END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [m[1] for m in PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
