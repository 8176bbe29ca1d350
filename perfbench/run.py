"""Run benchmark workloads and print their metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_ycsb --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run. Every run first replays the
workload's first episode with the invariant sentinel on, and applies the
output checks to the first run of each episode; any violation, and any
simulated result that differs between two runs of one episode (traced or
not), makes the command fail. After each workload's
metrics it prints one JSON line with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``all`` runs every workload in this process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import tracemalloc
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from metrics import (END_TO_END, MIN_BEYOND, PER_LAYER, PERCENTILES,
                     end_to_end, mismatches, per_layer, pooled_sim_metrics,
                     samples_beyond, sim_metrics)
from refclock import CLOCK
from spans import LAYERS, Tracer, layer_totals, name_totals

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Fewest timed episodes (or traced/untraced pairs) a run reports.
MIN_EPISODES = 3


def _noop() -> None:
    pass


class _Run:
    """Episodes of one workload and seed, and what they must agree on.

    A workload with several instances (``scenarios.INSTANCES``) draws
    that many episodes' inputs from the seed and cycles its repetitions
    through them; its sim figures pool all of them.
    """

    def __init__(self, workload: str, seed: int):
        from scenarios import INSTANCES, WORKLOADS

        self.workload = workload
        self.seed = seed
        count = INSTANCES.get(workload, 1)
        #: The episode seeds this run's inputs come from.
        self.seeds = [seed * count + i for i in range(count)]
        self._fn = WORKLOADS[workload]
        self.problems: List[str] = []
        #: Per episode seed: its sim results and layer counters.
        self.refs: Dict[int, Tuple[Dict[str, float], Dict[str, int]]] = {}
        self._parts: Dict[int, tuple] = {}
        #: Wall seconds the checking episode took.
        self.episode_s = 0.0

    @property
    def reference(self) -> Dict[str, float]:
        """Sim results pooled over the episodes run so far."""
        parts = [self._parts[seed] for seed in self.seeds if seed in self._parts]
        return pooled_sim_metrics(parts) if parts else {}

    def episode(self, seed: int, mark: Callable[[], None] = _noop):
        gc.collect()
        try:
            return self._fn(seed, mark)
        finally:
            CLOCK.stop()

    def _signature(self, ep):
        return sim_metrics(ep.ops, ep.window_ms, ep.horizon_ms), ep.counters

    def check_run(self) -> bool:
        """The checking episode: the first instance with the sentinel on."""
        from repro.invariants import InvariantViolation
        from scenarios import sentinel_on

        seed = self.seeds[0]
        started = perf_counter()
        with sentinel_on():
            try:
                ep = self.episode(seed)
            except InvariantViolation as exc:
                self.problems.append(f"sentinel: {str(exc).splitlines()[0]}")
                return False
        self.episode_s = perf_counter() - started
        self.settle(ep, seed, "checking run")
        return True

    def settle(self, ep, seed: int, what: str) -> None:
        """The first episode of ``seed`` passes the output checks and
        becomes its reference; every later one must agree with it."""
        if seed in self.refs:
            self.agree(ep, seed, what)
            return
        self.problems += ep.problems
        self.refs[seed] = sim, _counters = self._signature(ep)
        if sim["issued"] != sim["completed"] + sim["failed"] + sim["unanswered"]:
            self.problems.append("issued != completed + failed + unanswered")
        self._parts[seed] = (ep.ops, ep.window_ms, ep.horizon_ms)

    def agree(self, ep, seed: int, what: str) -> None:
        """Gate: ``ep``'s sim results and counters equal those of the
        reference episode of ``seed``."""
        sim, counters = self._signature(ep)
        ref_sim, ref_counters = self.refs[seed]
        diff = mismatches(ref_sim, sim) + mismatches(ref_counters, counters)
        if diff:
            self.problems.append(f"{what} differs: " + "; ".join(diff[:4]))


def _end_to_end(run: _Run, seconds: float) -> Dict[str, float]:
    from scenarios import HEAP_INSTANCES

    peaks: List[int] = []
    for seed in run.seeds[:HEAP_INSTANCES.get(run.workload, 1)]:
        started: List[None] = []

        def mark() -> None:
            # The heap is traced up to the end of the measured phase; the
            # replica checks after it are the benchmark's, and untraced.
            if started:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            started.append(None)

        tracemalloc.start()
        try:
            ep = run.episode(seed, mark)
        finally:
            tracemalloc.stop()
        run.settle(ep, seed, "heap-measured run")
    timed: List[Tuple[float, float, int]] = []
    # Whole rounds over the instances, so each weighs the same: as many as
    # fill ``seconds`` at the pace of the checking episode.
    rounds = max(math.ceil(MIN_EPISODES / len(run.seeds)),
                 round(seconds / (run.episode_s * len(run.seeds))))
    for _round in range(rounds):
        for seed in run.seeds:
            ep = run.episode(seed)
            run.settle(ep, seed, "timed run")
            timed.append((ep.setup_cpu_s, ep.run_cpu_s,
                          int(run.refs[seed][0]["completed"])))
    return end_to_end(run.reference, timed, sum(peaks) / len(peaks))


def _traced(run: _Run, seconds: float) -> Tuple[Dict[str, float], list]:
    """Per-layer figures, on the run's first instance."""
    seed = run.seeds[0]
    ratios: List[float] = []
    selfs: Dict[str, List[float]] = {layer: [] for layer in LAYERS}
    spans: Dict[str, int] = {}
    wan = 0
    rows: list = []
    deadline = perf_counter() + seconds
    while len(ratios) < MIN_EPISODES or perf_counter() < deadline:
        plain = run.episode(seed)
        run.agree(plain, seed, "untraced run")
        with Tracer() as tracer:
            marks: List[Tuple[int, int]] = []
            traced = run.episode(
                seed,
                lambda: marks.append((len(tracer.log), tracer.wan_messages)),
            )
        run.agree(traced, seed, "traced run")
        ratios.append(traced.run_cpu_s / plain.run_cpu_s)
        (first, wan_before), (last, wan_after) = marks
        totals = layer_totals(tracer.log, first, last)
        for layer in LAYERS:
            selfs[layer].append(totals.get(layer, (0, 0))[1] / 1e9)
        spans = {layer: n for layer, (n, _ns) in totals.items()}
        wan = wan_after - wan_before
        rows = name_totals(tracer.log, first, last)
    sim, counters = run.refs[seed]
    metrics = per_layer(
        counters,
        sim,
        {layer: median(values) for layer, values in selfs.items()},
        spans,
        wan,
        median(ratios),
    )
    return metrics, rows


def _describe(run: _Run, metrics: Dict[str, float], rows: list) -> None:
    sim = run.reference
    seeds = ", ".join(str(seed) for seed in run.seeds)
    print(f"workload {run.workload}  seed {run.seed} (episode seeds {seeds})")
    print(
        f"  ops: {sim['issued']} issued, {sim['completed']} completed, "
        f"{sim['failed']} failed, {sim['unanswered']} unanswered at the "
        f"horizon (failed_op_ratio {sim['failed_op_ratio']:.6f}); "
        f"unavailable_ms {sim['unavailable_ms']:.3f}"
    )
    units = {name: (unit, clock) for name, unit, clock in END_TO_END}
    units.update({name: (unit, "trace") for name, unit in PER_LAYER})
    for name, value in metrics.items():
        unit, clock = units[name]
        note = ""
        if name in PERCENTILES:
            samples, pct = PERCENTILES[name]
            n = int(sim[samples])
            beyond = samples_beyond(n, pct)
            enough = "" if beyond >= MIN_BEYOND else ", too few for a p99"
            note = f"  (n={n}, {beyond} beyond{enough})"
        print(f"  {name:30s} {value:14.6g} {unit:9s} [{clock}]{note}")
    if rows:
        total = sum(ns for _name, _n, ns in rows) or 1
        print("  largest self times in the last traced run:")
        for name, n, ns in rows[:12]:
            print(f"    {ns / 1e9:9.4f} s {100 * ns / total:5.1f}%  {n:9d}x  {name}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")


def _measure(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    """Run one workload, print its metrics and JSON line; True if correct."""
    run = _Run(workload, seed)
    metrics: Dict[str, float] = {}
    rows: list = []
    if run.check_run():
        if trace:
            metrics, rows = _traced(run, seconds)
        else:
            metrics = _end_to_end(run, seconds)
    units = {entry[0]: entry[1] for entry in (PER_LAYER if trace else END_TO_END)}
    correct = not run.problems and bool(metrics)
    if metrics:
        _describe(run, metrics, rows)
    else:
        for problem in run.problems:
            print(f"CHECK FAILED: {problem}")
    sim = run.reference
    print(json.dumps({
        "correct": correct,
        "attempted": int(sim.get("issued", 0)),
        "failed": int(sim.get("issued", 0) - sim.get("completed", 0)),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from scenarios import WORKLOADS

    if args.workload == "all":
        workloads = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        workloads = [args.workload]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"pick from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = [
        _measure(name, args.seed, args.seconds, bool(args.trace))
        for name in workloads
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
