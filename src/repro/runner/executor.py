"""Multiprocessing scenario executor.

``execute()`` fans independent scenario cells across worker processes
(``jobs > 1``) or runs them in-process (``jobs == 1``), consulting an
optional :class:`~repro.runner.cache.ResultCache` either way. Design
points the tests pin down:

* **Spawn-safe.** Workers use the ``spawn`` start method — the only one
  that is identical across platforms and immune to fork-inherited
  state — so a cell computes from a pristine interpreter. By default
  ``jobs > 1`` runs through the persistent warm pool
  (:mod:`repro.runner.pool`): workers are spawned once, import ``repro``
  once, and serve many cells each; ``pool=False`` (CLI ``--no-pool``)
  falls back to the legacy one-process-per-cell spawn path.
* **Deterministic results.** A cell's payload is a pure function of its
  scenario; the executor never lets completion order leak into results
  (they are keyed by scenario digest, and renderers iterate the
  scenario list). Serial, pooled, and spawn-per-cell execution are
  byte-identical.
* **No wedged runs.** A crashing worker is detected by its exit without
  a result; a hung worker is killed after ``timeout_s``. Both surface
  as :class:`CellFailure` entries with the full scenario spec, and
  :meth:`ExecutionReport.raise_on_failure` turns them into a non-zero
  exit instead of a deadlocked pool. In the pooled path a dead or hung
  worker fails only its in-flight cell and is replaced.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runner.cells import run_cell
from repro.runner.scenario import Scenario

__all__ = [
    "CellFailure",
    "ExecutionReport",
    "ScenarioError",
    "execute",
]

_POLL_INTERVAL_S = 0.02
# Grace period for a terminated worker to die before escalating to kill.
_REAP_GRACE_S = 5.0


@dataclass
class CellFailure:
    """One scenario that did not produce a payload."""

    scenario: Scenario
    kind: str  # "exception" | "crash" | "timeout"
    message: str
    detail: str = ""

    def describe(self) -> str:
        spec = json.dumps(self.scenario.spec(), sort_keys=True)
        return f"[{self.kind}] {self.scenario.describe()}: {self.message}\n  spec: {spec}"


class ScenarioError(RuntimeError):
    """Raised when one or more cells failed; carries every failure."""

    def __init__(self, failures: List[CellFailure]):
        self.failures = failures
        super().__init__(
            f"{len(failures)} scenario cell(s) failed:\n"
            + "\n".join(f.describe() for f in failures)
        )


@dataclass
class ExecutionReport:
    """Results and accounting of one ``execute()`` call."""

    results: Dict[str, Any] = field(default_factory=dict)  # digest -> payload
    failures: List[CellFailure] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    wall_s: float = 0.0
    jobs: int = 1

    def payload(self, scenario: Scenario) -> Any:
        return self.results[scenario.digest()]

    def raise_on_failure(self) -> None:
        if self.failures:
            raise ScenarioError(self.failures)

    def summary(self) -> str:
        parts = [
            f"{len(self.results)} cells",
            f"{self.executed} executed",
            f"{self.cache_hits} cache hits",
        ]
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        parts.append(f"jobs={self.jobs}")
        parts.append(f"{self.wall_s:.1f}s")
        return ", ".join(parts)


def _worker(spec_json: str, conn) -> None:
    """Worker-process entry point: run one cell, send one message.

    Messages: ``("ok", payload, elapsed_s)`` or ``("error", message,
    traceback_text)``. Any exit without a message is a crash, detected
    by the parent via the process exit code.
    """
    try:
        scenario = Scenario.from_spec(json.loads(spec_json))
        started = time.perf_counter()
        payload = run_cell(scenario)
        conn.send(("ok", payload, time.perf_counter() - started))
    except BaseException as exc:  # report, never hang the parent
        try:
            conn.send(
                (
                    "error",
                    f"{type(exc).__name__}: {exc}",
                    traceback.format_exc(),
                )
            )
        except Exception:
            pass
    finally:
        conn.close()


def _json_roundtrip(payload: Any) -> Any:
    """Normalize an in-process payload exactly as the cache/pipe would.

    Guarantees ``--jobs 1`` results are byte-identical to worker/cached
    results even for payloads with non-JSON niceties (tuples -> lists).
    """
    return json.loads(json.dumps(payload))


def execute(
    scenarios: Sequence[Scenario],
    jobs: int = 1,
    cache=None,
    timeout_s: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
    pool: bool = True,
) -> ExecutionReport:
    """Run every scenario; returns payloads keyed by scenario digest.

    Duplicate scenarios (same digest) are executed once. With ``cache``
    set, hits skip execution and fresh results are stored. ``jobs == 1``
    executes in-process (the determinism reference); ``jobs > 1`` runs
    at most ``jobs`` cells concurrently, each subject to ``timeout_s`` —
    through the persistent warm worker pool by default, or one spawned
    process per cell with ``pool=False``.
    """
    started = time.perf_counter()
    report = ExecutionReport(jobs=jobs)
    say = progress or (lambda _msg: None)

    # Cache pass + dedup, preserving first-seen order.
    to_run: List[Scenario] = []
    seen = set()
    for scenario in scenarios:
        digest = scenario.digest()
        if digest in seen or digest in report.results:
            continue
        if cache is not None:
            entry = cache.get(scenario)
            if entry is not None:
                report.results[digest] = entry["payload"]
                report.cache_hits += 1
                say(f"cache hit  {scenario.describe()}")
                continue
            report.cache_misses += 1
        seen.add(digest)
        to_run.append(scenario)

    if jobs <= 1:
        _run_serial(to_run, cache, report, say)
    elif pool:
        from repro.runner.pool import run_pooled

        run_pooled(to_run, jobs, cache, timeout_s, report, say)
    else:
        _run_parallel(to_run, jobs, cache, timeout_s, report, say)

    report.wall_s = time.perf_counter() - started
    return report


def _run_serial(to_run, cache, report, say) -> None:
    for scenario in to_run:
        say(f"run        {scenario.describe()}")
        cell_started = time.perf_counter()
        try:
            payload = _json_roundtrip(run_cell(scenario))
        except Exception as exc:
            report.failures.append(
                CellFailure(
                    scenario,
                    "exception",
                    f"{type(exc).__name__}: {exc}",
                    traceback.format_exc(),
                )
            )
            continue
        elapsed = time.perf_counter() - cell_started
        report.results[scenario.digest()] = payload
        report.executed += 1
        if cache is not None:
            cache.put(scenario, payload, elapsed)


def _run_parallel(to_run, jobs, cache, timeout_s, report, say) -> None:
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    pending = list(reversed(to_run))  # pop() from the tail = spec order
    running = {}  # proc -> (scenario, conn, started)

    def reap(proc):
        proc.join(_REAP_GRACE_S)
        if proc.is_alive():
            proc.kill()
            proc.join(_REAP_GRACE_S)
        try:
            proc.close()
        except Exception:
            pass

    try:
        while pending or running:
            while pending and len(running) < jobs:
                scenario = pending.pop()
                recv_conn, send_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker,
                    args=(json.dumps(scenario.spec()), send_conn),
                    daemon=True,
                )
                say(f"spawn      {scenario.describe()}")
                proc.start()
                send_conn.close()  # parent keeps only the read end
                running[proc] = (scenario, recv_conn, time.monotonic())

            finished = []
            for proc, (scenario, conn, proc_started) in running.items():
                if conn.poll():
                    try:
                        message = conn.recv()
                    except EOFError:
                        message = None
                    finished.append((proc, scenario, conn, message))
                elif not proc.is_alive():
                    finished.append((proc, scenario, conn, None))
                elif (
                    timeout_s is not None
                    and time.monotonic() - proc_started > timeout_s
                ):
                    finished.append((proc, scenario, conn, "timeout"))

            for proc, scenario, conn, message in finished:
                del running[proc]
                try:
                    if message == "timeout":
                        proc.terminate()
                        reap(proc)
                        report.failures.append(
                            CellFailure(
                                scenario,
                                "timeout",
                                f"cell exceeded the per-cell timeout of "
                                f"{timeout_s:.0f}s and was killed",
                            )
                        )
                    elif message is None:
                        exitcode = proc.exitcode
                        reap(proc)
                        report.failures.append(
                            CellFailure(
                                scenario,
                                "crash",
                                f"worker died without a result "
                                f"(exit code {exitcode})",
                            )
                        )
                    elif message[0] == "ok":
                        _status, payload, elapsed = message
                        reap(proc)
                        payload = _json_roundtrip(payload)
                        report.results[scenario.digest()] = payload
                        report.executed += 1
                        say(f"done       {scenario.describe()}")
                        if cache is not None:
                            cache.put(scenario, payload, elapsed)
                    else:
                        _status, error_message, detail = message
                        reap(proc)
                        report.failures.append(
                            CellFailure(scenario, "exception", error_message, detail)
                        )
                finally:
                    # Close the read end on every path — success, crash,
                    # timeout, or a raising cache.put — or the parent
                    # accumulates one leaked pipe fd per finished cell.
                    conn.close()

            if running and not finished:
                time.sleep(_POLL_INTERVAL_S)
    finally:
        # Belt and braces: never leave workers or pipes behind
        # (^C, raise, ...).
        for proc, (_scenario, conn, _started) in running.items():
            try:
                conn.close()
            except Exception:
                pass
            try:
                proc.terminate()
                proc.join(_REAP_GRACE_S)
                if proc.is_alive():
                    proc.kill()
            except Exception:
                pass
