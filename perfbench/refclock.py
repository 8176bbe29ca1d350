"""CPU time rescaled to a fixed machine speed.

The shared hosts this benchmark runs on switch between a fast and a
slow mode (about 1.6x apart) for a fraction of a second to several
seconds at a time, so plain CPU seconds of a one-second episode, and
their pooled or median figures over a run, move by a quarter from run
to run with nothing changed in the program.

:class:`RefClock` measures the machine's speed alongside the program, in
the same thread: every :data:`INTERVAL_S` of process CPU a ``SIGPROF``
timer runs a fixed calibration loop of about a tenth of a millisecond
and times it. The program's CPU in each interval is then divided by how
much slower than :data:`REF_SLICE_S` that loop ran, and summed. The
result is the CPU time the program would have taken at a fixed speed,
at which the calibration loop takes exactly :data:`REF_SLICE_S`. A change
to the program moves it as it moves plain CPU time; a change of the
host's mode moves the loop and the program together and cancels.

The calibration's own CPU (about 1% of the run) is left out of the
figure. CPU is read per thread: while a process-wide CPU timer is armed,
Linux reads the process CPU clock only to the scheduler tick. The loop touches no program state and allocates nothing that
outlives it, so the simulated results stay the same with the clock on;
the runner checks that they do.
"""

from __future__ import annotations

import signal
from time import thread_time

#: Process CPU between two speed samples.
INTERVAL_S = 0.01

#: Iterations of the calibration loop.
SLICE_ITERATIONS = 600

#: The calibration loop's CPU time at the reference speed. Only a scale:
#: chosen so that reference seconds come out near plain CPU seconds of a
#: 2-vCPU cloud host in its fast mode.
REF_SLICE_S = 115e-6

#: The calibration loop's table; its keys and size never change.
_TABLE = dict.fromkeys(range(97), 0)


def _calibration_slice(n: int = SLICE_ITERATIONS) -> None:
    """Dict reads and writes and small-int arithmetic, like the simulator's
    inner loops. Of the loops tried, it followed the workloads' speed
    between the host's modes about as closely as any (to 2-4% per
    episode), and its speed does not depend on what the program leaves in
    the caches: it touches a 97-entry table and nothing else."""
    table = _TABLE
    for i in range(n):
        k = i % 97
        table[k] = (table.get(k, 0) + i) & 0xFFFF


class RefClock:
    """Reference-speed CPU seconds since :meth:`start`; see the module."""

    def __init__(self) -> None:
        self._elapsed = 0.0
        self._last = 0.0
        self._busy = False
        self._running = False
        self._previous = None

    def start(self) -> None:
        self.stop()
        self._elapsed = 0.0
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._running = True
        self._last = thread_time()

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        self._running = False

    def read(self) -> float:
        """Reference seconds so far, the CPU up to this call included."""
        self._sample()
        return self._elapsed

    def _on_tick(self, _signum, _frame) -> None:
        if not self._busy:
            self._sample()

    def _sample(self) -> None:
        self._busy = True
        t0 = thread_time()
        _calibration_slice()
        t1 = thread_time()
        self._elapsed += (t0 - self._last) * REF_SLICE_S / (t1 - t0)
        self._last = thread_time()
        self._busy = False


#: The one clock the workloads time their phases by.
CLOCK = RefClock()
