"""Core discrete-event simulation kernel.

The kernel follows the SimPy programming model: simulation actors are Python
generators ("processes") that ``yield`` events; the environment advances a
virtual clock from event to event. Unlike SimPy, the implementation here is
purpose-built for protocol simulation:

* strict determinism — ties in the event queue are broken by a monotonically
  increasing sequence number, never by object identity;
* cheap interrupts — lease expiry and failure injection interrupt waiting
  processes without tearing down the kernel;
* no real time — ``Environment.run`` returns when the queue is empty or the
  requested horizon is reached.

Time is a ``float`` in **milliseconds**: WAN round-trips in the paper are
tens of milliseconds, and milliseconds keep all constants readable.

Performance notes (every figure pushes millions of events through here):

* all event classes declare ``__slots__`` — no per-instance ``__dict__``;
* yielding an already-processed event enqueues a tiny :class:`_Call` entry
  instead of allocating a shim :class:`Event`;
* :meth:`Environment.call_in` schedules a plain callback with no Event at
  all — the message path and timer guards use it to skip the
  Process/Timeout machinery entirely;
* :meth:`Environment.sleep` hands out pooled :class:`Timeout` objects for
  the timer-heavy heartbeat/ticker loops (recycled right after their
  callbacks fire);
* callback cancellation is O(1) in the common case (the cancelled callback
  is the most recently registered one) and any stale wake-up that slips
  through is defused by the guard in :meth:`Process._resume`;
* **same-instant batching**: anything scheduled *at the current instant*
  (process resumptions, ``succeed``/``fail`` deliveries, zero-delay
  :class:`_Call` chains from the transport and store layers) bypasses the
  heap entirely and lands in one of two FIFO buckets — urgent and normal —
  that the run loop drains to quiescence before touching the heap again.
  When the clock does advance, every heap entry at the new instant is
  pulled into the buckets in one pass, so a burst of N same-time events
  costs N O(1) deque operations instead of N O(log n) heap round-trips.
  Ordering is unchanged: at a fixed time, all urgent entries run before
  all normal entries, each in sequence order — exactly the
  ``(time, priority, seq)`` lexicographic order the heap produced.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]

# Event queue priorities. Lower values are dequeued earlier at equal times.
# URGENT is used for process resumption so that a process that was waiting on
# an event runs before new events scheduled for the same instant.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1

_INF = float("inf")


class SimulationError(Exception):
    """Raised for misuse of the kernel (double triggers, bad yields...)."""


class Interrupt(Exception):
    """Raised inside a process that another actor interrupted.

    The ``cause`` attribute carries the value supplied to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


def _Call(fn: Callable[[Any], None], arg: Any) -> tuple:
    """A bare scheduled callback: a plain ``(fn, arg)`` tuple that rides
    the event queue without being an :class:`Event`; ``fn(arg)`` is
    invoked when the entry is dequeued.

    A tuple rather than a two-slot class because the delivery chains the
    transport and store layers generate allocate one per message — tuple
    construction is a single C allocation with no ``__init__`` frame. The
    dispatch loops type-test ``type(entry) is tuple``; hot call sites
    build the tuple inline instead of going through this helper.
    """
    return (fn, arg)


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, becomes *triggered* when given a value (or an
    exception), and is *processed* once its callbacks have run. Processes
    wait on an event by yielding it.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event value not yet available")
        if not self._ok:
            raise SimulationError("event failed; no value")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq += 1
        # Delivery is always at the current instant: same-instant bucket,
        # no heap traffic (custom priorities beyond the two known ones
        # still take the ordered heap path).
        if priority == PRIORITY_NORMAL:
            env._normal_now.append(self)
        elif priority == PRIORITY_URGENT:
            env._urgent_now.append(self)
        else:
            heappush(env._queue, (env._now, priority, env._seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._exception = exception
        self.env._enqueue(0.0, priority, self)
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        callbacks = self.callbacks
        if callbacks is None:
            # Already processed: deliver through the queue at the current
            # instant rather than synchronously, so that a process yielding
            # processed events in a loop cannot recurse unboundedly.
            self.env._enqueue(0.0, PRIORITY_URGENT, (callback, self))
        else:
            callbacks.append(callback)

    def _remove_callback(self, callback: Callable[["Event"], None]) -> None:
        callbacks = self.callbacks
        if callbacks:
            # O(1) when the callback is the most recently registered one
            # (the overwhelmingly common cancellation pattern); a stale
            # delivery that slips past is defused by Process._resume.
            if callbacks[-1] is callback:
                callbacks.pop()
            else:
                try:
                    callbacks.remove(callback)
                except ValueError:
                    pass


class Timeout(Event):
    """An event that triggers after a fixed virtual delay."""

    __slots__ = ("delay", "_poolable")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self._ok = True
        self._value = value
        self.delay = delay
        self._poolable = False
        env._seq += 1
        when = env._now + delay
        if when == env._now:
            # Zero delay (or one that underflows float addition): fires at
            # the current instant — bucket, don't heap.
            env._normal_now.append(self)
        else:
            heappush(env._queue, (when, PRIORITY_NORMAL, env._seq, self))


class _Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._on_target)
        env._enqueue(0.0, PRIORITY_URGENT, self)


class Process(Event):
    """A running generator. The process is itself an event that triggers
    when the generator returns (value = return value) or raises."""

    __slots__ = ("_generator", "_gen_send", "_gen_throw", "_on_target", "name",
                 "_target", "_defused")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError("process body must be a generator")
        self._generator = generator
        self._gen_send = generator.send
        self._gen_throw = generator.throw
        # The one bound-method object used to wait on every target: created
        # once so registration allocates nothing and cancellation can use an
        # identity check.
        self._on_target = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = _Initialize(env, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} at t={self.env.now}>"

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process: raise :class:`Interrupt` inside it.

        Interrupting a dead process is an error; interrupting a process that
        is itself the current actor is not supported (use exceptions).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        if self.env._active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._exception = Interrupt(cause)
        event.callbacks.append(self._resume_interrupt)
        self.env._enqueue(0.0, PRIORITY_URGENT, event)

    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            return  # process finished before the interrupt was delivered
        target = self._target
        # Detach from the abandoned target *before* unregistering so that a
        # re-entrant wake-up during cleanup cannot observe a half-detached
        # process. Any stale delivery that was already queued is defused by
        # the `_target is not event` guard in _resume.
        self._target = None
        if target is not None:
            target._remove_callback(self._on_target)
        # Point _target at the interrupt event so _resume's stale-wake
        # guard passes; _resume immediately clears it again.
        self._target = event
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Trampoline: the awaited event triggered, step the generator.

        The stale-wake guard (an interrupt moved the process off this
        event before the queued delivery arrived) and the generator step
        share one frame — this is the hottest method on a Process, so the
        former ``_step`` helper is folded in rather than called.
        """
        if self._target is not event:
            return
        self._target = None
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                next_target = self._gen_send(event._value)
            else:
                exc = event._exception
                assert exc is not None
                next_target = self._gen_throw(exc)
        except StopIteration as stop:
            env._active_process = None
            self._finish_ok(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            env._active_process = None
            self._finish_fail(exc)
            return
        env._active_process = None

        if not isinstance(next_target, Event):
            crash = SimulationError(
                f"process {self.name} yielded non-event {next_target!r}"
            )
            self._generator.close()
            self._finish_fail(crash)
            return
        if next_target is self:
            crash = SimulationError(f"process {self.name} waited on itself")
            self._generator.close()
            self._finish_fail(crash)
            return
        self._target = next_target
        callbacks = next_target.callbacks
        if callbacks is None:
            env._enqueue(0.0, PRIORITY_URGENT, (self._on_target, next_target))
        else:
            callbacks.append(self._on_target)

    def _finish_ok(self, value: Any) -> None:
        self._ok = True
        self._value = value
        self.env._enqueue(0.0, PRIORITY_URGENT, self)

    def _finish_fail(self, exc: BaseException) -> None:
        self._ok = False
        self._exception = exc
        self._defused = False
        trace = self.env.trace
        if trace is not None:
            trace.emit(self.env._now, "kernel", "process-fail", self.name,
                       {"error": repr(exc)})
        self.env._enqueue(0.0, PRIORITY_URGENT, self)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events.

    A child counts as *done* only once its callbacks fire (i.e. at the
    simulated instant it is delivered), not merely when its value is decided
    — a :class:`Timeout` decides its value at construction but fires later.
    """

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._done = [False] * len(self._events)
        if not self._events:
            self.succeed({}, priority=PRIORITY_URGENT)
            return
        for index, event in enumerate(self._events):
            event._add_callback(
                lambda fired, index=index: self._on_child(index, fired)
            )

    def _on_child(self, index: int, event: Event) -> None:
        if self._ok is not None:
            return
        self._done[index] = True
        if not event._ok:
            assert event._exception is not None
            # Mark crashed child processes handled so run() doesn't re-raise.
            if hasattr(event, "_defused"):
                event._defused = True  # type: ignore[attr-defined]
            self.fail(event._exception, priority=PRIORITY_URGENT)
            return
        self._check()

    def _check(self) -> None:
        raise NotImplementedError

    def _results(self) -> dict:
        return {
            index: event._value
            for index, event in enumerate(self._events)
            if self._done[index] and event._ok
        }


class AnyOf(_Condition):
    """Triggers as soon as any child event fires.

    The value is a dict mapping the index of each already-fired child to its
    value.
    """

    __slots__ = ()

    def _check(self) -> None:
        if any(self._done):
            self.succeed(self._results(), priority=PRIORITY_URGENT)


class AllOf(_Condition):
    """Triggers once every child event has fired."""

    __slots__ = ()

    def _check(self) -> None:
        if all(self._done):
            self.succeed(self._results(), priority=PRIORITY_URGENT)


class Environment:
    """The simulation environment: clock + event queue + process factory."""

    __slots__ = ("_now", "_queue", "_seq", "_active_process", "_timeout_pool",
                 "_urgent_now", "_normal_now", "trace")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._timeout_pool: List[Timeout] = []
        # Same-instant buckets: entries scheduled for the *current* instant,
        # kept off the heap. Invariant: every bucketed entry's sequence
        # number exceeds that of any same-priority heap entry at the current
        # time (fresh entries get fresh seqs; heap entries at the current
        # time are drained into the buckets the moment the clock lands on
        # it), so FIFO drain order — urgent bucket first, then one normal
        # entry, re-checking urgent between normal entries — reproduces the
        # heap's (time, priority, seq) order exactly.
        self._urgent_now: deque = deque()
        self._normal_now: deque = deque()
        #: Optional structured trace buffer (repro.trace.TraceBuffer); the
        #: kernel only reports rare events (process failures) to it.
        self.trace = None

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def sleep(self, delay: float, value: Any = None) -> Timeout:
        """A pooled :class:`Timeout` for ``yield env.sleep(delay)`` loops.

        Semantically identical to :meth:`timeout`, but the returned object
        is recycled into a free pool the moment its callbacks have run, so
        timer-heavy loops (heartbeats, tickers, leases) stop allocating.

        Contract: the caller must yield the returned event immediately and
        must not keep a reference past its firing — after that instant the
        object may already be serving another ``sleep``. Never hand it to
        ``AnyOf``/``AllOf``/``run(until=...)``; use :meth:`timeout` there.
        """
        pool = self._timeout_pool
        if not pool:
            timeout = Timeout(self, delay, value)
            timeout._poolable = True
            return timeout
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        timeout = pool.pop()
        timeout._value = value
        timeout.delay = delay
        self._seq += 1
        when = self._now + delay
        if when == self._now:
            self._normal_now.append(timeout)
        else:
            heappush(
                self._queue, (when, PRIORITY_NORMAL, self._seq, timeout)
            )
        return timeout

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _enqueue(self, delay: float, priority: int, event: Event) -> None:
        self._seq += 1
        when = self._now + delay
        if when == self._now and priority <= PRIORITY_NORMAL:
            if priority:
                self._normal_now.append(event)
            else:
                self._urgent_now.append(event)
        else:
            heappush(self._queue, (when, priority, self._seq, event))

    def call_in(
        self,
        delay: float,
        fn: Callable[[Any], None],
        arg: Any = None,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Schedule ``fn(arg)`` to run after ``delay`` ms.

        The cheapest way to defer work: no :class:`Event`, no generator, no
        waiter bookkeeping — a single tuple on the heap. Fire-and-forget
        (cannot be cancelled; make ``fn`` check liveness itself), so use it
        for guards and deliveries whose staleness is cheap to detect.
        """
        if delay < 0:
            raise SimulationError(f"negative call_in delay: {delay!r}")
        self._seq += 1
        when = self._now + delay
        if when == self._now and priority <= PRIORITY_NORMAL:
            if priority:
                self._normal_now.append((fn, arg))
            else:
                self._urgent_now.append((fn, arg))
        else:
            heappush(self._queue, (when, priority, self._seq, (fn, arg)))

    def call_soon(
        self,
        fn: Callable[[Any], None],
        arg: Any = None,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Schedule ``fn(arg)`` at the current instant: ``call_in(0, ...)``
        minus the delay arithmetic — one deque append, no heap traffic.
        The store and transport layers use it for their zero-delay
        delivery chains."""
        self._seq += 1
        if priority:
            self._normal_now.append((fn, arg))
        else:
            self._urgent_now.append((fn, arg))

    def call_at(
        self,
        when: float,
        fn: Callable[[Any], None],
        arg: Any = None,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Schedule ``fn(arg)`` at absolute time ``when``.

        The absolute-time twin of :meth:`call_in`, for callers that
        computed an exact instant: no ``when - now`` round trip (which
        can drift by one ULP in float), no Event, no generator. The
        fleet tier's arrival source leans on this: each site's next
        arrival is scheduled at its exact instant, one event per
        arrival.

        Scheduling in the past is an error; ``when == now`` lands in the
        same-instant buckets like :meth:`call_soon`.
        """
        if when < self._now:
            raise SimulationError(
                f"call_at({when!r}) is in the past (now={self._now!r})"
            )
        self._seq += 1
        if when == self._now and priority <= PRIORITY_NORMAL:
            if priority:
                self._normal_now.append((fn, arg))
            else:
                self._urgent_now.append((fn, arg))
        else:
            heappush(self._queue, (when, priority, self._seq, (fn, arg)))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        if self._urgent_now or self._normal_now:
            return self._now
        return self._queue[0][0] if self._queue else _INF

    def _advance(self) -> Any:
        """Pop the next heap entry, advance the clock to it, and drain every
        other heap entry at that instant into the same-instant buckets.

        Returns the popped entry (the minimum); the caller dispatches it.
        Draining keeps the bucket invariant: heap entries at the new time
        predate (seq-wise) anything the dispatches will append.
        """
        queue = self._queue
        when, _priority, _seq, event = heappop(queue)
        self._now = when
        while queue:
            head = queue[0]
            # Entries with custom priorities beyond NORMAL stay on the heap;
            # they are popped only after both buckets drain, which is their
            # correct lexicographic slot.
            if head[0] != when or head[1] > PRIORITY_NORMAL:
                break
            heappop(queue)
            if head[1]:
                self._normal_now.append(head[3])
            else:
                self._urgent_now.append(head[3])
        return event

    def step(self) -> None:
        """Process the single next entry in the queue."""
        if self._urgent_now:
            event = self._urgent_now.popleft()
        elif self._normal_now:
            event = self._normal_now.popleft()
        elif self._queue:
            event = self._advance()
        else:
            raise SimulationError("step() on an empty event queue")
        if type(event) is tuple:
            event[0](event[1])
            return
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)
        if event._ok:
            if type(event) is Timeout and event._poolable:
                # Recycle: every waiter has been resumed at this instant and
                # sleep()'s contract forbids holding a reference past it.
                callbacks.clear()
                event.callbacks = callbacks
                self._timeout_pool.append(event)
        elif (
            event._exception is not None
            and not callbacks
            and not getattr(event, "_defused", True)
        ):
            # A process crashed and nobody was waiting on it: surface it.
            raise event._exception

    def run(self, until: Optional[float] = None) -> Any:
        """Run the simulation.

        ``until`` may be a time horizon (run until the clock reaches it) or an
        :class:`Event` (run until the event triggers, returning its value).
        With no argument, run until the event queue drains.
        """
        stop_event: Optional[Event] = None
        horizon = _INF
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"run(until={horizon}) is in the past (now={self._now})"
                )

        if stop_event is None:
            # Hot path: drain-the-queue / run-to-horizon, with the step()
            # body inlined (the per-event call overhead is measurable at
            # millions of events per figure). Same-instant entries are
            # popped from the FIFO buckets in O(1); the heap is consulted
            # only to advance the clock, and draining all entries at the
            # new instant into the buckets in one pass keeps the zero-delay
            # chains the transport/Zab layers generate off the heap.
            queue = self._queue
            urgent = self._urgent_now
            normal = self._normal_now
            pool = self._timeout_pool
            # Bound methods / type objects hoisted out of the loop: each one
            # saves an attribute or global lookup per event, and the loop
            # runs millions of times per figure.
            urgent_pop = urgent.popleft
            normal_pop = normal.popleft
            urgent_push = urgent.append
            normal_push = normal.append
            pop = heappop
            tuple_t = tuple
            timeout_t = Timeout
            while True:
                if urgent:
                    event = urgent_pop()
                elif normal:
                    event = normal_pop()
                elif queue:
                    if queue[0][0] > horizon:
                        self._now = horizon
                        return None
                    # _advance() inlined: one fewer Python call per clock
                    # tick, and ticks are all that is left on the heap.
                    when, _priority, _seq, event = pop(queue)
                    self._now = when
                    while queue:
                        head = queue[0]
                        if head[0] != when or head[1] > PRIORITY_NORMAL:
                            break
                        pop(queue)
                        if head[1]:
                            normal_push(head[3])
                        else:
                            urgent_push(head[3])
                else:
                    break
                if type(event) is tuple_t:
                    event[0](event[1])
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if event._ok:
                    if type(event) is timeout_t and event._poolable:
                        callbacks.clear()
                        event.callbacks = callbacks
                        pool.append(event)
                elif (
                    event._exception is not None
                    and not callbacks
                    and not getattr(event, "_defused", True)
                ):
                    raise event._exception
            if horizon != _INF:
                self._now = horizon
            return None

        while self._queue or self._urgent_now or self._normal_now:
            if stop_event.triggered:
                break
            self.step()
        else:
            if not stop_event.triggered:
                raise SimulationError("run() ran out of events before stop event")

        if not stop_event._ok:
            assert stop_event._exception is not None
            raise stop_event._exception
        return stop_event._value
