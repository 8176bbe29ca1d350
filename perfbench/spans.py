"""Outside-in span tracing for the benchmark.

The tracer never edits the program: it replaces a fixed list of public
methods on the program's classes with wrappers that open a span, call the
original, and close the span. Three groups of wrappers are installed:

* the kernel's scheduling seams (``Environment.call_in/call_soon/call_at/
  process`` and ``Store.consume``): every callback or process handed to
  them is wrapped so that each time it runs it becomes a span named after
  the module that owns it;
* the transport's delivery callback (``Network._deliver``, bound once per
  network at construction, so install before building);
* layer entry points (``Network.send``, ``DataTree`` reads and applies,
  substrate ``submit``/``forward_submit``, the token-state methods and
  ``LatencyRecorder.record``).

``Environment.run`` is itself a span, the root of everything the kernel
dispatches. Its self time -- the part no layer span covers -- is the
kernel's own cost: heap and bucket traffic, event callbacks and process
trampolines.

A span is four numbers in flat arrays: name id, start and end (from
``time.perf_counter_ns``) and parent index. Self time is computed after
the run by :func:`self_times`. The wrappers draw no randomness and
schedule nothing, so a traced run must produce the same simulated
results as an untraced one; the benchmark checks that.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The program's modules, by layer. A span is charged to the layer of the
#: module that defines the code it runs.
LAYERS = ("sim", "net", "zab", "wpaxos", "zk", "wankeeper", "workloads",
          "fleet")

_PREFIX_LAYERS = tuple(
    (f"repro.{layer}", layer) for layer in LAYERS
) + (("repro.nemesis", "nemesis"),)


def layer_of_module(module: str) -> str:
    """The layer a module belongs to: one of :data:`LAYERS`, ``nemesis``,
    ``bench`` (the benchmark's own code) or ``other``."""
    for prefix, layer in _PREFIX_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    if not module.startswith("repro"):
        return "bench"
    return "other"


def layer_of_span(name: str) -> str:
    return name.split(":", 1)[0]


class SpanLog:
    """Spans in flat arrays; ``parent`` is -1 for a root span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("I")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid: int, fn: Callable, *args: Any, **kw: Any) -> Any:
        """Run ``fn(*args, **kw)`` as one span named ``self.names[nid]``."""
        idx = len(self.name_id)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0)
        stack.append(idx)
        self.start.append(perf_counter_ns())
        try:
            return fn(*args, **kw)
        finally:
            self.end[idx] = perf_counter_ns()
            stack.pop()


def self_times(
    start: Sequence[int], end: Sequence[int], parent: Sequence[int]
) -> List[int]:
    """Each span's duration minus the durations of its direct children.

    Children never outlive their parent (spans nest on one stack), so
    this is exactly the part of the span's interval no child covers.
    """
    child = [0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(len(start))]


def _window(log: SpanLog, first: int, last: Optional[int]):
    """Name ids and self times of spans ``first..last-1``.

    No span may be open at ``first`` or ``last`` (the benchmark marks them
    between two ``Environment.run`` calls), so every span in the window
    has its parent in the window too.
    """
    last = len(log) if last is None else last
    parents = [p - first if p >= 0 else -1 for p in log.parent[first:last]]
    selfs = self_times(log.start[first:last], log.end[first:last], parents)
    return log.name_id[first:last], selfs


def layer_totals(
    log: SpanLog, first: int = 0, last: Optional[int] = None
) -> Dict[str, Tuple[int, int]]:
    """``{layer: (spans, self_ns)}`` over spans ``first..last-1``."""
    layer_of = [layer_of_span(name) for name in log.names]
    totals: Dict[str, List[int]] = {}
    for nid, own in zip(*_window(log, first, last)):
        slot = totals.setdefault(layer_of[nid], [0, 0])
        slot[0] += 1
        slot[1] += own
    return {layer: (n, ns) for layer, (n, ns) in totals.items()}


def name_totals(
    log: SpanLog, first: int = 0, last: Optional[int] = None
) -> List[Tuple[str, int, int]]:
    """``(span name, spans, self_ns)`` rows, largest self time first."""
    rows: Dict[int, List[int]] = {}
    for nid, own in zip(*_window(log, first, last)):
        slot = rows.setdefault(nid, [0, 0])
        slot[0] += 1
        slot[1] += own
    return sorted(
        ((log.names[nid], n, ns) for nid, (n, ns) in rows.items()),
        key=lambda row: -row[2],
    )


class _TracedGenerator:
    """Stands in for a process's generator; each step is one span."""

    def __init__(self, log: SpanLog, nid: int, gen) -> None:
        self._log = log
        self._nid = nid
        self._gen = gen
        self.__name__ = getattr(gen, "__name__", "process")

    def send(self, value: Any) -> Any:
        return self._log.call(self._nid, self._gen.send, value)

    def throw(self, exc: BaseException) -> Any:
        return self._log.call(self._nid, self._gen.throw, exc)

    def close(self) -> None:
        self._gen.close()


class Tracer:
    """Installs the wrappers for the life of one ``with`` block; spans
    accumulate in ``log``."""

    def __init__(self) -> None:
        self.log = SpanLog()
        #: Messages sent between two different sites (counted in send).
        self.wan_messages = 0
        self._names: Dict[Any, int] = {}
        self._saved: List[Tuple[type, str, Any]] = []

    # -- naming ---------------------------------------------------------------

    def _callback_nid(self, fn: Callable) -> int:
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", None) or type(func)
        nid = self._names.get(key)
        if nid is None:
            module = getattr(func, "__module__", None) or ""
            qualname = getattr(func, "__qualname__", type(func).__name__)
            nid = self._names[key] = self.log.intern(
                f"{layer_of_module(module)}:{qualname}"
            )
        return nid

    def _generator_nid(self, gen) -> int:
        code = gen.gi_code
        nid = self._names.get(code)
        if nid is None:
            module = gen.gi_frame.f_globals.get("__name__", "")
            nid = self._names[code] = self.log.intern(
                f"{layer_of_module(module)}:{gen.__qualname__}"
            )
        return nid

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner: type, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _entry(self, owner: type, attr: str) -> None:
        """Wrap a method so each call is a span named for its layer."""
        log = self.log
        nid = log.intern(
            f"{layer_of_module(owner.__module__)}:{owner.__name__}.{attr}"
        )
        call = log.call

        def make(original):
            def entry(*args, **kw):
                return call(nid, original, *args, **kw)

            entry.spanned = True
            return entry

        self._patch(owner, attr, make)

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        from repro.net.transport import Network
        from repro.sim.kernel import Environment
        from repro.sim.store import Store
        from repro.wankeeper.tokens import HubTokenState, SiteTokenState
        from repro.workloads.stats import LatencyRecorder
        from repro.wpaxos.peer import WPaxosPeer
        from repro.zab.peer import ZabPeer
        from repro.zk.data_tree import DataTree

        log = self.log
        call = log.call
        callback_nid = self._callback_nid

        def wrap(fn):
            if getattr(getattr(fn, "__func__", fn), "spanned", False):
                return fn  # already one span per call
            nid = callback_nid(fn)
            return lambda arg: call(nid, fn, arg)

        def scheduler(original):
            def schedule(env, when, fn, *rest, **kw):
                return original(env, when, wrap(fn), *rest, **kw)

            return schedule

        def call_soon(original):
            def schedule(env, fn, *rest, **kw):
                return original(env, wrap(fn), *rest, **kw)

            return schedule

        def process(original):
            def spawn(env, generator, name=""):
                traced = _TracedGenerator(
                    log, self._generator_nid(generator), generator
                )
                return original(env, traced, name or traced.__name__)

            return spawn

        def consume(original):
            def register(store, fn):
                return original(store, wrap(fn))

            return register

        run_nid = log.intern("sim:Environment.run")

        def run(original):
            def traced_run(env, until=None):
                return call(run_nid, original, env, until)

            return traced_run

        send_nid = log.intern("net:Network.send")

        def send(original):
            def traced_send(net, src, dst, body, size_bytes=256):
                if src.site != dst.site:
                    self.wan_messages += 1
                return call(send_nid, original, net, src, dst, body, size_bytes)

            return traced_send

        self._patch(Environment, "call_in", scheduler)
        self._patch(Environment, "call_at", scheduler)
        self._patch(Environment, "call_soon", call_soon)
        self._patch(Environment, "process", process)
        self._patch(Environment, "run", run)
        self._patch(Store, "consume", consume)
        self._patch(Network, "send", send)
        self._entry(Network, "_deliver")
        for attr in ("apply", "get_data", "exists", "get_children"):
            self._entry(DataTree, attr)
        for peer in (ZabPeer, WPaxosPeer):
            self._entry(peer, "submit")
            self._entry(peer, "forward_submit")
        for attr in ("holds", "holds_all", "admit", "retire", "grant",
                     "release", "start_recall"):
            self._entry(SiteTokenState, attr)
        for attr in ("where", "at_hub", "grant", "accept_return", "held_by"):
            self._entry(HubTokenState, attr)
        self._entry(LatencyRecorder, "record")

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
