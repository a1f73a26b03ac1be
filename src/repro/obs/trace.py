"""Request-scoped tracing: the causal story of one query or one epoch.

This module is the one span API of the project: it answers "where did
*this request's* time go" and, through per-path totals, "where does
the *aggregate* time go".  A :class:`Trace` carries a process-unique id
and an ordered list of span events — name, wall-clock start/end,
``key=value`` attributes, recording thread — forming a parent/child
tree rooted at the trace itself.  The serving path opens one trace per
``topk`` request, the trainer one per epoch.

Each trace also keeps ``{seconds, count}`` totals per span *path* (the
slash-joined names from the trace root, e.g. ``batch/forward``),
updated as each span closes — including spans the bounded event list
drops — so :meth:`Trace.totals` is an exact phase breakdown however
long the trace runs.  The trainer's per-epoch ``spans`` payload is
these totals.

Cross-thread handoff is explicit: when work hops threads (a serve
request enters the :class:`~repro.serve.batcher.MicroBatcher` queue and
is finished by the flush thread), the submitting side captures a
:class:`Handoff` token via :meth:`Trace.handoff`.  The consuming thread
either stamps spans directly onto the token (:meth:`Handoff.record` —
used for the shared batched forward) or re-binds the trace as *current*
for a block (:meth:`Handoff.resume`), so queue-wait and forward time are
attributed to the request that paid for them, not to the flush thread.

Cross-*process* handoff builds on the same idea with an explicit wire
format: the dispatching side captures a :class:`TraceContext` (trace id
+ parent span id) and ships it inside the request message; the worker process opens a detached subtree via
:func:`begin_remote`, records its own spans (reusing :class:`Handoff`
for its local queue hops), serialises them with :func:`export_subtree`
and returns them alongside the answer; the coordinator stitches the
subtree under the request's own span with :func:`graft_subtree` —
remapping span ids, sanitising non-finite attribute values and truncating oversized subtrees into
``dropped_events``.  Grafted events carry the owning shard id so the
renderer can show which process a span ran in (``s3:queue-wait``).
Timestamp comparability relies on ``time.perf_counter`` being
CLOCK_MONOTONIC shared across processes (true on Linux; see DESIGN.md
§17).

Finished traces land in a bounded in-memory ring (newest evicts oldest)
and, when configured, are mirrored to a JSONL trace log, one trace per
line.  ``repro-tmn trace`` renders the slowest recent traces as a
critical-path tree (see :func:`format_trace`).

Thread-safety: the *current trace/span* binding is thread-local; event
recording and the totals update happen under a per-trace lock; the ring
is guarded by the tracer lock.  Recording after a trace has finished (a
flush thread completing work for a request that already timed out and
returned degraded) is dropped and counted, never raises.

Determinism: every timestamp comes from the tracer's injectable clock
(default ``time.perf_counter``), and trace/span ids are sequential
integers, so tests with a fake clock get byte-identical render output.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

__all__ = [
    "Handoff",
    "Trace",
    "TraceContext",
    "TraceSpan",
    "Tracer",
    "annotate",
    "begin_remote",
    "capture_context",
    "current_trace",
    "export_subtree",
    "format_trace",
    "get_tracer",
    "graft_subtree",
    "read_trace_log",
    "trace_span",
]

#: Root span id: the trace itself acts as the parent of top-level spans.
ROOT = 0


def _child_path(parent: str, name: str) -> str:
    """Totals path of span ``name`` under a parent path (``""`` = root)."""
    return f"{parent}/{name}" if parent else name


@dataclass(frozen=True)
class TraceContext:
    """Serializable cross-process trace context: what ships with a request.

    The process-boundary analogue of :class:`Handoff`: the dispatching
    side captures one (:func:`capture_context`), serialises it into the
    request message (:meth:`to_wire`), and the worker rebuilds it
    (:meth:`from_wire`) to anchor its own span subtree.

    Attributes
    ----------
    trace_id:
        Id of the originating trace; :func:`graft_subtree` refuses a
        subtree whose context named a different trace.
    parent_span_id:
        Span id on the origin side the remote work is causally under
        (informational — the coordinator picks the actual graft point,
        normally the per-shard gather span).
    """

    trace_id: str
    parent_span_id: int = ROOT

    def to_wire(self) -> dict:
        """Plain-dict form safe to pickle into a request message."""
        return {
            "trace_id": self.trace_id,
            "parent_span_id": int(self.parent_span_id),
        }

    @classmethod
    def from_wire(cls, data: dict) -> "TraceContext":
        """Rebuild a context from its :meth:`to_wire` dict."""
        return cls(
            trace_id=str(data.get("trace_id", "t?")),
            parent_span_id=int(data.get("parent_span_id", ROOT)),
        )


class TraceSpan:
    """One *open* span: context manager handed out by :meth:`Trace.span`.

    Attributes may be attached while the span is open via :meth:`set`;
    the finished event is recorded on ``__exit__``.
    """

    __slots__ = ("_trace", "_tracer", "span_id", "parent_id", "name", "path", "attrs", "_start")

    def __init__(self, trace: "Trace", tracer: "Tracer", name: str, attrs: dict):
        self._trace = trace
        self._tracer = tracer
        self.name = name
        self.attrs = dict(attrs)
        self.span_id: Optional[int] = None
        self.parent_id: int = ROOT
        #: Slash-joined names from the trace root (set on ``__enter__``);
        #: the key this span's time is totalled under.
        self.path = ""
        self._start: float = 0.0

    def set(self, **attrs) -> "TraceSpan":
        """Attach ``key=value`` attributes to this span; returns self."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "TraceSpan":
        self.span_id = self._trace._next_span_id()
        stack = self._tracer._stack()
        if stack and stack[-1]._trace is self._trace:
            parent = stack[-1]
            self.parent_id = parent.span_id
            self.path = _child_path(parent.path, self.name)
        else:
            self.path = self.name
        self._start = self._tracer._clock()
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = self._tracer._clock()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._trace._add_event(
            self.path, self.span_id, self.parent_id, self.name, self._start, end, self.attrs
        )


class Handoff:
    """A cross-thread continuation token for one trace.

    Captured on the submitting thread (``trace.handoff()``); the thread
    that eventually performs the work uses it to attribute time back to
    the originating request.
    """

    __slots__ = ("trace", "parent_id", "path", "created_at", "_tracer")

    def __init__(self, trace: "Trace", parent_id: int, created_at: float, tracer: "Tracer"):
        self.trace = trace
        self.parent_id = parent_id
        #: Path of the handoff point, resolved now on the submitting
        #: thread: the consuming thread's stack does not hold it.
        self.path = trace._path_of(parent_id)
        self.created_at = created_at
        self._tracer = tracer

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Stamp one finished span (explicit timestamps) under the handoff point.

        Used when the consuming thread did shared work (a batched
        forward) whose interval applies to several traces at once.
        """
        trace = self.trace
        trace._add_event(
            _child_path(self.path, name), trace._next_span_id(), self.parent_id,
            name, start, end, attrs,
        )

    def record_wait(self, name: str = "queue-wait", end: Optional[float] = None, **attrs) -> None:
        """Stamp the span from handoff creation until ``end`` (default: now).

        This is the queue-wait attribution: the interval between the
        producer enqueuing the work and the consumer starting on it.
        """
        if end is None:
            end = self._tracer._clock()
        self.record(name, self.created_at, end, **attrs)

    def resume(self, wait_name: Optional[str] = "queue-wait") -> "_Resumed":
        """Context manager: bind the trace current on *this* thread.

        On entry records the wait span (``wait_name``, creation → now;
        pass ``None`` to skip) and pushes the handoff point as the
        current span, so nested ``span()`` calls land under it.
        """
        return _Resumed(self, wait_name)


class _Resumed:
    """Context manager returned by :meth:`Handoff.resume`."""

    __slots__ = ("_handoff", "_wait_name", "_anchor")

    def __init__(self, handoff: Handoff, wait_name: Optional[str]):
        self._handoff = handoff
        self._wait_name = wait_name

    def __enter__(self) -> "Trace":
        handoff = self._handoff
        if self._wait_name is not None:
            handoff.record_wait(self._wait_name)
        # Push an anchor entry so nested spans parent to the handoff point.
        anchor = TraceSpan(handoff.trace, handoff._tracer, "<resumed>", {})
        anchor.span_id = handoff.parent_id
        anchor.path = handoff.path
        self._anchor = anchor
        handoff._tracer._stack().append(anchor)
        return handoff.trace

    def __exit__(self, *exc) -> None:
        stack = self._handoff._tracer._stack()
        if stack and stack[-1] is self._anchor:
            stack.pop()


class Trace:
    """One request's (or epoch's) causal record: id, attrs, span events.

    Span events are plain dicts ``{"id", "parent", "name", "start",
    "end", "thread", "attrs"}``; the event list is bounded by
    ``max_events`` (excess increments :attr:`dropped_events`).
    :meth:`totals` counts every span recorded in this process, dropped
    ones included; it is not part of :meth:`to_dict`.
    """

    def __init__(
        self,
        trace_id: str,
        name: str,
        tracer: "Tracer",
        start: float,
        attrs: Optional[dict] = None,
        max_events: int = 4096,
    ):
        self.trace_id = trace_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.events: List[dict] = []
        self.dropped_events = 0
        self.max_events = max_events
        self._tracer = tracer
        self._lock = threading.Lock()
        self._span_counter = ROOT
        self._totals: Dict[str, List[float]] = {}  # path -> [seconds, count]

    # -- recording ------------------------------------------------------
    def _next_span_id(self) -> int:
        with self._lock:
            self._span_counter += 1
            return self._span_counter

    def _top(self) -> Optional[TraceSpan]:
        """The calling thread's innermost open span of this trace, or None."""
        stack = self._tracer._stack()
        return stack[-1] if stack and stack[-1]._trace is self else None

    def _path_of(self, span_id: int) -> str:
        """Path of ``span_id`` when it is open on the calling thread, else ``""``.

        ``""`` is the trace root's path, so a span whose parent is not
        open here is totalled at the top level under its bare name.
        """
        for entry in reversed(self._tracer._stack()):
            if entry._trace is self and entry.span_id == span_id:
                return entry.path
        return ""

    def _record(
        self, span_id: int, parent_id: int, name: str, start: float, end: float, attrs: dict
    ) -> None:
        self._add_event(
            _child_path(self._path_of(parent_id), name),
            span_id, parent_id, name, start, end, attrs,
        )

    def _add_event(
        self,
        path: str,
        span_id: int,
        parent_id: int,
        name: str,
        start: float,
        end: float,
        attrs: dict,
    ) -> None:
        event = {
            "id": span_id,
            "parent": parent_id,
            "name": name,
            "start": start,
            "end": end,
            "thread": threading.current_thread().name,
            "attrs": dict(attrs),
        }
        with self._lock:
            if self.end is not None:
                # Late (trace already finished): drop, count, leave totals.
                self.dropped_events += 1
                return
            total = self._totals.get(path)
            if total is None:
                self._totals[path] = [end - start, 1]
            else:
                total[0] += end - start
                total[1] += 1
            if len(self.events) >= self.max_events:
                # Over budget: the event is dropped, its time still counts.
                self.dropped_events += 1
                return
            self.events.append(event)

    def span(self, name: str, **attrs) -> TraceSpan:
        """A child span context manager nested under the current span."""
        return TraceSpan(self, self._tracer, name, attrs)

    def handoff(self) -> Handoff:
        """Capture a cross-thread continuation token at the current span."""
        top = self._top()
        parent = top.span_id if top is not None else ROOT
        return Handoff(self, parent, self._tracer._clock(), self._tracer)

    def context(self) -> TraceContext:
        """Capture a cross-process :class:`TraceContext` at the current span."""
        top = self._top()
        parent = top.span_id if top is not None else ROOT
        return TraceContext(self.trace_id, parent)

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: Optional[int] = None,
        **attrs,
    ) -> int:
        """Record one finished span with explicit timestamps; returns its id.

        ``parent_id`` defaults to the calling thread's current span of
        this trace (the same parenting rule as :meth:`span`).  Used by
        the scatter-gather coordinator, which only knows a shard span's
        interval after the gather resolved and needs the id back to
        graft the worker's subtree under it.  The span is totalled under
        its parent's path when the parent is open on this thread, else
        under its bare name.
        """
        if parent_id is None:
            top = self._top()
            parent_id = top.span_id if top is not None else ROOT
        span_id = self._next_span_id()
        self._record(span_id, parent_id, name, start, end, attrs)
        return span_id

    def set(self, **attrs) -> "Trace":
        """Attach ``key=value`` attributes to the trace root; returns self."""
        self.attrs.update(attrs)
        return self

    # -- reading --------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{path: {"seconds": s, "count": n}}`` over the spans closed so far.

        A parent's seconds cover its children plus the glue between
        them.  Spans grafted from another process are in the events
        only.
        """
        with self._lock:
            return {
                path: {"seconds": seconds, "count": count}
                for path, (seconds, count) in sorted(self._totals.items())
            }

    @property
    def duration(self) -> float:
        """Trace wall time in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def children(self, parent_id: int = ROOT) -> List[dict]:
        """Finished child events of ``parent_id``, ordered by start time."""
        with self._lock:
            kids = [e for e in self.events if e["parent"] == parent_id]
        return sorted(kids, key=lambda e: (e["start"], e["id"]))

    def to_dict(self) -> dict:
        """JSON-ready form (what the JSONL trace log stores per line)."""
        with self._lock:
            events = [dict(e) for e in self.events]
            dropped = self.dropped_events
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
            "dropped_events": dropped,
            "events": events,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        """Rebuild a finished trace (e.g. read back from a trace log)."""
        trace = cls(
            trace_id=str(data.get("trace_id", "t?")),
            name=str(data.get("name", "?")),
            tracer=get_tracer(),
            start=float(data.get("start", 0.0)),
            attrs=data.get("attrs") or {},
        )
        trace.end = data.get("end")
        trace.events = [dict(e) for e in data.get("events", [])]
        trace.dropped_events = int(data.get("dropped_events", 0))
        if trace.events:
            trace._span_counter = max(e["id"] for e in trace.events)
        return trace


class _TraceContext:
    """Context manager opening one root trace on the current thread."""

    __slots__ = ("_tracer", "_name", "_attrs", "_trace", "_anchor")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Trace:
        tracer = self._tracer
        self._trace = tracer._new_trace(self._name, self._attrs)
        anchor = TraceSpan(self._trace, tracer, "<root>", {})
        anchor.span_id = ROOT
        self._anchor = anchor
        tracer._stack().append(anchor)
        tracer._push_phase(self._name)
        return self._trace

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        stack = tracer._stack()
        # Pop back to (and including) our anchor even if inner spans leaked.
        while stack:
            top = stack.pop()
            if top is self._anchor:
                break
        tracer._pop_phase()
        if exc_type is not None:
            self._trace.attrs.setdefault("error", exc_type.__name__)
        tracer._finish(self._trace)


class _NullSpan:
    """No-op stand-in returned by :func:`trace_span` with no active trace."""

    __slots__ = ()
    #: Inert id so graft call-sites can read ``span.span_id`` unconditionally.
    span_id = ROOT

    def set(self, **attrs) -> "_NullSpan":
        """Ignore attributes (no trace is recording)."""
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _NullTrace:
    """Inert :class:`Trace` stand-in handed out while the tracer is disabled.

    Presents the full recording surface (``set`` / ``span`` /
    ``record_span`` / ``handoff`` / ``context``) as no-ops so
    instrumented code paths — including the never-raises serving
    contract — run unchanged with tracing off.  It is never bound as
    *current* (the span stack stays empty), so :func:`current_trace`
    returns None and downstream handoff capture short-circuits too.
    """

    __slots__ = ()
    trace_id = "t-disabled"
    name = "<disabled>"

    def set(self, **attrs) -> "_NullTrace":
        """Ignore attributes (tracing is disabled)."""
        return self

    def span(self, name: str, **attrs) -> _NullSpan:
        """A no-op span context manager."""
        return _NULL_SPAN

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: Optional[int] = None,
        **attrs,
    ) -> int:
        """Record nothing; returns :data:`ROOT` as the placeholder id."""
        return ROOT

    def handoff(self) -> "_NullHandoff":
        """A no-op cross-thread continuation token."""
        return _NULL_HANDOFF

    def context(self) -> None:
        """No cross-process context while disabled (callers ship None)."""
        return None

    def totals(self) -> Dict[str, Dict[str, float]]:
        """No spans are recorded while disabled."""
        return {}


class _NullHandoff:
    """No-op :class:`Handoff` twin returned by :meth:`_NullTrace.handoff`."""

    __slots__ = ()

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Record nothing."""
        return None

    def record_wait(self, name: str = "queue-wait", end: Optional[float] = None, **attrs) -> None:
        """Record nothing."""
        return None

    def resume(self, wait_name: Optional[str] = "queue-wait") -> "_NullResumed":
        """A context manager yielding the inert trace."""
        return _NULL_RESUMED


class _NullResumed:
    """Context manager returned by :meth:`_NullHandoff.resume`."""

    __slots__ = ()

    def __enter__(self) -> _NullTrace:
        return _NULL_TRACE

    def __exit__(self, *exc) -> None:
        return None


class _NullTraceContext:
    """Context manager returned by :meth:`Tracer.trace` while disabled."""

    __slots__ = ()

    def __enter__(self) -> _NullTrace:
        return _NULL_TRACE

    def __exit__(self, *exc) -> None:
        return None


_NULL_TRACE = _NullTrace()
_NULL_HANDOFF = _NullHandoff()
_NULL_RESUMED = _NullResumed()
_NULL_TRACE_CONTEXT = _NullTraceContext()


class Tracer:
    """Creates traces, tracks the per-thread current span, keeps the ring.

    Parameters
    ----------
    ring_size:
        How many finished traces the in-memory ring retains (newest wins).
    clock:
        Injectable time source; tests pass a fake for deterministic output.
    log_path:
        Optional JSONL trace log (one finished trace per line); also
        settable later via :meth:`configure`.
    """

    def __init__(
        self,
        ring_size: int = 1024,
        clock: Callable[[], float] = time.perf_counter,
        log_path: Union[str, Path, None] = None,
    ):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ring: List[Trace] = []
        self._ring_size = ring_size
        self._counter = 0
        self._log_file = None
        self._enabled = True
        #: thread ident -> stack of open root-trace names; the innermost
        #: one is that thread's current *phase* (read cross-thread by the
        #: wall-clock sampler to attribute samples to serve.topk etc.).
        self._phases: Dict[int, List[str]] = {}
        if log_path is not None:
            self.configure(log_path=log_path)

    # -- configuration --------------------------------------------------
    def configure(
        self, log_path: Union[str, Path, None] = None, ring_size: Optional[int] = None
    ) -> None:
        """Re-point the JSONL trace log (None closes it) / resize the ring."""
        with self._lock:
            if self._log_file is not None:
                self._log_file.close()
                self._log_file = None
            if log_path is not None:
                path = Path(log_path)
                path.parent.mkdir(parents=True, exist_ok=True)
                self._log_file = open(path, "w")
            if ring_size is not None:
                self._ring_size = ring_size
                del self._ring[: max(0, len(self._ring) - ring_size)]

    # -- internals ------------------------------------------------------
    def _push_phase(self, name: str) -> None:
        ident = threading.get_ident()
        with self._lock:
            self._phases.setdefault(ident, []).append(name)

    def _pop_phase(self) -> None:
        ident = threading.get_ident()
        with self._lock:
            names = self._phases.get(ident)
            if names:
                names.pop()
            if not names:
                self._phases.pop(ident, None)

    def _stack(self) -> List[TraceSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_trace(self, name: str, attrs: dict) -> Trace:
        with self._lock:
            self._counter += 1
            trace_id = f"t{self._counter:06d}"
        return Trace(trace_id, name, self, self._clock(), attrs)

    def _finish(self, trace: Trace) -> None:
        end = self._clock()
        with trace._lock:
            trace.end = end
        with self._lock:
            self._ring.append(trace)
            if len(self._ring) > self._ring_size:
                del self._ring[: len(self._ring) - self._ring_size]
            if self._log_file is not None:
                self._log_file.write(json.dumps(trace.to_dict()) + "\n")
                self._log_file.flush()

    # -- public API -----------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether :meth:`trace` opens real traces (True by default)."""
        # Lock-free bool read: GIL-atomic, and a stale read only means one
        # extra (or one missed) trace around the toggle instant.
        return self._enabled  # lint: allow(C002)

    def set_enabled(self, enabled: bool) -> bool:
        """Toggle tracing; returns the previous state.

        While disabled, :meth:`trace` hands out an inert trace with the
        full recording surface as no-ops — instrumented code runs
        unchanged, nothing lands in the ring or the log.  Already-open
        real traces are unaffected.  This is how the sharded bench
        measures trace-collection overhead (qps with tracing on vs off).
        """
        with self._lock:
            previous = self._enabled
            self._enabled = bool(enabled)
        return previous

    def trace(self, name: str, **attrs) -> Union[_TraceContext, _NullTraceContext]:
        """Open a new root trace bound to the calling thread for the block."""
        if not self._enabled:  # lint: allow(C002)
            return _NULL_TRACE_CONTEXT
        return _TraceContext(self, name, attrs)

    def current(self) -> Optional[Trace]:
        """The trace bound to the calling thread, or None."""
        stack = self._stack()
        return stack[-1]._trace if stack else None

    def span(self, name: str, **attrs):
        """Child span of the current trace, or a no-op when none is active."""
        trace = self.current()
        if trace is None:
            return _NULL_SPAN
        return trace.span(name, **attrs)

    def annotate(self, **attrs) -> None:
        """Attach attributes to the innermost open span (or the trace root).

        A no-op when no trace is active, so library code can annotate
        unconditionally.
        """
        stack = self._stack()
        if not stack:
            return
        top = stack[-1]
        if top.span_id == ROOT or top.name in ("<root>", "<resumed>"):
            top._trace.set(**attrs)
        else:
            top.set(**attrs)

    def active_phases(self) -> Dict[int, str]:
        """Innermost open root-trace name per thread ident.

        This is the cross-thread join point for the wall-clock sampler
        (:mod:`repro.obs.sampler`): a sampled stack is attributed to the
        phase (``serve.topk``, ``train.epoch``, ...) its thread is
        currently serving.  Threads with no open root trace are absent.
        """
        with self._lock:
            return {ident: names[-1] for ident, names in self._phases.items() if names}

    def recent(self, n: Optional[int] = None, name: Optional[str] = None) -> List[Trace]:
        """The most recent finished traces, oldest→newest, newest last.

        ``name`` filters by trace name; ``n`` keeps only the last n after
        filtering.
        """
        with self._lock:
            traces = list(self._ring)
        if name is not None:
            traces = [t for t in traces if t.name == name]
        if n is not None:
            traces = traces[-n:]
        return traces

    def reset(self) -> None:
        """Drop the ring and restart trace-id numbering (tests)."""
        with self._lock:
            self._ring.clear()
            self._counter = 0


#: Process-wide default tracer used by the instrumented subsystems.
_DEFAULT = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default :class:`Tracer`."""
    return _DEFAULT


def current_trace() -> Optional[Trace]:
    """The calling thread's active trace on the default tracer, or None."""
    return _DEFAULT.current()


def trace_span(name: str, **attrs):
    """Child span of the current default-tracer trace (no-op without one)."""
    return _DEFAULT.span(name, **attrs)


def annotate(**attrs) -> None:
    """Attach attributes to the innermost open span on the default tracer."""
    _DEFAULT.annotate(**attrs)


def read_trace_log(path: Union[str, Path]) -> List[Trace]:
    """Parse a JSONL trace log back into finished :class:`Trace` objects."""
    traces: List[Trace] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            traces.append(Trace.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad trace line: {exc}") from None
    return traces


# ----------------------------------------------------------------------
# Cross-process stitching: capture -> remote subtree -> export -> graft.


def capture_context(tracer: Optional[Tracer] = None) -> Optional[TraceContext]:
    """The calling thread's :class:`TraceContext`, or None when not tracing.

    The dispatch-side half of cross-process tracing: serialise the
    result (``ctx.to_wire()``) into the request message.  Returns None
    when no trace is active (or tracing is disabled) so dispatch sites
    can ship ``None`` and workers skip subtree recording entirely.
    """
    tracer = tracer if tracer is not None else _DEFAULT
    trace = tracer.current()
    if trace is None:
        return None
    return trace.context()


def begin_remote(
    ctx: Optional[TraceContext],
    name: str = "remote",
    tracer: Optional[Tracer] = None,
    start: Optional[float] = None,
) -> Union[Trace, _NullTrace]:
    """Open a *detached* worker-side subtree for one cross-process request.

    The returned :class:`Trace` shares the originating trace's id but is
    never registered in any ring or log — it exists only to collect this
    request's worker-side spans (via :meth:`Trace.span`,
    :meth:`Trace.record_span` or the :class:`Handoff` machinery) until
    :func:`export_subtree` serialises them for the response message.

    ``ctx=None`` (an untraced request) returns the inert null trace, so
    worker handlers instrument unconditionally and pay nothing when the
    coordinator was not tracing.
    """
    if ctx is None:
        return _NULL_TRACE
    tracer = tracer if tracer is not None else _DEFAULT
    start = start if start is not None else tracer._clock()
    return Trace(ctx.trace_id, name, tracer, start)


def export_subtree(trace: Trace) -> dict:
    """Serialise a detached subtree's events for the response message.

    The inverse half is :func:`graft_subtree` on the coordinator; the
    payload is a plain dict (picklable over an ``mp.Queue``) carrying
    the trace id (so a mismatched graft can be refused), the raw span
    events with worker-local ids, and the worker-side dropped count.
    """
    with trace._lock:
        events = [dict(e) for e in trace.events]
        dropped = trace.dropped_events
    return {"trace_id": trace.trace_id, "events": events, "dropped": dropped}


def _sanitize_attrs(attrs: dict) -> dict:
    """Attrs with non-finite floats replaced by their repr strings.

    A worker can legitimately compute ``nan``/``inf`` attribute values
    (an empty-shard mean, a div-by-zero rate); strict JSON cannot carry
    them, so the graft turns them into ``"nan"``/``"inf"`` strings
    rather than poisoning the whole trace-log line.
    """
    clean: dict = {}
    for key, value in attrs.items():
        if isinstance(value, float) and not math.isfinite(value):
            clean[str(key)] = repr(value)
        else:
            clean[str(key)] = value
    return clean


def graft_subtree(
    trace: Trace,
    parent_id: int,
    payload: object,
    shard: Optional[int] = None,
    max_spans: int = 256,
) -> int:
    """Stitch an exported worker subtree under ``parent_id``; returns spans kept.

    The coordinator-side half of cross-process tracing.  Worker-local
    span ids are remapped onto this trace's sequence (id order is
    preserved, so remote parents stay below their children); remote
    parents outside the subtree re-anchor to ``parent_id``; remote
    timestamps land unchanged (one CLOCK_MONOTONIC axis across
    processes); attrs are sanitised via non-finite → repr strings; every
    grafted event is tagged with the owning ``shard`` id (rendered as
    ``s<shard>:<name>``).  Oversized subtrees are truncated to
    ``max_spans`` (lowest ids — the outermost spans — survive) and the
    excess, the worker-side drops, and any malformed events are counted
    into :attr:`Trace.dropped_events`.  A payload naming a different
    trace id grafts nothing.  Never raises on malformed payloads: the
    serving path calls this inside the never-raises contract.
    """
    if not isinstance(payload, dict):
        return 0
    events = payload.get("events")
    events = list(events) if isinstance(events, (list, tuple)) else []
    dropped = 0
    try:
        dropped += int(payload.get("dropped", 0) or 0)
    except (TypeError, ValueError):
        dropped += 1
    if str(payload.get("trace_id")) != trace.trace_id:
        # Wrong request's subtree: refuse the graft, surface the loss.
        with trace._lock:
            trace.dropped_events += len(events) + dropped
        return 0
    def _sort_id(event: object) -> int:
        # Defensive: a malformed event must not break the sort (the id
        # could be anything picklable); it is dropped in the loop below.
        try:
            return int(event["id"])  # type: ignore[index]
        except (TypeError, ValueError, KeyError):
            return 0

    events.sort(key=_sort_id)
    if len(events) > max_spans:
        dropped += len(events) - max_spans
        events = events[:max_spans]
    id_map: Dict[int, int] = {}
    grafted = 0
    for event in events:
        try:
            old_id = int(event["id"])
            old_parent = int(event.get("parent", ROOT))
            start = float(event.get("start", 0.0))
            end = float(event.get("end", start))
            name = str(event.get("name", "?"))
            attrs = _sanitize_attrs(dict(event.get("attrs") or {}))
            thread = str(event.get("thread", "remote"))
        except (TypeError, ValueError, KeyError):
            dropped += 1
            continue
        new_id = trace._next_span_id()
        id_map[old_id] = new_id
        out = {
            "id": new_id,
            "parent": id_map.get(old_parent, parent_id),
            "name": name,
            "start": start,
            "end": end,
            "thread": thread,
            "attrs": attrs,
        }
        if shard is not None:
            out["shard"] = int(shard)
        with trace._lock:
            if trace.end is not None or len(trace.events) >= trace.max_events:
                dropped += 1
                continue
            trace.events.append(out)
        grafted += 1
    if dropped:
        with trace._lock:
            trace.dropped_events += dropped
    return grafted


# ----------------------------------------------------------------------
# Rendering: critical-path trees for `repro-tmn trace`.


def _fmt_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    parts = []
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, float):
            value = f"{value:.6g}"
        parts.append(f"{key}={value}")
    return "  [" + " ".join(parts) + "]"


def _critical_child(children: Sequence[dict]) -> Optional[int]:
    """Index of the longest child span (the critical hop), or None."""
    if not children:
        return None
    durations = [e["end"] - e["start"] for e in children]
    return max(range(len(children)), key=lambda i: durations[i])


def format_trace(trace: Trace, deadline_s: Optional[float] = None) -> str:
    """Render one trace as an indented tree with a ``*``-marked critical path.

    Each line shows the span's duration, its share of the trace wall
    time, and — when the trace carries a ``deadline_s`` attribute (or
    one is passed explicitly) — its share of the deadline budget.  The
    critical path (longest child at each level, i.e. who the parent
    spent most of its time waiting on) is marked with ``*``.
    """
    total = trace.duration
    if deadline_s is None:
        raw = trace.attrs.get("deadline_s")
        deadline_s = float(raw) if isinstance(raw, (int, float)) else None
    header = (
        f"trace {trace.trace_id} {trace.name}  {total * 1e3:.2f}ms"
        f"{_fmt_attrs(trace.attrs)}"
    )
    lines = [header]
    if trace.dropped_events:
        lines.append(f"  ({trace.dropped_events} event(s) dropped: over budget or late)")

    def emit(parent_id: int, depth: int, on_critical: bool) -> None:
        children = trace.children(parent_id)
        critical = _critical_child(children)
        for i, event in enumerate(children):
            seconds = event["end"] - event["start"]
            share = seconds / total if total > 1e-12 else 0.0
            mark = "*" if (on_critical and i == critical) else " "
            budget = (
                f"  {seconds / deadline_s * 100:5.1f}% of deadline"
                if deadline_s
                else ""
            )
            # Process-crossing spans carry the shard id they ran on.
            label = (
                f"s{event['shard']}:{event['name']}"
                if "shard" in event
                else event["name"]
            )
            lines.append(
                f"{mark} {'  ' * depth}{label:<{max(24 - 2 * depth, 1)}s}"
                f"{seconds * 1e3:9.2f}ms {share * 100:5.1f}%"
                f"{budget}{_fmt_attrs(event['attrs'])}"
            )
            emit(event["id"], depth + 1, on_critical and i == critical)

    emit(ROOT, 1, True)
    if len(lines) == 1:
        lines.append("  (no spans recorded)")
    return "\n".join(lines)
