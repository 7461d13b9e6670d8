"""Cross-layer request tracing: contexts, a span ring, Chrome export.

The metrics plane (:mod:`repro.obs.metrics`) counts *how much* work each
layer did; this module records *where a given batch went*.  A
:class:`TraceContext` — a trace id plus a span id and optional parent —
is born client-side, rides the wire protocol's optional ``trace`` field
(HELLO/QUERY JSON frames; REPORTS frames inherit the connection's
context), follows the collector's decode→ring→flush→drain pipeline, and
rides each batch onto its :mod:`repro.stream.sharding` shard thread.
Completed spans land in a bounded overwrite ring (:class:`SpanRing`) on
the process-wide :class:`Tracer`, so one ring holds the whole request
path.

Everything here is **zero-cost while tracing is off** (the default):
:func:`trace_span` with a disabled tracer or a ``None`` context returns
a shared no-op span, call sites guard on ``tracer.enabled`` exactly like
the metrics registry, and no context objects are created at all.  Flip
with ``REPRO_OBS=1`` (the same switch as metrics) or
:func:`enable_tracing`.

The ring exports as Chrome trace-event JSON — ``{"traceEvents": [...]}``
with complete (``"ph": "X"``) events, microsecond timestamps, and the
trace/span/parent ids in ``args`` — loadable by Perfetto or
``chrome://tracing`` as-is, via ``repro-bench obs trace`` or the
``/traces`` HTTP route.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Optional, Union

#: Version of the span-record layout (bumped when fields change).
TRACE_SCHEMA = 1

#: Default bound on retained completed spans (older spans overwritten).
DEFAULT_RING_CAPACITY = 8192


def _new_id() -> str:
    """A fresh 64-bit hex id (trace and span ids share the format)."""
    return os.urandom(8).hex()


class TraceContext:
    """One position in a trace tree: ``(trace_id, span_id, parent_id)``.

    Contexts are plain immutable data — creating one never records
    anything.  :meth:`child` derives the context a sub-operation runs
    under (same trace, fresh span id, parented on this span), and
    :meth:`to_wire` / :meth:`from_wire` are the JSON form carried by the
    protocol's optional ``trace`` field.
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(
        self,
        trace_id: str,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> None:
        self.trace_id = str(trace_id)
        self.span_id = _new_id() if span_id is None else str(span_id)
        self.parent_id = None if parent_id is None else str(parent_id)

    @classmethod
    def root(cls) -> "TraceContext":
        """A fresh trace with this context as its root span."""
        return cls(_new_id())

    def child(self) -> "TraceContext":
        """A new span of the same trace, parented on this one."""
        return TraceContext(self.trace_id, parent_id=self.span_id)

    def to_wire(self) -> dict:
        """The JSON form carried on HELLO/QUERY frames."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, obj) -> Optional["TraceContext"]:
        """Rebuild a peer's context from a frame's ``trace`` field.

        Untrusted input: anything that is not a dict carrying string ids
        (length-capped) yields ``None`` rather than raising, so a
        malformed trace field degrades to an untraced connection instead
        of killing it.
        """
        if not isinstance(obj, dict):
            return None
        trace_id, span_id = obj.get("trace_id"), obj.get("span_id")
        if not isinstance(trace_id, str) or not 1 <= len(trace_id) <= 64:
            return None
        if span_id is not None and (
            not isinstance(span_id, str) or not 1 <= len(span_id) <= 64
        ):
            return None
        return cls(trace_id, span_id=span_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceContext(trace={self.trace_id}, span={self.span_id}, "
            f"parent={self.parent_id})"
        )


class SpanRing:
    """A bounded overwrite ring of completed span records.

    Writers never block and never allocate beyond the record itself: a
    shared :func:`itertools.count` hands out slot indices (atomic under
    the GIL, no lock on the write path) and each record lands at
    ``index % capacity``, overwriting the oldest once the ring wraps.
    :attr:`dropped` counts the overwritten spans so exporters can report
    truncation instead of silently presenting a partial trace.
    """

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._slots: list = [None] * capacity
        self._counter = itertools.count()
        self._written = 0

    def append(self, record: dict) -> None:
        index = next(self._counter)
        self._slots[index % self.capacity] = record
        self._written = index + 1

    def __len__(self) -> int:
        return min(self._written, self.capacity)

    @property
    def total(self) -> int:
        """Spans ever recorded (retained plus overwritten)."""
        return self._written

    @property
    def dropped(self) -> int:
        """Spans overwritten by the bounded ring (0 until it wraps)."""
        return max(0, self._written - self.capacity)

    def spans(self) -> list[dict]:
        """The retained records, oldest first."""
        total = self._written
        if total <= self.capacity:
            records = self._slots[:total]
        else:
            head = total % self.capacity
            records = self._slots[head:] + self._slots[:head]
        # A concurrent writer may have nulled nothing (slots only ever
        # hold records), but guard against a torn startup anyway.
        return [record for record in records if record is not None]

    def clear(self) -> None:
        self._slots = [None] * self.capacity
        self._counter = itertools.count()
        self._written = 0


class _NoopSpan:
    """The shared do-nothing span for disabled tracers / absent contexts."""

    __slots__ = ()
    ctx = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NOOP = _NoopSpan()


class _ActiveSpan:
    """A recording span: measures wall-clock bounds, records on exit.

    ``ctx`` is the span's own context (a child of the one passed in when
    ``child=True``) — hand ``span.ctx`` to sub-operations so their spans
    parent on this one.
    """

    __slots__ = ("_tracer", "_name", "_cat", "ctx", "_args", "_start", "_t0")

    def __init__(self, tracer, name, cat, ctx, args) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self.ctx = ctx
        self._args = args
        self._start = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self._start = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.record(
            self._name,
            self.ctx,
            start=self._start,
            duration=time.perf_counter() - self._t0,
            cat=self._cat,
            **self._args,
        )


class Tracer:
    """The span recorder: a switch, a ring, and an export surface."""

    def __init__(
        self,
        capacity: int = DEFAULT_RING_CAPACITY,
        enabled: bool = False,
        service: Optional[str] = None,
    ) -> None:
        self._enabled = bool(enabled)
        self.ring = SpanRing(capacity)
        self.service = service or f"pid{os.getpid()}"

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> "Tracer":
        self._enabled = True
        return self

    def disable(self) -> "Tracer":
        self._enabled = False
        return self

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        ctx: Optional[TraceContext],
        cat: str = "repro",
        child: bool = True,
        **args,
    ) -> Union[_ActiveSpan, _NoopSpan]:
        """A context manager timing one operation under ``ctx``.

        Returns the shared no-op span when tracing is off or ``ctx`` is
        ``None`` — the call costs one branch and allocates nothing, so
        instrumented hot paths stay free with tracing disabled.  With
        ``child=True`` (default) the span runs under a fresh child
        context (exposed as ``span.ctx`` for further propagation); with
        ``child=False`` it records as ``ctx``'s own span.
        """
        if not self._enabled or ctx is None:
            return _NOOP
        span_ctx = ctx.child() if child else ctx
        return _ActiveSpan(self, name, cat, span_ctx, args)

    def record(
        self,
        name: str,
        ctx: TraceContext,
        start: float,
        duration: float,
        cat: str = "repro",
        service: Optional[str] = None,
        thread: Optional[str] = None,
        **args,
    ) -> None:
        """Record one completed span (the raw form behind the span
        context manager)."""
        if not self._enabled or ctx is None:
            return
        self.ring.append(
            {
                "name": str(name),
                "cat": str(cat),
                "trace_id": ctx.trace_id,
                "span_id": ctx.span_id,
                "parent_id": ctx.parent_id,
                "start": float(start),
                "duration": float(duration),
                "service": service or self.service,
                "thread": thread or threading.current_thread().name,
                "args": args,
            }
        )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def drain_spans(self) -> list[dict]:
        """The retained spans, leaving the ring untouched."""
        return self.ring.spans()

    def export_chrome(self) -> dict:
        """The ring as a Chrome trace-event document (see
        :func:`chrome_trace`)."""
        return chrome_trace(self.ring.spans(), dropped=self.ring.dropped)

    def write_chrome(self, path: Union[str, Path]) -> Path:
        """Write :meth:`export_chrome` as JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.export_chrome(), indent=2) + "\n")
        return path

    def clear(self) -> None:
        self.ring.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(enabled={self._enabled}, spans={len(self.ring)}, "
            f"dropped={self.ring.dropped})"
        )


def chrome_trace(spans, dropped: int = 0) -> dict:
    """Span records as a Chrome trace-event JSON document.

    Every record becomes one complete (``"ph": "X"``) event with
    microsecond epoch timestamps; the trace/span/parent ids travel in
    ``args`` so tooling (and the tests) can stitch the request path back
    together.  Services map to ``pid`` rows and threads to ``tid`` rows
    via metadata events, which is how Perfetto groups the timeline.
    """
    events: list[dict] = []
    services: dict[str, int] = {}
    threads: dict[tuple[int, str], int] = {}
    for record in spans:
        service = record.get("service", "repro")
        pid = services.setdefault(service, len(services) + 1)
        thread_key = (pid, record.get("thread", "main"))
        tid = threads.setdefault(thread_key, len(threads) + 1)
        args = dict(record.get("args") or {})
        args["trace_id"] = record["trace_id"]
        args["span_id"] = record["span_id"]
        if record.get("parent_id"):
            args["parent_id"] = record["parent_id"]
        events.append(
            {
                "name": record["name"],
                "cat": record.get("cat", "repro"),
                "ph": "X",
                "ts": record["start"] * 1e6,
                "dur": max(record["duration"], 0.0) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    for service, pid in services.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": service},
            }
        )
    for (pid, thread), tid in threads.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": thread},
            }
        )
    return {
        "traceEvents": events,
        "otherData": {"schema": TRACE_SCHEMA, "dropped_spans": int(dropped)},
    }


#: The process-wide tracer; enabled by the same switch as metrics.
_TRACER = Tracer(
    enabled=os.environ.get("REPRO_OBS", "") not in ("", "0")
)


def get_tracer() -> Tracer:
    """The process-wide tracer (serve/stream layers record here)."""
    return _TRACER


def enable_tracing() -> Tracer:
    """Switch the process-wide tracer on; returns it."""
    return _TRACER.enable()


def disable_tracing() -> Tracer:
    """Switch the process-wide tracer off; returns it."""
    return _TRACER.disable()


def trace_span(
    name: str, ctx: Optional[TraceContext], **args
) -> Union[_ActiveSpan, _NoopSpan]:
    """A span on the process-wide tracer (no-op when disabled/untraced)."""
    return _TRACER.span(name, ctx, **args)


class tracing_enabled:
    """Context manager: enable the tracer for a scope, restore on exit
    (the tracing twin of :class:`repro.obs.metrics.enabled`)."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self._tracer = _TRACER if tracer is None else tracer
        self._was_enabled = False

    def __enter__(self) -> Tracer:
        self._was_enabled = self._tracer.enabled
        self._tracer.enable()
        return self._tracer

    def __exit__(self, *exc_info) -> None:
        if not self._was_enabled:
            self._tracer.disable()
