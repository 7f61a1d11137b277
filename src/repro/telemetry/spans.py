"""The tracing core: nested spans with monotonic timings and stable ids.

A *span* is one timed unit of campaign work — a capture attempt, a
scoring pass, a whole activity pair — opened as a context manager::

    with telemetry.span("capture", index=3, attempt=1, stage="capture"):
        ...

Spans nest per thread (the enclosing span becomes the parent), time
themselves with ``time.perf_counter`` (monotonic — wall-clock steps
cannot corrupt durations), and are emitted to the pipeline's sinks on
exit as plain-dict records.

Span ids are **seed-stable**: an id is the SHA-256 of the span's name,
its identifying attributes, and its per-identity occurrence number — a
pure function of *what work ran*, never of time, thread ids, or
``random``. Two runs of the same seeded campaign therefore produce the
same span ids regardless of worker count or scheduling, which is what
lets a resumed run's trace be diffed against an uninterrupted one.
Emission *order* under ``n_workers > 1`` still follows the scheduler (on
the clean, fault-screened and durable capture routes alike, which share
one thread pool per campaign); stable ids are what make the streams
comparable anyway.
"""

from __future__ import annotations

import hashlib
import threading
import time


def _stable_id(name, attrs, occurrence):
    identity = (name, tuple(sorted((k, repr(v)) for k, v in attrs.items())), occurrence)
    return hashlib.sha256(repr(identity).encode("utf-8")).hexdigest()[:16]


class SpanHandle:
    """One open span; also usable to annotate (``set``) before close."""

    __slots__ = (
        "name", "attrs", "stage", "span_id", "parent_id", "t_start", "child_seconds",
    )

    def __init__(self, name, attrs, stage, span_id, parent_id, t_start):
        self.name = name
        self.attrs = attrs
        self.stage = stage
        self.span_id = span_id
        self.parent_id = parent_id
        self.t_start = t_start
        self.child_seconds = 0.0

    def set(self, **attrs):
        """Attach extra attributes to the span before it closes."""
        self.attrs.update(attrs)
        return self


class Tracer:
    """Creates, nests, and emits spans for one telemetry pipeline.

    ``emit`` is called with each finished span's record dict; ``on_close``
    (if given) receives ``(stage, duration_s, self_s)`` for profiler and
    histogram attribution — ``self_s`` is the span's *exclusive* time
    (children subtracted), so per-stage shares add up to 100% instead of
    double-counting nested stages.
    """

    def __init__(self, emit, on_close=None, clock=time.perf_counter):
        self._emit = emit
        self._on_close = on_close
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._occurrences = {}
        self._stack = threading.local()

    # ------------------------------------------------------------------

    def _occurrence(self, key):
        with self._lock:
            n = self._occurrences.get(key, 0)
            self._occurrences[key] = n + 1
        return n

    def _stack_for_thread(self):
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = []
            self._stack.spans = stack
        return stack

    def current_span(self):
        """The innermost open span on this thread, or ``None``."""
        stack = self._stack_for_thread()
        return stack[-1] if stack else None

    def open(self, name, stage=None, parent_id=None, **attrs):
        """Open a span. Prefer the ``span()`` context manager."""
        identity = (name, tuple(sorted((k, repr(v)) for k, v in attrs.items())))
        span_id = _stable_id(name, attrs, self._occurrence(identity))
        if parent_id is None:
            parent = self.current_span()
            parent_id = parent.span_id if parent is not None else None
        handle = SpanHandle(name, dict(attrs), stage, span_id, parent_id, self._clock())
        self._stack_for_thread().append(handle)
        return handle

    def close(self, handle, status="ok"):
        """Close a span: pop it, attribute its time, emit its record."""
        now = self._clock()
        duration = now - handle.t_start
        stack = self._stack_for_thread()
        if stack and stack[-1] is handle:
            stack.pop()
            parent = stack[-1] if stack else None
            if parent is not None:
                parent.child_seconds += duration
        self_s = max(duration - handle.child_seconds, 0.0)
        if self._on_close is not None:
            self._on_close(handle.stage, duration, self_s)
        record = {
            "kind": "span",
            "name": handle.name,
            "span_id": handle.span_id,
            "parent_id": handle.parent_id,
            "t_start_s": handle.t_start - self._epoch,
            "duration_s": duration,
            "status": status,
        }
        if handle.stage is not None:
            record["stage"] = handle.stage
        if handle.attrs:
            record["attrs"] = dict(handle.attrs)
        self._emit(record)
        return record

    def span(self, name, stage=None, parent_id=None, **attrs):
        """Context manager: open on enter, close (status-aware) on exit."""
        return _SpanContext(self, name, stage, parent_id, attrs)

    def event(self, name, **attrs):
        """A zero-duration point record (resume notices, fault injections)."""
        now = self._clock()
        parent = self.current_span()
        identity = (name, tuple(sorted((k, repr(v)) for k, v in attrs.items())))
        record = {
            "kind": "event",
            "name": name,
            "span_id": _stable_id(name, attrs, self._occurrence(identity)),
            "parent_id": parent.span_id if parent is not None else None,
            "t_start_s": now - self._epoch,
        }
        if attrs:
            record["attrs"] = dict(attrs)
        self._emit(record)
        return record


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_stage", "_parent_id", "_attrs", "handle")

    def __init__(self, tracer, name, stage, parent_id, attrs):
        self._tracer = tracer
        self._name = name
        self._stage = stage
        self._parent_id = parent_id
        self._attrs = attrs
        self.handle = None

    def __enter__(self):
        self.handle = self._tracer.open(
            self._name, stage=self._stage, parent_id=self._parent_id, **self._attrs
        )
        return self.handle

    def __exit__(self, exc_type, exc, tb):
        self._tracer.close(self.handle, status="ok" if exc_type is None else "error")
        return False
