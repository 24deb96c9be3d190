"""Lightweight structured tracing: nested spans in a ring buffer.

A *span* measures one timed region (``fixedpoint.solve``,
``admission.admit``, ...) with wall-clock duration, nesting depth,
parent linkage, and free-form attributes.  Completed spans land in a
bounded ring buffer (oldest evicted first) so long experiment runs
cannot grow memory without bound; the buffer exports losslessly to
Chrome-trace JSON (``chrome://tracing`` / Perfetto ``traceEvents``
format) via :mod:`repro.obs.export`.

Usage::

    tracer = Tracer()
    with tracer.span("routing.select", pairs=12) as sp:
        ...
        sp.set(candidates=evaluated)   # attach results before exit

Spans nest lexically per thread; the tracer keeps a per-thread stack so
depth/parent attribution stays correct if a simulator or benchmark runs
in a worker thread.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "SpanRecord",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "TraceContext",
    "new_trace_id",
    "new_span_id",
    "trace_context_from_obj",
]

#: Default ring-buffer capacity (completed spans retained).
DEFAULT_CAPACITY = 8192

_TRACE_ID_BYTES = 16
_SPAN_ID_BYTES = 8
_HEX_DIGITS = frozenset("0123456789abcdef")


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace id (W3C traceparent width)."""
    return os.urandom(_TRACE_ID_BYTES).hex()


def new_span_id() -> str:
    """A fresh 16-hex-digit span id (W3C traceparent width)."""
    return os.urandom(_SPAN_ID_BYTES).hex()


@dataclass(frozen=True)
class TraceContext:
    """Wire-propagated trace identity (W3C-traceparent-style ids).

    ``trace_id`` names the whole end-to-end request; ``span_id`` names
    the sender's span, i.e. the *parent* of whatever span the receiver
    opens for the work.  Both are lowercase hex strings of fixed width
    and must not be all-zero.
    """

    trace_id: str
    span_id: str

    def to_obj(self) -> Dict[str, str]:
        """Wire form: the ``trace`` field of a protocol frame."""
        return {"trace_id": self.trace_id, "parent_id": self.span_id}


def _valid_hex_id(value: Any, width: int) -> bool:
    return (
        isinstance(value, str)
        and len(value) == width
        and set(value) <= _HEX_DIGITS
        and set(value) != {"0"}
    )


def trace_context_from_obj(obj: Any) -> Optional[TraceContext]:
    """Validated :class:`TraceContext` from a wire ``trace`` object.

    Telemetry is advisory: a malformed or missing context yields
    ``None`` (the request is still served), never an error — old peers
    that do not understand the field must stay interoperable.
    """
    if not isinstance(obj, dict):
        return None
    trace_id = obj.get("trace_id")
    parent_id = obj.get("parent_id")
    if not _valid_hex_id(trace_id, 2 * _TRACE_ID_BYTES):
        return None
    if not _valid_hex_id(parent_id, 2 * _SPAN_ID_BYTES):
        return None
    return TraceContext(trace_id=trace_id, span_id=parent_id)


@dataclass
class SpanRecord:
    """One completed span.

    ``start``/``duration`` are seconds on the tracer's monotonic
    timeline (zero at tracer creation); ``depth`` is 0 for root spans;
    ``parent_id`` is ``None`` for roots.
    """

    span_id: int
    name: str
    start: float
    duration: float
    depth: int
    parent_id: Optional[int]
    thread_id: int
    attrs: Dict[str, Any] = field(default_factory=dict)


class Span:
    """Live context manager; becomes a :class:`SpanRecord` on exit."""

    __slots__ = (
        "_tracer", "_name", "_attrs", "_span_id",
        "_start", "_depth", "_parent_id",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span_id = next(tracer._ids)
        self._start = 0.0
        self._depth = 0
        self._parent_id: Optional[int] = None

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self._attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self._depth = len(stack)
        self._parent_id = stack[-1] if stack else None
        stack.append(self._span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        stack = self._tracer._stack()
        if stack and stack[-1] == self._span_id:
            stack.pop()
        if exc_type is not None:
            self._attrs.setdefault("error", exc_type.__name__)
        self._tracer._record(
            SpanRecord(
                span_id=self._span_id,
                name=self._name,
                start=self._start - self._tracer._t0,
                duration=duration,
                depth=self._depth,
                parent_id=self._parent_id,
                thread_id=threading.get_ident(),
                attrs=self._attrs,
            )
        )


class NullSpan:
    """Shared no-op span for the disabled path."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = NullSpan()


class Tracer:
    """Span factory plus bounded buffer of completed spans."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = int(capacity)
        self._buffer: Deque[SpanRecord] = deque(maxlen=self.capacity)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._t0 = time.perf_counter()
        self._dropped = 0

    # -------------------------------------------------------------- #

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def record_span(
        self,
        name: str,
        *,
        start: float,
        duration: float,
        parent_id: Optional[int] = None,
        depth: int = 0,
        **attrs: Any,
    ) -> SpanRecord:
        """Record a span whose timing was measured externally.

        The lexical ``with tracer.span(...)`` form assumes the region
        nests on the current thread's stack; async request handlers
        interleave many logical requests on one thread, so they measure
        stage timings themselves (``time.perf_counter()`` values) and
        emit the finished span here.  ``start`` is an absolute
        ``perf_counter`` reading; it is rebased onto the tracer's
        timeline.
        """
        record = SpanRecord(
            span_id=next(self._ids),
            name=name,
            start=start - self._t0,
            duration=duration,
            depth=depth,
            parent_id=parent_id,
            thread_id=threading.get_ident(),
            attrs=attrs,
        )
        self._record(record)
        return record

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, record: SpanRecord) -> None:
        if len(self._buffer) == self.capacity:
            self._dropped += 1
        self._buffer.append(record)

    # -------------------------------------------------------------- #

    @property
    def dropped(self) -> int:
        """Spans evicted by the ring buffer since the last reset."""
        return self._dropped

    def records(self) -> List[SpanRecord]:
        """Completed spans, oldest first."""
        return list(self._buffer)

    def reset(self) -> None:
        self._buffer.clear()
        self._dropped = 0
        self._t0 = time.perf_counter()

    def __len__(self) -> int:
        return len(self._buffer)
