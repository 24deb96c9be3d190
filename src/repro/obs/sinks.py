"""Streaming span sinks: persist spans beyond the ring buffer.

The tracer's ring buffer bounds memory, which also means a long service
run silently evicts its oldest spans — fine for ad-hoc profiling, wrong
for a server whose whole point is that every request is attributable
after the fact.  A *sink* attached via :meth:`~repro.obs.trace.Tracer.
add_sink` receives every completed :class:`~repro.obs.trace.SpanRecord`
as it lands and can stream it somewhere durable.

:class:`JsonLinesSpanSink` is the shipped implementation: one JSON
object per span (schema ``repro-span/v1``, header line first), buffered
writes flushed every ``FLUSH_EVERY`` spans and on close.  The format is
``jq``/pandas-friendly and carries the wire trace ids
(``trace_id``/``parent_id`` span attributes) so cross-process span
chains can be joined offline.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Optional

from .trace import SpanRecord, Tracer

__all__ = ["SPAN_SCHEMA", "JsonLinesSpanSink"]

SPAN_SCHEMA = "repro-span/v1"

#: Spans buffered between two flushes of the file.
FLUSH_EVERY = 64


def _span_obj(record: SpanRecord) -> Dict[str, Any]:
    obj: Dict[str, Any] = {
        "span_id": record.span_id,
        "name": record.name,
        "start": record.start,
        "duration": record.duration,
        "depth": record.depth,
        "thread_id": record.thread_id,
    }
    if record.parent_id is not None:
        obj["parent_id"] = record.parent_id
    if record.attrs:
        obj["attrs"] = {
            k: v if isinstance(v, (int, float, str, bool)) else str(v)
            for k, v in record.attrs.items()
        }
    return obj


class JsonLinesSpanSink:
    """Append completed spans to a JSON-lines file.

    Usable as a plain callable (``tracer.add_sink(sink)``) and as a
    context manager.  ``attach``/``detach`` wire it to a tracer in one
    call.  Writes are buffered; the header line is written on open so
    even an empty run leaves a self-describing file.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self.written = 0
        self._since_flush = 0
        self._tracer: Optional[Tracer] = None
        self._fh: Optional[IO[str]] = open(
            self.path, "a", encoding="utf-8"
        )
        if self._fh.tell() == 0:
            self._fh.write(
                json.dumps(
                    {"schema": SPAN_SCHEMA},
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n"
            )

    # -------------------------------------------------------------- #

    def __call__(self, record: SpanRecord) -> None:
        if self._fh is None:
            return
        self._fh.write(
            json.dumps(
                _span_obj(record), sort_keys=True, separators=(",", ":")
            )
            + "\n"
        )
        self.written += 1
        self._since_flush += 1
        if self._since_flush >= FLUSH_EVERY:
            self._fh.flush()
            self._since_flush = 0

    def attach(self, tracer: Tracer) -> "JsonLinesSpanSink":
        tracer.add_sink(self)
        self._tracer = tracer
        return self

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._since_flush = 0

    def close(self) -> None:
        """Flush, close the file, and detach from the tracer."""
        if self._tracer is not None:
            self._tracer.remove_sink(self)
            self._tracer = None
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonLinesSpanSink":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

