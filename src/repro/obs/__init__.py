"""repro.obs — opt-in observability for the whole package.

Three coordinated facilities:

* a process-local **metrics registry** (counters, gauges, fixed-bucket
  histograms) exported as Prometheus text or JSON lines;
* a **tracing API** (``span("fixedpoint.solve", routes=n)``) recording
  nested wall-clock spans into a ring buffer, exported as Chrome-trace
  JSON;
* stdlib-``logging`` integration: everything under the ``repro`` logger
  hierarchy, silent by default (``NullHandler`` on the root package).

Observability is **disabled by default and zero-cost when disabled**:
instrumented call sites check the module-level :data:`OBS` ``enabled``
flag (one attribute load) and otherwise touch shared no-op singletons,
so analysis/admission/simulation hot paths are unaffected unless a user
opts in::

    from repro import obs

    obs.enable()
    ... run admission / route selection / simulation ...
    print(obs.prometheus_text())
    obs.write_trace("trace.json")     # open in chrome://tracing
    obs.disable()

The CLI exposes the same switch per command:
``repro-ubac table1 --metrics-out m.prom --trace-out t.json``.
"""

from __future__ import annotations

import json
import logging
from typing import TYPE_CHECKING, Any, Optional, Union

from .._lazy import lazy_exports
from .metrics import (
    NULL_REGISTRY,
    Counter,
    DEFAULT_DEPTH_BUCKETS,
    DEFAULT_ITERATION_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from .trace import (
    NULL_SPAN,
    NullSpan,
    Span,
    SpanRecord,
    TraceContext,
    Tracer,
    new_span_id,
    new_trace_id,
    trace_context_from_obj,
)

if TYPE_CHECKING:
    from .export import to_chrome_trace, to_json_lines, to_prometheus_text

# Exporters run behind a flag (--metrics-port, --metrics-out,
# --trace-out), so they load on first use; the rest of this module is
# what every instrumented call site reads.
__getattr__, __dir__, _ = lazy_exports(
    __name__,
    globals(),
    {
        ".export": ("to_chrome_trace", "to_json_lines", "to_prometheus_text"),
    },
)

__all__ = [
    "OBS",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "span",
    "prometheus_text",
    "json_lines",
    "chrome_trace",
    "write_metrics",
    "write_trace",
    "MetricsRegistry",
    "NullRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "SpanRecord",
    "TraceContext",
    "new_trace_id",
    "new_span_id",
    "trace_context_from_obj",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_ITERATION_BUCKETS",
    "DEFAULT_DEPTH_BUCKETS",
]

logger = logging.getLogger("repro.obs")


class _ObsState:
    """Module-level switchboard every instrumented call site reads.

    ``OBS.enabled`` is the single flag hot paths check; ``registry`` and
    ``tracer`` always hold *usable* objects (no-op twins while
    disabled), so even an unguarded call site cannot crash — it just
    pays a few extra nanoseconds.
    """

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self):
        self.enabled = False
        self.registry: Union[MetricsRegistry, NullRegistry] = NULL_REGISTRY
        self.tracer: Optional[Tracer] = None

    # ------------------------------------------------------------- #

    def span(self, name: str, **attrs: Any):
        """A live span while enabled, the shared no-op otherwise."""
        if self.enabled:
            return self.tracer.span(name, **attrs)
        return NULL_SPAN


OBS = _ObsState()

#: Ring-buffer size (completed spans) of the tracer :func:`enable` makes.
TRACE_CAPACITY = 8192


def enable(*, fresh: bool = False) -> None:
    """Turn metrics and tracing on (idempotent; state survives
    re-enabling).  ``fresh`` drops previously collected data instead of
    accumulating.  An enabled state always has a registry and a tracer."""
    if fresh or isinstance(OBS.registry, NullRegistry):
        OBS.registry = MetricsRegistry()
    if fresh or OBS.tracer is None:
        OBS.tracer = Tracer(capacity=TRACE_CAPACITY)
    OBS.enabled = True
    logger.debug("observability enabled")


def disable() -> None:
    """Stop collecting.  Already-collected data stays readable."""
    OBS.enabled = False
    logger.debug("observability disabled")


def is_enabled() -> bool:
    return OBS.enabled


def reset() -> None:
    """Clear collected metrics and spans (keeps the enabled state)."""
    OBS.registry.reset()
    if OBS.tracer is not None:
        OBS.tracer.reset()


def get_registry() -> Union[MetricsRegistry, NullRegistry]:
    return OBS.registry


# ------------------------------------------------------------------ #
# convenience instrument accessors (enabled path)
# ------------------------------------------------------------------ #


def counter(name: str, **labels: str):
    return OBS.registry.counter(name, **labels)


def gauge(name: str, **labels: str):
    return OBS.registry.gauge(name, **labels)


def histogram(name: str, *, buckets=None, **labels: str):
    return OBS.registry.histogram(name, buckets=buckets, **labels)


def span(name: str, **attrs: Any):
    """Context manager timing a region; no-op while disabled."""
    return OBS.span(name, **attrs)


# ------------------------------------------------------------------ #
# export shortcuts bound to the active state
# ------------------------------------------------------------------ #


def prometheus_text() -> str:
    registry = OBS.registry
    if isinstance(registry, NullRegistry):
        return ""
    from .export import to_prometheus_text

    return to_prometheus_text(registry)


def json_lines() -> str:
    registry = OBS.registry
    if isinstance(registry, NullRegistry):
        return ""
    from .export import to_json_lines

    return to_json_lines(registry)


def chrome_trace() -> dict:
    tracer = OBS.tracer
    if tracer is None:
        return {"traceEvents": [], "displayTimeUnit": "ms", "otherData": {}}
    from .export import to_chrome_trace

    return to_chrome_trace(tracer)


def write_metrics(path: str, *, fmt: str = "prometheus") -> None:
    """Write the metrics snapshot to ``path`` (``prometheus``/``jsonl``)."""
    if fmt == "prometheus":
        text = prometheus_text()
    elif fmt in ("jsonl", "json-lines"):
        text = json_lines()
    else:
        raise ValueError(f"unknown metrics format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    logger.info("wrote metrics snapshot to %s (%s)", path, fmt)


def write_trace(path: str) -> None:
    """Write the span buffer to ``path`` as Chrome-trace JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(), fh)
    logger.info("wrote Chrome trace to %s", path)
