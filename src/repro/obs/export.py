"""Exporters: Prometheus text, JSON lines, Chrome-trace JSON.

All three formats are plain text/JSON with no third-party dependencies:

* :func:`to_prometheus_text` — the Prometheus exposition format
  (``# TYPE`` headers, ``name{label="v"} value`` samples, histogram
  ``_bucket``/``_sum``/``_count`` expansion with cumulative ``le``);
* :func:`to_json_lines` — one JSON object per series, for ad-hoc
  ``jq``/pandas analysis;
* :func:`to_chrome_trace` — ``traceEvents`` ("X" complete events)
  loadable in ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Mapping, Tuple

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import Tracer

__all__ = [
    "to_prometheus_text",
    "to_json_lines",
    "to_chrome_trace",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _fmt_labels(labels: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [
        f'{k}="{v}"' for k, v in labels
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render every series in the Prometheus exposition format."""
    lines: List[str] = []
    typed: set = set()
    for series in registry.series():
        name = series.name
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid Prometheus metric name {name!r}")
        labels = tuple((k, _escape(v)) for k, v in series.labels)
        if name not in typed:
            lines.append(f"# TYPE {name} {series.kind}")
            typed.add(name)
        if isinstance(series, (Counter, Gauge)):
            lines.append(f"{name}{_fmt_labels(labels)} "
                         f"{_fmt_value(series.value)}")
        elif isinstance(series, Histogram):
            cumulative = series.cumulative_counts()
            bounds = [_fmt_value(b) for b in series.bounds] + ["+Inf"]
            for bound, count in zip(bounds, cumulative):
                le = 'le="{}"'.format(bound)
                lines.append(
                    f"{name}_bucket{_fmt_labels(labels, le)} {count}"
                )
            lines.append(
                f"{name}_sum{_fmt_labels(labels)} {_fmt_value(series.sum)}"
            )
            lines.append(
                f"{name}_count{_fmt_labels(labels)} {series.count}"
            )
        else:  # pragma: no cover - registry only holds the three kinds
            raise TypeError(f"unknown series type {type(series)!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_json_lines(registry: MetricsRegistry) -> str:
    """One JSON object per series (``kind``, ``name``, ``labels``, data)."""
    out: List[str] = []
    for series in registry.series():
        record: Dict[str, object] = {
            "kind": series.kind,
            "name": series.name,
            "labels": dict(series.labels),
        }
        if isinstance(series, (Counter, Gauge)):
            record["value"] = series.value
        else:
            record.update(
                buckets=list(series.bounds),
                counts=list(series.bucket_counts),
                overflow=series.overflow,
                sum=series.sum,
                count=series.count,
            )
        out.append(json.dumps(record, sort_keys=True))
    return "\n".join(out) + ("\n" if out else "")


def to_chrome_trace(tracer: Tracer) -> Dict[str, object]:
    """Chrome ``traceEvents`` dict (complete "X" events, microseconds)."""
    events = []
    for r in tracer.records():
        args: Dict[str, object] = {"depth": r.depth}
        if r.parent_id is not None:
            args["parent_id"] = r.parent_id
        for k, v in r.attrs.items():
            args[k] = v if isinstance(v, (int, float, str, bool)) else str(v)
        events.append(
            {
                "name": r.name,
                "ph": "X",
                "ts": r.start * 1e6,
                "dur": r.duration * 1e6,
                "pid": 0,
                "tid": r.thread_id,
                "id": r.span_id,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"dropped_spans": tracer.dropped},
    }
