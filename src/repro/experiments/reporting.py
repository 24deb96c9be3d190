"""Plain-text table rendering for experiment outputs."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["format_table", "format_percent", "format_metrics_snapshot"]


def format_percent(value: float, digits: int = 0) -> str:
    """Render a fraction as a percentage string, e.g. 0.45 -> '45%'."""
    return f"{value * 100:.{digits}f}%"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Monospace table with a header rule, in the style of the paper."""
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    cols = len(headers)
    for i, row in enumerate(str_rows):
        if len(row) != cols:
            raise ValueError(
                f"row {i} has {len(row)} cells, expected {cols}"
            )
    widths = [
        max(len(headers[j]), *(len(r[j]) for r in str_rows))
        if str_rows
        else len(headers[j])
        for j in range(cols)
    ]

    def line(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    rule = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(rule)
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)


def format_metrics_snapshot() -> str:
    """Render the active :mod:`repro.obs` registry as a monospace table.

    Counters and gauges show their value; histograms show count, mean and
    max-bucket occupancy.  Returns an explanatory one-liner when
    observability is disabled (empty registry), so callers can print the
    result unconditionally.
    """
    from .. import obs
    from ..obs.metrics import Histogram

    series = obs.get_registry().series()
    if not series:
        return "(no metrics collected; enable with repro.obs.enable())"
    rows: List[List[str]] = []
    for s in series:
        labels = ",".join(f"{k}={v}" for k, v in s.labels)
        if isinstance(s, Histogram):
            value = (
                f"count={s.count} sum={s.sum:.6g} mean={s.mean:.6g}"
                if s.count
                else "count=0"
            )
        else:
            value = f"{s.value:.6g}"
        rows.append([s.name, labels, s.kind, value])
    return format_table(
        ["metric", "labels", "kind", "value"],
        rows,
        title="Metrics snapshot",
    )
