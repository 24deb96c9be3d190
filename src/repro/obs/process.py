"""Process memory, read on demand.

The one resource an admission server can leak without any request
failing is memory, so the running system reports its own: the ``stats``
op, ``/metrics`` and ``repro-ubac top`` all read it through here.  The
read costs one small file and happens only when somebody asks — never
per op — and does not go through the metrics registry, so it is the
same whether observability is on or off.
"""

from __future__ import annotations

import sys
from typing import Tuple

__all__ = [
    "process_memory_bytes",
    "process_memory_mb",
    "process_memory_text",
]

_MB = 1024.0 * 1024.0


def process_memory_bytes() -> Tuple[int, int]:
    """``(resident, peak resident)`` bytes of this process.

    ``VmRSS`` / ``VmHWM`` from ``/proc/self/status`` where there is one;
    elsewhere ``getrusage`` knows only the peak, which then stands in
    for both.
    """
    try:
        found = {}
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith((b"VmRSS:", b"VmHWM:")):
                    found[line[:5]] = int(line.split()[1]) * 1024
        return found[b"VmRSS"], found[b"VmHWM"]
    except (OSError, KeyError, ValueError, IndexError):
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform != "darwin":  # Linux/BSD report kB, macOS bytes
            peak *= 1024
        return peak, peak


def process_memory_mb() -> Tuple[float, float]:
    """:func:`process_memory_bytes` in MB, rounded for ``stats``."""
    rss, peak = process_memory_bytes()
    return round(rss / _MB, 1), round(peak / _MB, 1)


def process_memory_text() -> str:
    """The two process gauges in Prometheus exposition format, under
    the names the standard client libraries use."""
    rss, peak = process_memory_bytes()
    return (
        "# TYPE process_resident_memory_bytes gauge\n"
        f"process_resident_memory_bytes {rss}\n"
        "# TYPE process_peak_resident_memory_bytes gauge\n"
        f"process_peak_resident_memory_bytes {peak}\n"
    )
