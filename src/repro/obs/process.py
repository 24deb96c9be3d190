"""Process memory and start time, read on demand.

The one resource an admission server can leak without any request
failing is memory, and the one latency every deployment pays per
process (and again per restarted worker) is start-up, so the running
system reports its own: the ``stats`` op, ``/metrics`` and ``repro-ubac
top`` all read them through here.  A read costs one or two small files
and happens only when somebody asks — never per op — and does not go
through the metrics registry, so it is the same whether observability
is on or off.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from typing import Tuple

__all__ = [
    "process_memory_bytes",
    "process_memory_mb",
    "process_start_time",
    "process_text",
    "startup_seconds",
]

_MB = 1024.0 * 1024.0

# Where there is no procfs this stands in for the process start: late by
# the interpreter's own start-up, but never later than any import of ours.
_IMPORTED_AT = time.time()


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


@functools.lru_cache(maxsize=None)
def process_start_time() -> float:
    """Unix time at which this process was started, to ~10 ms.

    ``starttime`` (clock ticks after boot) from ``/proc/self/stat``
    against ``/proc/uptime``, which resolves centiseconds where
    ``btime`` in ``/proc/stat`` only resolves seconds; without procfs,
    the time this module was imported.  Read once: a start time that
    moved between two scrapes would read as a restart.
    """
    try:
        with open("/proc/self/stat", "rb") as fh:
            # The command name (field 2) may hold spaces and brackets;
            # the numeric fields resume after its closing one.
            ticks = int(fh.read().rsplit(b")", 1)[1].split()[19])
        with open("/proc/uptime", "rb") as fh:
            since_boot = float(fh.read().split()[0])
        started_after_boot = ticks / os.sysconf("SC_CLK_TCK")
        return time.time() - (since_boot - started_after_boot)
    except (OSError, ValueError, IndexError):
        return _IMPORTED_AT


def startup_seconds(listening_at: float) -> float:
    """Process start to ``listening_at`` (Unix time a socket opened),
    rounded for ``stats`` / ``health``."""
    return round(max(0.0, listening_at - process_start_time()), 3)


def process_text() -> str:
    """The process gauges in Prometheus exposition format, under the
    names the standard client libraries use."""
    rss, peak = process_memory_bytes()
    return (
        "# TYPE process_resident_memory_bytes gauge\n"
        f"process_resident_memory_bytes {rss}\n"
        "# TYPE process_peak_resident_memory_bytes gauge\n"
        f"process_peak_resident_memory_bytes {peak}\n"
        "# TYPE process_start_time_seconds gauge\n"
        f"process_start_time_seconds {process_start_time():.2f}\n"
    )
