"""Rolling-window SLO tracking: recent quantiles vs configured targets.

Lifetime histograms answer "how has the service behaved since boot";
an SLO needs "how is it behaving *right now*".  This module keeps
time-sliced rolling windows — a ring of per-slice bucket counts where
expired slices are zeroed lazily — so p50/p99 latency and the request
count over the last ``window`` seconds cost O(slices × buckets) to read
and O(1) to update, with no timestamps stored per observation.

:class:`SLOTracker` compares the measured window against the
:data:`P50_MS` / :data:`P99_MS` objectives and reports *burn rates*
(measured / target; > 1 means the objective is being violated right
now), which the service surfaces in ``stats``, ``/healthz``, and as
gauges on the metrics registry.  All clocks are injectable for
deterministic tests.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

from .metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

__all__ = [
    "RollingCounter",
    "RollingHistogram",
    "SLOTracker",
]


#: Slices per rolling window: data expires in steps of window / SLICES.
SLICES = 12

#: Per-op latency objectives of the rolling window, in milliseconds.
P50_MS = 50.0
P99_MS = 250.0
#: Seconds the rolling window spans.
WINDOW_SECONDS = 60.0


class _SliceRing:
    """Shared slice bookkeeping: lazily-zeroed ring of window slices."""

    def __init__(self, window: float, clock: Callable[[], float]):
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self.window = float(window)
        self.slices = SLICES
        self._clock = clock
        self._slice_width = self.window / self.slices
        #: Epoch (slice number since time zero) stored per ring slot;
        #: a slot whose epoch is stale gets zeroed before reuse/read.
        self._epochs = [-1] * self.slices

    def current_epoch(self) -> int:
        return int(self._clock() / self._slice_width)

    def slot_for(self, epoch: int) -> Tuple[int, bool]:
        """Ring index for ``epoch`` and whether the slot must be zeroed."""
        idx = epoch % self.slices
        stale = self._epochs[idx] != epoch
        self._epochs[idx] = epoch
        return idx, stale

    def live_slots(self, epoch: int) -> List[int]:
        """Ring indices whose data is still inside the window."""
        oldest = epoch - self.slices + 1
        return [
            i
            for i in range(self.slices)
            if oldest <= self._epochs[i] <= epoch
        ]


class RollingCounter:
    """Event count over the trailing ``window`` seconds."""

    def __init__(
        self,
        *,
        window: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._ring = _SliceRing(window, clock)
        self._counts = [0] * self._ring.slices

    def inc(self, value: int = 1) -> None:
        idx, stale = self._ring.slot_for(self._ring.current_epoch())
        if stale:
            self._counts[idx] = 0
        self._counts[idx] += value

    def total(self) -> int:
        epoch = self._ring.current_epoch()
        return sum(self._counts[i] for i in self._ring.live_slots(epoch))

    def rate(self) -> float:
        """Events per second over the window."""
        return self.total() / self._ring.window


class RollingHistogram:
    """Bucketed value distribution over the trailing window.

    Quantiles are bucket-resolution estimates: :meth:`quantile` returns
    the upper bound of the bucket containing the requested rank
    (overflow observations clamp to the last finite bound), which is
    exactly the resolution a Prometheus ``histogram_quantile`` would
    give for the same buckets: ``DEFAULT_LATENCY_BUCKETS``.
    """

    def __init__(
        self,
        *,
        window: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.bounds = tuple(float(b) for b in DEFAULT_LATENCY_BUCKETS)
        self._ring = _SliceRing(window, clock)
        # One bucket-count row per slice; last column is overflow.
        width = len(self.bounds) + 1
        self._rows = [[0] * width for _ in range(self._ring.slices)]

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` in one update."""
        idx, stale = self._ring.slot_for(self._ring.current_epoch())
        row = self._rows[idx]
        if stale:
            for i in range(len(row)):
                row[i] = 0
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                row[i] += count
                return
        row[-1] += count

    def _merged(self) -> List[int]:
        epoch = self._ring.current_epoch()
        merged = [0] * (len(self.bounds) + 1)
        for idx in self._ring.live_slots(epoch):
            row = self._rows[idx]
            for i, c in enumerate(row):
                merged[i] += c
        return merged

    def count(self) -> int:
        return sum(self._merged())

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` (0..1); 0.0 for an empty window."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        merged = self._merged()
        total = sum(merged)
        if total == 0:
            return 0.0
        rank = q * total
        running = 0.0
        for i, c in enumerate(merged[:-1]):
            running += c
            if running >= rank:
                return self.bounds[i]
        return self.bounds[-1]


class SLOTracker:
    """Measure rolling per-op latency against an SLO.

    The service feeds it arriving requests and, for each, its time per
    decided op weighted by the ops (:meth:`observe_latency`); readers
    pull :meth:`snapshot` (JSON-safe dict for ``stats``/``/healthz``)
    or :meth:`export_gauges` (Prometheus burn-rate series).
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic):
        self._latency = RollingHistogram(window=WINDOW_SECONDS, clock=clock)
        self._requests = RollingCounter(window=WINDOW_SECONDS, clock=clock)

    # ------------------------------------------------------------ feed

    def observe_latency(self, seconds: float, ops: int = 1) -> None:
        """One request that decided ``ops`` ops, each taking
        ``seconds``: the objective is per op, whatever the frame size."""
        self._latency.observe(seconds, ops)

    def record_request(self) -> None:
        self._requests.inc()

    # ------------------------------------------------------------ read

    def measured(self) -> Dict[str, float]:
        return {
            "p50_ms": self._latency.quantile(0.50) * 1e3,
            "p99_ms": self._latency.quantile(0.99) * 1e3,
            "requests": float(self._requests.total()),
        }

    def snapshot(self) -> Dict[str, Any]:
        m = self.measured()
        burn_rates = {
            "p50": m["p50_ms"] / P50_MS,
            "p99": m["p99_ms"] / P99_MS,
        }
        return {
            "window_seconds": WINDOW_SECONDS,
            "requests": int(m["requests"]),
            "p50_ms": m["p50_ms"],
            "p99_ms": m["p99_ms"],
            "targets": {"p50_ms": P50_MS, "p99_ms": P99_MS},
            "burn_rates": burn_rates,
            "breaching": any(b > 1.0 for b in burn_rates.values()),
        }

    def export_gauges(self, registry: MetricsRegistry) -> None:
        """Publish burn rates and measured quantiles as gauges."""
        m = self.measured()
        for objective, measured_v, target in (
            ("p50", m["p50_ms"], P50_MS),
            ("p99", m["p99_ms"], P99_MS),
        ):
            registry.gauge(
                "repro_slo_burn_rate", objective=objective
            ).set(measured_v / target)
        registry.gauge(
            "repro_slo_latency_ms", quantile="0.5"
        ).set(m["p50_ms"])
        registry.gauge(
            "repro_slo_latency_ms", quantile="0.99"
        ).set(m["p99_ms"])
