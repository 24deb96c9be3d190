"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The registry is deliberately tiny and dependency-free.  Three instrument
kinds cover everything the reproduction needs to quantify (decision
counts, established-flow population, iteration/latency distributions):

* :class:`Counter` — monotone float, ``inc()`` only;
* :class:`Gauge` — settable float, ``set()``/``inc()``/``max()``;
* :class:`Histogram` — fixed upper-bound buckets chosen at creation,
  plus running sum and count (Prometheus cumulative-bucket semantics
  are applied at export time).

Series identity is ``(name, sorted labels)``; asking the registry for an
existing series returns the same object, so call sites never cache
instrument handles.  A repeated ask is one dictionary hit on the
caller's own spelling ``(name, *labels.items())``; labels are sorted
only the first time a spelling is seen.

Everything here assumes the **enabled** path.  The zero-cost disabled
path lives in the no-op twins (:class:`NullCounter` & friends, exposed
through :data:`NULL_REGISTRY`), which share the mutation API but do
nothing; :mod:`repro.obs` hands one or the other out depending on the
module-level enabled flag.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_ITERATION_BUCKETS",
    "DEFAULT_DEPTH_BUCKETS",
]

LabelItems = Tuple[Tuple[str, str], ...]

#: Decision/solve latency buckets, in seconds (1 µs .. 10 s).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

#: Iteration-count buckets for fixed-point style loops.
DEFAULT_ITERATION_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 500, 1000, 10_000,
)

#: Queue-depth / backlog buckets (powers of four up to 64k entries),
#: used by the admission service's coalescer and backpressure gauges.
DEFAULT_DEPTH_BUCKETS: Tuple[float, ...] = (
    1, 4, 16, 64, 256, 1024, 4096, 16_384, 65_536,
)


def _label_items(labels: Mapping[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """Last-written value (population sizes, queue depths)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def max(self, value: float) -> None:
        """Keep the running maximum (high-water-mark gauges)."""
        if value > self.value:
            self.value = float(value)


class Histogram:
    """Fixed-bucket distribution with running sum and count.

    ``bucket_counts[i]`` is the number of observations in
    ``(bounds[i-1], bounds[i]]`` (non-cumulative); observations above the
    largest bound land in the implicit ``+Inf`` overflow bucket.
    """

    kind = "histogram"
    __slots__ = (
        "name", "labels", "bounds", "bucket_counts", "overflow",
        "sum", "count",
    )

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        sorted_bounds = tuple(float(b) for b in bounds)
        if not sorted_bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if list(sorted_bounds) != sorted(set(sorted_bounds)):
            raise ValueError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.name = name
        self.labels = labels
        self.bounds = sorted_bounds
        self.bucket_counts = [0] * len(sorted_bounds)
        self.overflow = 0
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` in one update (a
        batch whose members share one amortized cost)."""
        value = float(value)
        i = bisect.bisect_left(self.bounds, value)
        if i < len(self.bounds):
            self.bucket_counts[i] += count
        else:
            self.overflow += count
        self.sum += value * count
        self.count += count

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative counts, one per bound plus +Inf."""
        out: List[int] = []
        running = 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        out.append(running + self.overflow)
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")


class MetricsRegistry:
    """Get-or-create home for every metric series of the process.

    Thread-safe for creation; mutation of individual instruments is a
    single float update and relies on the GIL like the rest of the
    package.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, LabelItems], object] = {}
        self._kinds: Dict[str, str] = {}
        #: Series by the spelling a caller asked with: name, then its
        #: labels in keyword order (unsorted, unstringified).
        self._spelled: Dict[tuple, object] = {}

    # -------------------------------------------------------------- #

    def _get(self, factory, name: str, labels: Mapping[str, str], **kw):
        spelling = (name, *labels.items())
        series = self._spelled.get(spelling)
        if series is None:
            series = self._spelled[spelling] = self._canonical(
                factory, name, labels, **kw
            )
        return series

    def _canonical(
        self, factory, name: str, labels: Mapping[str, str], **kw
    ):
        items = _label_items(labels)
        key = (name, items)
        series = self._series.get(key)
        if series is not None:
            return series
        with self._lock:
            series = self._series.get(key)
            if series is not None:
                return series
            kind = factory.kind
            seen = self._kinds.get(name)
            if seen is not None and seen != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {seen}, "
                    f"cannot re-register as {kind}"
                )
            self._kinds[name] = kind
            series = factory(name, items, **kw)
            self._series[key] = series
            return series

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        *,
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        bounds = DEFAULT_LATENCY_BUCKETS if buckets is None else buckets
        return self._get(Histogram, name, labels, bounds=bounds)

    # -------------------------------------------------------------- #

    def series(self) -> List[object]:
        """Every registered instrument, name-sorted (stable exports)."""
        return [
            self._series[key] for key in sorted(self._series)
        ]

    def get(self, name: str, **labels: str):
        """Existing series or None (introspection; never creates)."""
        return self._series.get((name, _label_items(labels)))

    def reset(self) -> None:
        """Drop every series (test isolation, fresh experiment runs)."""
        with self._lock:
            self._series.clear()
            self._kinds.clear()
            self._spelled.clear()

    def __len__(self) -> int:
        return len(self._series)


# ------------------------------------------------------------------ #
# disabled path: no-op twins
# ------------------------------------------------------------------ #


class NullCounter:
    """Accepts the :class:`Counter` API and does nothing."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class NullGauge:
    """Accepts the :class:`Gauge` API and does nothing."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def max(self, value: float) -> None:
        pass


class NullHistogram:
    """Accepts the :class:`Histogram` API and does nothing."""

    kind = "histogram"
    __slots__ = ()

    def observe(self, value: float, count: int = 1) -> None:
        pass


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Registry twin handed out while observability is disabled.

    Every accessor returns a shared no-op singleton, so instrumented
    call sites that slipped past their ``enabled`` guard still cost only
    a dictionary-free method call and allocate nothing.
    """

    def counter(self, name: str, **labels: str) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: str) -> NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, **kwargs) -> NullHistogram:
        return _NULL_HISTOGRAM

    def series(self) -> List[object]:
        return []

    def get(self, name: str, **labels: str):
        return None

    def reset(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()
