"""Event queue for the discrete-event engine.

A thin, safe wrapper over :mod:`heapq`: events are ``(time, seq, kind,
payload)`` tuples where ``seq`` is a monotonically increasing sequence
number that (a) breaks time ties deterministically in insertion order and
(b) keeps the heap comparison away from arbitrary payload objects.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Iterator, Tuple

from ..errors import SimulationError

__all__ = ["EventQueue"]

Event = Tuple[float, int, str, Any]


class EventQueue:
    """Deterministic min-heap of timestamped events."""

    def __init__(self):
        self._heap: list = []
        self._seq = itertools.count()
        self._last_popped = float("-inf")

    def push(self, time: float, kind: str, payload: Any = None) -> None:
        """Schedule an event. Times must not precede the last popped event."""
        if time < self._last_popped:
            raise SimulationError(
                f"scheduling into the past: {time} < {self._last_popped}"
            )
        heapq.heappush(self._heap, (time, next(self._seq), kind, payload))

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        event = heapq.heappop(self._heap)
        self._last_popped = event[0]
        return event

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
