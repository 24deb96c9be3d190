"""Traffic classes and the class registry.

Following the DiffServ model of the paper (Section 3), flows are partitioned
into a small number of classes.  Each class carries

* a leaky-bucket source envelope ``(T_i, rho_i)``,
* an end-to-end deadline ``D_i`` (infinity for best-effort),
* a static priority (smaller number = served first).

A :class:`ClassRegistry` holds the classes of one network configuration,
orders them by priority and validates uniqueness.  The registry is the unit
handed to the configuration procedures and the admission controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ..errors import ClassRegistryError, TrafficError

if TYPE_CHECKING:
    from .envelope import Envelope

__all__ = [
    "TrafficClass",
    "ClassRegistry",
    "BEST_EFFORT_PRIORITY",
]

#: Conventional priority for the best-effort class (lowest service priority).
BEST_EFFORT_PRIORITY = 1_000_000


@dataclass(frozen=True)
class TrafficClass:
    """One DiffServ class.

    Parameters
    ----------
    name:
        Unique class name, e.g. ``"voice"``.
    burst:
        Leaky-bucket depth ``T`` in bits (> 0 for real-time classes).
    rate:
        Leaky-bucket sustained rate ``rho`` in bits/second (> 0 for
        real-time classes).
    deadline:
        End-to-end deadline ``D`` in seconds; ``math.inf`` marks a
        best-effort class.
    priority:
        Static priority; smaller = higher.  Real-time classes must have
        priorities above every best-effort class.
    """

    name: str
    burst: float
    rate: float
    deadline: float
    priority: int

    def __post_init__(self):
        if not self.name:
            raise TrafficError("class name must be non-empty")
        if self.deadline <= 0:
            raise TrafficError(
                f"class {self.name!r}: deadline must be positive"
            )
        if self.is_realtime:
            if self.burst <= 0:
                raise TrafficError(
                    f"class {self.name!r}: real-time burst must be positive"
                )
            if self.rate <= 0:
                raise TrafficError(
                    f"class {self.name!r}: real-time rate must be positive"
                )
        else:
            if self.burst < 0 or self.rate < 0:
                raise TrafficError(
                    f"class {self.name!r}: burst/rate must be non-negative"
                )

    @property
    def is_realtime(self) -> bool:
        """True for deadline-guaranteed classes."""
        return math.isfinite(self.deadline)

    def envelope(self, line_rate: Optional[float] = None) -> Envelope:
        """The source traffic constraint function of one flow of this class."""
        # Only the network-calculus analyses call this; a served process
        # never does.
        from .envelope import leaky_bucket_envelope

        return leaky_bucket_envelope(self.burst, self.rate, line_rate)

    @staticmethod
    def best_effort() -> "TrafficClass":
        """A conventional best-effort class (no envelope, no deadline)."""
        return TrafficClass(
            name="best-effort",
            burst=0.0,
            rate=0.0,
            deadline=math.inf,
            priority=BEST_EFFORT_PRIORITY,
        )


class ClassRegistry:
    """Ordered collection of the traffic classes of one configuration.

    Classes are kept sorted by priority (highest first).  Real-time classes
    must occupy strictly higher priorities than best-effort classes —
    the paper's scheduling model gives deadline traffic absolute priority
    over best-effort traffic.
    """

    def __init__(self, classes: Optional[List[TrafficClass]] = None):
        self._by_name: Dict[str, TrafficClass] = {}
        for cls in classes or []:
            self.add(cls)

    def add(self, cls: TrafficClass) -> None:
        if cls.name in self._by_name:
            raise ClassRegistryError(f"duplicate class name {cls.name!r}")
        if any(c.priority == cls.priority for c in self._by_name.values()):
            raise ClassRegistryError(
                f"duplicate priority {cls.priority} (class {cls.name!r})"
            )
        self._by_name[cls.name] = cls
        self._validate_priorities()

    def _validate_priorities(self) -> None:
        rt = [c.priority for c in self.realtime_classes()]
        be = [c.priority for c in self.best_effort_classes()]
        if rt and be and max(rt) >= min(be):
            raise ClassRegistryError(
                "real-time classes must have strictly higher priority "
                "(smaller number) than best-effort classes"
            )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self) -> Iterator[TrafficClass]:
        return iter(self.ordered())

    def get(self, name: str) -> TrafficClass:
        try:
            return self._by_name[name]
        except KeyError:
            raise ClassRegistryError(f"unknown class {name!r}") from None

    def ordered(self) -> List[TrafficClass]:
        """All classes, highest priority first."""
        return sorted(self._by_name.values(), key=lambda c: c.priority)

    def realtime_classes(self) -> List[TrafficClass]:
        """Real-time classes, highest priority first."""
        return [c for c in self.ordered() if c.is_realtime]

    def best_effort_classes(self) -> List[TrafficClass]:
        return [c for c in self.ordered() if not c.is_realtime]

    def names(self) -> List[str]:
        return [c.name for c in self.ordered()]

    # ------------------------------------------------------------------ #
    # convenience constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def two_class(cls, realtime: TrafficClass) -> "ClassRegistry":
        """The paper's base model: one real-time class + best-effort."""
        return cls([realtime, TrafficClass.best_effort()])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClassRegistry({[c.name for c in self.ordered()]})"
