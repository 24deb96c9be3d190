"""Flow specifications and their records.

A *flow* (paper, Section 3) is a unidirectional packet stream between two
edge routers, belonging to one traffic class, following a single route.  The
run-time admission controller and the flow-aware baseline both operate on
:class:`FlowSpec` records.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Any, Dict, Hashable, Mapping, Optional, Sequence, Tuple

from ..errors import TrafficError

__all__ = [
    "FlowSpec",
    "PRIORITIES",
    "PRIORITY_CODES",
    "PRIORITY_TAGS",
    "flow_from_record",
    "flow_record",
    "fresh_flow_id",
    "priority_rank",
]

#: Flow priorities, lowest first (eviction order).  Priorities are
#: orthogonal to traffic classes: the class fixes the policed envelope
#: and the slot column, the priority only matters to the overload
#: control plane (:mod:`repro.control`).  A flow without a priority
#: ranks below every named one.
PRIORITIES = ("elastic", "soft_rt", "hard_rt")

#: Flow-table tag codes for priorities (unset flows tag -1).
PRIORITY_CODES = {name: i + 1 for i, name in enumerate(PRIORITIES)}

#: The flow-table tag of everything ``FlowSpec.priority`` can be.
PRIORITY_TAGS = {None: -1, **PRIORITY_CODES}

_PRIORITY_RANKS = {name: i + 1 for i, name in enumerate(PRIORITIES)}


def priority_rank(priority: Optional[str]) -> int:
    """Total order on priorities; ``None`` (unset) ranks lowest."""
    return 0 if priority is None else _PRIORITY_RANKS[priority]


def frozen_record(cls: type) -> type:
    """``@dataclass(frozen=True, slots=True)``, spelled so that Python
    3.9 (whose ``dataclass`` has no ``slots``) builds the same class.

    The frozen dataclass is rebuilt with one slot per field and no
    ``__dict__``; equality, hashing, ``repr`` and ``replace`` are the
    dataclass's own.  An instance pickles and copies as a call of the
    class on its fields, since a frozen one cannot be restored through
    ``setattr``.
    """
    cls = dataclass(frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))
    skip = {*names, "__dict__", "__weakref__"}
    body = {k: v for k, v in cls.__dict__.items() if k not in skip}
    body.update(__slots__=names, __qualname__=cls.__qualname__, __reduce__=_reduce_record)
    return type(cls)(cls.__name__, cls.__bases__, body)


def _reduce_record(self: Any) -> tuple:
    return type(self), tuple(getattr(self, name) for name in self.__slots__)


_flow_counter = itertools.count(1)


def fresh_flow_id() -> int:
    """Monotonic flow identifier for interactively created flows."""
    return next(_flow_counter)


def route_fault(
    route: Sequence[Hashable], source: Hashable, destination: Hashable
) -> str:
    """Why ``route`` is no simple path from ``source`` to
    ``destination`` (empty when it is one): the rules a pinned and a
    configured route both keep.  Whether each hop is a link is the
    graph's to say."""
    if len(route) < 2:
        return "route must have >= 2 routers"
    if route[0] != source or route[-1] != destination:
        return (
            f"route endpoints {route[0]!r}..{route[-1]!r} do not match "
            f"{source!r}->{destination!r}"
        )
    if len(set(route)) != len(route):
        return "route visits a router twice"
    return ""


@frozen_record
class FlowSpec:
    """One unidirectional flow request.

    Slotted: a decoded frame holds one per admit until it is decided,
    and a slotted record is a quarter of one with a ``__dict__``.

    Parameters
    ----------
    flow_id:
        Unique identifier (any hashable; integers from
        :func:`fresh_flow_id` by default).
    class_name:
        Name of the flow's traffic class in the configuration's registry.
        The flow is policed to the *class* envelope at the ingress
        (homogeneous flows per class, as the paper assumes).
    source, destination:
        Edge routers.  Must differ.
    route:
        Optional router-level path pinned for this flow.  When absent, the
        configured route for ``(source, destination)`` is used.
    priority:
        Optional overload-control priority (one of :data:`PRIORITIES`).
        Ignored by plain admission; the control plane's preemption
        policy evicts lower priorities first and never a ``hard_rt``.
    """

    flow_id: Hashable
    class_name: str
    source: Hashable
    destination: Hashable
    route: Optional[Tuple[Hashable, ...]] = None
    priority: Optional[str] = None

    def __post_init__(self):
        if self.priority is not None and self.priority not in PRIORITIES:
            raise TrafficError(
                f"flow {self.flow_id!r}: unknown priority "
                f"{self.priority!r} (expected one of {PRIORITIES})"
            )
        if self.source == self.destination:
            raise TrafficError(
                f"flow {self.flow_id!r}: source equals destination "
                f"({self.source!r})"
            )
        if self.route is not None:
            route = tuple(self.route)
            fault = route_fault(route, self.source, self.destination)
            if fault:
                raise TrafficError(f"flow {self.flow_id!r}: {fault}")
            object.__setattr__(self, "route", route)

    @property
    def pair(self) -> Tuple[Hashable, Hashable]:
        return (self.source, self.destination)

    def to_obj(self) -> Dict[str, Any]:
        """Short-key form: the wire, audit-log and workload-trace idiom.

        ``route`` and ``pri`` are present only when set, so lines
        without them stay byte-identical to older recordings.
        """
        obj: Dict[str, Any] = {
            "id": self.flow_id,
            "cls": self.class_name,
            "src": self.source,
            "dst": self.destination,
        }
        if self.route is not None:
            obj["route"] = list(self.route)
        if self.priority is not None:
            obj["pri"] = self.priority
        return obj

    @classmethod
    def from_obj(cls, obj: Mapping[str, Any]) -> "FlowSpec":
        """The flow a :meth:`to_obj` object describes (the one reader);
        ``KeyError`` / ``TypeError`` on a malformed one, for the caller
        to wrap in its own error type."""
        route = obj.get("route")
        return cls(
            flow_id=obj["id"],
            class_name=obj["cls"],
            source=obj["src"],
            destination=obj["dst"],
            route=None if route is None else tuple(route),
            priority=obj.get("pri"),
        )


def flow_record(
    flow: FlowSpec, route: Optional[Sequence[Hashable]]
) -> Dict[str, Any]:
    """Snapshot record of a flow on ``route`` (its committed route).

    The one writer of the long-key form; ``priority`` is present only
    when set, so priority-less snapshots stay byte-identical to
    pre-priority ones.
    """
    record: Dict[str, Any] = {
        "flow_id": flow.flow_id,
        "class_name": flow.class_name,
        "source": flow.source,
        "destination": flow.destination,
        "route": None if route is None else list(route),
    }
    if flow.priority is not None:
        record["priority"] = flow.priority
    return record


def flow_from_record(record: Mapping[str, Any]) -> FlowSpec:
    """The flow a :func:`flow_record` describes (the one reader)."""
    try:
        route = record["route"]
        return FlowSpec(
            flow_id=record["flow_id"],
            class_name=record["class_name"],
            source=record["source"],
            destination=record["destination"],
            route=None if route is None else tuple(route),
            priority=record.get("priority"),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        what = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise TrafficError(
            f"malformed flow record {record!r}: {what}"
        ) from None

