"""Flow specifications and flow collections.

A *flow* (paper, Section 3) is a unidirectional packet stream between two
edge routers, belonging to one traffic class, following a single route.  The
run-time admission controller and the flow-aware baseline both operate on
:class:`FlowSpec` records; :class:`FlowSet` groups them for the analysis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import TrafficError

__all__ = [
    "FlowSpec",
    "FlowSet",
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


_flow_counter = itertools.count(1)


def fresh_flow_id() -> int:
    """Monotonic flow identifier for interactively created flows."""
    return next(_flow_counter)


@dataclass(frozen=True)
class FlowSpec:
    """One unidirectional flow request.

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
            if len(route) < 2:
                raise TrafficError(
                    f"flow {self.flow_id!r}: route must have >= 2 routers"
                )
            if route[0] != self.source or route[-1] != self.destination:
                raise TrafficError(
                    f"flow {self.flow_id!r}: route endpoints "
                    f"{route[0]!r}..{route[-1]!r} do not match "
                    f"{self.source!r}->{self.destination!r}"
                )
            if len(set(route)) != len(route):
                raise TrafficError(
                    f"flow {self.flow_id!r}: route visits a router twice"
                )
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


class FlowSet:
    """A collection of flows with per-class and per-pair indexing."""

    def __init__(self, flows: Optional[Iterable[FlowSpec]] = None):
        self._flows: Dict[Hashable, FlowSpec] = {}
        for f in flows or []:
            self.add(f)

    def add(self, flow: FlowSpec) -> None:
        if flow.flow_id in self._flows:
            raise TrafficError(f"duplicate flow id {flow.flow_id!r}")
        self._flows[flow.flow_id] = flow

    def remove(self, flow_id: Hashable) -> FlowSpec:
        try:
            return self._flows.pop(flow_id)
        except KeyError:
            raise TrafficError(f"unknown flow id {flow_id!r}") from None

    def __contains__(self, flow_id: Hashable) -> bool:
        return flow_id in self._flows

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[FlowSpec]:
        return iter(self._flows.values())

    def get(self, flow_id: Hashable) -> FlowSpec:
        try:
            return self._flows[flow_id]
        except KeyError:
            raise TrafficError(f"unknown flow id {flow_id!r}") from None

    def by_class(self) -> Dict[str, List[FlowSpec]]:
        out: Dict[str, List[FlowSpec]] = {}
        for f in self:
            out.setdefault(f.class_name, []).append(f)
        return out

    def by_pair(self) -> Dict[Tuple[Hashable, Hashable], List[FlowSpec]]:
        out: Dict[Tuple[Hashable, Hashable], List[FlowSpec]] = {}
        for f in self:
            out.setdefault(f.pair, []).append(f)
        return out

    def count_class(self, class_name: str) -> int:
        return sum(1 for f in self if f.class_name == class_name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlowSet(n={len(self)})"
