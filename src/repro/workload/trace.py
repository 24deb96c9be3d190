"""Compact JSON-lines workload traces (record / replay).

Format: a header object followed by one event object per line.

.. code-block:: text

   {"meta":{...},"schema":"repro-workload-trace/v1"}
   {"cls":"voice","dst":"B","id":"w7_0","k":"a","src":"A","t":0.01}
   {"id":"w7_0","k":"d","t":1.23}

Serialization is canonical — sorted keys, no whitespace — so the same
event stream always produces a byte-identical file; the determinism
tests rely on it.  Python's float repr round-trips exactly, so replayed
times equal recorded ones bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (
    IO,
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..errors import TrafficError
from ..traffic.flows import PRIORITIES, FlowSpec

__all__ = [
    "TRACE_SCHEMA",
    "TraceEvent",
    "merge_events",
    "read_trace",
    "trace_lines",
    "write_trace",
]

TRACE_SCHEMA = "repro-workload-trace/v1"

_KINDS = {"arrival": "a", "departure": "d"}
_KIND_NAMES = {v: k for k, v in _KINDS.items()}


@dataclass(frozen=True)
class TraceEvent:
    """One workload event: a flow arrival or departure.

    ``priority`` is the optional overload-control priority of an
    arrival (serialized as ``pri``); traces without priorities stay
    byte-identical to pre-priority recordings.
    """

    time: float
    kind: str  # "arrival" | "departure"
    flow_id: Hashable
    class_name: Optional[str] = None
    source: Optional[Hashable] = None
    destination: Optional[Hashable] = None
    route: Optional[Tuple[Hashable, ...]] = None
    priority: Optional[str] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise TrafficError(f"unknown event kind {self.kind!r}")
        if self.priority is not None and self.priority not in PRIORITIES:
            raise TrafficError(
                f"unknown priority {self.priority!r} on event "
                f"{self.flow_id!r} (expected one of {PRIORITIES})"
            )
        if self.kind == "arrival" and (
            self.class_name is None
            or self.source is None
            or self.destination is None
        ):
            raise TrafficError(
                f"arrival event {self.flow_id!r} needs class, source "
                "and destination"
            )

    @property
    def flow(self) -> FlowSpec:
        """The flow request an arrival event describes."""
        return FlowSpec(
            flow_id=self.flow_id,
            class_name=self.class_name,
            source=self.source,
            destination=self.destination,
            route=self.route,
            priority=self.priority,
        )

    @classmethod
    def arrival(cls, time: float, flow: FlowSpec) -> "TraceEvent":
        """The arrival of ``flow`` at ``time`` (inverse of :attr:`flow`)."""
        return cls(
            time, "arrival", flow.flow_id, flow.class_name,
            flow.source, flow.destination, flow.route, flow.priority,
        )

    @classmethod
    def departure(cls, time: float, flow_id: Hashable) -> "TraceEvent":
        """The departure of flow ``flow_id`` at ``time``."""
        return cls(time, "departure", flow_id)


def merge_events(events: Iterable[TraceEvent]) -> List[TraceEvent]:
    """The events as one timeline: sorted by time, departures first at
    equal times (a slot freed at *t* is available to an arrival at the
    same instant), then insertion order — fully deterministic."""
    return sorted(events, key=lambda e: (e.time, e.kind != "departure"))


def _event_obj(event: TraceEvent) -> Dict[str, Any]:
    obj: Dict[str, Any] = {
        "t": float(event.time),
        "k": _KINDS[event.kind],
        "id": event.flow_id,
    }
    if event.kind == "arrival":
        obj.update(event.flow.to_obj())
    return obj


def trace_lines(
    events: Iterable[TraceEvent],
    meta: Optional[Dict[str, Any]] = None,
) -> Iterator[str]:
    """Canonical trace serialization, one string per line (no newline)."""
    dumps = json.dumps
    yield dumps(
        {"schema": TRACE_SCHEMA, "meta": meta or {}},
        sort_keys=True,
        separators=(",", ":"),
    )
    for event in events:
        yield dumps(
            _event_obj(event), sort_keys=True, separators=(",", ":")
        )


def write_trace(
    path_or_file: Union[str, IO[str]],
    events: Iterable[TraceEvent],
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a canonical JSON-lines trace file."""
    if hasattr(path_or_file, "write"):
        for line in trace_lines(events, meta):
            path_or_file.write(line + "\n")
        return
    with open(path_or_file, "w", encoding="utf-8") as fh:
        for line in trace_lines(events, meta):
            fh.write(line + "\n")


def _parse_event(obj: Dict[str, Any], lineno: int) -> TraceEvent:
    try:
        if _KIND_NAMES[obj["k"]] == "arrival":
            return TraceEvent.arrival(
                float(obj["t"]), FlowSpec.from_obj(obj)
            )
        return TraceEvent.departure(float(obj["t"]), obj["id"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TrafficError(
            f"malformed trace event on line {lineno}: {exc}"
        ) from None


def read_trace(
    path_or_file: Union[str, IO[str]],
) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    """Load a trace; returns ``(meta, events)``."""
    if hasattr(path_or_file, "read"):
        return _read(path_or_file)
    with open(path_or_file, "r", encoding="utf-8") as fh:
        return _read(fh)


def _read(fh: IO[str]) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    header_line = fh.readline()
    if not header_line.strip():
        raise TrafficError("empty trace file")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise TrafficError(f"malformed trace header: {exc}") from None
    if header.get("schema") != TRACE_SCHEMA:
        raise TrafficError(
            f"unsupported trace schema {header.get('schema')!r} "
            f"(expected {TRACE_SCHEMA!r})"
        )
    events: List[TraceEvent] = []
    for lineno, line in enumerate(fh, start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TrafficError(
                f"malformed trace event on line {lineno}: {exc}"
            ) from None
        events.append(_parse_event(obj, lineno))
    return header.get("meta", {}), events
