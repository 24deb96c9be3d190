"""Deterministic, seedable fault schedules.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent`
records — link down/up, router down, controller crash/restore — at
simulated timestamps.  Schedules are plain data: buildable by hand,
generated pseudo-randomly from a seed (:func:`random_fault_schedule`),
and serializable to/from JSON so a chaos scenario can be archived and
replayed bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import FaultInjectionError
from ..topology.network import Network

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "random_fault_schedule",
]

#: Recognized fault kinds and their target shapes.
FAULT_KINDS = (
    "link_down",          # target: (u, v) physical link
    "link_up",            # target: (u, v), must be currently down
    "router_down",        # target: router name (all incident links die)
    "controller_crash",   # target: None
    "controller_restore",  # target: None
)

_LINK_KINDS = ("link_down", "link_up")
_CONTROLLER_KINDS = ("controller_crash", "controller_restore")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault at a simulated timestamp.

    ``target`` is a ``(u, v)`` router pair for link events, a router
    name for ``router_down``, and ``None`` for controller events.
    """

    time: float
    kind: str
    target: object = None

    def __post_init__(self):
        if self.time < 0:
            raise FaultInjectionError(
                f"fault time must be >= 0, got {self.time}"
            )
        if self.kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if self.kind in _LINK_KINDS:
            if (
                not isinstance(self.target, (tuple, list))
                or len(self.target) != 2
            ):
                raise FaultInjectionError(
                    f"{self.kind} target must be a (u, v) link, "
                    f"got {self.target!r}"
                )
            object.__setattr__(self, "target", tuple(self.target))
        elif self.kind == "router_down":
            if self.target is None:
                raise FaultInjectionError(
                    "router_down target must name a router"
                )
        elif self.target is not None:
            raise FaultInjectionError(
                f"{self.kind} takes no target, got {self.target!r}"
            )

    @property
    def link(self) -> Tuple[Hashable, Hashable]:
        if self.kind not in _LINK_KINDS:
            raise FaultInjectionError(f"{self.kind} has no link target")
        return self.target  # type: ignore[return-value]

    def to_dict(self) -> Dict[str, object]:
        target: object = self.target
        if self.kind in _LINK_KINDS:
            target = list(self.target)  # type: ignore[arg-type]
        return {"time": self.time, "kind": self.kind, "target": target}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultEvent":
        return cls(
            time=float(data["time"]),  # type: ignore[arg-type]
            kind=str(data["kind"]),
            target=data.get("target"),
        )


class FaultSchedule:
    """A time-ordered, validated list of fault events.

    Validation enforces the invariants the chaos harness relies on:
    events sorted by time (ties keep insertion order), ``link_up`` only
    for links previously taken down, no double-down/double-crash, and —
    when a :class:`Network` is given — link and router targets that
    exist in the topology.
    """

    def __init__(
        self,
        events: Sequence[FaultEvent],
        *,
        network: Optional[Network] = None,
    ):
        ordered = sorted(
            enumerate(events), key=lambda pair: (pair[1].time, pair[0])
        )
        self.events: List[FaultEvent] = [e for _, e in ordered]
        self._validate(network)

    # ------------------------------------------------------------------ #

    def _validate(self, network: Optional[Network]) -> None:
        down_links: set = set()
        down_routers: set = set()
        controller_up = True
        for event in self.events:
            if network is not None:
                self._validate_target(event, network)
            if event.kind == "link_down":
                key = frozenset(event.link)
                if key in down_links:
                    raise FaultInjectionError(
                        f"link {event.target!r} taken down twice "
                        f"(t={event.time})"
                    )
                down_links.add(key)
            elif event.kind == "link_up":
                key = frozenset(event.link)
                if key not in down_links:
                    raise FaultInjectionError(
                        f"link_up for {event.target!r} at t={event.time} "
                        "without a preceding link_down"
                    )
                down_links.discard(key)
            elif event.kind == "router_down":
                if event.target in down_routers:
                    raise FaultInjectionError(
                        f"router {event.target!r} taken down twice"
                    )
                down_routers.add(event.target)
            elif event.kind == "controller_crash":
                if not controller_up:
                    raise FaultInjectionError(
                        f"controller crashed twice (t={event.time})"
                    )
                controller_up = False
            elif event.kind == "controller_restore":
                if controller_up:
                    raise FaultInjectionError(
                        f"controller_restore at t={event.time} without "
                        "a preceding crash"
                    )
                controller_up = True

    @staticmethod
    def _validate_target(event: FaultEvent, network: Network) -> None:
        if event.kind in _LINK_KINDS:
            u, v = event.link
            if not network.has_link(u, v):
                raise FaultInjectionError(
                    f"{event.kind} targets unknown link {u!r} -- {v!r}"
                )
        elif event.kind == "router_down":
            if not network.has_router(event.target):
                raise FaultInjectionError(
                    f"router_down targets unknown router {event.target!r}"
                )

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __getitem__(self, index: int) -> FaultEvent:
        return self.events[index]

    @property
    def horizon(self) -> float:
        """Time of the last event (0.0 when empty)."""
        return self.events[-1].time if self.events else 0.0

    def topology_kinds(self) -> List[FaultEvent]:
        """The events that change the topology (link/router faults)."""
        return [
            e for e in self.events if e.kind not in _CONTROLLER_KINDS
        ]

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro-fault-schedule/v1",
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, object],
        *,
        network: Optional[Network] = None,
    ) -> "FaultSchedule":
        schema = data.get("schema")
        if schema != "repro-fault-schedule/v1":
            raise FaultInjectionError(
                f"unsupported fault-schedule schema {schema!r}"
            )
        events = [
            FaultEvent.from_dict(e)
            for e in data["events"]  # type: ignore[union-attr]
        ]
        return cls(events, network=network)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(
        cls, path: str, *, network: Optional[Network] = None
    ) -> "FaultSchedule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), network=network)


#: Mean (seconds) of the exponential time a random link failure lasts.
MEAN_DOWNTIME = 0.5


def random_fault_schedule(
    network: Network,
    *,
    seed: int,
    horizon: float,
    link_failures: int = 1,
) -> FaultSchedule:
    """A seeded pseudo-random link-failure schedule.

    Draws ``link_failures`` distinct links (never cutting the network in
    two: candidates whose removal disconnects the topology are skipped),
    fails each at a uniform time in ``(0, horizon)`` and restores it an
    Exp(``MEAN_DOWNTIME``) later (capped at the horizon; a repair past
    the horizon is dropped, leaving the link down).  The same
    ``(network, seed, link_failures)`` always yields the same schedule.
    """
    if horizon <= 0:
        raise FaultInjectionError("horizon must be positive")
    rng = np.random.default_rng(seed)
    links = sorted(
        {tuple(sorted(link.key, key=str)) for link in network.directed_links()}
    )
    events: List[FaultEvent] = []

    safe_links = [
        (u, v)
        for u, v in links
        if _removal_keeps_connected(network, u, v)
    ]
    if link_failures > len(safe_links):
        raise FaultInjectionError(
            f"cannot draw {link_failures} safely removable links "
            f"(only {len(safe_links)} available)"
        )
    if link_failures:
        chosen = rng.choice(
            len(safe_links), size=link_failures, replace=False
        )
        for idx in sorted(int(i) for i in chosen):
            u, v = safe_links[idx]
            down = float(rng.uniform(0.05 * horizon, 0.75 * horizon))
            up = down + float(rng.exponential(MEAN_DOWNTIME))
            events.append(FaultEvent(down, "link_down", (u, v)))
            if up < horizon:
                events.append(FaultEvent(up, "link_up", (u, v)))

    return FaultSchedule(events, network=network)


def _removal_keeps_connected(
    network: Network, u: Hashable, v: Hashable
) -> bool:
    try:
        network.without_link(u, v)
    except Exception:
        return False
    return True
