"""Canned chaos scenarios: flow schedules over configured pairs.

:func:`poisson_flow_schedule` in :mod:`repro.traffic.generators` draws
source/destination pairs from *all* edge routers, but a chaos run admits
against a :class:`~repro.config.configured.ConfiguredNetwork` whose
route map covers a fixed pair set.  The helpers here generate schedules
restricted to those pairs, plus a default deterministic link-failure
scenario (fail the most-loaded configured link mid-run, restore it
later) used by the ``repro faults`` CLI and the chaos tests.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

import numpy as np

from ..config.configured import ConfiguredNetwork
from ..errors import FaultInjectionError
from ..traffic.flows import FlowSpec
from ..traffic.generators import FlowEvent
from ..workload.adversarial import AdversaryModel, adversarial_events
from .schedule import FaultEvent, FaultSchedule

__all__ = [
    "adversarial_flow_schedule",
    "configured_flow_schedule",
    "most_loaded_link",
    "default_link_failure_scenario",
]


def configured_flow_schedule(
    cfg: ConfiguredNetwork,
    class_name: str,
    *,
    arrival_rate: float,
    mean_holding: float,
    horizon: float,
    seed: int,
) -> List[FlowEvent]:
    """Poisson arrivals restricted to the configuration's pair set.

    Flows arrive at ``arrival_rate`` flows/second between pairs drawn
    uniformly from ``cfg.routes`` and hold for Exp(``mean_holding``)
    seconds.  Departures past the horizon are kept so every arrival has
    a matching departure.  Deterministic in ``(cfg, seed, parameters)``.
    """
    if arrival_rate <= 0 or mean_holding <= 0 or horizon <= 0:
        raise FaultInjectionError(
            "arrival_rate, mean_holding and horizon must be positive"
        )
    cfg.registry.get(class_name)  # raises for unknown classes
    pairs = sorted(cfg.routes, key=str)
    rng = np.random.default_rng(seed)
    events: List[FlowEvent] = []
    t = 0.0
    k = 0
    while True:
        t += float(rng.exponential(1.0 / arrival_rate))
        if t >= horizon:
            break
        src, dst = pairs[int(rng.integers(len(pairs)))]
        flow = FlowSpec(
            flow_id=f"c{seed}_{k}",
            class_name=class_name,
            source=src,
            destination=dst,
        )
        hold = float(rng.exponential(mean_holding))
        events.append(FlowEvent(time=t, kind="arrival", flow=flow))
        events.append(
            FlowEvent(time=t + hold, kind="departure", flow=flow)
        )
        k += 1
    events.sort(
        key=lambda e: (e.time, 0 if e.kind == "departure" else 1)
    )
    return events


def adversarial_flow_schedule(
    cfg: ConfiguredNetwork,
    class_name: str,
    *,
    horizon: float,
    seed: int,
    model: Optional[AdversaryModel] = None,
    hot_edges: int = 1,
    churn_fraction: float = 0.5,
) -> List[FlowEvent]:
    """Extremal ``(w, b)``-bounded arrivals over the configured pairs.

    The chaos-harness twin of :func:`configured_flow_schedule`: instead
    of Poisson arrivals it drives the adversarial engine
    (:func:`repro.workload.adversarial_events`) against the
    configuration's own route table — synchronized bursts flush against
    the envelope, aimed at the hottest configured link servers, with
    thundering-herd releases timed onto the next burst — so fault
    transitions land while admission pressure is at its worst-case
    shape, not its average.  The generator validates its stream at
    construction (never releasing a flow that never arrived, envelope
    respected), mirroring :func:`~repro.faults.random_fault_schedule`'s
    construction-time guard.  Departures past the horizon are kept so
    every arrival has a matching departure.  Deterministic in
    ``(cfg, seed, parameters)``.
    """
    if horizon <= 0:
        raise FaultInjectionError("horizon must be positive")
    model = model or AdversaryModel()
    cfg.registry.get(class_name)  # raises for unknown classes
    num_flows = max(
        1, int(math.ceil(model.rate * horizon)) + model.burst
    )
    events = adversarial_events(
        cfg.graph,
        cfg.routes,
        class_name,
        num_flows=num_flows,
        model=model,
        seed=seed,
        hot_edges=hot_edges,
        churn_fraction=churn_fraction,
        id_prefix="advc",
    )
    keep = {
        e.flow_id
        for e in events
        if e.kind == "arrival" and e.time < horizon
    }
    flows: Dict[Hashable, FlowSpec] = {}
    out: List[FlowEvent] = []
    for event in events:
        if event.flow_id not in keep:
            continue
        if event.kind == "arrival":
            flow = flows[event.flow_id] = event.flow
            out.append(
                FlowEvent(time=event.time, kind="arrival", flow=flow)
            )
        else:
            out.append(
                FlowEvent(
                    time=event.time,
                    kind="departure",
                    flow=flows[event.flow_id],
                )
            )
    return out


def most_loaded_link(
    cfg: ConfiguredNetwork,
) -> Tuple[Hashable, Hashable]:
    """The physical link crossed by the most configured routes.

    Ties break lexicographically, so the choice is deterministic.  This
    is the natural worst-case single failure for a configuration: it
    strands the largest number of routes at once.
    """
    load: Dict[FrozenSet[Hashable], int] = {}
    for path in cfg.routes.values():
        for u, v in zip(path, path[1:]):
            key = frozenset((u, v))
            load[key] = load.get(key, 0) + 1
    if not load:
        raise FaultInjectionError("configuration has no routes")
    best = sorted(
        load.items(),
        key=lambda item: (
            -item[1],
            tuple(sorted(str(x) for x in item[0])),
        ),
    )[0][0]
    return tuple(sorted(best, key=str))  # type: ignore[return-value]


def default_link_failure_scenario(
    cfg: ConfiguredNetwork,
    *,
    horizon: float = 2.0,
    down_at: float = 0.6,
    up_at: float = 1.4,
) -> FaultSchedule:
    """Fail the most-loaded configured link mid-run, restore it later."""
    if not (0 <= down_at < up_at <= horizon):
        raise FaultInjectionError(
            f"need 0 <= down_at < up_at <= horizon, got "
            f"down_at={down_at}, up_at={up_at}, horizon={horizon}"
        )
    link = most_loaded_link(cfg)
    return FaultSchedule(
        [
            FaultEvent(down_at, "link_down", link),
            FaultEvent(up_at, "link_up", link),
        ],
        network=cfg.network,
    )
