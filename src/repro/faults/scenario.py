"""Canned chaos scenarios: flow schedules over configured pairs.

:func:`repro.workload.poisson_flow_schedule` draws source/destination
pairs from *all* edge routers, but a chaos run admits against a
:class:`~repro.config.configured.ConfiguredNetwork` whose route map
covers a fixed pair set.  The helpers here generate schedules
restricted to those pairs, plus a default deterministic link-failure
scenario (fail the most-loaded configured link mid-run, restore it
later) used by the ``repro faults`` CLI and the chaos tests.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from ..config.configured import ConfiguredNetwork
from ..errors import FaultInjectionError
from ..workload.adversarial import AdversaryModel, adversarial_events
from ..workload.loadgen import poisson_timeline
from ..workload.trace import TraceEvent
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
) -> List[TraceEvent]:
    """Poisson arrivals restricted to the configuration's pair set.

    :func:`~repro.workload.loadgen.poisson_timeline` between pairs drawn
    uniformly from ``cfg.routes`` (flow ids ``c{seed}_{k}``).
    Deterministic in ``(cfg, seed, parameters)``.
    """
    cfg.registry.get(class_name)  # raises for unknown classes
    pairs = sorted(cfg.routes, key=str)
    return poisson_timeline(
        lambda rng: pairs[int(rng.integers(len(pairs)))],
        class_name,
        arrival_rate=arrival_rate,
        mean_holding=mean_holding,
        horizon=horizon,
        seed=seed,
        id_prefix="c",
    )


def adversarial_flow_schedule(
    cfg: ConfiguredNetwork,
    class_name: str,
    *,
    horizon: float,
    seed: int,
    model: Optional[AdversaryModel] = None,
    hot_edges: int = 1,
    churn_fraction: float = 0.5,
) -> List[TraceEvent]:
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
    construction-time guard.  Only flows arriving before ``horizon``
    are kept, each with its departure (past the horizon or not).
    Deterministic in ``(cfg, seed, parameters)``.
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
    return [e for e in events if e.flow_id in keep]


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
