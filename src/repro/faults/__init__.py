"""Runtime fault injection and graceful degradation (:mod:`repro.faults`).

Deterministic, seedable fault schedules (link/router failures,
controller crash/restore at simulated timestamps) plus a
:class:`ChaosHarness` that replays a schedule against a running
admission co-simulation: on a topology fault it partitions the
established flows into survivors and casualties, re-routes the
casualties online through the Section 5.2 incremental repair, and falls
back to a degraded admission mode (reduced effective ``alpha``,
exponential backoff-and-retry) when no verified repair exists.  Every
run yields a deterministic :class:`TransitionReport`.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .degraded import BackoffPolicy, DegradedModePolicy
    from .harness import ChaosHarness
    from .process import (
        ClusterProcess,
        ServiceProcess,
        kill_restart_check,
        kill_worker_restart_check,
    )
    from .report import (
        FLOW_OUTCOMES,
        FlowAccount,
        TransitionRecord,
        TransitionReport,
    )
    from .scenario import (
        adversarial_flow_schedule,
        configured_flow_schedule,
        default_link_failure_scenario,
        most_loaded_link,
    )
    from .schedule import (
        FAULT_KINDS,
        FaultEvent,
        FaultSchedule,
        random_fault_schedule,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".degraded": ("BackoffPolicy", "DegradedModePolicy"),
    ".harness": ("ChaosHarness",),
    ".process": (
        "ClusterProcess", "ServiceProcess", "kill_restart_check",
        "kill_worker_restart_check",
    ),
    ".report": ("FLOW_OUTCOMES", "FlowAccount", "TransitionRecord", "TransitionReport"),
    ".scenario": (
        "adversarial_flow_schedule", "configured_flow_schedule",
        "default_link_failure_scenario", "most_loaded_link",
    ),
    ".schedule": (
        "FAULT_KINDS", "FaultEvent", "FaultSchedule", "random_fault_schedule",
    ),
})
