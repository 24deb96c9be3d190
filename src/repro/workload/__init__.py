"""Deterministic workload generation, tracing and replay.

Seeded open-loop arrival schedules (:mod:`~repro.workload.arrivals`),
Zipf-skewed pair popularity (:mod:`~repro.workload.popularity`),
``(w, b)``-bounded adversarial workloads
(:mod:`~repro.workload.adversarial`), canonical JSON-lines traces
(:mod:`~repro.workload.trace`) and the controller driver
(:mod:`~repro.workload.loadgen`) behind the ``repro-ubac loadgen`` CLI
and the admission throughput bench.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .adversarial import (
        AdversaryModel,
        adversarial_events,
        hot_servers,
        validate_adversarial_events,
    )
    from .arrivals import (
        RAMP_SHAPES,
        ArrivalSchedule,
        open_loop_schedule,
        ramp_schedule,
    )
    from .loadgen import (
        LoadgenResult,
        assign_priorities,
        drive,
        parse_priority_mix,
        poisson_flow_schedule,
        poisson_timeline,
        schedule_events,
    )
    from .popularity import ZipfPairPopularity
    from .trace import (
        TRACE_SCHEMA,
        TraceEvent,
        merge_events,
        read_trace,
        trace_lines,
        write_trace,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".adversarial": (
        "AdversaryModel", "adversarial_events", "hot_servers",
        "validate_adversarial_events",
    ),
    ".arrivals": (
        "RAMP_SHAPES", "ArrivalSchedule", "open_loop_schedule", "ramp_schedule",
    ),
    ".loadgen": (
        "LoadgenResult", "assign_priorities", "drive", "parse_priority_mix",
        "poisson_flow_schedule", "poisson_timeline", "schedule_events",
    ),
    ".popularity": ("ZipfPairPopularity",),
    ".trace": (
        "TRACE_SCHEMA", "TraceEvent", "merge_events", "read_trace",
        "trace_lines", "write_trace",
    ),
})
