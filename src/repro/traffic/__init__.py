"""Traffic substrate: envelopes, classes, flows, static demand."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .classes import (
        BEST_EFFORT_PRIORITY,
        ClassRegistry,
        TrafficClass,
        class_from_tspec,
    )
    from .conformance import ConformanceReport, check_conformance
    from .envelope import (
        Envelope,
        constant_rate_envelope,
        leaky_bucket_envelope,
        tspec_envelope,
    )
    from .flows import FlowSet, FlowSpec, fresh_flow_id
    from .generators import (
        all_ordered_pairs,
        data_class,
        gravity_demand,
        random_pairs,
        uniform_flow_demand,
        video_class,
        voice_class,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".classes": (
        "BEST_EFFORT_PRIORITY", "ClassRegistry", "TrafficClass",
        "class_from_tspec",
    ),
    ".conformance": ("ConformanceReport", "check_conformance"),
    ".envelope": (
        "Envelope", "constant_rate_envelope", "leaky_bucket_envelope",
        "tspec_envelope",
    ),
    ".flows": ("FlowSet", "FlowSpec", "fresh_flow_id"),
    ".generators": (
        "all_ordered_pairs", "data_class", "gravity_demand", "random_pairs",
        "uniform_flow_demand", "video_class", "voice_class",
    ),
})
