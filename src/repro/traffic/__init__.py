"""Traffic substrate: envelopes, classes, flows, pair demand."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .classes import BEST_EFFORT_PRIORITY, ClassRegistry, TrafficClass
    from .envelope import Envelope, leaky_bucket_envelope
    from .flows import FlowSpec, fresh_flow_id
    from .generators import all_ordered_pairs, video_class, voice_class

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".classes": ("BEST_EFFORT_PRIORITY", "ClassRegistry", "TrafficClass"),
    ".envelope": ("Envelope", "leaky_bucket_envelope"),
    ".flows": ("FlowSpec", "fresh_flow_id"),
    ".generators": ("all_ordered_pairs", "video_class", "voice_class"),
})
