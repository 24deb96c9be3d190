"""Degraded-mode constants and the retry policy for graceful degradation.

When a failure leaves no *verified* repair (the Section 5.2 selector
cannot re-route every casualty safely at the configured ``alpha``), the
chaos harness falls back to uncertified shortest-path reroutes admitted
under a reduced effective utilization — :data:`ALPHA_FACTOR` says how
much to reduce — and re-admissions that are rejected (no slots free yet
on the fallback path) retry with exponential backoff — :data:`BACKOFF`
says when, and when to give up and shed the flow.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FaultInjectionError

__all__ = ["BackoffPolicy"]


#: Each retry waits this many times longer than the one before.
BACKOFF_FACTOR = 2.0

#: Scale of every verified alpha while degraded: the controller admits
#: against the exact slots of ``ALPHA_FACTOR * alpha`` (0.5: about half
#: the verified slots).  Uncertified reroutes are only tolerable under
#: a conservative load ceiling.
ALPHA_FACTOR = 0.5
#: Simulated seconds between a failure and its repair taking effect
#: (detection + recomputation time): re-admissions happen at
#: ``failure_time + REPAIR_LATENCY``.
REPAIR_LATENCY = 0.02


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff-and-retry for rejected re-admissions.

    Attempt ``k`` (0-based) is retried ``base * BACKOFF_FACTOR**k``
    simulated seconds after the rejection; after ``max_retries``
    rejections the flow is shed for good.
    """

    base: float = 0.05
    max_retries: int = 4

    def __post_init__(self):
        if self.base <= 0:
            raise FaultInjectionError("backoff base must be positive")
        if self.max_retries < 0:
            raise FaultInjectionError("max_retries must be >= 0")

    def delay(self, attempt: int) -> float:
        """Wait before retry number ``attempt`` (0-based)."""
        return self.base * BACKOFF_FACTOR ** attempt


#: Retry schedule of the chaos harness's rejected re-admissions.
BACKOFF = BackoffPolicy()
