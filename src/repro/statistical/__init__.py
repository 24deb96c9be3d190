"""Statistical guarantees extension (the paper's Section 7 outlook).

Empirical delay distributions from simulator replications, and calibrated
overbooking: trade the deterministic hard guarantee for measured capacity
at a bounded deadline-miss probability.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .empirical import DelayDistribution, estimate_delay_distribution
    from .overbooking import (
        CalibrationResult,
        OverbookedAdmissionController,
        calibrate_overbooking,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".empirical": ("DelayDistribution", "estimate_delay_distribution"),
    ".overbooking": (
        "CalibrationResult", "OverbookedAdmissionController",
        "calibrate_overbooking",
    ),
})
