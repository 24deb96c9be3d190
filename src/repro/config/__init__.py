"""Configuration procedures: Theorem 4 bounds, verification, route
selection and utilization maximization (Section 5)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .bounds import (
        UtilizationBounds,
        theorem4_lower_bound,
        theorem4_upper_bound,
        utilization_bounds,
    )
    from .maximize import (
        DEFAULT_RESOLUTION,
        MaximizationResult,
        bisect_alpha,
        critical_alpha,
        max_utilization_heuristic,
        max_utilization_shortest_path,
    )
    from .configured import ConfiguredNetwork, configure
    from .repair import RepairResult, repair_after_link_failure
    from .procedures import (
        MulticlassScaleResult,
        maximize_multiclass_scale,
        verify_safe_assignment,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".bounds": (
        "UtilizationBounds", "theorem4_lower_bound", "theorem4_upper_bound",
        "utilization_bounds",
    ),
    ".maximize": (
        "DEFAULT_RESOLUTION", "MaximizationResult", "bisect_alpha",
        "critical_alpha", "max_utilization_heuristic",
        "max_utilization_shortest_path",
    ),
    ".configured": ("ConfiguredNetwork", "configure"),
    ".repair": ("RepairResult", "repair_after_link_failure"),
    ".procedures": (
        "MulticlassScaleResult", "maximize_multiclass_scale",
        "verify_safe_assignment",
    ),
})
